"""Shared test fixtures: a session-scoped simulated cloud and small
catalogs/services so individual tests stay fast."""

from __future__ import annotations

import pytest

from repro import ServiceConfig, SimulatedCloud, SpotLakeService
from repro.cloudsim import Catalog, InstanceFamily, Region

#: Small but category-complete set of instance types for service tests.
SMALL_TYPES = [
    "m5.large", "t3.micro", "c5.xlarge", "r5.2xlarge",
    "p3.2xlarge", "g4dn.xlarge", "inf1.xlarge",
    "i3.large", "d3.xlarge",
]


@pytest.fixture(scope="session")
def cloud() -> SimulatedCloud:
    """One full-catalog simulated cloud shared across read-only tests."""
    return SimulatedCloud(seed=0)


@pytest.fixture()
def fresh_cloud() -> SimulatedCloud:
    """A private cloud for tests that advance the clock or mutate state."""
    return SimulatedCloud(seed=0)


@pytest.fixture()
def small_service() -> SpotLakeService:
    """A SpotLake service restricted to a handful of instance types."""
    return SpotLakeService(ServiceConfig(seed=0, instance_types=SMALL_TYPES))


@pytest.fixture(scope="session")
def tiny_catalog() -> Catalog:
    """A two-family, two-region catalog for exhaustive assertions."""
    families = [
        InstanceFamily("m9", "M", "general", ("large", "xlarge")),
        InstanceFamily("p9", "P", "accelerated", ("2xlarge",), "gpu", 3.0),
    ]
    regions = [Region("rg-one-1", "rg", 3), Region("rg-two-1", "rg", 2)]
    return Catalog(seed=1, families=families, regions=regions)


@pytest.fixture()
def conc_sanitizer():
    """Run the test body under the runtime concurrency sanitizer.

    Teardown asserts the sanitizer observed no lock-order cycles and no
    unguarded off-owner shared writes, so a test using this fixture is
    itself the concurrency contract.
    """
    from repro.core.plan_cache import PlanCache
    from repro.devtools.reporters import render_text
    from repro.devtools.sanitizer import ConcurrencySanitizer

    PlanCache.reset_shared()
    sanitizer = ConcurrencySanitizer()
    sanitizer.install()
    try:
        yield sanitizer
    finally:
        sanitizer.uninstall()
        PlanCache.reset_shared()
    result = sanitizer.result()
    assert result.clean, "\n" + render_text(result)


@pytest.fixture(autouse=True)
def _spotconc_autosanitize():
    """Whole-suite sanitizer sweep, gated on SPOTCONC_SANITIZE=1.

    CI's ``test`` job runs tier-1 once with the sanitizer wrapped around
    every test; local runs pay nothing unless they set the variable.  A
    module that installs sanitizers of its own overrides this fixture.
    """
    import os

    if os.environ.get("SPOTCONC_SANITIZE") != "1":
        yield
        return
    from repro.core.plan_cache import PlanCache
    from repro.devtools.reporters import render_text
    from repro.devtools.sanitizer import ConcurrencySanitizer

    PlanCache.reset_shared()
    sanitizer = ConcurrencySanitizer()
    sanitizer.install()
    try:
        yield
    finally:
        sanitizer.uninstall()
        PlanCache.reset_shared()
    result = sanitizer.result()
    assert result.clean, "\n" + render_text(result)


def land(archive, dataset, rows, time=None):
    """``archive.append`` then ``archive.commit_round``: rows become
    readable only at a round commit.  The round commits at ``time``, by
    default at the latest row time; returns the records captured."""
    captured = archive.append(dataset, rows)
    archive.commit_round(max(float(row[-1]) for row in rows)
                         if time is None else time)
    return captured
