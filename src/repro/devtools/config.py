"""spotlint configuration: the one built-in copy of every lint setting.

* :data:`DEFAULT_CLOCKED_PACKAGES` -- the packages DET001/CLK001 patrol;
* :data:`DEFAULT_LAYERING_DAG` and :data:`DEFAULT_SHARED_MODULES` -- the
  package DAG LAY001 enforces;
* :data:`DEFAULT_PER_PACKAGE_DISABLE` -- rules disabled for a whole
  subpackage when the package's *design* makes the rule inapplicable
  (for example ``multicloud`` adapters ARE each vendor's raw access
  surface, so the quota-bypass rule does not apply there).

Rules are picked with ``repro lint --select`` (:func:`make_rules`);
:class:`LintConfig` exists so tests can lint a fixture under a different
DAG or package set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

#: Packages in which DET001/CLK001 require the simulation Clock instead of
#: the host wall clock.
DEFAULT_CLOCKED_PACKAGES: Tuple[str, ...] = (
    "cloudsim", "timeseries", "core", "storage", "lake")

#: Top-level helper modules importable from every layer (they sit below the
#: leaves and import nothing from the package tree themselves).
DEFAULT_SHARED_MODULES: Tuple[str, ...] = ("_util", "scoring")

#: The package DAG from DESIGN.md's system inventory: each package maps to
#: the packages it may import from.  ``cloudsim``, ``solver``, ``timeseries``
#: and ``mlcore`` substitute external systems and are leaves; ``storage``
#: and ``lake`` persist the store; ``core`` assembles them; analysis,
#: experiments, apps and multicloud sit above core; devtools is the dev
#: harness on top.
DEFAULT_LAYERING_DAG: Dict[str, Tuple[str, ...]] = {
    "cloudsim": (),
    "solver": (),
    "timeseries": (),
    "mlcore": (),
    "storage": ("timeseries",),
    "lake": ("timeseries", "storage"),
    "core": ("cloudsim", "solver", "timeseries", "mlcore", "storage",
             "lake"),
    "analysis": ("core", "cloudsim", "solver", "timeseries", "mlcore"),
    "experiments": ("analysis", "core", "cloudsim", "solver", "timeseries",
                    "mlcore"),
    "apps": ("analysis", "core", "cloudsim", "solver", "timeseries",
             "mlcore"),
    "multicloud": ("core", "cloudsim", "solver", "timeseries", "mlcore"),
    "devtools": ("core", "cloudsim", "timeseries", "storage", "lake"),
}

DEFAULT_PER_PACKAGE_DISABLE: Dict[str, Tuple[str, ...]] = {
    # Vendor adapters are each vendor's own dataset surface (DESIGN.md
    # Section 7 row): Azure/GCP have no SPS quota to protect, and the AWS
    # adapter re-exposes the simulated engines as that surface.
    "multicloud": ("QUO001",),
}


@dataclass(frozen=True)
class LintConfig:
    """The settings the rules read (defaults: the shipped ones above)."""

    clocked_packages: Tuple[str, ...] = DEFAULT_CLOCKED_PACKAGES
    shared_modules: Tuple[str, ...] = DEFAULT_SHARED_MODULES
    layering_dag: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERING_DAG))
    per_package_disable: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_PER_PACKAGE_DISABLE))

    def rule_enabled(self, code: str, package: str = "") -> bool:
        """Is ``code`` active for ``package``?"""
        return code not in self.per_package_disable.get(package, ())
