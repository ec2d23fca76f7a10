"""The one constants table of the end-to-end benchmark.

Every size the benchmark uses lives here, once per scale.  ``FULL`` is
the paper-scale table the driver and ``BENCHMARK.json`` use; ``SMOKE``
is the seconds-long variant ``smoke.sh`` and the unit tests run.  The
catalog is never cut at full scale (547 types, every pool); the builder's
time cap (about 35 s per run, set-up included) cut the *round and
request counts* and, with them, the hot-tier retention -- README.md
records what ISSUE 11 asked for and what the cap left.

Counts scale with ``--seconds``: a run measures one checkpoint cycle of
rounds per ``cycle_nominal_s`` and ``*_per_s`` requests per second, so
the default ``run_seconds`` measures for about that long on the
reference box while every count stays an exact function of the
arguments.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Dict, Optional

#: Seed of the simulated world and of the service; never varied.  The
#: ``--seed`` argument seeds only the load generator.
WORLD_SEED = 0

#: Simulated collection cadence (the paper's ten minutes).
ROUND_SECONDS = 600.0

#: A 200 answered later than this misses the latency limit (the repo's
#: existing ``frontendbench.P99_LIMIT_MS``).
SLO_MS = 250.0

WORKLOADS = ("ingest", "serve-hot", "serve-cold", "mixed")

#: request mixes, in percent (names are fixed; later issues refer to them)
HOT_MIX = (("latest", 35), ("hist_pool_hot", 30),
           ("hist_type_hot", 20), ("analytics_hot", 15))
COLD_MIX = (("hist_pool_cold", 50), ("hist_type_cold_paged", 20),
            ("analytics_cold", 20), ("rounds_page", 10))
OPS = tuple(name for name, _ in HOT_MIX + COLD_MIX)


@dataclass(frozen=True)
class Sizes:
    """Sizes of one scale; see the module docstring."""

    scale: str
    #: instance types collected (None = the whole catalog)
    type_count: Optional[int]
    #: hot-tier retention in sim-seconds (rounds kept hot = this / 600)
    retention_s: float
    #: rounds between checkpoints
    checkpoint_every: int
    #: ``--seconds`` one checkpoint cycle of rounds stands for
    cycle_nominal_s: float
    #: read fixture: rounds before midnight (compacted day) and after
    #: (active day, raw round files); one past a checkpoint, so a
    #: re-open replays a WAL tail
    fixture_day0_rounds: int
    fixture_day1_rounds: int
    #: ``ingest``: rounds that land before midnight (the closed day the
    #: workload compacts)
    ingest_day0_rounds: int
    #: closed-loop client threads (= driver threads; must be <= nproc)
    clients: int
    #: ``serve-hot``: requests per ``--seconds`` second; zipf key space
    hot_requests_per_s: int
    hot_pools: int
    #: ``serve-cold``: schedule entries per ``--seconds`` second, cut to
    #: whole mix blocks per client (a paged entry issues up to
    #: ``paged_pages`` requests)
    cold_requests_per_s: int
    paged_limit: int
    paged_pages: int
    rounds_page_limit: int
    #: ``mixed``: open-loop offered rate and zipf key space
    mixed_rate: float
    mixed_pools: int
    #: zipf skew of the hot key choice
    zipf_s: float
    #: pools the oracle verification reads back
    verify_pools: int

    def measured_rounds(self, seconds: float) -> int:
        """Measured rounds of a ``--seconds`` run.

        ``ingest`` and ``mixed`` run whole checkpoint cycles, one per
        ``cycle_nominal_s``; the first round of the first cycle is the
        unmeasured warm-up (a fresh or just re-opened service builds its
        key caches in it), so every run holds the same share of
        checkpoint rounds.
        """
        cycles = max(1, round(seconds / self.cycle_nominal_s))
        return cycles * self.checkpoint_every - 1

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


FULL = Sizes(
    scale="full", type_count=None, retention_s=1200.0, checkpoint_every=4,
    cycle_nominal_s=12.0, fixture_day0_rounds=4, fixture_day1_rounds=1,
    ingest_day0_rounds=2, clients=2,
    hot_requests_per_s=10000, hot_pools=128,
    cold_requests_per_s=21, paged_limit=16, paged_pages=3,
    rounds_page_limit=500,
    mixed_rate=20.0, mixed_pools=2048, zipf_s=1.1, verify_pools=32)

SMOKE = Sizes(
    scale="smoke", type_count=16, retention_s=1200.0, checkpoint_every=2,
    cycle_nominal_s=4.0, fixture_day0_rounds=2, fixture_day1_rounds=1,
    ingest_day0_rounds=1, clients=2,
    hot_requests_per_s=100, hot_pools=64,
    cold_requests_per_s=40, paged_limit=4, paged_pages=3,
    rounds_page_limit=50,
    mixed_rate=50.0, mixed_pools=128, zipf_s=1.1, verify_pools=8)


def check_driver_threads(sizes: Sizes) -> None:
    """Refuse to generate load from more threads than there are cores."""
    cores = os.cpu_count() or 1
    if sizes.clients > cores:
        raise SystemExit(
            f"refusing to start: {sizes.clients} driver threads on "
            f"{cores} core(s) would measure the load generator, not "
            "the service")
