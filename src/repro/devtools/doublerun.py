"""Runtime determinism harness: run a seeded collection twice, diff bytes.

spotlint's static rules catch the *patterns* that break determinism; this
harness checks the *property* end to end: two ``SpotLakeService`` instances
built from the same config must hold identical archive content
(``TimeSeriesStore.content_digests``) after identical collection
schedules.  Any divergence -- wall-clock leakage, unseeded draws,
hash-order iteration reaching the archive -- shows up as a digest
mismatch in the named table.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.service import ServiceConfig, SpotLakeService

#: Default instance-type slice: one type per paper category keeps a run
#: under a second while exercising every engine.
DEFAULT_TYPES = ("m5.large", "c5.xlarge", "r5.2xlarge", "p3.2xlarge",
                 "i3.large")

RequestSpec = Tuple[str, Dict[str, str]]


def build_workload(service: SpotLakeService,
                   page_limit: int = 500) -> List[RequestSpec]:
    """The canonical request battery: full-range history scans (the hot
    dashboard path), filtered drill-downs, paginated pages, and point
    lookups -- all with deterministic parameters drawn from the catalog."""
    catalog = service.cloud.catalog
    pools = sorted(catalog.all_pools())
    now = service.cloud.clock.now()
    start = str(service.cloud.clock.start - 1.0)
    end = str(now + 1.0)
    requests: List[RequestSpec] = [
        ("/sps/history", {"start": start, "end": end}),
        ("/price/history", {"start": start, "end": end}),
        ("/advisor/history", {"start": start, "end": end}),
        ("/advisor/history", {"start": start, "end": end,
                              "measure": "savings"}),
        ("/sps/history", {"start": start, "end": end,
                          "limit": str(page_limit)}),
        ("/stats", {}),
    ]
    for itype, region, zone in pools[:3]:
        requests.append(("/sps/history", {
            "start": start, "end": end, "instance_type": itype}))
        requests.append(("/price/history", {
            "start": start, "end": end, "instance_type": itype,
            "region": region, "zone": zone}))
        requests.append(("/latest", {
            "instance_type": itype, "region": region, "zone": zone,
            "at": str(now)}))
    return requests


def serving_digest(service: SpotLakeService) -> str:
    """Digest of the canonical serving battery's response bytes.

    Each request is issued three ways -- cache-cold, cache-hot, and with
    the cache disabled -- and all three must serialize byte-identically
    (the read cache's correctness contract) before contributing to the
    digest.  Any divergence raises ``AssertionError``.
    """
    sha = hashlib.sha256()
    for path, params in build_workload(service, page_limit=100):
        cold = service.gateway.get(path, params).json().encode("utf-8")
        hot = service.gateway.get(path, params).json().encode("utf-8")
        was_enabled = service.archive.cache_enabled
        service.archive.cache_enabled = False
        try:
            uncached = service.gateway.get(path, params).json().encode("utf-8")
        finally:
            service.archive.cache_enabled = was_enabled
        if not (cold == hot == uncached):
            raise AssertionError(
                f"read cache changed response bytes for {path} {params}")
        sha.update(cold)
    return sha.hexdigest()


def _mismatches(got: Dict[str, str], want: Dict[str, str]) -> List[str]:
    """Names present on one side only, or digested differently."""
    return sorted(set(got) ^ set(want)
                  | {t for t in set(got) & set(want) if got[t] != want[t]})


@dataclass
class DoubleRunResult:
    """Digest comparison of two identically-seeded collection runs."""

    identical: bool
    digests_a: Dict[str, str] = field(default_factory=dict)
    digests_b: Dict[str, str] = field(default_factory=dict)
    mismatched_tables: List[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.identical:
            tables = ", ".join(sorted(self.digests_a)) or "none"
            return f"deterministic: identical content ({tables})"
        return ("NONDETERMINISTIC: tables differ: "
                + ", ".join(self.mismatched_tables))


def snapshot_digests(seed: int = 0,
                     instance_types: Optional[Sequence[str]] = DEFAULT_TYPES,
                     rounds: int = 2,
                     interval_minutes: float = 10.0,
                     chaos_profile: str = "none",
                     chaos_seed: Optional[int] = None,
                     include_serving: bool = False) -> Dict[str, str]:
    """Run one fresh service for ``rounds`` collection rounds; hash tables.

    Returns ``{table_name: content sha256}``.  The service, cloud
    and account pool are constructed from scratch so no state leaks
    between invocations.  With a chaos profile, the injected fault
    schedule (and hence any gap records) must replay identically too.
    With ``include_serving``, a ``"serving"`` pseudo-table digests the
    canonical API battery (see :func:`serving_digest`), extending the
    byte-determinism contract over the cached read path.
    """
    config = ServiceConfig(
        seed=seed,
        instance_types=list(instance_types) if instance_types else None,
        chaos_profile=chaos_profile,
        chaos_seed=chaos_seed)
    service = SpotLakeService(config)
    for _ in range(rounds):
        service.collect_once()
        service.cloud.clock.advance_minutes(interval_minutes)
    serving = serving_digest(service) if include_serving else None
    digests = service.archive.store.content_digests()
    service.close()
    if serving is not None:
        digests["serving"] = serving
    return digests


def double_run(seed: int = 0,
               instance_types: Optional[Sequence[str]] = DEFAULT_TYPES,
               rounds: int = 2,
               interval_minutes: float = 10.0,
               chaos_profile: str = "none",
               chaos_seed: Optional[int] = None,
               include_serving: bool = False) -> DoubleRunResult:
    """Two independent seeded runs; compare their archive content."""
    digests_a = snapshot_digests(seed, instance_types, rounds,
                                 interval_minutes,
                                 chaos_profile=chaos_profile,
                                 chaos_seed=chaos_seed,
                                 include_serving=include_serving)
    digests_b = snapshot_digests(seed, instance_types, rounds,
                                 interval_minutes,
                                 chaos_profile=chaos_profile,
                                 chaos_seed=chaos_seed,
                                 include_serving=include_serving)
    mismatched = _mismatches(digests_a, digests_b)
    return DoubleRunResult(identical=not mismatched,
                           digests_a=digests_a, digests_b=digests_b,
                           mismatched_tables=mismatched)


@dataclass
class CrashCaseResult:
    """One seeded crash: where it fired, what recovery got back, and
    whether collection resumed from there ends where the reference did."""

    window: str
    hit: int
    crashed: bool
    rounds_recovered: int
    identical: bool
    data_loss: bool
    #: tables (``"lake"`` included) that differ right after recovery, and
    #: ``"resumed <table>"`` for those that differ after the resumed run
    mismatched_tables: List[str] = field(default_factory=list)
    #: rounds the restarted service collected to reach the last round
    rounds_resumed: int = 0

    def summary(self) -> str:
        status = "ok" if self.crashed and self.identical else "FAIL"
        loss = " torn-tail-discarded" if self.data_loss else ""
        return (f"{status}: crash at {self.window} (hit {self.hit}) -> "
                f"recovered {self.rounds_recovered} round(s), resumed "
                f"{self.rounds_resumed}, "
                + ("byte-identical" if self.identical
                   else "tables differ: " + ", ".join(self.mismatched_tables))
                + loss)


@dataclass
class DurabilityResult:
    """Crash matrix verdict: every window's recovery vs the reference."""

    identical: bool
    rounds: int
    cases: List[CrashCaseResult] = field(default_factory=list)

    def summary(self) -> str:
        if self.identical:
            return (f"durable: {len(self.cases)} crash window(s) all "
                    f"recovered byte-identical ({self.rounds}-round run)")
        bad = [c.window for c in self.cases if not (c.crashed and c.identical)]
        return "NOT DURABLE: windows failed: " + ", ".join(bad)


def durability_run(seed: int = 0,
                   instance_types: Optional[Sequence[str]] = DEFAULT_TYPES,
                   rounds: int = 4,
                   interval_minutes: float = 10.0,
                   checkpoint_every: int = 2,
                   chaos_profile: str = "none",
                   chaos_seed: Optional[int] = None,
                   cloud_factory=None) -> DurabilityResult:
    """Kill the service at every storage crash window; verify recovery.

    One uninterrupted reference run records the archive digest after each
    committed round.  Then, per crash window, a fresh identically-seeded
    service runs with a :class:`~repro.cloudsim.CrashInjector` armed at a
    seeded occurrence of that window; the simulated crash is caught, the
    data directory is recovered cold, and the recovered store must be
    byte-identical to the reference at however many rounds recovery says
    survived.  A crash before the first commit must recover to an empty
    store -- the manifest protocol admits no other states.  The service
    is then restarted on the recovered directory and collects the
    remaining rounds; where it ends must be byte-identical to where the
    reference ended.  (Not under a chaos profile: the fault schedule
    counts calls per process, so a restart draws different faults.)

    A durable service always carries the cold lake, so the window list
    covers the lake's publish protocol too (``lake.segment`` /
    ``lake.manifest`` / ``lake.publish``), and each recovery additionally
    trims the cold tier to the hot store's ``last_commit_time`` and
    byte-compares the lake digest (a ``"lake"`` pseudo-table) against the
    reference at the recovered round count -- the lake-ahead-of-WAL
    protocol's invariant.  The run crosses a UTC midnight, placed so the
    seeded ``lake.segment`` crash hits the new day's keyframe round, and
    keeps two rounds hot, so restarts re-collect a keyframe, re-seed the
    differ from keyframe + deltas and replay evictions from the WAL tail.
    """
    from ..cloudsim import SimulatedCloud
    from ..cloudsim.clock import PAPER_WINDOW_START, SECONDS_PER_DAY
    from ..cloudsim.faults import (
        CrashInjector,
        SimulatedCrash,
        seeded_crash_point,
    )
    from ..lake import LAKE_CRASH_WINDOWS, LAKE_DIR_NAME, SpotDataLake
    from ..storage import CRASH_WINDOWS, recover

    interval = interval_minutes * 60.0
    keyframe_hit = seeded_crash_point(seed, "lake.segment", rounds).hit
    first = PAPER_WINDOW_START + SECONDS_PER_DAY \
        - max(1, keyframe_hit) * interval

    def build(data_dir: Path, hook=None, done: int = 0) -> SpotLakeService:
        """A service on ``data_dir`` about to collect round ``done + 1``."""
        cloud = cloud_factory() if cloud_factory is not None \
            else SimulatedCloud(seed=seed)
        cloud.clock.set(first + done * interval)
        return SpotLakeService(ServiceConfig(
            seed=seed,
            instance_types=list(instance_types) if instance_types else None,
            chaos_profile=chaos_profile,
            chaos_seed=chaos_seed,
            data_dir=str(data_dir),
            checkpoint_every=checkpoint_every,
            storage_crash_hook=hook,
            retention_max_age=2 * interval),
            cloud=cloud)

    base = Path(tempfile.mkdtemp(prefix="spotlake-durability-"))
    try:
        # -- reference: uninterrupted, digested at every round boundary ----
        reference = build(base / "reference")
        ref: Dict[int, Dict[str, str]] = {
            0: {"lake": reference.archive.lake.digest()}}
        for committed in range(1, rounds + 1):
            reference.collect_once()
            ref[committed] = reference.archive.store.content_digests()
            ref[committed]["lake"] = reference.archive.lake.digest()
            reference.cloud.clock.advance_minutes(interval_minutes)
        reference.archive.close()

        checkpoints = rounds // checkpoint_every if checkpoint_every else 0
        expected_hits = {
            "wal.flush": rounds,
            "wal.commit": rounds,
            "checkpoint.segments": checkpoints,
            "checkpoint.manifest": checkpoints,
            "checkpoint.publish": checkpoints,
            "checkpoint.gc": checkpoints,
            # the lake publish protocol runs once per (non-empty) round
            **{w: rounds for w in LAKE_CRASH_WINDOWS},
        }

        cases: List[CrashCaseResult] = []
        for window in (*CRASH_WINDOWS, *LAKE_CRASH_WINDOWS):
            max_hits = expected_hits[window]
            if max_hits == 0:
                continue  # cadence too short to ever reach this window
            point = seeded_crash_point(seed, window, max_hits)
            crash_dir = base / ("crash-" + window.replace(".", "-"))
            injector = CrashInjector([point])
            victim = build(crash_dir, injector)
            crashed = False
            try:
                for _ in range(rounds):
                    victim.collect_once()
                    victim.cloud.clock.advance_minutes(interval_minutes)
            except SimulatedCrash:
                crashed = True
            victim.archive.close()

            state = recover(crash_dir)
            got = state.store.content_digests()
            recovered_lake = SpotDataLake(crash_dir / LAKE_DIR_NAME)
            recovered_lake.trim_to(state.last_commit_time)
            got["lake"] = recovered_lake.digest()
            recovered_lake.close()
            mismatched = _mismatches(got, ref.get(state.rounds_committed, {}))

            resumed_rounds = 0
            if chaos_profile == "none":
                resumed_rounds = rounds - state.rounds_committed
                resumed = build(crash_dir, done=state.rounds_committed)
                for _ in range(resumed_rounds):
                    resumed.collect_once()
                    resumed.cloud.clock.advance_minutes(interval_minutes)
                final = resumed.archive.store.content_digests()
                final["lake"] = resumed.archive.lake.digest()
                resumed.archive.close()
                mismatched.extend(f"resumed {table}" for table in
                                  _mismatches(final, ref[rounds]))
            cases.append(CrashCaseResult(
                window=window, hit=point.hit, crashed=crashed,
                rounds_recovered=state.rounds_committed,
                identical=not mismatched, data_loss=state.data_loss,
                mismatched_tables=mismatched,
                rounds_resumed=resumed_rounds))
        passed = all(c.crashed and c.identical for c in cases)
        return DurabilityResult(identical=passed, rounds=rounds, cases=cases)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.devtools.doublerun",
        description="byte-level determinism check of the collection path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--chaos-profile", default="none")
    parser.add_argument("--chaos-seed", type=int, default=None)
    parser.add_argument("--serving", action="store_true",
                        help="also digest the serving battery (cached vs "
                             "uncached responses must be byte-identical)")
    parser.add_argument("--durability", action="store_true",
                        help="crash-matrix mode: kill the service at every "
                             "storage and lake crash window and "
                             "byte-compare the recovered archive and lake "
                             "against an uninterrupted run")
    parser.add_argument("--checkpoint-every", type=int, default=2,
                        help="checkpoint cadence of the durability run "
                             "(rounds; default 2)")
    args = parser.parse_args(argv)
    if args.durability:
        result = durability_run(seed=args.seed, rounds=args.rounds,
                                checkpoint_every=args.checkpoint_every,
                                chaos_profile=args.chaos_profile,
                                chaos_seed=args.chaos_seed)
        for case in result.cases:
            print(case.summary())
        print(result.summary())
        return 0 if result.identical else 1
    result = double_run(seed=args.seed, rounds=args.rounds,
                        chaos_profile=args.chaos_profile,
                        chaos_seed=args.chaos_seed,
                        include_serving=args.serving)
    print(result.summary())
    return 0 if result.identical else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
