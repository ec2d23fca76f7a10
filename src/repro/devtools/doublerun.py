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
import posixpath
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .._util import stable_hash
from ..core.service import ServiceConfig, SpotLakeService
from ..storage.durable import (
    PLAIN,
    WRITES,
    Op,
    RecordingIO,
    is_temporary,
    torn_offset,
)

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
    digests_a, digests_b = (snapshot_digests(
        seed, instance_types, rounds, interval_minutes,
        chaos_profile=chaos_profile, chaos_seed=chaos_seed,
        include_serving=include_serving) for _ in range(2))
    mismatched = _mismatches(digests_a, digests_b)
    return DoubleRunResult(identical=not mismatched,
                           digests_a=digests_a, digests_b=digests_b,
                           mismatched_tables=mismatched)


#: The two crash models every prefix of a recorded run is cut under.
MODELS = ("process death", "power loss")


class _Inode:
    def __init__(self, data: bytes = b""):
        self.data = bytearray(data)
        self.synced = 0  # bytes the last fsync made durable


def crash_state(log: Sequence[Op], root: Path, cut: int, model: str,
                seed: int = 0) -> Dict[str, Optional[bytes]]:
    """``{relative path: bytes (None: a directory)}`` that survive under
    ``root`` when a crash cuts ``log`` at ``cut``.

    ``log[:cut]`` completed and ``log[cut]``, if a write, is torn at a
    seeded byte (as a :class:`RecordingIO` armed at ``cut`` leaves it):
    all of that survives *process death*.  Under *power loss* a file
    keeps what its last fsync covered plus a seeded prefix of later
    appends; a create, rename, unlink or mkdir survives only if its
    parent directory was fsynced after it.
    """
    ops = list(log[:cut])
    if cut < len(log) and log[cut].kind in WRITES:
        torn = log[cut]
        ops.append(torn._replace(
            data=torn.data[:torn_offset(len(torn.data), seed, cut)]))
    names: Dict[str, Optional[_Inode]] = {}
    synced_dirs: Dict[str, Dict[str, Optional[_Inode]]] = {}
    for op in ops:
        name = op.path.relative_to(root).as_posix()
        if op.kind == "create":
            names[name] = _Inode(op.data)
        elif op.kind == "append":
            names.setdefault(name, _Inode()).data += op.data
        elif op.kind == "fsync":
            names[name].synced = len(names[name].data)
        elif op.kind == "rename":
            names[op.target.relative_to(root).as_posix()] = names.pop(name)
        elif op.kind == "unlink":
            del names[name]
        elif op.kind == "mkdir":
            names[name] = None
        else:  # fsync_dir: its entries as they stand now survive
            parent = "" if name == "." else name
            synced_dirs[name] = {child: entry for child, entry in names.items()
                                 if posixpath.dirname(child) == parent}
    if model == MODELS[0]:
        return {name: entry and bytes(entry.data)
                for name, entry in names.items()}
    survived: Dict[str, Optional[bytes]] = {}
    pending = ["."]
    while pending:
        for name, entry in synced_dirs.get(pending.pop(), {}).items():
            if entry is None:
                survived[name] = None
                pending.append(name)
            else:
                tail = entry.data[entry.synced:]
                keep = torn_offset(len(tail) + 1, seed, name, entry.synced)
                survived[name] = bytes(entry.data[:entry.synced + keep])
    return survived


def materialize(files: Dict[str, Optional[bytes]], root: Path) -> Path:
    """Lay a :func:`crash_state` out under a fresh ``root``."""
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    for name in sorted(files):
        if files[name] is None:
            (root / name).mkdir()
        else:
            (root / name).write_bytes(files[name])
    return root


@dataclass
class CrashCaseResult:
    """One crash point: where the cut fell, what recovery got back, and
    whether a run resumed from there ended where the reference did."""

    model: str
    cut: int
    kind: str  # of the operation in flight ("end": the whole log ran)
    path: str  # its file, relative to the data directory
    wal_commits: int  # WAL commit appends completed before the cut
    rounds_recovered: int = -1
    lake: str = ""  # "compacted": matched the post-compaction reference
    #: tables (``"lake"`` included) that differ right after recovery,
    #: ``"resumed <table>"`` after the resumed run, or the error raised
    mismatched_tables: List[str] = field(default_factory=list)
    rounds_resumed: Optional[int] = None  # None: not resumed

    @property
    def identical(self) -> bool:
        return not self.mismatched_tables

    def summary(self) -> str:
        resumed = "" if self.rounds_resumed is None \
            else f", resumed {self.rounds_resumed}"
        return (f"{'ok' if self.identical else 'FAIL'}: {self.model} at "
                f"operation {self.cut} ({self.kind} {self.path}) -> "
                f"recovered {self.rounds_recovered} round(s){resumed}, "
                + ("byte-identical" if self.identical
                   else "differs: " + ", ".join(self.mismatched_tables)))


@dataclass
class DurabilityResult:
    """Crash matrix verdict: every prefix's recovery vs the reference."""

    rounds: int
    operations: int  # durable operations the recorded run made
    complete: bool  # the whole log rebuilt the run's directory exactly
    cases: List[CrashCaseResult] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.complete and all(c.identical for c in self.cases)

    def summary(self) -> str:
        points = ", ".join(f"{sum(c.model == m for c in self.cases)} under "
                           f"{m}" for m in MODELS)
        resumed = sum(c.rounds_resumed is not None for c in self.cases)
        if self.identical:
            return (f"durable: {self.operations} operations, crash points "
                    f"{points}, {resumed} resumed; every one recovered a "
                    f"committed round ({self.rounds}-round run)")
        return (f"NOT DURABLE: log rebuilds the run: {self.complete}; "
                f"{sum(not c.identical for c in self.cases)} crash "
                f"point(s) failed (of {points})")


def durability_run(seed: int = 0,
                   instance_types: Optional[Sequence[str]] = DEFAULT_TYPES,
                   rounds: int = 4,
                   interval_minutes: float = 10.0,
                   checkpoint_every: int = 2,
                   chaos_profile: str = "none",
                   chaos_seed: Optional[int] = None,
                   cloud_factory=None) -> DurabilityResult:
    """Crash the service after every prefix of its durable operations.

    One run -- ``rounds`` rounds, then a lake compaction -- goes through
    a :class:`RecordingIO` and is digested at every round boundary.  The
    state every prefix of its log leaves, under both models
    (:func:`crash_state`), is recovered cold: the store, and the lake
    trimmed to the store's last commit, must equal the run's at the
    round recovery reports (the lake from before or after the
    compaction, by content too for a cut inside it), and under process
    death that round must be the WAL commit appends the prefix
    completed.  One seeded prefix per (operation kind, model) is then
    resumed: collecting the remaining rounds and compacting must end
    where the run did, leaving no stale temporary (not under chaos: the
    fault schedule counts calls per process).  The run crosses a UTC
    midnight half-way and keeps two rounds hot, so restarts re-collect a
    keyframe, re-seed the differ and replay evictions from the WAL tail.
    """
    from ..cloudsim import SimulatedCloud
    from ..cloudsim.clock import PAPER_WINDOW_START, SECONDS_PER_DAY
    from ..lake import LAKE_DIR_NAME, SpotDataLake
    from ..storage import recover
    from ..storage.wal import wal_file_number
    from ..timeseries import TimeSeriesStore

    interval = interval_minutes * 60.0
    first = PAPER_WINDOW_START + SECONDS_PER_DAY \
        - max(1, rounds // 2) * interval

    def build(data_dir: Path, io=PLAIN, done: int = 0) -> SpotLakeService:
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
            retention_max_age=2 * interval),
            cloud=cloud, io=io)

    def digests(directory: Path, store, time: Optional[float],
                content: bool = True) -> Dict[str, str]:
        """The store's digests and its lake's, trimmed as recovery does."""
        lake = SpotDataLake(directory / LAKE_DIR_NAME)
        lake.trim_to(time)
        got = {**store.content_digests(), "lake": lake.digest()}
        if content:
            got["lake content"] = lake.content_digest()
        lake.close()
        return got

    def collect(service: SpotLakeService, count: int) -> None:
        for _ in range(count):
            service.collect_once()
            service.cloud.clock.advance_minutes(interval_minutes)

    base = Path(tempfile.mkdtemp(prefix="spotlake-durability-"))
    try:
        recorded = base / "recorded"
        recorded.mkdir()
        recorder = RecordingIO()
        service = build(recorded, recorder)
        archive = service.archive
        # before the first commit a recovered store holds no table at all
        times = [None]
        ref = [digests(recorded, TimeSeriesStore(), None)]
        for _ in range(rounds):
            collect(service, 1)
            times.append(archive.engine.last_commit_time)
            ref.append(digests(recorded, archive.store, times[-1]))
        compacting = len(recorder.log)
        archive.lake.compact()
        archive.close()
        log = recorder.log
        # the compacted lake, as a crash that rolled the WAL back sees it
        compacted = [{**want, **digests(recorded, TimeSeriesStore(), time)}
                     for want, time in zip(ref, times)]
        complete = crash_state(log, recorded, len(log), MODELS[0]) == {
            path.relative_to(recorded).as_posix():
            None if path.is_dir() else path.read_bytes()
            for path in recorded.rglob("*")}
        by_kind: Dict[str, List[int]] = {}
        for index, op in enumerate(log):
            by_kind.setdefault(op.kind, []).append(index)
        resume_at = {(model, at[stable_hash("resume", seed, model, kind)
                                % len(at)])
                     for model in MODELS for kind, at in by_kind.items()}
        # cuts leaving the same files (an fsync under process death, a
        # write nothing made durable under power loss) recover once
        seen: Dict[Tuple, Tuple[int, Dict[str, str]]] = {}

        def check(model: str, cut: int) -> CrashCaseResult:
            files = crash_state(log, recorded, cut, model, seed)
            at = log[cut] if cut < len(log) else Op("end", recorded)
            case = CrashCaseResult(
                model, cut, at.kind, at.path.relative_to(recorded).as_posix(),
                sum(op.kind == "append" and bool(op.data) and
                    wal_file_number(op.path.name) is not None
                    for op in log[:cut]))
            content = cut > compacting  # a cut in the compaction
            key = (content, tuple(sorted(files.items())))
            resume = chaos_profile == "none" and (model, cut) in resume_at
            try:
                if resume or key not in seen:
                    crash_dir = materialize(files, base / "crash")
                    state = recover(crash_dir)
                    seen[key] = (state.rounds_committed, digests(
                        crash_dir, state.store, state.last_commit_time,
                        content))
            except Exception as exc:  # a crash state recovery refuses
                case.mismatched_tables = [f"{type(exc).__name__}: {exc}"]
                return case
            done, got = seen[key]
            case.rounds_recovered = done
            wanted = [{table: digest for table, digest in want[done].items()
                       if content or table != "lake content"}
                      for want in (ref, compacted)]
            case.mismatched_tables = _mismatches(got, wanted[0])
            if case.mismatched_tables and not _mismatches(got, wanted[1]):
                case.lake, case.mismatched_tables = "compacted", []
            if model == MODELS[0] and done != case.wal_commits:
                case.mismatched_tables.append(
                    f"{case.wal_commits} WAL commit(s) completed")
            if case.identical and resume:
                resumed = build(crash_dir, done=done)
                collect(resumed, rounds - done)
                resumed.archive.lake.compact()
                resumed.archive.close()
                final = digests(crash_dir, resumed.archive.store,
                                resumed.archive.engine.last_commit_time)
                case.rounds_resumed = rounds - done
                case.mismatched_tables = [
                    f"resumed {table}"
                    for table in _mismatches(final, compacted[-1])] + [
                    f"stale temporary {path.name}"
                    for path in crash_dir.rglob("*")
                    if is_temporary(path.name)]
            return case

        return DurabilityResult(rounds, len(log), complete, [
            check(model, cut) for model in MODELS
            for cut in range(len(log) + 1)])
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
                        help="crash-matrix mode: cut a recorded run after "
                             "every durable operation, under process death "
                             "and power loss, and byte-compare the "
                             "recovered archive and lake against the run")
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
            if case.rounds_resumed is not None or not case.identical:
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
