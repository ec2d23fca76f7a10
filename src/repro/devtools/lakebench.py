"""Tiered-lake benchmark harness: round diffing, cold scans, federation.

Four questions decide whether the cold lake + changed-rows diff engine
earns its keep:

1. **Ingest avoidance** -- a steady-state archive (~2% of series change
   per round, the shape SpotLake reports for production spot data) runs
   in lake mode; the ratio of rows the merger captured to rows the diff
   actually wrote to the hot engine is the round-diffing win.  Gate:
   >= 5x.
2. **Cold scan throughput** -- a dense multi-day lake is compacted to
   day files and scanned raw through the v2 columnar cursors.  Gate:
   >= 1M rows/s on the windowed read.
3. **Federated latency + identity** -- the same workload lands in a
   retention-evicting lake archive and an un-evicted in-memory twin;
   full-range history queries must return byte-identical rows, and the
   federated (cold + hot) path must stay within 2x of the hot-only
   latency.
4. **Crash determinism** -- a seeded kill inside each lake publish
   window (``lake.segment`` / ``lake.manifest`` / ``lake.publish``)
   followed by cold recovery + lake trim must land byte-identical to an
   uninterrupted reference at the recovered round count.

Lives in ``devtools`` (not ``lake``) because it times with the *host*
clock: benchmarking is meta-observation, outside the simulation's
seed+clock determinism envelope (latencies are reported, never archived).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.archive import SpotLakeArchive
from ..lake import (
    ADVISOR_TABLE,
    DIM_TYPE,
    IF_SCORE_MEASURE,
    LAKE_CRASH_WINDOWS,
    LAKE_DIR_NAME,
    PRICE_MEASURE,
    PRICE_TABLE,
    RoundMerger,
    SPS_MEASURE,
    SPS_TABLE,
    SpotDataLake,
)
from ..timeseries import RetentionPolicy
from .storagebench import _store_digests

#: Simulation epoch (2022-01-01 UTC), matching the cloudsim clock.
EPOCH = 1640995200.0
BENCH_REGION = "us-bench-1"

#: Steady-state workload shape: one series in ``CHURN_EVERY`` changes
#: value each round (~2% churn), the rest re-observe unchanged.
CHURN_EVERY = 50
DEFAULT_INGEST_ROUNDS = 20
DEFAULT_INGEST_TYPES = 60
DEFAULT_ZONES = 3
DEFAULT_REPEATS = 3


def _zone(z: int) -> str:
    return f"{BENCH_REGION}{chr(ord('a') + z)}"


def _drive_churn_round(archive: SpotLakeArchive, r: int, types: int,
                       zones: int, interval: float,
                       churn: int = CHURN_EVERY) -> float:
    """One steady-state collection round; returns the committed time.

    Values are a pure function of (round, series), with a rotating 1-in-
    ``churn`` schedule deciding which series take a new value this
    round -- deterministic, so two archives driven identically hold
    byte-identical data.
    """
    t = EPOCH + r * interval
    sps, advisor, price = [], [], []
    for p in range(types):
        itype = f"bench{p}.large"
        a_epoch = (r + p) // churn
        advisor.append((itype, BENCH_REGION,
                        round(0.05 + 0.01 * ((a_epoch + p) % 5), 4),
                        float((a_epoch + p) % 4),
                        ((a_epoch + p) % 10) * 10, t))
        for z in range(zones):
            pool = p * zones + z
            epoch = (r + pool) // churn
            sps.append((itype, BENCH_REGION, _zone(z),
                        (epoch + pool) % 3 + 1, t))
            price.append((itype, BENCH_REGION, _zone(z),
                          round(1.0 + 0.0001 * ((epoch + pool) % 200), 4),
                          t))
    archive.append("sps", sps)
    archive.append("advisor", advisor)
    archive.append("price", price)
    archive.commit_round(t)
    return t


def _bench_ingest(base: Path, rounds: int, types: int, zones: int) -> dict:
    """Round-diffing win on the steady-state workload."""
    archive = SpotLakeArchive(data_dir=base / "ingest", checkpoint_every=4,
                              lake=True)
    for r in range(rounds):
        _drive_churn_round(archive, r, types, zones, 300.0)
    merged, ingested = archive.rows_merged, archive.rows_ingested
    census = archive.lake.census()
    archive.close()
    return {
        "rounds": rounds,
        "series": types * zones * 2 + types * 3,
        "churn_every": CHURN_EVERY,
        "rows_merged": merged,
        "rows_ingested": ingested,
        "rows_avoided": merged - ingested,
        "reduction_ratio": merged / ingested if ingested else 0.0,
        "lake_rounds": census["rounds"],
        "lake_bytes": census["bytes"],
    }


#: Cold-scan workload: dense (every value changes every round) so day
#: compaction keeps full row density, spread over multiple UTC days.
COLD_ROUNDS = 96
COLD_TYPES = 50
COLD_INTERVAL = 1800.0


def _dense_round(merger: RoundMerger, r: int, types: int,
                 zones: int) -> None:
    t = EPOCH + r * COLD_INTERVAL
    sps, advisor, price = [], [], []
    for p in range(types):
        itype = f"bench{p}.large"
        advisor.append((itype, BENCH_REGION,
                        round(0.05 + 0.01 * ((r + p) % 17), 4),
                        float((r + p) % 7), ((r + p) % 9) * 10, t))
        for z in range(zones):
            pool = p * zones + z
            sps.append((itype, BENCH_REGION, _zone(z),
                        (r + pool) % 3 + 1, t))
            price.append((itype, BENCH_REGION, _zone(z),
                          round(1.0 + 0.0001 * ((r + pool) % 500), 4), t))
    merger.add("sps", sps)
    merger.add("advisor", advisor)
    merger.add("price", price)


def _bench_cold_scan(base: Path, repeats: int) -> dict:
    """Raw windowed scan rate over compacted day files."""
    lake = SpotDataLake(base / "coldscan")
    merger = RoundMerger()
    for r in range(COLD_ROUNDS):
        _dense_round(merger, r, COLD_TYPES, DEFAULT_ZONES)
        lake.append_round(merger.take_round(EPOCH + r * COLD_INTERVAL))
    before = lake.census()
    compaction = lake.compact(include_active=True)
    after = lake.census()

    start = EPOCH
    end = EPOCH + COLD_ROUNDS * COLD_INTERVAL
    best, rows = float("inf"), 0
    for _ in range(repeats):
        started = time.perf_counter()
        result = lake.scan(start, end)
        best = min(best, time.perf_counter() - started)
        rows = sum(len(r) for _, r in result)
    return {
        "rounds": COLD_ROUNDS,
        "days": len(lake.days()),
        "rows": rows,
        "bytes_before_compaction": before["bytes"],
        "bytes_after_compaction": after["bytes"],
        "partitions_merged": compaction["partitions_merged"],
        "scan_seconds": best,
        "rows_per_second": rows / best if best > 0 else 0.0,
    }


#: Federation workload: long enough for retention to evict well past the
#: first rounds, churny enough that per-row scan work dominates the
#: timing, short enough for a CI smoke run.
FED_ROUNDS = 48
FED_TYPES = 40
FED_INTERVAL = 600.0
FED_RETENTION_ROUNDS = 12
FED_CHURN = 5


def _history_queries() -> List[Tuple[str, str, Dict[str, str]]]:
    return [
        (SPS_TABLE, SPS_MEASURE, {}),
        (PRICE_TABLE, PRICE_MEASURE, {}),
        (ADVISOR_TABLE, IF_SCORE_MEASURE, {}),
        (SPS_TABLE, SPS_MEASURE, {DIM_TYPE: "bench3.large"}),
        (PRICE_TABLE, PRICE_MEASURE, {DIM_TYPE: "bench7.large"}),
    ]


def _bench_federated(base: Path, repeats: int) -> dict:
    """Federated (cold+hot) history vs a hot-only un-evicted twin.

    Caches are disabled on both sides so the timing compares the scan
    paths themselves, not cache hits.  The lake is compacted to day
    files first -- the steady operating state ``repro lake compact``
    maintains -- so cold reads decode day partitions, not a pile of
    per-round files.
    """
    fed = SpotLakeArchive(
        data_dir=base / "federated", checkpoint_every=4, lake=True,
        cache=False,
        retention=RetentionPolicy(
            max_age_seconds=FED_RETENTION_ROUNDS * FED_INTERVAL))
    hot = SpotLakeArchive(cache=False)
    for r in range(FED_ROUNDS):
        _drive_churn_round(fed, r, FED_TYPES, DEFAULT_ZONES, FED_INTERVAL,
                           churn=FED_CHURN)
        _drive_churn_round(hot, r, FED_TYPES, DEFAULT_ZONES, FED_INTERVAL,
                           churn=FED_CHURN)
    fed.lake.compact(include_active=True)
    start = EPOCH
    end = EPOCH + FED_ROUNDS * FED_INTERVAL
    queries = _history_queries()

    identical = all(
        fed.history(table, measure, filters, start, end)
        == hot.history(table, measure, filters, start, end)
        for table, measure, filters in queries)

    def timed(archive: SpotLakeArchive) -> Tuple[float, int]:
        best, rows = float("inf"), 0
        for _ in range(repeats):
            started = time.perf_counter()
            rows = sum(len(archive.history(table, measure, filters,
                                           start, end))
                       for table, measure, filters in queries)
            best = min(best, time.perf_counter() - started)
        return best, rows

    fed_seconds, fed_rows = timed(fed)
    hot_seconds, hot_rows = timed(hot)
    boundary = fed.evicted_through(SPS_TABLE)
    fed.close()
    return {
        "rounds": FED_ROUNDS,
        "retention_rounds": FED_RETENTION_ROUNDS,
        "boundary": boundary,
        "queries": len(queries),
        "rows": fed_rows,
        "byte_identical": identical and fed_rows == hot_rows,
        "hot_seconds": hot_seconds,
        "federated_seconds": fed_seconds,
        "latency_ratio": (fed_seconds / hot_seconds
                          if hot_seconds > 0 else 0.0),
    }


#: Crash-determinism matrix shape (per lake publish window).
DET_ROUNDS = 6
DET_TYPES = 20


def _bench_determinism(base: Path) -> dict:
    """Seeded kill in every lake publish window; recovery must byte-match.

    The synthetic-workload twin of ``doublerun --durability --lake``:
    an uninterrupted reference records hot-store digests and the lake
    manifest digest after every commit; each victim crashes at a seeded
    occurrence of one window, recovers cold, trims the lake to the WAL's
    last committed round, and must land on the reference digests.
    """
    from ..cloudsim.faults import (
        CrashInjector,
        SimulatedCrash,
        seeded_crash_point,
    )
    from ..storage import recover

    def drive(archive: SpotLakeArchive, r: int) -> None:
        _drive_churn_round(archive, r, DET_TYPES, DEFAULT_ZONES, 300.0)

    reference = SpotLakeArchive(data_dir=base / "det-reference",
                                checkpoint_every=2, lake=True)
    ref: Dict[int, Dict[str, str]] = {0: {}}
    ref_lake: Dict[int, str] = {0: reference.lake.digest()}
    for committed in range(1, DET_ROUNDS + 1):
        drive(reference, committed - 1)
        ref[committed] = _store_digests(reference.store)
        ref_lake[committed] = reference.lake.digest()
    reference.close()

    windows = []
    for window in LAKE_CRASH_WINDOWS:
        point = seeded_crash_point(0, window, DET_ROUNDS)
        crash_dir = base / ("det-crash-" + window.replace(".", "-"))
        victim = SpotLakeArchive(data_dir=crash_dir, checkpoint_every=2,
                                 lake=True, crash_hook=CrashInjector([point]))
        crashed = False
        try:
            for r in range(DET_ROUNDS):
                drive(victim, r)
        except SimulatedCrash:
            crashed = True
        victim.close()
        state = recover(crash_dir)
        recovered_lake = SpotDataLake(crash_dir / LAKE_DIR_NAME)
        recovered_lake.trim_to(state.last_commit_time)
        identical = (_store_digests(state.store)
                     == ref.get(state.rounds_committed)
                     and recovered_lake.digest()
                     == ref_lake.get(state.rounds_committed))
        windows.append({"window": window, "hit": point.hit,
                        "crashed": crashed,
                        "rounds_recovered": state.rounds_committed,
                        "identical": identical})
    return {
        "rounds": DET_ROUNDS,
        "windows": windows,
        "identical": all(w["crashed"] and w["identical"] for w in windows),
    }


def run_lake_bench(repeats: int = DEFAULT_REPEATS,
                   workdir: Optional[Path] = None) -> dict:
    """Full lake benchmark; returns the JSON-serializable report."""
    own_tmp = workdir is None
    base = Path(tempfile.mkdtemp(prefix="lakebench-")) if own_tmp \
        else Path(workdir)
    try:
        return {
            "config": {"repeats": repeats, "churn_every": CHURN_EVERY},
            "ingest": _bench_ingest(base, DEFAULT_INGEST_ROUNDS,
                                    DEFAULT_INGEST_TYPES, DEFAULT_ZONES),
            "cold_scan": _bench_cold_scan(base, repeats),
            "federated": _bench_federated(base, repeats),
            "determinism": _bench_determinism(base),
        }
    finally:
        if own_tmp:
            shutil.rmtree(base, ignore_errors=True)


def summary_lines(report: dict) -> List[str]:
    ingest = report["ingest"]
    cold = report["cold_scan"]
    fed = report["federated"]
    det = report["determinism"]
    return [
        f"ingest: {ingest['rounds']} rounds x {ingest['series']} series, "
        f"{ingest['rows_merged']:,} rows merged -> "
        f"{ingest['rows_ingested']:,} ingested hot "
        f"({ingest['rows_avoided']:,} avoided, "
        f"{ingest['reduction_ratio']:.1f}x reduction)",
        f"cold scan: {cold['rows']:,} rows over {cold['days']} day file(s) "
        f"in {cold['scan_seconds']*1000:.1f}ms "
        f"({cold['rows_per_second']:,.0f} rows/s; compaction "
        f"{cold['bytes_before_compaction']:,}B -> "
        f"{cold['bytes_after_compaction']:,}B)",
        f"federated: {fed['queries']} queries, {fed['rows']:,} rows, "
        f"hot-only {fed['hot_seconds']*1000:.1f}ms vs federated "
        f"{fed['federated_seconds']*1000:.1f}ms "
        f"({fed['latency_ratio']:.2f}x), "
        f"byte-identical: {fed['byte_identical']}",
        f"determinism: {len(det['windows'])} lake crash window(s), "
        f"all recovered byte-identical: {det['identical']}",
    ]
