"""Storage engine benchmark harness: ingest overhead, recovery, compaction.

Three questions decide whether the WAL/segment engine is cheap enough to
leave on by default:

1. **Ingest overhead** -- the same archive write stream with and without
   a data directory (group-committed WAL on vs pure in-memory).  The
   acceptance gate is a ratio, not an absolute time, so it is robust to
   host speed; each leg is timed ``repeats`` times and the minimum taken
   (the minimum estimates the noise-free cost).
2. **Recovery** -- wall-clock to reconstruct the store from a pure WAL
   replay versus from a checkpointed directory (segments + short tail),
   plus a byte-identity check of the recovered store against the live
   one.
3. **Compaction** -- write amplification and live-set size after a
   multi-checkpoint run, straight from ``StorageEngine.stats()``.

Lives in ``devtools`` (not ``storage``) because it times with the *host*
clock: benchmarking is meta-observation, outside the simulation's
seed+clock determinism envelope (latencies are reported, never archived).
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.archive import SpotLakeArchive
from ..storage import (
    StorageEngine,
    forced_segment_format,
    recover,
    scan_segment,
    write_segment,
)
from ..timeseries import RetentionPolicy, TimeSeriesStore, dump_store
from ..timeseries.compression import ChangePointSeries
from ..timeseries.record import SeriesKey, dimension_key

#: Workload shape: enough records that per-record costs dominate setup,
#: small enough for a CI smoke run.
DEFAULT_RECORDS = 24000
DEFAULT_TYPES = 40
DEFAULT_ZONES = 3
DEFAULT_COMMIT_EVERY = 1000
DEFAULT_REPEATS = 3


def _pools(types: int = DEFAULT_TYPES,
           zones: int = DEFAULT_ZONES) -> List[Tuple[str, str, str]]:
    """(type, region, zone) coordinates of the bench's SPS rows."""
    zone_names = [chr(ord("a") + z) for z in range(zones)]
    return [(f"bench{i}.large", "us-bench-1",
             f"us-bench-1{zone_names[i % zones]}")
            for i in range(types)]


def _ingest_archive(archive: SpotLakeArchive, records: int,
                    commit_every: int,
                    pools: List[Tuple[str, str, str]]) -> float:
    """Drive the archive's ingest path one record per ``append`` (the
    costliest caller shape); returns elapsed seconds."""
    n_pools = len(pools)
    started = time.perf_counter()
    for i in range(records):
        archive.append("sps", [(*pools[i % n_pools], (i % 3) + 1, float(i))])
        if (i + 1) % commit_every == 0:
            archive.commit_round(float(i))
    return time.perf_counter() - started


def _store_digests(store: TimeSeriesStore) -> Dict[str, str]:
    directory = Path(tempfile.mkdtemp(prefix="storagebench-"))
    try:
        dump_store(store, directory)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(directory.glob("*.jsonl"))}
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _bench_ingest(base: Path, records: int, commit_every: int,
                  repeats: int) -> Tuple[dict, Path]:
    """Archive-level ingest, WAL off vs on; keeps the last WAL directory
    (uncheckpointed, so recovery below replays the whole log)."""
    pools = _pools()
    base_seconds = min(_ingest_archive(SpotLakeArchive(), records,
                                       commit_every, pools)
                       for _ in range(repeats))
    wal_seconds = float("inf")
    wal_dir = base / "ingest-wal"
    for attempt in range(repeats):
        directory = base / f"ingest-{attempt}"
        archive = SpotLakeArchive(data_dir=directory, checkpoint_every=0)
        elapsed = _ingest_archive(archive, records, commit_every, pools)
        archive.close()
        if elapsed < wal_seconds:
            wal_seconds = elapsed
            if wal_dir.exists():
                shutil.rmtree(wal_dir)
            directory.rename(wal_dir)
        else:
            shutil.rmtree(directory)
    return ({
        "records": records,
        "commit_every": commit_every,
        "repeats": repeats,
        "base_seconds": base_seconds,
        "wal_seconds": wal_seconds,
        "overhead_ratio": wal_seconds / base_seconds,
        "records_per_second_wal": records / wal_seconds,
    }, wal_dir)


def _bench_engine_micro(records: int, commit_every: int,
                        repeats: int) -> dict:
    """Engine-level floor: bare ``Table.append_many`` vs ``log_points`` +
    append, one batch per committed round.

    Stricter than the archive-level ratio (no shared ingest overhead to
    dilute the WAL cost); reported for trend-watching, not gated."""
    keys = [SeriesKey("sps", dimension_key(
        {"it": itype, "region": region, "zone": zone}))
        for itype, region, zone in _pools()]

    def batches():
        for first in range(0, records, commit_every):
            yield [(keys[i % len(keys)], float(i), (i % 3) + 1)
                   for i in range(first, min(first + commit_every, records))]

    base_seconds = float("inf")
    for _ in range(repeats):
        store = TimeSeriesStore()
        table = store.create_table("t", RetentionPolicy(None))
        started = time.perf_counter()
        for points in batches():
            table.append_many(points)
        base_seconds = min(base_seconds, time.perf_counter() - started)

    wal_seconds = float("inf")
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="storagebench-") as tmp:
            engine = StorageEngine(Path(tmp))
            store = engine.recovered.store
            engine.attach(store)
            policy = RetentionPolicy(None)
            engine.log_create_table("t", policy)
            table = store.create_table("t", policy)
            started = time.perf_counter()
            for rounds, points in enumerate(batches(), 1):
                engine.log_points("t", points)
                table.append_many(points)
                engine.commit_round(float(rounds))
            wal_seconds = min(wal_seconds, time.perf_counter() - started)
            engine.close()
    return {
        "base_seconds": base_seconds,
        "wal_seconds": wal_seconds,
        "overhead_ratio": wal_seconds / base_seconds,
    }


def _bench_recovery(base: Path, wal_dir: Path, records: int,
                    commit_every: int) -> dict:
    """Recovery cost: full-WAL replay vs checkpointed (segments + tail)."""
    pools = _pools()

    started = time.perf_counter()
    replayed = recover(wal_dir)
    replay_seconds = time.perf_counter() - started

    checkpoint_dir = base / "recovery-checkpointed"
    archive = SpotLakeArchive(data_dir=checkpoint_dir, checkpoint_every=4)
    _ingest_archive(archive, records, commit_every, pools)
    live = _store_digests(archive.store)
    archive.close()
    started = time.perf_counter()
    checkpointed = recover(checkpoint_dir)
    checkpointed_seconds = time.perf_counter() - started

    return {
        "wal_replay": {
            "seconds": replay_seconds,
            "rounds": replayed.rounds_committed,
            "operations_replayed": replayed.replayed_operations,
            "records_per_second": (replayed.replayed_operations
                                   / replay_seconds
                                   if replay_seconds > 0 else 0.0),
        },
        "checkpointed": {
            "seconds": checkpointed_seconds,
            "rounds": checkpointed.rounds_committed,
            "operations_replayed": checkpointed.replayed_operations,
        },
        "byte_identical": _store_digests(checkpointed.store) == live,
        "data_loss": replayed.data_loss or checkpointed.data_loss,
    }


def _bench_compaction(base: Path, records: int, commit_every: int) -> dict:
    """Write amplification over a run with frequent checkpoints."""
    directory = base / "compaction"
    archive = SpotLakeArchive(data_dir=directory, checkpoint_every=2)
    _ingest_archive(archive, records, commit_every, _pools())
    stats = archive.engine.stats()
    archive.close()
    return {
        "checkpoints": stats["checkpoints"],
        "segment_bytes_written": stats["segment_bytes_written"],
        "live_segment_bytes": stats["live_segment_bytes"],
        "write_amplification": stats["write_amplification"],
        "compaction_merges": stats["compaction_merges"],
        "compaction_points_dropped": stats["compaction_points_dropped"],
        "wal_bytes_written": stats["wal_bytes_written"],
    }


#: Codec comparison workload: series x change points per series.
DEFAULT_CODEC_SERIES = 48
DEFAULT_CODEC_POINTS = 2500
#: Fraction of the time range covered by the windowed-scan query.
CODEC_WINDOW_FRACTION = 0.25


def _codec_items(series_count: int, points: int,
                 seed: int = 0) -> List[Tuple[SeriesKey, ChangePointSeries]]:
    """A spot-archive-shaped workload: per pool, a price series doing a
    bounded random walk on the $0.0001 grid plus an integer SPS series.
    Deterministic in ``seed`` so both codecs serialize identical items."""
    rng = random.Random(seed)
    items = []
    for s in range(series_count // 2):
        dims = (("it", f"bench{s}.large"), ("region", "us-bench-1"),
                ("zone", f"us-bench-1{chr(ord('a') + s % DEFAULT_ZONES)}"))
        base_price = round(rng.uniform(0.5, 4.0), 4)
        price = base_price
        t = 0.0
        price_t, price_v, sps_t, sps_v = [], [], [], []
        for _ in range(points):
            t += 300.0 * rng.choice((1, 1, 1, 2))
            step = rng.choice((-0.002, -0.001, 0.001, 0.001, 0.002))
            price = round(min(base_price + 0.03,
                              max(base_price - 0.03, price + step)), 4)
            price_t.append(t)
            price_v.append(price)
            sps_t.append(t)
            sps_v.append(rng.choice((1, 1, 2, 2, 2, 3)))
        for measure, times, values in (("spot_price", price_t, price_v),
                                       ("sps", sps_t, sps_v)):
            items.append((SeriesKey(measure, dims), ChangePointSeries(
                times=times, values=values, observed_until=t,
                observation_count=points * 3)))
    items.sort(key=lambda kv: (kv[0].measure_name, kv[0].dimensions))
    return items


def _bench_codec(base: Path, repeats: int,
                 series_count: int = DEFAULT_CODEC_SERIES,
                 points: int = DEFAULT_CODEC_POINTS) -> dict:
    """v1 JSON-lines vs v2 columnar: bytes on disk and cold-scan rate.

    The same logical segment is written in both formats and queried with
    a time window covering ``CODEC_WINDOW_FRACTION`` of the range -- the
    canonical archive read.  The v1 reader must parse the whole file per
    scan; the v2 reader mmaps and decodes only the chunks whose zone maps
    overlap the window, which is where the speedup gate comes from.
    """
    directory = base / "codec"
    directory.mkdir(parents=True, exist_ok=True)
    items = _codec_items(series_count, points)
    meta_v2 = write_segment(directory, 1, "codec", 0, items)
    with forced_segment_format(1):
        meta_v1 = write_segment(directory, 2, "codec", 0, items)

    t_max = max(series.times[-1] for _, series in items)
    start = t_max * (1.0 - 1.5 * CODEC_WINDOW_FRACTION)
    end = start + t_max * CODEC_WINDOW_FRACTION

    def timed_scan(meta) -> Tuple[float, int]:
        best, rows = float("inf"), 0
        for _ in range(repeats):
            started = time.perf_counter()
            result = scan_segment(directory, meta, start, end)
            best = min(best, time.perf_counter() - started)
            rows = sum(len(r) for _, r in result)
        return best, rows

    v1_seconds, v1_rows = timed_scan(meta_v1)
    v2_seconds, v2_rows = timed_scan(meta_v2)
    assert v1_rows == v2_rows, "codecs disagree on the windowed scan"
    total_rows = sum(len(series.times) for _, series in items)
    return {
        "series": len(items),
        "rows": total_rows,
        "v1_bytes": meta_v1.bytes,
        "v2_bytes": meta_v2.bytes,
        "size_ratio": meta_v1.bytes / meta_v2.bytes,
        "window_fraction": CODEC_WINDOW_FRACTION,
        "scan_rows": v1_rows,
        "v1_scan_seconds": v1_seconds,
        "v2_scan_seconds": v2_seconds,
        "v1_rows_per_second": v1_rows / v1_seconds if v1_seconds else 0.0,
        "v2_rows_per_second": v2_rows / v2_seconds if v2_seconds else 0.0,
        "scan_speedup": v1_seconds / v2_seconds if v2_seconds else 0.0,
    }


def run_storage_bench(records: int = DEFAULT_RECORDS,
                      commit_every: int = DEFAULT_COMMIT_EVERY,
                      repeats: int = DEFAULT_REPEATS,
                      workdir: Optional[Path] = None) -> dict:
    """Full storage benchmark; returns the JSON-serializable report."""
    own_tmp = workdir is None
    base = Path(tempfile.mkdtemp(prefix="storagebench-")) if own_tmp \
        else Path(workdir)
    try:
        ingest, wal_dir = _bench_ingest(base, records, commit_every, repeats)
        report = {
            "config": {"records": records, "commit_every": commit_every,
                       "repeats": repeats},
            "ingest": ingest,
            "engine_micro": _bench_engine_micro(records, commit_every,
                                                repeats),
            "recovery": _bench_recovery(base, wal_dir, records,
                                        commit_every),
            "compaction": _bench_compaction(base, records, commit_every),
            "codec": _bench_codec(base, repeats),
        }
        return report
    finally:
        if own_tmp:
            shutil.rmtree(base, ignore_errors=True)


def summary_lines(report: dict) -> List[str]:
    ingest = report["ingest"]
    micro = report["engine_micro"]
    recovery = report["recovery"]
    compaction = report["compaction"]
    codec = report["codec"]
    return [
        f"ingest: {ingest['records']} records, WAL off "
        f"{ingest['base_seconds']:.3f}s -> WAL on "
        f"{ingest['wal_seconds']:.3f}s "
        f"({ingest['overhead_ratio']:.2f}x overhead, "
        f"{ingest['records_per_second_wal']:,.0f} rec/s)",
        f"engine floor: bare write {micro['base_seconds']:.3f}s vs "
        f"log+write {micro['wal_seconds']:.3f}s "
        f"({micro['overhead_ratio']:.2f}x)",
        f"recovery: full WAL replay {recovery['wal_replay']['seconds']:.3f}s "
        f"({recovery['wal_replay']['operations_replayed']} ops, "
        f"{recovery['wal_replay']['rounds']} rounds); checkpointed "
        f"{recovery['checkpointed']['seconds']:.3f}s "
        f"({recovery['checkpointed']['operations_replayed']} tail ops)",
        f"recovered store byte-identical to live: "
        f"{recovery['byte_identical']}",
        f"compaction: {compaction['checkpoints']} checkpoints, "
        f"write amplification {compaction['write_amplification']:.2f}x, "
        f"{compaction['compaction_merges']} merges, "
        f"live segments {compaction['live_segment_bytes']:,} bytes",
        f"codec: v1 {codec['v1_bytes']:,}B -> v2 {codec['v2_bytes']:,}B "
        f"({codec['size_ratio']:.1f}x smaller); "
        f"{codec['window_fraction']:.0%}-window scan "
        f"{codec['v1_rows_per_second']:,.0f} -> "
        f"{codec['v2_rows_per_second']:,.0f} rows/s "
        f"({codec['scan_speedup']:.1f}x)",
    ]
