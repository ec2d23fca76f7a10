"""Analytics benchmark harness: vectorized pushdown vs the row path.

Four questions decide whether the vectorized analytics engine earns its
keep:

1. **Cold bucketed aggregation** -- a compacted, retention-evicted lake
   is aggregated through the columnar ``scan_columns`` pushdown and
   through the row-at-a-time reference (``archive.history`` + a Python
   accumulation loop, the pre-engine implementation).  Gate: >= 5x, and
   the two answers must agree numerically.
2. **Hot heatmap construction** -- Figure 3's temporal heatmap over a
   backfilled archive, new single-resample engine path vs the old
   day-at-a-time, value-at-a-time loop (kept here as ``_reference_*``
   oracles).  Gate: >= 3x with byte-identical matrices.
3. **Rollup-warm repeats** -- a day-aligned hot aggregation repeated
   against an unchanged archive must hit the generation-stamped result
   memo.  Gate: >= 10x over the first (cold) evaluation; after an
   append, cached per-day partials must carry most of the recompute.
4. **Worker byte-identity** -- the same ``/analytics`` request mix
   served through 1/2/4 frontend workers must produce byte-identical
   response streams.

A fifth, ungated section times ``SpotDataLake.scan`` over an
*uncompacted* multi-partition window -- the workload the heap-based
k-way run merge in ``lake.store`` exists for.

Lives in ``devtools`` (not ``analysis``) because it times with the
*host* clock: benchmarking latency is meta-observation, outside the
simulation's seed+clock determinism envelope.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from bisect import bisect_right
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.archive import (
    DIM_TYPE,
    DIM_ZONE,
    SPS_MEASURE,
    SPS_TABLE,
    SpotLakeArchive,
)
from ..core.service import SpotLakeService
from ..timeseries import AggSpec, RetentionPolicy, SeriesKey
from ..timeseries.table import Table
from .frontendbench import bench_tenants, run_closed_loop
from .lakebench import (
    BENCH_REGION,
    COLD_INTERVAL,
    COLD_ROUNDS,
    COLD_TYPES,
    DEFAULT_ZONES,
    EPOCH,
    _dense_round,
    _drive_churn_round,
)
from .servebench import build_backfilled_service

DAY = 86400.0

#: Cold-aggregation workload: dense churn (every series changes every
#: round) evicted deep enough that the timed window is served purely
#: cold -- big enough that per-row work, not fixed overhead, dominates.
COLD_AGG_ROUNDS = 96
COLD_AGG_TYPES = 60
#: Wide enough that the workload spans multiple UTC days, so compaction
#: yields several day partitions and the narrow-window probe has
#: whole partitions for the zone maps to prune.
COLD_AGG_INTERVAL = 1800.0
COLD_AGG_RETENTION_ROUNDS = 12
COLD_AGG_CHURN = 1

#: Aggregates exercised by the timed cold comparison (all of them).
COLD_AGGREGATES = ("count", "min", "max", "mean", "sum", "std", "last",
                   "change_count", "mean_interval", "twa_mean")

#: Baseline lookback used by the reference oracle (finite stand-in for
#: "the beginning of time"; the simulation epoch is 2022).
_EARLY = -1.0e15


# -- row-at-a-time reference implementations (the oracles) -----------------


def reference_aggregate(archive: SpotLakeArchive, spec: AggSpec) -> dict:
    """The pre-engine answer: ``archive.history`` rows + Python loops.

    Semantically ground truth: rows are read through the federated
    row path and accumulated series-major in time order with plain
    Python floats -- the same accumulation order the vectorized kernels
    use, so single-tier sums agree bit-for-bit and cross-tier merges
    agree to rounding.
    """
    table = archive.store.table(spec.table)
    filters = dict(spec.filters) or None
    keys = table.series_keys(spec.measure, filters)
    group_of, labels = _reference_groups(keys, spec.group_by)
    n_groups = max(len(labels), 1)
    edges = _reference_edges(spec)
    nb = len(edges) - 1

    rows = archive.history(spec.table, spec.measure, dict(spec.filters),
                           spec.start, spec.end)
    earlier = archive.history(spec.table, spec.measure, dict(spec.filters),
                              _EARLY, spec.start)
    row_of = {key.dimensions: i for i, key in enumerate(keys)}
    per_series: List[List] = [[] for _ in keys]
    for r in rows:
        per_series[row_of[r.dimensions]].append(r)
    baseline: List[Optional[float]] = [None] * len(keys)
    for r in earlier:
        if r.time < spec.start:
            baseline[row_of[r.dimensions]] = float(r.value)

    def cells(fill):
        return [[fill] * nb for _ in range(n_groups)]

    count = cells(0)
    vsum = cells(0.0)
    vsumsq = cells(0.0)
    vmin = cells(math.inf)
    vmax = cells(-math.inf)
    last_key = cells(None)
    last_val = cells(math.nan)
    changes = cells(0)
    ivl_sum = cells(0.0)
    ivl_count = cells(0)
    area = cells(0.0)
    cover = cells(0.0)

    for i, srows in enumerate(per_series):
        g = group_of[i]
        if g < 0:
            continue
        prev_t: Optional[float] = None
        for j, r in enumerate(srows):
            t, v = float(r.time), float(r.value)
            b = min(max(bisect_right(edges, t) - 1, 0), nb - 1)
            count[g][b] += 1
            vsum[g][b] += v
            vsumsq[g][b] += v * v
            vmin[g][b] = min(vmin[g][b], v)
            vmax[g][b] = max(vmax[g][b], v)
            if last_key[g][b] is None or (t, i) >= last_key[g][b]:
                last_key[g][b] = (t, i)
                last_val[g][b] = v
            if j > 0 or baseline[i] is not None:
                changes[g][b] += 1
            if prev_t is not None:
                ivl_sum[g][b] += t - prev_t
                ivl_count[g][b] += 1
            prev_t = t
        if spec.wants_twa:
            _reference_step_area(srows, baseline[i], spec, edges,
                                 area[g], cover[g])

    tables: Dict[str, np.ndarray] = {}
    for agg in spec.aggregates:
        out = np.full((n_groups, nb), np.nan)
        for g in range(n_groups):
            for b in range(nb):
                n = count[g][b]
                if agg == "count":
                    out[g, b] = n
                elif agg == "change_count":
                    out[g, b] = changes[g][b]
                elif n and agg == "sum":
                    out[g, b] = vsum[g][b]
                elif n and agg == "min":
                    out[g, b] = vmin[g][b]
                elif n and agg == "max":
                    out[g, b] = vmax[g][b]
                elif n and agg == "mean":
                    out[g, b] = vsum[g][b] / n
                elif n and agg == "std":
                    mean = vsum[g][b] / n
                    out[g, b] = math.sqrt(
                        max(vsumsq[g][b] / n - mean * mean, 0.0))
                elif n and agg == "last":
                    out[g, b] = last_val[g][b]
                elif agg == "mean_interval" and ivl_count[g][b]:
                    out[g, b] = ivl_sum[g][b] / ivl_count[g][b]
                elif agg == "twa_mean" and cover[g][b] > 0:
                    out[g, b] = area[g][b] / cover[g][b]
        tables[agg] = out
    return {"labels": labels, "edges": edges, "tables": tables}


def _reference_edges(spec: AggSpec) -> List[float]:
    if spec.bucket_seconds is None:
        return [spec.start, spec.end]
    n = max(int(math.ceil((spec.end - spec.start) / spec.bucket_seconds)), 1)
    edges = [min(spec.start + spec.bucket_seconds * i, spec.end)
             for i in range(n + 1)]
    for i in range(1, len(edges)):
        edges[i] = max(edges[i], edges[i - 1])
    return edges


def _reference_groups(keys: Sequence[SeriesKey], group_by: Sequence[str],
                      ) -> Tuple[List[int], Tuple[Tuple[str, ...], ...]]:
    assigned: List[Tuple[int, Tuple[str, ...]]] = []
    for i, key in enumerate(keys):
        dims = key.dimension_dict
        if all(dim in dims for dim in group_by):
            assigned.append((i, tuple(dims[d] for d in group_by)))
    labels = tuple(sorted({label for _, label in assigned}))
    index = {label: g for g, label in enumerate(labels)}
    group_of = [-1] * len(keys)
    for i, label in assigned:
        group_of[i] = index[label]
    return group_of, labels


def _reference_step_area(srows, base: Optional[float], spec: AggSpec,
                         edges: List[float], area: List[float],
                         cover: List[float]) -> None:
    """Per-bucket step-function integral of one series, piecewise."""
    if base is not None:
        knots = [spec.start] + [float(r.time) for r in srows]
        levels = [base] + [float(r.value) for r in srows]
    else:
        knots = [float(r.time) for r in srows]
        levels = [float(r.value) for r in srows]
    if not knots or knots[0] >= spec.end:
        return
    for b in range(len(edges) - 1):
        lo = min(max(edges[b], knots[0]), spec.end)
        hi = min(max(edges[b + 1], knots[0]), spec.end)
        cover[b] += hi - lo
        for s in range(len(knots)):
            seg_end = knots[s + 1] if s + 1 < len(knots) else spec.end
            left = max(lo, knots[s])
            right = min(hi, seg_end)
            if right > left:
                area[b] += levels[s] * (right - left)


def compare_aggregates(result, reference: dict,
                       float_rtol: float = 1.0e-9) -> dict:
    """Numeric-identity check between an AggResult and the reference.

    Integer-valued and order-statistic aggregates must match exactly;
    accumulated floats must agree within ``float_rtol`` (cross-tier
    merges and the two twa integral formulations reassociate float
    additions, which exact equality would spuriously flag).
    """
    if tuple(result.group_labels) != tuple(reference["labels"]):
        return {"identical": False, "max_rel_err": math.inf,
                "mismatch": "group labels differ"}
    if not np.allclose(result.edges, np.asarray(reference["edges"]),
                       rtol=0, atol=0):
        return {"identical": False, "max_rel_err": math.inf,
                "mismatch": "bucket edges differ"}
    exact = ("count", "min", "max", "last", "change_count")
    max_rel = 0.0
    for agg, ref in reference["tables"].items():
        got = result.tables[agg]
        got_nan = np.isnan(got)
        ref_nan = np.isnan(ref)
        if not np.array_equal(got_nan, ref_nan):
            return {"identical": False, "max_rel_err": math.inf,
                    "mismatch": f"{agg}: NaN patterns differ"}
        g = got[~got_nan]
        r = ref[~ref_nan]
        if agg in exact:
            if not np.array_equal(g, r):
                return {"identical": False, "max_rel_err": math.inf,
                        "mismatch": f"{agg}: exact values differ"}
        elif g.size:
            denom = np.abs(r)
            if agg == "std" and "mean" in reference["tables"]:
                # std is a cancellation of O(mean^2) moments, so its
                # absolute error floor is eps*|mean|, not eps*|std|;
                # measure the error against the moment scale
                mean_ref = np.asarray(
                    reference["tables"]["mean"])[~ref_nan]
                denom = np.maximum(denom, np.abs(mean_ref))
            rel = np.abs(g - r) / np.maximum(denom, 1.0e-30)
            max_rel = max(max_rel, float(rel.max()))
    return {"identical": max_rel <= float_rtol, "max_rel_err": max_rel,
            "mismatch": None}


def _reference_resample_matrix(table: Table, measure_name: str,
                               sample_times: Sequence[float],
                               filters=None):
    """The old value-at-a-time resample loop (pre-vectorization)."""
    keys = table.series_keys(measure_name, filters)
    matrix = np.full((len(keys), len(sample_times)), np.nan)
    for row, key in enumerate(keys):
        series = table.series(key)
        assert series is not None
        for col, value in enumerate(series.resample(sample_times)):
            if value is None:
                continue
            if isinstance(value, str):
                raise TypeError(f"series {key} holds strings; resample "
                                f"numeric measures only")
            matrix[row, col] = float(value)
    return keys, matrix


def _reference_temporal_heatmap(archive: SpotLakeArchive, catalog,
                                day_times, dataset: str = "sps"):
    """The old day-at-a-time Figure-3 construction (pre-engine)."""
    from ..analysis.heatmaps import Heatmap, _class_of

    measure_table = {"sps": (archive.sps, SPS_MEASURE)}
    if dataset == "if_score":
        from ..core.archive import IF_SCORE_MEASURE
        measure_table["if_score"] = (archive.advisor, IF_SCORE_MEASURE)
    table, measure = measure_table[dataset]
    classes = catalog.classes
    class_row = {c: i for i, c in enumerate(classes)}
    n_days = len(day_times)
    sums = np.zeros((len(classes), n_days))
    counts = np.zeros((len(classes), n_days))
    for d, times in enumerate(day_times):
        keys, matrix = _reference_resample_matrix(table, measure, times)
        for row, key in enumerate(keys):
            cls = _class_of(catalog, key)
            if cls is None:
                continue
            vals = matrix[row]
            good = ~np.isnan(vals)
            if good.any():
                sums[class_row[cls], d] += vals[good].sum()
                counts[class_row[cls], d] += good.sum()
    with np.errstate(invalid="ignore"):
        values = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return Heatmap(list(classes), [f"day{i}" for i in range(n_days)], values)


def _reference_row_means(heatmap) -> Dict[str, float]:
    out = {}
    for i, label in enumerate(heatmap.row_labels):
        row = heatmap.values[i]
        if not np.all(np.isnan(row)):
            out[label] = float(np.nanmean(row))
    return out


def _reference_temporal_std(heatmap) -> float:
    stds = [float(np.nanstd(heatmap.values[i]))
            for i in range(len(heatmap.row_labels))
            if not np.all(np.isnan(heatmap.values[i]))]
    return float(np.mean(stds)) if stds else float("nan")


# -- bench sections --------------------------------------------------------


def _bench_cold_aggregation(base: Path, repeats: int) -> dict:
    """Columnar pushdown vs the row path on a purely-cold window."""
    archive = SpotLakeArchive(
        data_dir=base / "coldagg", checkpoint_every=4, lake=True,
        cache=False,
        retention=RetentionPolicy(
            max_age_seconds=COLD_AGG_RETENTION_ROUNDS * COLD_AGG_INTERVAL))
    for r in range(COLD_AGG_ROUNDS):
        _drive_churn_round(archive, r, COLD_AGG_TYPES, DEFAULT_ZONES,
                           COLD_AGG_INTERVAL, churn=COLD_AGG_CHURN)
    archive.lake.compact(include_active=True)
    boundary = archive.evicted_through(SPS_TABLE)
    assert boundary is not None and boundary > EPOCH
    spec = AggSpec.make(SPS_TABLE, SPS_MEASURE, EPOCH, float(boundary),
                        bucket_seconds=COLD_AGG_INTERVAL * 6,
                        group_by=(DIM_TYPE,), aggregates=COLD_AGGREGATES)

    vec_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = archive.analytics.run(spec)
        vec_s = min(vec_s, time.perf_counter() - started)
    ref_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        reference = reference_aggregate(archive, spec)
        ref_s = min(ref_s, time.perf_counter() - started)
    identity = compare_aggregates(result, reference)
    counters = archive.analytics.stats()

    # a narrow interior window exercises the zone maps: partitions and
    # chunks wholly outside [narrow_start, narrow_end] must be pruned,
    # not decoded, and the pruned result must still match the row fold
    narrow = AggSpec.make(
        SPS_TABLE, SPS_MEASURE, EPOCH + 2 * COLD_AGG_INTERVAL,
        EPOCH + 8 * COLD_AGG_INTERVAL, bucket_seconds=COLD_AGG_INTERVAL,
        group_by=(DIM_TYPE,), aggregates=COLD_AGGREGATES)
    narrow_result = archive.analytics.run(narrow)
    narrow_identity = compare_aggregates(
        narrow_result, reference_aggregate(archive, narrow))
    after_narrow = archive.analytics.stats()
    narrow_pruned = (
        after_narrow["chunks_pruned"] - counters["chunks_pruned"]
        + after_narrow["partitions_pruned"] - counters["partitions_pruned"])
    archive.close()
    return {
        "narrow_pruned": narrow_pruned,
        "narrow_identical": narrow_identity["identical"],
        "rounds": COLD_AGG_ROUNDS,
        "series": COLD_AGG_TYPES * DEFAULT_ZONES,
        "groups": len(result.group_labels),
        "buckets": result.n_buckets,
        "boundary": boundary,
        "aggregates": list(COLD_AGGREGATES),
        "rows_decoded": counters["rows_decoded"],
        "chunks_pruned": counters["chunks_pruned"],
        "chunks_decoded": counters["chunks_decoded"],
        "vector_seconds": vec_s,
        "row_seconds": ref_s,
        "speedup": ref_s / vec_s if vec_s > 0 else float("inf"),
        "identical": identity["identical"],
        "max_rel_err": identity["max_rel_err"],
        "mismatch": identity["mismatch"],
    }


#: Hot-heatmap workload shape (a scaled-down benchmarks/conftest grid).
HEATMAP_DAYS = 45
HEATMAP_POOL_TYPES = 12
HEATMAP_SAMPLES_PER_DAY = 2


def _bench_hot_heatmap(repeats: int) -> dict:
    """Figure-3 temporal heatmap, engine path vs the old row loop."""
    from ..analysis.heatmaps import temporal_heatmap

    service = build_backfilled_service(seed=0, days=HEATMAP_DAYS,
                                       pool_types=HEATMAP_POOL_TYPES,
                                       samples_per_day=HEATMAP_SAMPLES_PER_DAY)
    catalog = service.cloud.catalog
    start = service.cloud.clock.start
    day_times = [[start + d * DAY + s * (DAY / HEATMAP_SAMPLES_PER_DAY)
                  + 3600.0 for s in range(HEATMAP_SAMPLES_PER_DAY)]
                 for d in range(HEATMAP_DAYS)]
    archive = service.archive

    new_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        new = temporal_heatmap(archive, catalog, day_times, "sps")
        new_s = min(new_s, time.perf_counter() - started)
    old_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        old = _reference_temporal_heatmap(archive, catalog, day_times, "sps")
        old_s = min(old_s, time.perf_counter() - started)

    identical = (
        np.array_equal(new.values, old.values, equal_nan=True)
        and new.row_labels == old.row_labels
        and new.col_labels == old.col_labels
        and new.row_means() == _reference_row_means(old)
        and (new.temporal_std() == _reference_temporal_std(old)
             or (math.isnan(new.temporal_std())
                 and math.isnan(_reference_temporal_std(old)))))
    return {
        "days": HEATMAP_DAYS,
        "pool_types": HEATMAP_POOL_TYPES,
        "cells": int(new.values.size),
        "engine_seconds": new_s,
        "row_seconds": old_s,
        "speedup": old_s / new_s if new_s > 0 else float("inf"),
        "byte_identical": bool(identical),
    }


#: Rollup workload shape: a month of day-aligned hot history.
ROLLUP_DAYS = 30
ROLLUP_TYPES = 12
ROLLUP_SAMPLES_PER_DAY = 8
ROLLUP_WARM_REPEATS = 25


def _bench_rollup() -> dict:
    """Result-memo warm repeats vs the first evaluation; partial reuse."""
    archive = SpotLakeArchive()
    t = EPOCH
    for d in range(ROLLUP_DAYS):
        for s in range(ROLLUP_SAMPLES_PER_DAY):
            t = EPOCH + d * DAY + s * (DAY / ROLLUP_SAMPLES_PER_DAY)
            archive.append("sps", [
                (f"bench{p}.large", BENCH_REGION,
                 f"{BENCH_REGION}{chr(ord('a') + z)}",
                 (d + s + p * DEFAULT_ZONES + z) % 3 + 1, t)
                for p in range(ROLLUP_TYPES) for z in range(DEFAULT_ZONES)])
    end = EPOCH + ROLLUP_DAYS * DAY
    spec = AggSpec.make(SPS_TABLE, SPS_MEASURE, EPOCH, end,
                        bucket_seconds=DAY, group_by=(DIM_TYPE,),
                        aggregates=("count", "mean", "min", "max", "std",
                                    "change_count", "twa_mean"))

    started = time.perf_counter()
    first = archive.analytics.run(spec)
    cold_s = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(ROLLUP_WARM_REPEATS):
        archive.analytics.run(spec)
    warm_s = (time.perf_counter() - started) / ROLLUP_WARM_REPEATS
    stats_before = archive.analytics.stats()

    # one appended round invalidates the result memo; day partials for
    # the untouched days must be reused
    archive.append("sps", [("bench0.large", BENCH_REGION,
                            f"{BENCH_REGION}a", 9, end - 1.0)])
    wider = AggSpec.make(SPS_TABLE, SPS_MEASURE, EPOCH, end,
                         bucket_seconds=DAY, group_by=(DIM_TYPE,),
                         aggregates=spec.aggregates)
    after_append = archive.analytics.run(wider)
    stats_after = archive.analytics.stats()
    hits = stats_after["rollup_day_hits"] - stats_before["rollup_day_hits"]
    recomputes = (stats_after["rollup_day_recomputes"]
                  - stats_before["rollup_day_recomputes"])
    touched = hits + recomputes
    # the partially-reused result must still match the full row fold
    identity = compare_aggregates(after_append,
                                  reference_aggregate(archive, wider))
    return {
        "identical": identity["identical"],
        "max_rel_err": identity["max_rel_err"],
        "days": ROLLUP_DAYS,
        "series": ROLLUP_TYPES * DEFAULT_ZONES,
        "buckets": first.n_buckets,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "warm_repeats": ROLLUP_WARM_REPEATS,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "after_append_day_hits": hits,
        "after_append_day_recomputes": recomputes,
        "partial_reuse_ratio": hits / touched if touched else 0.0,
        "result_hits": stats_after["result_hits"],
    }


#: Worker-identity workload shape.
IDENTITY_DAYS = 20
IDENTITY_POOL_TYPES = 6
WORKER_COUNTS = (1, 2, 4)


def _analytics_mix(service: SpotLakeService) -> List[Tuple[str, Dict[str, str]]]:
    start = service.cloud.clock.start
    now = service.cloud.clock.now()
    base = {"start": str(start - 1.0), "end": str(now + 1.0)}
    mix = [
        ("/analytics", {**base, "dataset": "sps", "bucket": str(DAY),
                        "group_by": "region", "agg": "count,mean,std"}),
        ("/analytics", {**base, "dataset": "advisor",
                        "agg": "mean,min,max"}),
        ("/analytics", {**base, "dataset": "price", "bucket": str(2 * DAY),
                        "group_by": "instance_type,region",
                        "agg": "mean,last,twa_mean"}),
        ("/analytics", {**base, "dataset": "sps", "bucket": str(DAY),
                        "group_by": "instance_type",
                        "agg": "change_count,mean_interval",
                        "limit": "7"}),
    ]
    return mix * 6


def _bench_worker_identity(repeats: int) -> dict:
    """The same /analytics mix through 1/2/4 workers must byte-match."""
    service = build_backfilled_service(seed=0, days=IDENTITY_DAYS,
                                       pool_types=IDENTITY_POOL_TYPES)
    mix = _analytics_mix(service)
    tenants = bench_tenants(2)
    digests: Dict[str, str] = {}
    throughput: Dict[str, float] = {}
    for workers in WORKER_COUNTS:
        report = run_closed_loop(service, mix, tenants, clients=2,
                                 workers=workers)
        digests[str(workers)] = report["response_digest"]
        throughput[str(workers)] = report["throughput_rps"]
    return {
        "requests": len(mix),
        "workers": list(WORKER_COUNTS),
        "digests": digests,
        "throughput_rps": throughput,
        "byte_identical": len(set(digests.values())) == 1,
    }


def _bench_multipartition_scan(base: Path, repeats: int) -> dict:
    """Windowed scan over many per-round partitions (k-way merge path)."""
    from ..lake import RoundMerger, SpotDataLake

    lake = SpotDataLake(base / "kway")
    merger = RoundMerger()
    for r in range(COLD_ROUNDS):
        _dense_round(merger, r, COLD_TYPES, DEFAULT_ZONES)
        lake.append_round(merger.take_round(EPOCH + r * COLD_INTERVAL))
    start = EPOCH
    end = EPOCH + COLD_ROUNDS * COLD_INTERVAL
    best, rows = float("inf"), 0
    for _ in range(repeats):
        started = time.perf_counter()
        result = lake.scan(start, end)
        best = min(best, time.perf_counter() - started)
        rows = sum(len(r) for _, r in result)
    return {
        "partitions": len(lake.partitions),
        "rounds": COLD_ROUNDS,
        "rows": rows,
        "scan_seconds": best,
        "rows_per_second": rows / best if best > 0 else 0.0,
    }


def run_analysis_bench(repeats: int = 3,
                       workdir: Optional[Path] = None) -> dict:
    """Full analytics benchmark; returns the JSON-serializable report."""
    own_tmp = workdir is None
    base = Path(tempfile.mkdtemp(prefix="analysisbench-")) if own_tmp \
        else Path(workdir)
    try:
        return {
            "config": {"repeats": repeats},
            "cold_aggregation": _bench_cold_aggregation(base, repeats),
            "hot_heatmap": _bench_hot_heatmap(repeats),
            "rollup": _bench_rollup(),
            "worker_identity": _bench_worker_identity(repeats),
            "multipartition_scan": _bench_multipartition_scan(base, repeats),
        }
    finally:
        if own_tmp:
            shutil.rmtree(base, ignore_errors=True)


def summary_lines(report: dict) -> List[str]:
    cold = report["cold_aggregation"]
    heat = report["hot_heatmap"]
    roll = report["rollup"]
    ident = report["worker_identity"]
    kway = report["multipartition_scan"]
    return [
        f"cold aggregation: {cold['groups']} groups x {cold['buckets']} "
        f"buckets, {cold['rows_decoded']:,} rows decoded "
        f"({cold['chunks_pruned']} chunks pruned / "
        f"{cold['chunks_decoded']} decoded), vector "
        f"{cold['vector_seconds']*1000:.1f}ms vs rows "
        f"{cold['row_seconds']*1000:.1f}ms ({cold['speedup']:.1f}x), "
        f"identical={cold['identical']} "
        f"(max_rel_err={cold['max_rel_err']:.2e})",
        f"hot heatmap: {heat['days']} days x {heat['pool_types']} types, "
        f"engine {heat['engine_seconds']*1000:.1f}ms vs rows "
        f"{heat['row_seconds']*1000:.1f}ms ({heat['speedup']:.1f}x), "
        f"byte-identical={heat['byte_identical']}",
        f"rollups: cold {roll['cold_seconds']*1000:.1f}ms vs warm repeat "
        f"{roll['warm_seconds']*1000:.3f}ms ({roll['speedup']:.0f}x); "
        f"after append {roll['after_append_day_hits']} day partials "
        f"reused / {roll['after_append_day_recomputes']} recomputed "
        f"(reuse {roll['partial_reuse_ratio']:.2f})",
        f"worker identity: /analytics x{ident['requests']} through "
        f"{ident['workers']} workers, byte-identical="
        f"{ident['byte_identical']}",
        f"k-way merge: {kway['rows']:,} rows over {kway['partitions']} "
        f"uncompacted partitions in {kway['scan_seconds']*1000:.1f}ms "
        f"({kway['rows_per_second']:,.0f} rows/s)",
    ]
