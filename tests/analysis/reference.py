"""Row-at-a-time analytics oracles: the references for the engine.

These are the pre-vectorization implementations, kept out of production:
``reference_aggregate`` folds ``archive.history`` rows with plain Python
loops (the oracle ``compare_aggregates`` judges the vectorized
``AnalyticsRuntime`` against in ``tests/analysis/test_engine_parity.py``
and ``tests/core/test_analytics.py``), and the ``_reference_*`` helpers
are the old value-at-a-time resample and day-at-a-time Figure-3 heatmap
construction that ``tests/analysis/test_heatmaps.py`` requires the
engine path to match byte for byte.
"""

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.heatmaps import Heatmap, _class_of
from repro.core.archive import (
    IF_SCORE_MEASURE,
    SPS_MEASURE,
    SpotLakeArchive,
)
from repro.timeseries import AggSpec, SeriesKey
from repro.timeseries.table import Table

#: Baseline lookback used by the reference oracle (finite stand-in for
#: "the beginning of time"; the simulation epoch is 2022).
_EARLY = -1.0e15


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
    measure_table = {"sps": (archive.sps, SPS_MEASURE),
                     "if_score": (archive.advisor, IF_SCORE_MEASURE)}
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
