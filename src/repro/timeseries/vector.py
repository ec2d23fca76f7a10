"""Vectorized aggregation kernels for change-point series.

This module is the computational heart of the analytics pushdown: a
declarative :class:`AggSpec` describes *what* to aggregate (measure,
filters, time window, bucket width, group-by dimensions, aggregate
functions) and the kernels here compute it from flat decoded columns --
``(times, values, series-index)`` arrays -- without ever touching a
Python row loop.  The same kernels serve all three tiers:

* **cold** -- columns come from the lake's one cold reader
  (``SpotDataLake.scan_column_arrays``);
* **hot** -- columns are packed per-series float64 views cached on
  ``Table`` and invalidated by the existing generation stamps;
* **federated** -- each tier produces a :class:`Partials` block and
  :func:`merge_partials` combines them exactly (count/sum/min/max merge
  directly; mean/std via the (n, Σ, Σ²) decomposition; update intervals
  get the cross-tier seam added at merge time).

Everything is deterministic: reductions use ``np.bincount`` /
``np.add.at`` (sequential, index-order accumulation -- the same float
association a left-to-right Python loop produces), ``last`` resolves ties
by canonical series order, and the step-function time-weighted mean is an
exact integral of the reconstructed step series over each bucket.

The module is a leaf like the rest of ``timeseries``: it knows nothing
about storage, the lake or serving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .record import SeriesKey
from .table import Table

_NEG_INF = float("-inf")
_POS_INF = float("inf")

#: Aggregate functions an :class:`AggSpec` may request.
AGGREGATES = ("count", "min", "max", "mean", "sum", "std", "last",
              "change_count", "mean_interval", "twa_mean")

#: Aggregates that need the step-integral (area, cover) partials.
_TWA_AGGREGATES = ("twa_mean",)


@dataclass(frozen=True)
class AggSpec:
    """A declarative bucketed group-by aggregation over one measure.

    ``bucket_seconds`` of ``None`` means a single bucket spanning the
    whole ``[start, end]`` window.  ``group_by`` names dimensions of the
    series keys; series missing a group-by dimension are excluded from
    the result (they have no coordinate on the group axis).  ``filters``
    is an exact-match dimension constraint, identical in meaning to the
    ``Table.scan`` filters.
    """

    table: str
    measure: str
    start: float
    end: float
    bucket_seconds: Optional[float] = None
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[str, ...] = ("mean", "count")
    filters: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.start) or not math.isfinite(self.end):
            raise ValueError("AggSpec window must be finite")
        if self.end < self.start:
            raise ValueError(
                f"AggSpec window is inverted: {self.end} < {self.start}")
        if self.bucket_seconds is not None and \
                not (self.bucket_seconds > 0
                     and math.isfinite(self.bucket_seconds)):
            raise ValueError("bucket_seconds must be positive and finite")
        unknown = [a for a in self.aggregates if a not in AGGREGATES]
        if unknown:
            raise ValueError(f"unknown aggregates: {unknown}")
        if not self.aggregates:
            raise ValueError("AggSpec needs at least one aggregate")

    @classmethod
    def make(cls, table: str, measure: str, start: float, end: float,
             bucket_seconds: Optional[float] = None,
             group_by: Sequence[str] = (),
             aggregates: Sequence[str] = ("mean", "count"),
             filters: Optional[Dict[str, str]] = None) -> "AggSpec":
        """Build a spec from unordered/dict-style arguments."""
        return cls(table=table, measure=measure, start=float(start),
                   end=float(end),
                   bucket_seconds=(None if bucket_seconds is None
                                   else float(bucket_seconds)),
                   group_by=tuple(group_by),
                   aggregates=tuple(aggregates),
                   filters=tuple(sorted((filters or {}).items())))

    @property
    def wants_twa(self) -> bool:
        return any(a in _TWA_AGGREGATES for a in self.aggregates)


def bucket_edges(start: float, end: float,
                 bucket_seconds: Optional[float]) -> np.ndarray:
    """Bucket boundary instants for a window (inclusive of both ends).

    The last bucket is clamped to ``end`` (it may be shorter than the
    nominal width); ``bucket_seconds=None`` yields one bucket.
    """
    if bucket_seconds is None or end <= start:
        return np.asarray([start, end], dtype="<f8")
    n = int(math.ceil((end - start) / bucket_seconds))
    n = max(n, 1)
    edges = start + bucket_seconds * np.arange(n + 1, dtype="<f8")
    edges[-1] = min(float(edges[-1]), end)
    # float accumulation can land the penultimate edge past a clamped
    # end; monotonicity is required by searchsorted
    return np.maximum.accumulate(np.minimum(edges, end))


def bucket_index(edges: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Bucket subscript per instant; window-end instants land in the
    last bucket (the window is closed on the right)."""
    idx = np.searchsorted(edges, times, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


@dataclass
class TierColumns:
    """Flat decoded change-row columns for one tier of one spec.

    ``counts[i]`` rows of ``times``/``values`` belong to the i-th series
    of the caller's universe, series-major and time-sorted within each
    series.  ``base_values``/``has_base`` carry the value in force just
    before the tier window (the predecessor a first in-window row is
    compared against for change counting and the step integral).
    """

    counts: np.ndarray          # int64, one per universe series
    times: np.ndarray           # float64, flat
    values: np.ndarray          # float64, flat
    base_values: np.ndarray     # float64, NaN when absent
    has_base: np.ndarray        # bool

    @classmethod
    def empty(cls, n_series: int) -> "TierColumns":
        return cls(counts=np.zeros(n_series, dtype=np.int64),
                   times=np.empty(0, dtype="<f8"),
                   values=np.empty(0, dtype="<f8"),
                   base_values=np.full(n_series, np.nan),
                   has_base=np.zeros(n_series, dtype=bool))


def gather_table_columns(table: Table, keys: Sequence[SeriesKey],
                         lo: float, end: float,
                         include_lo: bool) -> TierColumns:
    """Hot-tier columns from a table's packed per-series views.

    Selects rows in ``[lo, end]`` (or ``(lo, end]`` when ``include_lo``
    is false -- the federated hot side, which starts strictly after the
    eviction boundary) with two ``searchsorted`` probes per series; the
    row just before the cut becomes the tier baseline.  Callers must
    hold the table lock across the whole gather so the snapshot is
    consistent.
    """
    n = len(keys)
    cols = TierColumns.empty(n)
    t_parts: List[np.ndarray] = []
    v_parts: List[np.ndarray] = []
    for i, key in enumerate(keys):
        arrays = table.series_arrays(key)
        if arrays is None:
            continue
        times, values = arrays
        lo_i = int(np.searchsorted(times, lo,
                                   side="left" if include_lo else "right"))
        hi_i = int(np.searchsorted(times, end, side="right"))
        if lo_i > 0:
            cols.has_base[i] = True
            cols.base_values[i] = values[lo_i - 1]
        if hi_i > lo_i:
            cols.counts[i] = hi_i - lo_i
            t_parts.append(times[lo_i:hi_i])
            v_parts.append(values[lo_i:hi_i])
    if t_parts:
        cols.times = np.concatenate(t_parts)
        cols.values = np.concatenate(v_parts)
    return cols


# -- partial aggregates ----------------------------------------------------

#: Field order of a packed per-series scalar partial (see
#: :func:`series_window_partial`); ``first_time`` rides along because a
#: scalar partial covers exactly one bucket, so its cell-level last_time
#: doubles as the series-level one but first_time has no cell slot.
PARTIAL_FIELDS = ("count", "vsum", "vsumsq", "vmin", "vmax", "last_time",
                  "last_value", "changes", "ivl_sum", "ivl_count",
                  "area", "cover", "first_time")

_PF = {name: i for i, name in enumerate(PARTIAL_FIELDS)}


@dataclass
class Partials:
    """Mergeable partial aggregates on a (group × bucket) cell grid.

    All cell arrays are flat of length ``n_groups * n_buckets`` (cell =
    ``group * n_buckets + bucket``).  ``series_first_time`` /
    ``series_last_time`` are per-*series* (NaN when the tier holds no
    rows for that series); they exist so :func:`merge_partials` can add
    the cross-tier update interval that neither tier sees locally.
    """

    n_groups: int
    n_buckets: int
    count: np.ndarray
    vsum: np.ndarray
    vsumsq: np.ndarray
    vmin: np.ndarray
    vmax: np.ndarray
    last_time: np.ndarray
    last_value: np.ndarray
    changes: np.ndarray
    ivl_sum: np.ndarray
    ivl_count: np.ndarray
    area: np.ndarray
    cover: np.ndarray
    series_first_time: np.ndarray = field(default=None)  # type: ignore
    series_last_time: np.ndarray = field(default=None)   # type: ignore

    @classmethod
    def zeros(cls, n_groups: int, n_buckets: int,
              n_series: int) -> "Partials":
        cells = n_groups * n_buckets
        return cls(
            n_groups=n_groups, n_buckets=n_buckets,
            count=np.zeros(cells, dtype=np.int64),
            vsum=np.zeros(cells), vsumsq=np.zeros(cells),
            vmin=np.full(cells, _POS_INF), vmax=np.full(cells, _NEG_INF),
            last_time=np.full(cells, _NEG_INF),
            last_value=np.full(cells, np.nan),
            changes=np.zeros(cells, dtype=np.int64),
            ivl_sum=np.zeros(cells),
            ivl_count=np.zeros(cells, dtype=np.int64),
            area=np.zeros(cells), cover=np.zeros(cells),
            series_first_time=np.full(n_series, np.nan),
            series_last_time=np.full(n_series, np.nan))


def compute_partials(cols: TierColumns, group_of_series: np.ndarray,
                     n_groups: int, edges: np.ndarray,
                     cover_start: float, cover_end: float,
                     want_twa: bool) -> Partials:
    """Aggregate one tier's flat columns into cell partials.

    ``group_of_series[i]`` is the group subscript of universe series i
    (``-1`` excludes the series).  ``cover_start``/``cover_end`` bound
    the tier's *observation* window for the step integral -- they may be
    narrower than the bucket grid when the tier covers only part of the
    query window (the federated split).

    Accumulation order is series-major row order via sequential
    ``np.bincount`` / ``np.add.at``, i.e. bit-identical to a Python loop
    over the same rows in the same order.
    """
    counts = cols.counts
    n_series = counts.size
    nb = len(edges) - 1
    cells = n_groups * nb
    part = Partials.zeros(n_groups, nb, n_series)
    times, values = cols.times, cols.values
    n = times.size

    starts = np.zeros(n_series, dtype=np.int64)
    if n_series > 1:
        starts[1:] = np.cumsum(counts)[:-1]
    nonzero = counts > 0
    if n:
        part.series_first_time[nonzero] = times[starts[nonzero]]
        part.series_last_time[nonzero] = \
            times[starts[nonzero] + counts[nonzero] - 1]

        sidx = np.repeat(np.arange(n_series), counts)
        g_row = group_of_series[sidx]
        valid = g_row >= 0
        bucket = bucket_index(edges, times)
        cell = g_row * nb + bucket

        is_first = np.zeros(n, dtype=bool)
        is_first[starts[nonzero]] = True
        has_prev = np.ones(n, dtype=bool)
        has_prev[is_first] = cols.has_base[sidx[is_first]]

        vcell = cell[valid]
        vvals = values[valid]
        part.count += np.bincount(vcell, minlength=cells).astype(np.int64)
        part.vsum += np.bincount(vcell, weights=vvals, minlength=cells)
        part.vsumsq += np.bincount(vcell, weights=vvals * vvals,
                                   minlength=cells)
        np.minimum.at(part.vmin, vcell, vvals)
        np.maximum.at(part.vmax, vcell, vvals)

        chg = valid & has_prev
        part.changes += np.bincount(cell[chg], minlength=cells
                                    ).astype(np.int64)

        within = valid & ~is_first
        if within.any():
            prev_t = np.empty(n)
            prev_t[0] = 0.0
            prev_t[1:] = times[:-1]
            gaps = times[within] - prev_t[within]
            part.ivl_sum += np.bincount(cell[within], weights=gaps,
                                        minlength=cells)
            part.ivl_count += np.bincount(cell[within], minlength=cells
                                          ).astype(np.int64)

        # "last" per cell: the row maximizing (time, series order).  Sort
        # ranks once, take the max rank per cell, gather through the sort.
        order = np.lexsort((sidx[valid], times[valid]))
        rank_of = np.empty(order.size, dtype=np.int64)
        rank_of[order] = np.arange(order.size)
        best = np.full(cells, -1, dtype=np.int64)
        np.maximum.at(best, vcell, rank_of)
        hit = best >= 0
        src = order[best[hit]]
        part.last_time[hit] = times[valid][src]
        part.last_value[hit] = vvals[src]

    if want_twa:
        _accumulate_step_integral(part, cols, group_of_series, edges,
                                  cover_start, cover_end, starts)
    return part


def _accumulate_step_integral(part: Partials, cols: TierColumns,
                              group_of_series: np.ndarray,
                              edges: np.ndarray, cover_start: float,
                              cover_end: float,
                              starts: np.ndarray) -> None:
    """Exact per-bucket integral of each series' step function.

    For each series the step function is reconstructed from the tier
    baseline (value in force at ``cover_start``) plus its in-window
    change rows; the cumulative integral is evaluated at the bucket
    edges clipped to the observed span, giving per-bucket area and
    covered duration.  One short numpy pass per series -- the only
    per-series Python iteration in the engine, and it runs only when a
    time-weighted aggregate was requested.
    """
    nb = len(edges) - 1
    ce = cover_end
    for s in range(cols.counts.size):
        g = int(group_of_series[s])
        if g < 0:
            continue
        cnt = int(cols.counts[s])
        lo = int(starts[s])
        t = cols.times[lo:lo + cnt]
        v = cols.values[lo:lo + cnt]
        if cols.has_base[s]:
            k = np.concatenate(([cover_start], t))
            u = np.concatenate(([cols.base_values[s]], v))
        else:
            k, u = t, v
        if k.size == 0 or k[0] >= ce:
            continue
        prefix = np.concatenate(([0.0], np.cumsum(u[:-1] * np.diff(k))))
        pts = np.clip(edges, k[0], ce)
        j = np.searchsorted(k, pts, side="right") - 1
        integral = prefix[j] + u[j] * (pts - k[j])
        cell0 = g * nb
        part.area[cell0:cell0 + nb] += integral[1:] - integral[:-1]
        part.cover[cell0:cell0 + nb] += pts[1:] - pts[:-1]


def merge_partials(a: Partials, b: Partials, group_of_series: np.ndarray,
                   edges: np.ndarray) -> Partials:
    """Exact merge of two time-adjacent partials (``a`` strictly earlier).

    Counts, sums, Σ², change counts, intervals, areas and cover add;
    min/max take elementwise extrema; ``last`` comes from ``b`` wherever
    ``b`` saw any row.  The one cross-tier term neither side computed
    locally is the update interval spanning the seam: for every series
    with rows on both sides it is ``b.first - a.last``, attributed to
    the bucket of ``b``'s first row (the convention used everywhere:
    an interval belongs to the bucket of its later endpoint).
    """
    nb = a.n_buckets
    out = Partials.zeros(a.n_groups, nb, a.series_first_time.size)
    out.count = a.count + b.count
    out.vsum = a.vsum + b.vsum
    out.vsumsq = a.vsumsq + b.vsumsq
    out.vmin = np.minimum(a.vmin, b.vmin)
    out.vmax = np.maximum(a.vmax, b.vmax)
    take_b = b.last_time > _NEG_INF
    out.last_time = np.where(take_b, b.last_time, a.last_time)
    out.last_value = np.where(take_b, b.last_value, a.last_value)
    out.changes = a.changes + b.changes
    out.ivl_sum = a.ivl_sum + b.ivl_sum
    out.ivl_count = a.ivl_count + b.ivl_count
    out.area = a.area + b.area
    out.cover = a.cover + b.cover

    seam = (~np.isnan(a.series_last_time)
            & ~np.isnan(b.series_first_time)
            & (group_of_series >= 0))
    if seam.any():
        first_b = b.series_first_time[seam]
        cell = group_of_series[seam] * nb + bucket_index(edges, first_b)
        np.add.at(out.ivl_sum, cell, first_b - a.series_last_time[seam])
        np.add.at(out.ivl_count, cell, 1)

    out.series_first_time = np.where(~np.isnan(a.series_first_time),
                                     a.series_first_time,
                                     b.series_first_time)
    out.series_last_time = np.where(~np.isnan(b.series_last_time),
                                    b.series_last_time, a.series_last_time)
    return out


# -- per-series scalar partials (the rollup cache unit) --------------------

def series_window_partial(times: np.ndarray, values: np.ndarray,
                          w_start: float, w_end: float,
                          end_inclusive: bool) -> np.ndarray:
    """Scalar partial of one series over ``[w_start, w_end)`` (or
    ``[w_start, w_end]`` when ``end_inclusive``).

    ``times``/``values`` are the series' *full* packed arrays; the
    window is cut with two bisects.  Packed per :data:`PARTIAL_FIELDS`,
    this is what the rollup cache stores per series per day.
    """
    out = np.zeros(len(PARTIAL_FIELDS))
    lo = int(np.searchsorted(times, w_start, side="left"))
    hi = int(np.searchsorted(times, w_end,
                             side="right" if end_inclusive else "left"))
    seg_t = times[lo:hi]
    seg_v = values[lo:hi]
    cnt = hi - lo
    out[_PF["count"]] = cnt
    has_base = lo > 0
    if cnt:
        out[_PF["vsum"]] = float(np.sum(seg_v))
        out[_PF["vsumsq"]] = float(np.sum(seg_v * seg_v))
        out[_PF["vmin"]] = float(np.min(seg_v))
        out[_PF["vmax"]] = float(np.max(seg_v))
        out[_PF["last_time"]] = float(seg_t[-1])
        out[_PF["last_value"]] = float(seg_v[-1])
        out[_PF["first_time"]] = float(seg_t[0])
        out[_PF["changes"]] = cnt if has_base else cnt - 1
        if cnt > 1:
            gaps = np.diff(seg_t)
            out[_PF["ivl_sum"]] = float(np.sum(gaps))
            out[_PF["ivl_count"]] = cnt - 1
    else:
        out[_PF["vmin"]] = _POS_INF
        out[_PF["vmax"]] = _NEG_INF
        out[_PF["last_time"]] = _NEG_INF
        out[_PF["last_value"]] = np.nan
        out[_PF["first_time"]] = np.nan

    if has_base:
        k = np.concatenate(([w_start], seg_t))
        u = np.concatenate(([values[lo - 1]], seg_v))
    else:
        k, u = seg_t, seg_v
    if k.size and k[0] < w_end:
        span = np.concatenate((k, [w_end]))
        out[_PF["area"]] = float(np.sum(u * np.diff(span)))
        out[_PF["cover"]] = w_end - float(k[0])
    return out


def lift_series_partials(matrix: np.ndarray, bucket_of_series: np.ndarray,
                         group_of_series: np.ndarray, n_groups: int,
                         edges: np.ndarray) -> Partials:
    """Lift per-series scalar partials onto the (group × bucket) grid.

    ``matrix`` is (n_series × len(PARTIAL_FIELDS)); every series' scalar
    partial lands whole in ``bucket_of_series[s]`` (the caller guarantees
    the scalar window nests inside that bucket -- day rollups on a
    day-multiple grid).  Accumulation across series sharing a cell is
    sequential in series order, matching :func:`compute_partials`.
    """
    n_series = matrix.shape[0]
    nb = len(edges) - 1
    part = Partials.zeros(n_groups, nb, n_series)
    present = matrix[:, _PF["count"]] > 0
    grouped = group_of_series >= 0
    live = grouped & (present | (matrix[:, _PF["cover"]] > 0))
    cell = group_of_series * nb + bucket_of_series
    lc = cell[live]

    def add(field_name: str, target: np.ndarray, integer: bool = False):
        col = matrix[live, _PF[field_name]]
        np.add.at(target, lc, col.astype(np.int64) if integer else col)

    add("count", part.count, integer=True)
    add("vsum", part.vsum)
    add("vsumsq", part.vsumsq)
    add("changes", part.changes, integer=True)
    add("ivl_sum", part.ivl_sum)
    add("ivl_count", part.ivl_count, integer=True)
    add("area", part.area)
    add("cover", part.cover)
    np.minimum.at(part.vmin, lc, matrix[live, _PF["vmin"]])
    np.maximum.at(part.vmax, lc, matrix[live, _PF["vmax"]])

    # last per cell: later (time, series order) wins; assign ascending so
    # the winner overwrites
    rowed = grouped & present
    rows = np.nonzero(rowed)[0]
    if rows.size:
        lt = matrix[rows, _PF["last_time"]]
        order = np.lexsort((rows, lt))
        src = rows[order]
        part.last_time[cell[src]] = matrix[src, _PF["last_time"]]
        part.last_value[cell[src]] = matrix[src, _PF["last_value"]]

    part.series_first_time = np.where(
        present, matrix[:, _PF["first_time"]], np.nan)
    part.series_last_time = np.where(
        present, matrix[:, _PF["last_time"]], np.nan)
    return part


# -- finishing -------------------------------------------------------------

def finish_aggregates(part: Partials,
                      aggregates: Iterable[str]) -> Dict[str, np.ndarray]:
    """Final (group × bucket) tables from cell partials.

    Empty cells come out NaN for value aggregates and 0 for the counting
    ones; ``std`` is the population standard deviation via the (n, Σ,
    Σ²) identity, clamped at zero against negative rounding residue.
    """
    shape = (part.n_groups, part.n_buckets)
    count = part.count.reshape(shape)
    nonempty = count > 0
    out: Dict[str, np.ndarray] = {}
    for agg in aggregates:
        if agg == "count":
            out[agg] = count.copy()
        elif agg == "sum":
            out[agg] = np.where(nonempty, part.vsum.reshape(shape), np.nan)
        elif agg == "mean":
            mean = np.divide(part.vsum.reshape(shape), count,
                             out=np.full(shape, np.nan), where=nonempty)
            out[agg] = mean
        elif agg == "min":
            out[agg] = np.where(nonempty, part.vmin.reshape(shape), np.nan)
        elif agg == "max":
            out[agg] = np.where(nonempty, part.vmax.reshape(shape), np.nan)
        elif agg == "std":
            mean = np.divide(part.vsum.reshape(shape), count,
                             out=np.zeros(shape), where=nonempty)
            msq = np.divide(part.vsumsq.reshape(shape), count,
                            out=np.zeros(shape), where=nonempty)
            var = np.maximum(msq - mean * mean, 0.0)
            out[agg] = np.where(nonempty, np.sqrt(var), np.nan)
        elif agg == "last":
            seen = part.last_time.reshape(shape) > _NEG_INF
            out[agg] = np.where(seen, part.last_value.reshape(shape),
                                np.nan)
        elif agg == "change_count":
            out[agg] = part.changes.reshape(shape).copy()
        elif agg == "mean_interval":
            ic = part.ivl_count.reshape(shape)
            out[agg] = np.divide(part.ivl_sum.reshape(shape), ic,
                                 out=np.full(shape, np.nan), where=ic > 0)
        elif agg == "twa_mean":
            cov = part.cover.reshape(shape)
            out[agg] = np.divide(part.area.reshape(shape), cov,
                                 out=np.full(shape, np.nan), where=cov > 0)
        else:
            raise ValueError(f"unknown aggregate {agg!r}")
    return out


@dataclass
class AggResult:
    """Finished aggregation: group labels × bucket grid tables.

    ``group_labels[g]`` is the tuple of group-by dimension values for
    group row g (empty tuple for the ungrouped single row); ``edges``
    the bucket boundaries; ``tables[agg]`` the (groups × buckets) value
    matrix; ``count``/``cover`` always present for renderers that need
    cell emptiness regardless of the requested aggregates.
    """

    spec: AggSpec
    group_labels: Tuple[Tuple[str, ...], ...]
    edges: np.ndarray
    tables: Dict[str, np.ndarray]
    count: np.ndarray
    cover: Optional[np.ndarray]

    @property
    def n_buckets(self) -> int:
        return len(self.edges) - 1
