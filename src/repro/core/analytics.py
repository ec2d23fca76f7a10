"""Analytics runtime: three-tier execution of declarative aggregations.

:class:`AnalyticsRuntime` executes a :class:`~repro.timeseries.vector.
AggSpec` against one archive by picking, per query, how each tier
contributes:

* **hot** -- packed per-series array views on the table
  (:meth:`Table.series_arrays`), sliced with ``searchsorted`` and
  reduced by the kernels in :mod:`repro.timeseries.vector`;
* **cold** -- decoded segment columns assembled by
  :meth:`SpotDataLake.scan_column_arrays` for the part of the window
  the hot engine evicted (the split reuses ``FederatedHistory.plan``,
  so the tier boundary is exactly the federation boundary);
* **merge** -- the two tiers' :class:`Partials` combine exactly
  (count/sum/min/max add or take extrema; mean/std via the (n, Σ, Σ²)
  decomposition; the cross-tier update interval is added at the seam).

On top sits a generation-stamped **rollup cache**: for day-aligned
specs served purely from the hot tier, per-day per-series scalar
partials are cached and revalidated against the series generation
stamps -- a repeat query after new appends recomputes only the days at
or past each series' previous observation frontier, and an eviction
(which can remove history appends never can) drops the affected
series' rollups wholesale via ``Table.eviction_generation``.  Whole
results are additionally memoized in the table's
:class:`~repro.timeseries.cache.QueryCache` under the standard
generation-stamp rule, so an unchanged repeat is one dict probe.

Determinism: the runtime reads simulation data only -- never the host
clock -- so identical archives give byte-identical analytics responses
regardless of worker count or timing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..lake.federated import FederatedHistory
from ..lake.schema import MERGED_TABLES
from ..timeseries.record import SeriesKey
from ..timeseries.table import Table
from ..timeseries.vector import (
    PARTIAL_FIELDS,
    AggResult,
    AggSpec,
    Partials,
    TierColumns,
    bucket_edges,
    bucket_index,
    compute_partials,
    finish_aggregates,
    gather_table_columns,
    lift_series_partials,
    merge_partials,
    series_window_partial,
)

#: Rollup granularity: one partial per series per UTC day.
DAY_SECONDS = 86400.0


@dataclass
class _SeriesRollup:
    """Cached per-day partials of one series, with their validity proof.

    ``gen`` is the series generation the partials were computed at;
    ``frontier`` the series' ``observed_until`` at that moment.  When
    the generation moved, only days at or past ``floor(frontier / day)``
    can differ (appends are monotone in time) -- unless an eviction
    happened, which invalidates everything.
    """

    gen: int
    frontier: float
    days: Dict[int, np.ndarray] = field(default_factory=dict)


class AnalyticsRuntime:
    """Vectorized aggregation engine over one :class:`SpotLakeArchive`."""

    def __init__(self, archive):
        self.archive = archive
        # (table, measure) -> per-series rollup entries; top-level map
        # guarded by _lock, entry contents serialized by the owning
        # table's lock (every compute path holds it)
        self._rollups: Dict[Tuple[str, str],
                            Dict[SeriesKey, _SeriesRollup]] = {}
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "queries": 0,
            "result_hits": 0,
            "cold_queries": 0,
            "partitions_pruned": 0,
            "chunks_pruned": 0,
            "chunks_decoded": 0,
            "rows_decoded": 0,
            "rollup_day_hits": 0,
            "rollup_day_recomputes": 0,
            "rollup_invalidations": 0,
        }

    # -- public API ---------------------------------------------------------

    def run(self, spec: AggSpec) -> AggResult:
        """Execute one spec; results are shared and must not be mutated."""
        table = self.archive.store.table(spec.table)
        self._bump("queries")
        cache = self.archive.query_cache(spec.table)
        if cache is None:
            with table.lock:
                return self._compute(spec, table)
        computed = []

        def build() -> AggResult:
            computed.append(True)
            return self._compute(spec, table)

        filters = dict(spec.filters) or None
        result = cache.derived(
            "aggspec", spec.measure, filters,
            (spec.start, spec.end, spec.bucket_seconds, spec.group_by,
             spec.aggregates), build)
        if not computed:
            self._bump("result_hits")
        return result

    def stats(self) -> Dict[str, int]:
        with self._lock:
            out = dict(self._counters)
        out["result_misses"] = out["queries"] - out["result_hits"]
        return out

    def _bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] += by

    # -- execution ----------------------------------------------------------

    def _compute(self, spec: AggSpec, table: Table) -> AggResult:
        """Plan the tier split and compute partials (table lock held)."""
        filters = dict(spec.filters) or None
        keys = table.series_keys(spec.measure, filters)
        group_of, labels = _group_labels(keys, spec.group_by)
        n_groups = max(len(labels), 1)
        edges = bucket_edges(spec.start, spec.end, spec.bucket_seconds)

        evicted = self.archive.evicted_through(spec.table) \
            if spec.table in MERGED_TABLES else None
        plan = FederatedHistory.plan(spec.measure, spec.start, spec.end,
                                     evicted)
        use_cold, boundary = plan.use_cold, plan.boundary

        if not use_cold and _rollup_eligible(spec):
            part = self._rollup_partials(spec, table, keys, group_of,
                                         n_groups, edges)
        else:
            if use_cold:
                cold_end = min(spec.end, boundary)
                counters: Dict[str, int] = {}
                cold_cols = self.archive.lake.scan_column_arrays(
                    spec.measure, filters or {}, spec.start, cold_end,
                    keys, counters)
                cold = compute_partials(cold_cols, group_of, n_groups,
                                        edges, spec.start, cold_end,
                                        spec.wants_twa)
                self._bump("cold_queries")
                with self._lock:
                    for name, value in counters.items():
                        self._counters[name] += value
                if spec.end > boundary:
                    hot_cols = gather_table_columns(table, keys, boundary,
                                                    spec.end, False)
                    hot = compute_partials(hot_cols, group_of, n_groups,
                                           edges, boundary, spec.end,
                                           spec.wants_twa)
                    part = merge_partials(cold, hot, group_of, edges)
                else:
                    part = cold
            else:
                hot_cols = gather_table_columns(table, keys, spec.start,
                                                spec.end, True)
                part = compute_partials(hot_cols, group_of, n_groups,
                                        edges, spec.start, spec.end,
                                        spec.wants_twa)

        shape = (n_groups, len(edges) - 1)
        return AggResult(
            spec=spec, group_labels=labels, edges=edges,
            tables=finish_aggregates(part, spec.aggregates),
            count=part.count.reshape(shape),
            cover=part.cover.reshape(shape) if spec.wants_twa else None)

    # -- rollups ------------------------------------------------------------

    def _rollup_partials(self, spec: AggSpec, table: Table,
                         keys: Sequence[SeriesKey], group_of: np.ndarray,
                         n_groups: int, edges: np.ndarray) -> Partials:
        """Hot-tier partials assembled from cached per-day rollups.

        The spec is day-aligned (start and bucket width are whole-day
        multiples) and served purely hot, so the window decomposes into
        full UTC days plus one directly-computed edge slice
        ``[day_end, end]`` (degenerate when ``end`` is day-aligned,
        where it catches only rows at exactly ``end``).  Day partials
        come from the cache when the series generation proves them
        current; otherwise only days at or past the stale frontier are
        recomputed.
        """
        day0 = int(spec.start // DAY_SECONDS)
        day_end = int(spec.end // DAY_SECONDS)
        n_series = len(keys)
        n_fields = len(PARTIAL_FIELDS)
        day_mats = [np.zeros((n_series, n_fields))
                    for _ in range(day_end - day0)]
        edge_mat = np.zeros((n_series, n_fields))
        edge_start = day_end * DAY_SECONDS
        day_hits = day_recomputes = invalidations = 0

        with self._lock:
            store = self._rollups.setdefault((spec.table, spec.measure), {})

        for i, key in enumerate(keys):
            arrays = table.series_arrays(key)
            assert arrays is not None
            times, values = arrays
            series = table.series(key)
            gen_now = table.series_generation(key)
            entry = store.get(key)
            if entry is None or table.eviction_generation > entry.gen:
                if entry is not None:
                    invalidations += 1
                entry = _SeriesRollup(gen=gen_now, frontier=float("-inf"))
                store[key] = entry
            elif entry.gen != gen_now:
                stale_from = int(entry.frontier // DAY_SECONDS)
                entry.days = {d: vec for d, vec in entry.days.items()
                              if d < stale_from}
                entry.gen = gen_now
            entry.frontier = series.observed_until
            for d in range(day0, day_end):
                vec = entry.days.get(d)
                if vec is None:
                    vec = series_window_partial(
                        times, values, d * DAY_SECONDS,
                        (d + 1) * DAY_SECONDS, False)
                    entry.days[d] = vec
                    day_recomputes += 1
                else:
                    day_hits += 1
                day_mats[d - day0][i] = vec
            edge_mat[i] = series_window_partial(times, values, edge_start,
                                                spec.end, True)

        with self._lock:
            self._counters["rollup_day_hits"] += day_hits
            self._counters["rollup_day_recomputes"] += day_recomputes
            self._counters["rollup_invalidations"] += invalidations

        part: Optional[Partials] = None
        for d in range(day0, day_end):
            bucket = np.full(n_series, int(bucket_index(
                edges, np.asarray([d * DAY_SECONDS]))[0]), dtype=np.int64)
            lifted = lift_series_partials(day_mats[d - day0], bucket,
                                          group_of, n_groups, edges)
            part = lifted if part is None else \
                merge_partials(part, lifted, group_of, edges)
        bucket = np.full(n_series, int(bucket_index(
            edges, np.asarray([edge_start]))[0]), dtype=np.int64)
        lifted = lift_series_partials(edge_mat, bucket, group_of,
                                      n_groups, edges)
        return lifted if part is None else \
            merge_partials(part, lifted, group_of, edges)


def _rollup_eligible(spec: AggSpec) -> bool:
    """Day rollups apply to day-aligned windows on day-multiple buckets."""
    return (spec.bucket_seconds is not None
            and spec.bucket_seconds % DAY_SECONDS == 0
            and spec.start % DAY_SECONDS == 0
            and spec.end > spec.start)


def _group_labels(keys: Sequence[SeriesKey], group_by: Tuple[str, ...],
                  ) -> Tuple[np.ndarray, Tuple[Tuple[str, ...], ...]]:
    """Group subscript per series plus the sorted label tuples.

    Series missing a group-by dimension get subscript -1 (excluded);
    with no group-by every series lands in the single empty-label group.
    """
    group_of = np.full(len(keys), -1, dtype=np.int64)
    assigned: List[Tuple[int, Tuple[str, ...]]] = []
    for i, key in enumerate(keys):
        dims = key.dimension_dict
        label: Optional[Tuple[str, ...]] = ()
        for dim in group_by:
            value = dims.get(dim)
            if value is None:
                label = None
                break
            label = label + (value,)
        if label is not None:
            assigned.append((i, label))
    labels = tuple(sorted({label for _, label in assigned}))
    index = {label: g for g, label in enumerate(labels)}
    for i, label in assigned:
        group_of[i] = index[label]
    return group_of, labels
