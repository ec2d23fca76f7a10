"""A Timestream-like table: many compressed series, queryable by dimensions.

The table indexes series by (measure name, dimension set) and additionally
keeps per-dimension inverted indexes so dimension-filter queries do not scan
every series.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .compression import ChangePointSeries
from .record import DimensionKey, Record, SeriesKey, Value, dimension_key


@dataclass
class TableStats:
    """Ingestion/storage statistics for one table."""

    records_written: int = 0
    change_points_stored: int = 0
    series_count: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Stored change points per written record (1.0 = no dedup win)."""
        if self.records_written == 0:
            return 1.0
        return self.change_points_stored / self.records_written


class Table:
    """One logical dataset (e.g. "sps", "advisor", "price").

    Thread-safety contract (ROADMAP item 1, the concurrent serving front
    end): every public mutator and reader serializes on :attr:`lock`, a
    reentrant per-table lock.  Collection writes and serving reads of one
    table therefore never observe torn series state, and the table's
    :class:`~repro.timeseries.cache.QueryCache` shares the *same* lock so
    a (generation stamp, scan result) pair is read atomically.  The lock
    is reentrant because cached "derived" reads re-enter ``scan`` while
    rendering rows.
    """

    def __init__(self, name: str):
        self.name = name
        #: per-table reentrant guard; shared with the table's query cache
        self.lock = threading.RLock()
        self._series: Dict[SeriesKey, ChangePointSeries] = {}
        # inverted index: (dim name, dim value) -> series keys
        self._index: Dict[Tuple[str, str], Set[SeriesKey]] = defaultdict(set)
        self._measures: Dict[str, Set[SeriesKey]] = defaultdict(set)
        self.stats = TableStats()
        # -- generation stamps (read-cache invalidation) ----------------------
        # ``generation`` counts every query-visible mutation (a change-point
        # write or an eviction).  Per-series / per-measure / per-dimension-item
        # maps record the generation that last touched them, letting
        # ``generation_stamp`` answer "could a write since stamp G overlap
        # this query?" in O(#constraints).
        self.generation: int = 0
        self._series_gen: Dict[SeriesKey, int] = {}
        self._measure_gen: Dict[str, int] = {}
        self._dim_gen: Dict[Tuple[str, str], int] = {}
        # materialized latest-value view: last change point per series
        self._latest: Dict[SeriesKey, Record] = {}
        # packed per-series float64 views for vectorized reads, keyed by
        # the series generation that built them (see series_arrays)
        self._views: Dict[SeriesKey, Tuple[int, np.ndarray, np.ndarray]] = {}
        #: generation of the most recent eviction (0 = never evicted).
        #: Rollup consumers compare it against their snapshot generation:
        #: an eviction can *remove* history a pure append never can, so
        #: incremental "recompute only the frontier" shortcuts are valid
        #: only when no eviction happened since the snapshot.
        self.eviction_generation: int = 0

    # -- writes ---------------------------------------------------------------

    def _touch(self, key: SeriesKey) -> None:
        """Stamp a query-visible mutation of ``key`` onto the gen indexes."""
        self.generation += 1
        gen = self.generation
        self._series_gen[key] = gen
        self._measure_gen[key.measure_name] = gen
        for dim in key.dimensions:
            self._dim_gen[dim] = gen

    def write(self, record: Record) -> bool:
        """Ingest one record; returns True when it created a change point."""
        with self.lock:
            key = SeriesKey.of(record)
            series = self._series.get(key)
            if series is None:
                series = ChangePointSeries()
                self._series[key] = series
                self._measures[record.measure_name].add(key)
                for dim in record.dimensions:
                    self._index[dim].add(key)
                self.stats.series_count += 1
            changed = series.append(record.time, record.value)
            self.stats.records_written += 1
            if changed:
                self.stats.change_points_stored += 1
                self._latest[key] = Record(key.dimensions, key.measure_name,
                                           record.value, record.time)
                self._touch(key)
            return changed

    def install_series(self, key: SeriesKey, series: ChangePointSeries) -> None:
        """Install a pre-built series (snapshot load), indexes and the
        materialized views included, without re-ingesting records."""
        with self.lock:
            self._series[key] = series
            self._measures[key.measure_name].add(key)
            for dim in key.dimensions:
                self._index[dim].add(key)
            self.stats.series_count += 1
            self.stats.change_points_stored += len(series)
            if series.times:
                self._latest[key] = Record(key.dimensions, key.measure_name,
                                           series.values[-1], series.times[-1])
            self._touch(key)

    def append_many(self,
                    points: Iterable[Tuple[SeriesKey, float, Value]]) -> int:
        """Bulk ingest of (key, time, value) points.

        Returns the number of change points created.  Equivalent to
        calling :meth:`write` per point, in order -- same series state,
        same stats, same generation stamps, same latest-value view --
        minus the per-point :class:`Record` and key construction, with
        the lookups and method dispatches hoisted out of the loop.  The change-point test mirrors
        :meth:`ChangePointSeries.append` and the stamp bump mirrors
        :meth:`_touch`; the latest-value :class:`Record` is materialized
        once per touched series after the loop (only the last change
        point per key survives the batch anyway).
        """
        with self.lock:
            series_map = self._series
            series_gen = self._series_gen
            measure_gen = self._measure_gen
            dim_gen = self._dim_gen
            gen = self.generation
            stats = self.stats
            # last change point per key, materialized into _latest at the end
            pending: Dict[SeriesKey, Tuple[float, Value]] = {}
            written = 0
            changed = 0
            for key, time, value in points:
                written += 1
                series = series_map.get(key)
                if series is None:
                    series = ChangePointSeries()
                    series_map[key] = series
                    self._measures[key.measure_name].add(key)
                    for dim in key.dimensions:
                        self._index[dim].add(key)
                    stats.series_count += 1
                # inlined ChangePointSeries.append
                if time < series.observed_until:
                    raise ValueError(
                        f"out-of-order append: {time} < {series.observed_until}")
                series.observed_until = time
                series.observation_count += 1
                values = series.values
                # inlined values_equal (type-and-NaN-aware dedup)
                if values:
                    last = values[-1]
                    if type(last) is type(value) and (
                            last == value or (last != last and value != value)):
                        continue
                series.times.append(time)
                values.append(value)
                changed += 1
                pending[key] = (time, value)
                # inlined _touch
                gen += 1
                series_gen[key] = gen
                measure_gen[key.measure_name] = gen
                for dim in key.dimensions:
                    dim_gen[dim] = gen
            self.generation = gen
            latest = self._latest
            for key, (time, value) in pending.items():
                latest[key] = Record(key.dimensions, key.measure_name,
                                     value, time)
            stats.records_written += written
            stats.change_points_stored += changed
            return changed

    def write_records(self, records: Iterable[Record]) -> int:
        """Batch ingest; returns the number of change points created."""
        return sum(1 for r in records if self.write(r))

    # -- series lookup -----------------------------------------------------------

    def series_keys(self, measure_name: Optional[str] = None,
                    filters: Optional[Dict[str, str]] = None) -> List[SeriesKey]:
        """Series matching a measure and/or dimension filters."""
        with self.lock:
            postings: List[Set[SeriesKey]] = []
            if measure_name is not None:
                postings.append(self._measures.get(measure_name, set()))
            for item in (filters or {}).items():
                postings.append(self._index.get(item, set()))
            if postings:
                # walk the smallest posting set, probe the others: a pool
                # query costs its handful of series, not a copy of every
                # key of the measure
                postings.sort(key=len)
                smallest, others = postings[0], postings[1:]
                candidates = [key for key in smallest
                              if all(key in other for other in others)]
            else:
                candidates = self._series
            return sorted(candidates,
                          key=lambda k: (k.measure_name, k.dimensions))

    def series(self, key: SeriesKey) -> Optional[ChangePointSeries]:
        return self._series.get(key)

    def series_arrays(self, key: SeriesKey
                      ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Packed float64 (times, values) view of one series.

        The view is cached and revalidated against the series generation
        stamp -- any change-point write or eviction of the series bumps
        its generation and the next call rebuilds the arrays, so callers
        always see current data without paying the list->array conversion
        per read.  Series holding non-numeric values raise ``TypeError``
        (vectorized analytics is defined over the float64 domain).
        Returned arrays are shared; callers must not mutate them.
        """
        with self.lock:
            series = self._series.get(key)
            if series is None:
                return None
            gen = self._series_gen.get(key, 0)
            cached = self._views.get(key)
            if cached is not None and cached[0] == gen:
                return cached[1], cached[2]
            times = np.asarray(series.times, dtype="<f8")
            try:
                values = np.asarray(series.values, dtype="<f8")
            except (TypeError, ValueError):
                raise TypeError(
                    f"series {key} holds non-numeric values; vectorized "
                    f"reads need a numeric measure") from None
            self._views[key] = (gen, times, values)
            return times, values

    def __len__(self) -> int:
        return len(self._series)

    # -- generation stamps ---------------------------------------------------

    def series_generation(self, key: SeriesKey) -> int:
        """Generation of the last mutation of one series (0 = never)."""
        with self.lock:
            return self._series_gen.get(key, 0)

    def generation_stamp(self, measure_name: Optional[str] = None,
                         filters: Optional[Dict[str, str]] = None) -> int:
        """Conservative freshness stamp for a (measure, filters) query.

        A write that *overlaps* the query (its series matches the measure
        and every filter item) bumps all of the query's constraint
        generations at once, so the minimum over them strictly increases --
        a cached result is stale exactly when its stamp differs.  Writes
        that overlap no constraint leave the stamp unchanged; writes
        sharing only some constraints may bump it spuriously (conservative
        invalidation, never stale data).
        """
        with self.lock:
            constraints: List[int] = []
            if measure_name is not None:
                constraints.append(self._measure_gen.get(measure_name, 0))
            if filters:
                for item in filters.items():
                    constraints.append(self._dim_gen.get(item, 0))
            if not constraints:
                return self.generation
            return min(constraints)

    # -- reads -----------------------------------------------------------------

    def value_at(self, measure_name: str, dimensions: Dict[str, str],
                 time: float) -> Optional[Value]:
        """Point lookup of the value in force at ``time``."""
        with self.lock:
            key = SeriesKey(measure_name, dimension_key(dimensions))
            series = self._series.get(key)
            return series.value_at(time) if series else None

    def latest(self, measure_name: str,
               filters: Optional[Dict[str, str]] = None) -> List[Record]:
        """Last observed value of every matching series.

        Served from the materialized latest-value view: no series walk.
        """
        with self.lock:
            out: List[Record] = []
            for key in self.series_keys(measure_name, filters):
                record = self._latest.get(key)
                if record is not None:
                    out.append(record)
            return out

    def scan(self, measure_name: Optional[str] = None,
             filters: Optional[Dict[str, str]] = None,
             start: float = float("-inf"),
             end: float = float("inf")) -> List[Record]:
        """All change-point records in [start, end], time-ordered."""
        with self.lock:
            out: List[Record] = []
            for key in self.series_keys(measure_name, filters):
                for t, v in self._series[key].change_points(start, end):
                    out.append(Record(key.dimensions, key.measure_name, v, t))
            out.sort(key=lambda r: r.time)
            return out

    # -- retention -----------------------------------------------------------------

    def evict_before(self, cutoff: float,
                     trimmed: Optional[List[SeriesKey]] = None) -> int:
        """Drop change points strictly before ``cutoff``.

        The last change point at or before the cutoff is retained (its value
        is still in force), matching tiered-retention semantics.  Returns
        the number of change points dropped; the series that lost any are
        appended to ``trimmed`` when given (the storage engine's dirty
        set wants exactly those).
        """
        with self.lock:
            dropped = 0
            for key, series in self._series.items():
                # index of the last change point at or before the cutoff:
                # that point stays (its value is in force), everything
                # earlier goes.
                keep_from = bisect_right(series.times, cutoff) - 1
                if keep_from > 0:
                    dropped += keep_from
                    del series.times[:keep_from]
                    del series.values[:keep_from]
                    self._touch(key)
                    if trimmed is not None:
                        trimmed.append(key)
            if dropped:
                self.eviction_generation = self.generation
            self.stats.change_points_stored -= dropped
            assert self.stats.change_points_stored == \
                sum(len(s) for s in self._series.values())
            return dropped
