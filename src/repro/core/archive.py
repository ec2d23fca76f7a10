"""SpotLake archive: historical storage of the three spot datasets.

The archive wraps the time-series store with SpotLake's schema:

=========  =======================================  =========================
Table      Dimensions                               Measures
=========  =======================================  =========================
sps        InstanceType, Region, AvailabilityZone   sps (1..10)
advisor    InstanceType, Region                     interruption_ratio (raw),
                                                    if_score (1.0..3.0),
                                                    savings (percent)
price      InstanceType, Region, AvailabilityZone   spot_price ($/hour)
=========  =======================================  =========================

Historical queries -- the capability the vendor datasets lack and the
paper's core contribution -- are plain time-range reads.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..lake import (
    ADVISOR_TABLE,
    DATASETS,
    DIM_REGION,
    DIM_TYPE,
    DIM_ZONE,
    FederatedHistory,
    IF_SCORE_MEASURE,
    INTERRUPTION_RATIO_MEASURE,
    KeyMemo,
    LAKE_DIR_NAME,
    MERGED_TABLES,
    PRICE_MEASURE,
    PRICE_TABLE,
    RoundDiffer,
    RoundMerger,
    SAVINGS_MEASURE,
    SPS_MEASURE,
    SPS_TABLE,
    SpotDataLake,
)
from ..storage import StorageEngine
from ..timeseries import (
    QueryCache,
    Record,
    RetentionPolicy,
    SeriesKey,
    Table,
    TimeSeriesStore,
    Value,
    dimension_key,
    resample_matrix,
    update_intervals,
)
from ..timeseries.cache import DEFAULT_MAX_ENTRIES
from .analytics import AnalyticsRuntime

# The merged-record schema constants (SPS_TABLE, SPS_MEASURE, DIM_TYPE,
# ...) are defined once in repro.lake.schema and re-exported here, so the
# rest of the codebase keeps importing them from the archive facade.

#: Explicit collection holes (graceful degradation): created lazily so
#: fault-free archives keep their original three-table shape.
GAPS_TABLE = "gaps"

GAP_MEASURE = "gap"
DIM_SOURCE = "Source"
DIM_KEY = "Key"
DIM_REASON = "Reason"


class SpotLakeArchive:
    """Facade the collectors write to and the serving layer reads from."""

    def __init__(self, retention: Optional[RetentionPolicy] = None,
                 cache: bool = True,
                 cache_entries: int = DEFAULT_MAX_ENTRIES,
                 data_dir: Optional[Union[str, Path]] = None,
                 checkpoint_every: int = 4,
                 crash_hook=None,
                 lake: bool = False,
                 lake_full_refresh_every: int = 0):
        #: durable storage engine, or None for a purely in-memory archive
        self.engine: Optional[StorageEngine] = None
        self.checkpoint_every = checkpoint_every
        if data_dir is not None:
            self.engine = StorageEngine(data_dir, crash_hook=crash_hook)
            # a restarted archive adopts whatever the last committed round
            # left behind; a fresh directory recovers an empty store
            self.store = self.engine.recovered.store
        else:
            self.store = TimeSeriesStore()
        for name in MERGED_TABLES:
            self._ensure_table(name, retention)
        if self.engine is not None:
            self.engine.attach(self.store)
        #: tiered-lake mode: collectors feed a round merger; commits diff
        #: the round and land its changed rows in both tiers (the cold one
        #: also keeps a day's first round whole); history queries federate
        #: across the eviction boundary
        self.lake: Optional[SpotDataLake] = None
        self._merger: Optional[RoundMerger] = None
        self._differ: Optional[RoundDiffer] = None
        self._federated: Optional[FederatedHistory] = None
        #: lifetime ingest-avoidance counters (lake mode): rows the merger
        #: captured vs rows the diff actually wrote to the hot engine
        self.rows_merged = 0
        self.rows_ingested = 0
        if lake:
            if data_dir is None:
                raise ValueError("lake mode requires a data_dir")
            self.lake = SpotDataLake(Path(data_dir) / LAKE_DIR_NAME,
                                     crash_hook=crash_hook)
            # rounds land in the lake before the hot WAL's group commit:
            # drop any round the crashed run archived but never committed
            # (it is re-collected deterministically)
            self.lake.trim_to(self.engine.last_commit_time)
            self._merger = RoundMerger()
            self._differ = RoundDiffer(
                full_refresh_every=lake_full_refresh_every)
            self._differ.seed(self.lake.latest_values(),
                              rounds=self.lake.round_count)
            self._federated = FederatedHistory(self.lake)
        #: generation-stamped read caches, one per table (lazily created;
        #: creation is guarded so concurrent serving workers agree on one
        #: cache instance per table)
        self._caches: Dict[str, QueryCache] = {}
        self._caches_lock = threading.Lock()
        self._cache_entries = cache_entries
        self.cache_enabled = cache
        #: vectorized aggregation engine (lazily created under the same
        #: guard as the query caches so serving workers share one)
        self._analytics: Optional[AnalyticsRuntime] = None
        #: per dataset: ``coords -> SeriesKeys``, so the keys (and their
        #: hashes) of the pools every round touches are built once
        self._key_memos = {table: KeyMemo(dataset)
                           for table, dataset in DATASETS.items()}

    # -- durability ---------------------------------------------------------

    def _ensure_table(self, name: str,
                      retention: Optional[RetentionPolicy] = None) -> Table:
        """Create (and WAL-log) a table unless it already exists."""
        if name in self.store.table_names():
            return self.store.table(name)
        if self.engine is not None:
            self.engine.log_create_table(name, retention)
        return self.store.create_table(name, retention)

    def apply_retention(self, now: float) -> Dict[str, int]:
        """Run the retention sweep, WAL-logging each eviction.

        Only the series a sweep trimmed become dirty: the next checkpoint
        re-flushes those, not the table.
        """
        dropped: Dict[str, int] = {}
        for name in self.store.table_names():
            cutoff = self.store.policy(name).cutoff(now)
            if cutoff is None:
                continue
            if self.engine is not None:
                self.engine.log_eviction(name, cutoff)
            trimmed: List[SeriesKey] = []
            dropped[name] = self.store.table(name).evict_before(cutoff,
                                                                trimmed)
            if self.engine is not None:
                self.engine.mark_dirty(name, trimmed)
        return dropped

    def commit_round(self, time: float) -> Dict[str, int]:
        """End-of-round hook: land the round, sweep retention, group-commit.

        The collection round is the crash-atomicity unit; every
        ``checkpoint_every`` committed rounds the log is folded into
        segments.  Without a storage engine only the sweep runs.  In lake
        mode the buffered merged round is diffed first; its changed rows
        land in the cold tier (the whole round on a day's first), then in
        the hot engine -- strictly before the WAL's group commit, so
        recovery can trim the lake to ``last_commit_time`` and re-collect
        the tail.
        """
        if self._merger is not None:
            self._commit_lake_round(time)
        dropped = self.apply_retention(time)
        if self.engine is not None:
            self.engine.commit_round(time)
            if self.checkpoint_every > 0 and \
                    self.engine.rounds_committed % self.checkpoint_every == 0:
                self.engine.checkpoint(time)
        return dropped

    def _commit_lake_round(self, time: float) -> None:
        """Diff the merged round; land what changed cold, then hot."""
        merged = self._merger.take_round(time)
        if merged.row_count == 0:
            return
        diff = self._differ.diff(merged)
        self.lake.append_round(merged, diff.rows)
        self.rows_merged += diff.rows_seen
        self.rows_ingested += diff.rows_changed
        for table, rows in diff.rows.items():
            if rows:
                self._put_rows(table, rows)

    def checkpoint(self, time: float) -> None:
        """Force a checkpoint now (used at shutdown)."""
        if self.engine is not None:
            self.engine.checkpoint(time)

    def close(self) -> None:
        if self.lake is not None:
            self.lake.close()
        if self.engine is not None:
            self.engine.close()

    # -- read caching -------------------------------------------------------

    def query_cache(self, table_name: str) -> Optional[QueryCache]:
        """The table's read cache, or None while caching is disabled."""
        if not self.cache_enabled:
            return None
        with self._caches_lock:
            cache = self._caches.get(table_name)
            if cache is None:
                cache = QueryCache(self.store.table(table_name),
                                   max_entries=self._cache_entries)
                self._caches[table_name] = cache
            return cache

    @property
    def analytics(self) -> AnalyticsRuntime:
        """The archive's vectorized aggregation runtime (shared)."""
        with self._caches_lock:
            if self._analytics is None:
                self._analytics = AnalyticsRuntime(self)
            return self._analytics

    def cache_stats(self) -> Dict[str, dict]:
        """Per-table cache counters plus an aggregate ``hit_rate``."""
        with self._caches_lock:
            caches = dict(self._caches)
        per_table = {name: cache.stats.as_dict()
                     for name, cache in sorted(caches.items())}
        hits = sum(c.stats.hits for c in caches.values())
        requests = sum(c.stats.requests for c in caches.values())
        return {
            "enabled": self.cache_enabled,
            "tables": per_table,
            "hits": hits,
            "misses": requests - hits,
            "hit_rate": hits / requests if requests else 0.0,
        }

    def _value_at(self, table_name: str, measure: str,
                  dimensions: Dict[str, str], time: float):
        cache = self.query_cache(table_name)
        if cache is not None:
            return cache.value_at(measure, dimensions, time)
        return self.store.table(table_name).value_at(measure, dimensions, time)

    # -- tables ------------------------------------------------------------

    @property
    def sps(self) -> Table:
        return self.store.table(SPS_TABLE)

    @property
    def advisor(self) -> Table:
        return self.store.table(ADVISOR_TABLE)

    @property
    def price(self) -> Table:
        return self.store.table(PRICE_TABLE)

    @property
    def gaps(self) -> Optional[Table]:
        """The gap table, or None while the archive has no holes."""
        if GAPS_TABLE not in self.store.table_names():
            return None
        return self.store.table(GAPS_TABLE)

    # -- writes (used by collectors) ------------------------------------------

    def append(self, dataset: str, rows: Sequence[tuple]) -> int:
        """Land one collector's rows; returns the archive records written.

        ``dataset`` names an entry of :data:`repro.lake.schema.DATASETS`,
        which fixes the row layout and the series each row fans out to.
        In lake mode the rows go to the round merger instead (the count
        then reflects records captured for the merge): ``commit_round``
        diffs the merged round and lands only what changed.
        """
        if self._merger is not None:
            self._merger.add(dataset, rows)
            return len(DATASETS[dataset].measures) * len(rows)
        return self._put_rows(dataset, rows)

    def _put_rows(self, dataset: str, rows: Sequence[tuple]) -> int:
        """Fan ``rows`` out to their series and write them hot."""
        return self._put_points(dataset, DATASETS[dataset].points(
            rows, self._key_memos[dataset].__getitem__))

    def _put_points(self, table_name: str,
                    points: Iterable[Tuple[SeriesKey, float, Value]]) -> int:
        """Log-then-apply a batch: WAL first (in order), then the table."""
        points = list(points)
        if self.engine is not None:
            self.engine.log_points(table_name, points)
        self.store.table(table_name).append_many(points)
        return len(points)

    def put_gap(self, source: str, key: str, reason: str,
                attempts: int, time: float) -> None:
        """Record an explicit collection hole.

        ``source`` is the data source ("sps" / "advisor" / "price"),
        ``key`` the logical query that failed, ``reason`` why collection
        gave up, ``attempts`` how many tries were spent.  An archived hole
        is the graceful-degradation contract: every planned query ends as
        either a dataset record or exactly one of these.
        """
        self._ensure_table(GAPS_TABLE)
        series = SeriesKey(GAP_MEASURE, dimension_key(
            {DIM_SOURCE: source, DIM_KEY: key, DIM_REASON: reason}))
        self._put_points(GAPS_TABLE, [(series, float(time), int(attempts))])

    # -- reads ------------------------------------------------------------------

    def sps_at(self, instance_type: str, region: str, zone: str,
               time: float) -> Optional[int]:
        value = self._value_at(SPS_TABLE, SPS_MEASURE, {
            DIM_TYPE: instance_type, DIM_REGION: region, DIM_ZONE: zone}, time)
        return None if value is None else int(value)

    def if_score_at(self, instance_type: str, region: str,
                    time: float) -> Optional[float]:
        value = self._value_at(ADVISOR_TABLE, IF_SCORE_MEASURE, {
            DIM_TYPE: instance_type, DIM_REGION: region}, time)
        return None if value is None else float(value)

    def savings_at(self, instance_type: str, region: str,
                   time: float) -> Optional[int]:
        value = self._value_at(ADVISOR_TABLE, SAVINGS_MEASURE, {
            DIM_TYPE: instance_type, DIM_REGION: region}, time)
        return None if value is None else int(value)

    def price_at(self, instance_type: str, region: str, zone: str,
                 time: float) -> Optional[float]:
        value = self._value_at(PRICE_TABLE, PRICE_MEASURE, {
            DIM_TYPE: instance_type, DIM_REGION: region, DIM_ZONE: zone}, time)
        return None if value is None else float(value)

    def gap_count(self) -> int:
        """Total gap records ever written (0 for a hole-free archive)."""
        table = self.gaps
        return 0 if table is None else table.stats.records_written

    def gap_history(self, filters: Optional[Dict[str, str]] = None,
                    start: float = float("-inf"),
                    end: float = float("inf")) -> List[Record]:
        """Gap change points in [start, end]; filter by Source/Key/Reason."""
        table = self.gaps
        if table is None:
            return []
        cache = self.query_cache(GAPS_TABLE)
        if cache is not None:
            return cache.scan(GAP_MEASURE, filters or {}, start, end)
        return table.scan(GAP_MEASURE, filters or {}, start, end)

    def history(self, table_name: str, measure: str,
                filters: Dict[str, str], start: float, end: float) -> List[Record]:
        """Change-point history of matching series in [start, end].

        Served through the table's generation-stamped read cache when
        caching is enabled; treat the returned list as immutable.  In
        lake mode the query federates across the retention boundary:
        rows the hot engine evicted are reconstructed from the cold
        tier, rows after the boundary come from the hot path unchanged.
        Cache coherence holds because an eviction that changes the hot
        table's contents bumps its generation (invalidating derived
        caches), while a boundary advance that evicts nothing leaves
        federated results bitwise unchanged (the cold reconstruction
        emits the identical rows the hot side stops serving).
        """
        hot = self._hot_history
        if self._federated is not None and table_name in MERGED_TABLES:
            boundary = self.evicted_through(table_name)
            return self._federated.query(
                measure, filters, start, end, boundary,
                hot_scan=lambda: hot(table_name, measure, filters,
                                     start, end))
        return hot(table_name, measure, filters, start, end)

    def _hot_history(self, table_name: str, measure: str,
                     filters: Dict[str, str], start: float,
                     end: float) -> List[Record]:
        cache = self.query_cache(table_name)
        if cache is not None:
            return cache.scan(measure, filters, start, end)
        return self.store.table(table_name).scan(measure, filters, start, end)

    def evicted_through(self, table_name: str) -> Optional[float]:
        """The table's hot/cold boundary, or None when nothing is evicted."""
        if self.engine is None:
            return None
        return self.engine.evicted_through(table_name)

    # -- analysis-facing bulk reads ------------------------------------------------

    def sps_matrix(self, sample_times: Sequence[float],
                   filters: Optional[Dict[str, str]] = None,
                   ) -> Tuple[List[SeriesKey], np.ndarray]:
        """Aligned SPS samples: one row per (type, region, zone) series."""
        return resample_matrix(self.sps, SPS_MEASURE, sample_times, filters)

    def if_score_matrix(self, sample_times: Sequence[float],
                        filters: Optional[Dict[str, str]] = None,
                        ) -> Tuple[List[SeriesKey], np.ndarray]:
        """Aligned interruption-free score samples per (type, region)."""
        return resample_matrix(self.advisor, IF_SCORE_MEASURE, sample_times, filters)

    def savings_matrix(self, sample_times: Sequence[float],
                       filters: Optional[Dict[str, str]] = None,
                       ) -> Tuple[List[SeriesKey], np.ndarray]:
        """Aligned savings-percent samples per (type, region)."""
        return resample_matrix(self.advisor, SAVINGS_MEASURE, sample_times, filters)

    def price_matrix(self, sample_times: Sequence[float],
                     filters: Optional[Dict[str, str]] = None,
                     ) -> Tuple[List[SeriesKey], np.ndarray]:
        """Aligned spot-price samples per (type, region, zone) series."""
        return resample_matrix(self.price, PRICE_MEASURE, sample_times, filters)

    def update_interval_samples(self, dataset: str) -> List[float]:
        """Elapsed seconds between value changes (Figure 10 input).

        ``dataset`` is one of "sps", "if_score", "price", "savings".
        """
        if dataset == "sps":
            return update_intervals(self.sps, SPS_MEASURE)
        if dataset == "if_score":
            return update_intervals(self.advisor, IF_SCORE_MEASURE)
        if dataset == "savings":
            return update_intervals(self.advisor, SAVINGS_MEASURE)
        if dataset == "price":
            return update_intervals(self.price, PRICE_MEASURE)
        raise ValueError(f"unknown dataset {dataset!r}")

    def stats(self) -> Dict[str, dict]:
        out = self.store.stats()
        out["analytics"] = self.analytics.stats()
        if self.lake is not None:
            out["lake"] = {
                **self.lake.census(),
                "differ": self._differ.stats(),
                "federated": self._federated.stats(),
                "rows_merged": self.rows_merged,
                "rows_ingested": self.rows_ingested,
            }
        return out
