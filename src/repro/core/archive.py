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
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

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
    MergedRound,
    PRICE_MEASURE,
    PRICE_TABLE,
    RoundDiffer,
    RoundMerger,
    SAVINGS_MEASURE,
    SPS_MEASURE,
    SPS_TABLE,
    SpotDataLake,
)
from ..lake.schema import Point
from ..storage import StorageEngine
from ..storage.durable import PLAIN, DurableIO
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


class MemoryTiers:
    """The memory shape's storage tiers: nothing persists and nothing is
    cold, so every hook the archive calls does nothing."""

    engine: Optional[StorageEngine] = None
    lake: Optional[SpotDataLake] = None

    def __init__(self) -> None:
        self.store = TimeSeriesStore()

    def _nothing(self, *args) -> None:
        pass

    #: the hooks :class:`DurableTiers` implements that have nothing to
    #: do here (with no cold tier there is no boundary: None)
    refuse_unloggable = log_create_table = log_points = land = \
        commit_round = checkpoint = close = evicted_through = _nothing

    def evict(self, name: str, table: Table, cutoff: float) -> int:
        return table.evict_before(cutoff)

    def history(self, table_name: str, measure: str, filters: Dict[str, str],
                start: float, end: float,
                hot_scan: Callable[[], List[Record]]) -> List[Record]:
        return hot_scan()

    def stats(self, **write_path) -> Dict[str, dict]:
        return {}


class DurableTiers(MemoryTiers):
    """The durable shape: the WAL engine, the cold lake and federated
    history reads, always together under one ``data_dir`` -- a restarted
    differ seeds from the lake and the lake trims to the WAL's last
    commit, so neither tier can stand alone."""

    def __init__(self, data_dir: Union[str, Path], checkpoint_every: int,
                 io: DurableIO, differ: RoundDiffer):
        self.engine = StorageEngine(data_dir, io=io)
        self.checkpoint_every = checkpoint_every
        # a restarted archive adopts whatever the last committed round
        # left behind; a fresh directory recovers an empty store
        self.store = self.engine.recovered.store
        self.engine.attach(self.store)
        self.lake = SpotDataLake(Path(data_dir) / LAKE_DIR_NAME, io=io)
        # rounds land in the lake before the hot WAL's group commit: drop
        # any round the crashed run archived but never committed (it is
        # re-collected deterministically)
        self.lake.trim_to(self.engine.last_commit_time)
        differ.seed(self.lake.latest_values(), rounds=self.lake.round_count)
        self.federated = FederatedHistory(self.lake)

    def refuse_unloggable(self, dataset: str, rows: Sequence[tuple]) -> None:
        """Refuse a batch the strict-JSON WAL cannot log (a non-finite
        value or time) before the merger takes any of it.  Column by
        column: ``zip(*rows)``'s iterator per row sets off full GC passes."""
        width = len(DATASETS[dataset].dims)
        for slot in range(width, width + len(DATASETS[dataset].measures) + 1):
            column = np.asarray([row[slot] for row in rows], dtype=np.float64)
            if not np.isfinite(column).all():
                raise ValueError(f"non-finite value in a {dataset!r} batch: "
                                 "the write-ahead log cannot record it")

    def log_create_table(self, name: str,
                         retention: Optional[RetentionPolicy]) -> None:
        self.engine.log_create_table(name, retention)

    def log_points(self, table_name: str, points: List[Point]) -> None:
        self.engine.log_points(table_name, points)

    def evict(self, name: str, table: Table, cutoff: float) -> int:
        """Log the sweep, apply it, and mark dirty only the series it
        trimmed: the next checkpoint re-flushes those, not the table."""
        self.engine.log_eviction(name, cutoff)
        trimmed: List[SeriesKey] = []
        dropped = table.evict_before(cutoff, trimmed)
        self.engine.mark_dirty(name, trimmed)
        return dropped

    def land(self, merged: MergedRound, changed: Dict[str, list]) -> None:
        self.lake.append_round(merged, changed)

    def commit_round(self, time: float) -> None:
        self.engine.commit_round(time)
        if self.checkpoint_every > 0 and \
                self.engine.rounds_committed % self.checkpoint_every == 0:
            self.engine.checkpoint(time)

    def checkpoint(self, time: float) -> None:
        self.engine.checkpoint(time)

    def close(self) -> None:
        self.lake.close()

    def evicted_through(self, table_name: str) -> Optional[float]:
        return self.engine.evicted_through(table_name)

    def history(self, table_name: str, measure: str, filters: Dict[str, str],
                start: float, end: float,
                hot_scan: Callable[[], List[Record]]) -> List[Record]:
        if table_name not in MERGED_TABLES:
            return hot_scan()
        return self.federated.query(measure, filters, start, end,
                                    self.evicted_through(table_name),
                                    hot_scan=hot_scan)

    def stats(self, **write_path) -> Dict[str, dict]:
        return {"lake": {**self.lake.census(), **write_path,
                         "federated": self.federated.stats()}}


class SpotLakeArchive:
    """Facade the collectors write to and the serving layer reads from.

    One write path: ``append`` buffers rows in the round merger and
    ``commit_round`` lands what changed, so rows become readable at the
    commit (gaps are the one direct write, :meth:`put_gap`).  Without a
    ``data_dir`` the tiers are :class:`MemoryTiers`, with one
    :class:`DurableTiers`.  ``cache=False`` is the serving oracle.
    """

    def __init__(self, retention: Optional[RetentionPolicy] = None,
                 cache: bool = True,
                 data_dir: Optional[Union[str, Path]] = None,
                 checkpoint_every: int = 4,
                 io: DurableIO = PLAIN):
        self._merger = RoundMerger()
        self._differ = RoundDiffer()
        self._tiers = MemoryTiers() if data_dir is None else DurableTiers(
            data_dir, checkpoint_every, io, self._differ)
        self.store = self._tiers.store
        #: the durable WAL engine and cold lake (None in the memory shape)
        self.engine, self.lake = self._tiers.engine, self._tiers.lake
        for name in MERGED_TABLES:
            self._ensure_table(name, retention)
        #: lifetime ingest-avoidance counters: rows the merger captured
        #: vs rows the diff actually wrote to the hot tables
        self.rows_merged = 0
        self.rows_ingested = 0
        #: generation-stamped read caches, one per table (lazily created;
        #: creation is guarded so concurrent serving workers agree on one
        #: cache instance per table)
        self._caches: Dict[str, QueryCache] = {}
        self._caches_lock = threading.Lock()
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
        self._tiers.log_create_table(name, retention)
        return self.store.create_table(name, retention)

    def apply_retention(self, now: float) -> Dict[str, int]:
        """Run the retention sweep; the tiers WAL-log each eviction."""
        dropped: Dict[str, int] = {}
        for name in self.store.table_names():
            cutoff = self.store.policy(name).cutoff(now)
            if cutoff is not None:
                dropped[name] = self._tiers.evict(
                    name, self.store.table(name), cutoff)
        return dropped

    def commit_round(self, time: float) -> Dict[str, int]:
        """End-of-round hook: land the round, sweep retention, group-commit.

        The merged round is diffed; its changed rows land cold (the whole
        round on a day's first), then hot -- strictly before the WAL's
        group commit, so recovery can trim the lake to
        ``last_commit_time`` and re-collect the tail.  The round is the
        crash-atomicity unit; every ``checkpoint_every`` committed rounds
        the log is folded into segments.
        """
        merged = self._merger.take_round(time)
        if merged.row_count:
            diff = self._differ.diff(merged)
            self._tiers.land(merged, diff.rows)
            self.rows_merged += diff.rows_seen
            self.rows_ingested += diff.rows_changed
            for table, rows in diff.rows.items():
                if rows:
                    self._put_points(table, DATASETS[table].points(
                        rows, self._key_memos[table].__getitem__))
        dropped = self.apply_retention(time)
        self._tiers.commit_round(time)
        return dropped

    def checkpoint(self, time: float) -> None:
        """Force a checkpoint now (used at shutdown)."""
        self._tiers.checkpoint(time)

    def close(self) -> None:
        self._tiers.close()

    # -- read caching -------------------------------------------------------

    def query_cache(self, table_name: str) -> Optional[QueryCache]:
        """The table's read cache, or None while caching is disabled."""
        if not self.cache_enabled:
            return None
        with self._caches_lock:
            cache = self._caches.get(table_name)
            if cache is None:
                cache = QueryCache(self.store.table(table_name))
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
        """Buffer one collector's rows; returns the records captured.

        ``dataset`` names an entry of :data:`repro.lake.schema.DATASETS`,
        which fixes the row layout and the series each row fans out to.
        ``commit_round`` diffs the merged round and lands what changed;
        a batch the tiers cannot log is refused before any of it buffers.
        """
        self._tiers.refuse_unloggable(dataset, rows)
        self._merger.add(dataset, rows)
        return len(DATASETS[dataset].measures) * len(rows)

    def _put_points(self, table_name: str,
                    points: Iterable[Tuple[SeriesKey, float, Value]]) -> int:
        """Log-then-apply a batch: WAL first (in order), then the table."""
        points = list(points)
        self._tiers.log_points(table_name, points)
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
        the durable shape the query federates across the retention boundary:
        rows the hot engine evicted are reconstructed from the cold
        tier, rows after the boundary come from the hot path unchanged.
        Cache coherence holds because an eviction that changes the hot
        table's contents bumps its generation (invalidating derived
        caches), while a boundary advance that evicts nothing leaves
        federated results bitwise unchanged (the cold reconstruction
        emits the identical rows the hot side stops serving).
        """
        return self._tiers.history(
            table_name, measure, filters, start, end,
            lambda: self._hot_history(table_name, measure, filters,
                                      start, end))

    def _hot_history(self, table_name: str, measure: str,
                     filters: Dict[str, str], start: float,
                     end: float) -> List[Record]:
        cache = self.query_cache(table_name)
        if cache is not None:
            return cache.scan(measure, filters, start, end)
        return self.store.table(table_name).scan(measure, filters, start, end)

    def evicted_through(self, table_name: str) -> Optional[float]:
        """The table's hot/cold boundary, or None when nothing is evicted."""
        return self._tiers.evicted_through(table_name)

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
        out.update(self._tiers.stats(
            differ=self._differ.stats(), rows_merged=self.rows_merged,
            rows_ingested=self.rows_ingested))
        return out
