"""SpotLake service facade: one object wiring the whole Figure-2 pipeline.

``SpotLakeService`` owns the simulated cloud, the account pool, the packed
query plan, the three collectors, the scheduler, the archive and the API
gateway.  Two population paths exist:

* :meth:`collect_once` / :meth:`run_collection` -- the *faithful* path: every
  record travels through the quota-limited API client exactly as the real
  service's records do.  Use it for integration testing and modest windows.
* :meth:`bulk_backfill` -- the *fast* path for research-scale windows (the
  paper's 181 days x 10-minute cadence is ~26k rounds): it samples the
  dataset engines directly and writes the archive in bulk.  The data is
  identical -- both paths read the same deterministic engines -- only the
  API quota accounting is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..cloudsim import (
    AccountPool,
    FaultInjector,
    FaultPlan,
    SimulatedCloud,
    resolve_profile,
)
from ..scoring import interruption_free_score
from ..timeseries import RetentionPolicy
from .archive import ADVISOR_TABLE, PRICE_TABLE, SPS_TABLE, SpotLakeArchive
from .collectors import (
    AdvisorCollector,
    CollectionReport,
    PriceCollector,
    SpsCollector,
)
from .parallel import ParallelCollectionEngine
from .plan_cache import PlanCache
from .query_planner import QueryPlan, plan_for_offering_map
from .resilience import CircuitBreaker, ResilientExecutor, RetryPolicy
from .frontend import ServingFrontend, Tenant
from .scheduler import CollectionScheduler, DEFAULT_INTERVAL_SECONDS
from .serving import ApiGateway


@dataclass
class ServiceConfig:
    """Knobs of a SpotLake deployment."""

    seed: int = 0
    #: accounts in the SPS collection pool; sized for the full plan by
    #: default when left at 0.
    account_pool_size: int = 0
    #: collection cadence (the paper used 10 minutes).
    collection_interval: float = DEFAULT_INTERVAL_SECONDS
    #: restrict collection to these instance types (None = whole catalog).
    instance_types: Optional[Sequence[str]] = None
    #: packing algorithm for the query plan ("exact", "ffd", "naive").
    plan_algorithm: str = "exact"
    #: named fault-injection profile ("none" disables injection).
    chaos_profile: str = "none"
    #: seed of the fault schedule; defaults to the world seed.
    chaos_seed: Optional[int] = None
    #: run collectors behind retry/breaker/gap-record protection.
    resilience: bool = True
    #: retry attempts per call (1 initial + N-1 retries).
    retry_attempts: int = 4
    #: first backoff delay in sim-seconds.
    retry_base_delay: float = 2.0
    #: consecutive failures before a data source's breaker opens.
    breaker_threshold: int = 5
    #: sim-seconds an open breaker waits before half-open probing.
    breaker_reset: float = 1800.0
    #: serve reads through the generation-stamped query cache.
    serving_cache: bool = True
    #: per-table cache entry bound (LRU beyond it).
    cache_entries: int = 1024
    #: durable storage directory (None = purely in-memory archive).
    data_dir: Optional[str] = None
    #: checkpoint cadence in committed collection rounds (0 = never).
    checkpoint_every: int = 4
    #: tiered-lake mode: diff every merged round and land only changed
    #: rows, in the hot engine and in the date-partitioned cold tier (a
    #: day's first round lands there whole); history queries federate
    #: across the retention boundary.  Requires ``data_dir``.
    lake: bool = False
    #: emit every row (not just changes) each Nth round (0 = never).
    lake_full_refresh_every: int = 0
    #: hot-tier retention: evict change points older than this many
    #: sim-seconds at each round commit (None = keep all).  With the
    #: lake enabled, evicted history remains queryable from the cold
    #: tier through the same ``history`` routes.
    retention_max_age: Optional[float] = None
    #: storage crash-hook (doublerun --durability installs a CrashInjector).
    storage_crash_hook: Optional[object] = None
    #: SPS materialization worker threads (1 = inline, no thread pool;
    #: archives are byte-identical for every count).
    workers: int = 1
    #: reuse solved query packings via the content-addressed plan cache
    #: (in-memory always; persisted under ``data_dir`` when durable).
    plan_cache: bool = True
    #: serving worker threads behind the admission-controlled frontend.
    frontend_workers: int = 4
    #: bound on queued-but-undispatched serving requests (overflow sheds).
    frontend_queue_depth: int = 64
    #: virtual-seconds a shed frontend refuses new work.
    frontend_shed_cooldown: float = 5.0


class SpotLakeService:
    """The assembled data archive service."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 cloud: Optional[SimulatedCloud] = None):
        self.config = config or ServiceConfig()
        self.cloud = cloud or SimulatedCloud(seed=self.config.seed)
        retention = None
        if self.config.retention_max_age is not None:
            retention = RetentionPolicy(
                max_age_seconds=self.config.retention_max_age)
        self.archive = SpotLakeArchive(
            retention=retention,
            cache=self.config.serving_cache,
            cache_entries=self.config.cache_entries,
            data_dir=self.config.data_dir,
            checkpoint_every=self.config.checkpoint_every,
            crash_hook=self.config.storage_crash_hook,
            lake=self.config.lake,
            lake_full_refresh_every=self.config.lake_full_refresh_every)

        profile = resolve_profile(self.config.chaos_profile)
        if profile.total_rate > 0.0:
            chaos_seed = self.config.chaos_seed
            if chaos_seed is None:
                chaos_seed = self.config.seed
            self.cloud.faults = FaultInjector(
                FaultPlan(seed=chaos_seed, profile=profile),
                self.cloud.clock)

        offering_map = self.cloud.catalog.offering_map()
        if self.config.instance_types is not None:
            wanted = set(self.config.instance_types)
            offering_map = {t: rz for t, rz in offering_map.items() if t in wanted}
        self.plan: QueryPlan = self._build_plan(offering_map)

        pool_size = self.config.account_pool_size or AccountPool.size_for(
            self.plan.optimized_query_count)
        self.accounts = AccountPool(pool_size)

        self.executors: Dict[str, ResilientExecutor] = {}
        if self.config.resilience:
            policy = RetryPolicy(max_attempts=self.config.retry_attempts,
                                 base_delay=self.config.retry_base_delay,
                                 seed=self.config.seed)
            for source in ("sps", "advisor", "price"):
                self.executors[source] = ResilientExecutor(
                    source, self.cloud.clock, policy,
                    CircuitBreaker(self.cloud.clock,
                                   self.config.breaker_threshold,
                                   self.config.breaker_reset))

        self.engine = ParallelCollectionEngine(self.config.workers)

        self.sps_collector = SpsCollector(
            self.cloud, self.archive, self.accounts, self.plan,
            resilience=self.executors.get("sps"),
            engine=self.engine)
        self.advisor_collector = AdvisorCollector(
            self.cloud, self.archive,
            resilience=self.executors.get("advisor"))
        price_pools = None
        if self.config.instance_types is not None:
            wanted = set(self.config.instance_types)
            price_pools = [p for p in self.cloud.catalog.all_pools()
                           if p[0] in wanted]
        self.price_collector = PriceCollector(
            self.cloud, self.archive, price_pools,
            resilience=self.executors.get("price"))

        self.scheduler = CollectionScheduler(self.cloud.clock)
        self.scheduler.register("sps", self.sps_collector.collect,
                                self.config.collection_interval)
        self.scheduler.register("advisor", self.advisor_collector.collect,
                                self.config.collection_interval)
        self.scheduler.register("price", self.price_collector.collect,
                                self.config.collection_interval)

        self.gateway = ApiGateway(self.archive)

    # -- planning ---------------------------------------------------------------

    def _plan_cache_path(self) -> Optional[str]:
        if self.config.data_dir is None:
            return None
        return str(Path(self.config.data_dir) / "plan-cache.json")

    def _build_plan(self, offering_map) -> QueryPlan:
        """Build the packed plan, through the plan cache when enabled.

        The cached and uncached constructions produce identical plans; the
        cache only skips solver work.  With durable storage the cache also
        round-trips through ``data_dir/plan-cache.json`` so a restarted
        service replans without a single solver call.
        """
        if not self.config.plan_cache:
            return plan_for_offering_map(
                offering_map, algorithm=self.config.plan_algorithm)
        cache = PlanCache.shared()
        path = self._plan_cache_path()
        if path is not None:
            cache.load(path)
        plan = cache.plan(offering_map, algorithm=self.config.plan_algorithm)
        if path is not None and cache.dirty:
            cache.save(path)
        return plan

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool and the archive's storage engine."""
        self.engine.close()
        self.archive.close()

    # -- faithful collection ---------------------------------------------------

    def collect_once(self) -> Dict[str, CollectionReport]:
        """Run all three collectors once at the current clock time.

        Ends with the archive's round commit: the round is the durable
        group-commit unit, so a crash between rounds never loses data and
        a crash mid-round loses exactly the in-flight round.
        """
        reports = {
            "sps": self.sps_collector.collect(),
            "advisor": self.advisor_collector.collect(),
            "price": self.price_collector.collect(),
        }
        self.archive.commit_round(self.cloud.clock.now())
        return reports

    def run_collection(self, duration: float) -> int:
        """Advance time for ``duration`` seconds, firing due collectors.

        Every scheduler tick that fired at least one collector ends in a
        round commit (mirroring :meth:`collect_once`), durable or not --
        the commit is also where hot-tier retention is enforced.
        """
        clock = self.cloud.clock
        return self.scheduler.run_for(
            duration, self.config.collection_interval,
            after_tick=lambda: self.archive.commit_round(clock.now()))

    # -- resilience accounting -------------------------------------------------

    @property
    def chaos_enabled(self) -> bool:
        return self.cloud.faults is not None

    def resilience_stats(self) -> Dict[str, dict]:
        """Per-data-source retry/gap/breaker counters (empty when off)."""
        return {source: executor.stats()
                for source, executor in self.executors.items()}

    # -- serving observability -------------------------------------------------

    @property
    def metrics(self):
        """The gateway's serving metrics registry."""
        return self.gateway.metrics

    def serving_stats(self) -> dict:
        """Request metrics + cache counters (the ``/metrics`` payload)."""
        snapshot = self.gateway.metrics.snapshot()
        snapshot["cache"] = self.archive.cache_stats()
        return snapshot

    # -- concurrent serving ----------------------------------------------------

    def breaker_cooldown(self) -> float:
        """Longest remaining breaker cool-down across the data sources.

        0.0 when every source is healthy; the serving frontend raises
        its 503 ``retry_after`` hints to this, so shed clients back off
        until degraded collection can plausibly have recovered.
        """
        if not self.executors:
            return 0.0
        return max(e.breaker.cooldown_remaining()
                   for e in self.executors.values())

    def frontend(self, tenants: Optional[Sequence[Tenant]] = None,
                 workers: Optional[int] = None,
                 **kwargs) -> ServingFrontend:
        """An admission-controlled frontend over this service's gateway.

        Config supplies the worker/queue/shed defaults; keyword
        arguments pass straight through to :class:`ServingFrontend`.
        The frontend is not started -- use it as a context manager or
        call ``start()``.
        """
        kwargs.setdefault("queue_depth", self.config.frontend_queue_depth)
        kwargs.setdefault("shed_cooldown", self.config.frontend_shed_cooldown)
        kwargs.setdefault("breaker_cooldown", self.breaker_cooldown)
        return ServingFrontend(
            self.gateway,
            tenants=tuple(tenants) if tenants is not None else (),
            workers=(workers if workers is not None
                     else self.config.frontend_workers),
            **kwargs)

    # -- fast backfill -------------------------------------------------------------

    def _selected_pools(self) -> List[Tuple[str, str, str]]:
        pools = self.cloud.catalog.all_pools()
        if self.config.instance_types is not None:
            wanted = set(self.config.instance_types)
            pools = [p for p in pools if p[0] in wanted]
        return pools

    def bulk_backfill(self, sample_times: Sequence[float],
                      pools: Optional[Sequence[Tuple[str, str, str]]] = None,
                      include_price: bool = True) -> int:
        """Populate the archive by sampling the engines directly.

        Writes, for every pool and every sample time: the zone placement
        score, the advisor measures (per (type, region), deduplicated), and
        optionally the spot price.  Returns records written (pre-dedup).
        """
        cloud = self.cloud
        archive = self.archive
        if archive.lake is not None:
            raise RuntimeError(
                "bulk_backfill bypasses the round-merge stage and is not "
                "supported in lake mode; collect through collect_once / "
                "run_collection instead")
        pool_list = list(pools) if pools is not None else self._selected_pools()
        pair_seen = set()
        pairs: List[Tuple[str, str]] = []
        for itype, region, _zone in pool_list:
            if (itype, region) not in pair_seen:
                pair_seen.add((itype, region))
                pairs.append((itype, region))
        written = 0
        # spotlint: disable=QUO001 -- the documented fast path (see class
        # docstring): research-scale backfill samples the engines directly;
        # both paths read the same deterministic engines, only the API
        # quota accounting is skipped (covers the engine reads below)
        for ts in sample_times:
            sps, price, advisor = [], [], []
            for itype, region, zone in pool_list:
                sps.append((itype, region, zone,
                            cloud.placement.zone_score(itype, region, zone, ts),  # spotlint: disable=QUO001
                            ts))
                if include_price:
                    price.append((itype, region, zone,
                                  cloud.pricing.spot_price(itype, region, ts, zone),  # spotlint: disable=QUO001
                                  ts))
            for itype, region in pairs:
                ratio = cloud.advisor.interruption_ratio(itype, region, ts)  # spotlint: disable=QUO001
                savings = cloud.advisor.savings_percent(itype, region, ts)  # spotlint: disable=QUO001
                advisor.append((itype, region, ratio,
                                interruption_free_score(ratio), savings, ts))
            # one batch per dataset, in the collectors' fixed order
            written += archive.append(SPS_TABLE, sps)
            written += archive.append(ADVISOR_TABLE, advisor)
            written += archive.append(PRICE_TABLE, price)
        return written
