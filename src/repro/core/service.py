"""SpotLake service facade: one object wiring the whole Figure-2 pipeline.

``SpotLakeService`` owns the simulated cloud, the account pool, the packed
query plan, the three collectors, the scheduler, the archive and the API
gateway.  Two population paths exist:

* :meth:`collect_once` / :meth:`run_collection` -- the *faithful* path: every
  record travels through the quota-limited API client exactly as the real
  service's records do.  Use it for integration testing and modest windows.
* :meth:`bulk_backfill` -- the *fast* path for research-scale windows (the
  paper's 181 days x 10-minute cadence is ~26k rounds): it samples the
  dataset engines directly and commits one round per sample time.  The
  data is identical -- both paths read the same deterministic engines and
  share the archive's one write path -- only the API quota accounting is
  skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from ..storage.durable import PLAIN, DurableIO
from ..timeseries import RetentionPolicy
from .archive import ADVISOR_TABLE, PRICE_TABLE, SPS_TABLE, SpotLakeArchive
from .collectors import (
    AdvisorCollector,
    CollectionReport,
    PriceCollector,
    SpsCollector,
)
from .plan_cache import PlanCache
from .query_planner import QueryPlan
from .resilience import CircuitBreaker, ResilientExecutor, RetryPolicy
from .frontend import ServingFrontend, Tenant
from .scheduler import CollectionScheduler, DEFAULT_INTERVAL_SECONDS
from .serving import ApiGateway


@dataclass
class ServiceConfig:
    """Knobs of a SpotLake deployment; ``data_dir`` alone picks its shape
    (memory, or durable: WAL + lake), and both share one write path."""

    seed: int = 0
    #: collection cadence (the paper used 10 minutes).
    collection_interval: float = DEFAULT_INTERVAL_SECONDS
    #: restrict collection to these instance types (None = whole catalog).
    instance_types: Optional[Sequence[str]] = None
    #: named fault-injection profile ("none" disables injection).
    chaos_profile: str = "none"
    #: seed of the fault schedule; defaults to the world seed.
    chaos_seed: Optional[int] = None
    #: retry attempts per call (1 initial + N-1 retries).
    retry_attempts: int = 4
    #: consecutive failures before a data source's breaker opens.
    breaker_threshold: int = 5
    #: sim-seconds an open breaker waits before half-open probing.
    breaker_reset: float = 1800.0
    #: durable storage directory: the WAL engine, the cold lake and
    #: federated reads, always together (None = the memory shape).
    data_dir: Optional[str] = None
    #: checkpoint cadence in committed collection rounds (0 = never).
    checkpoint_every: int = 4
    #: not a knob: derived as ``data_dir is not None`` (anything else
    #: raises); kept only because ``benchmarks/e2e`` passes ``lake=True``.
    lake: Optional[bool] = None
    #: hot-tier retention: evict change points older than this many
    #: sim-seconds at each round commit (None = keep all).  In the
    #: durable shape evicted history remains queryable from the cold
    #: tier through the same ``history`` routes.
    retention_max_age: Optional[float] = None
    #: not a knob: any value >= 1 is accepted and selects nothing (SPS
    #: rounds run on the calling thread); kept only because
    #: ``benchmarks/e2e`` passes ``workers=2``.
    workers: int = 1
    #: requests inside the gateway at once behind the admission-controlled
    #: frontend (callers and its worker threads alike).
    frontend_workers: int = 4

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.lake is None:
            self.lake = self.data_dir is not None
        elif self.lake != (self.data_dir is not None):
            raise ValueError("lake must equal data_dir is not None")


class SpotLakeService:
    """The assembled data archive service."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 cloud: Optional[SimulatedCloud] = None,
                 io: DurableIO = PLAIN):
        self.config = config or ServiceConfig()
        self.cloud = cloud or SimulatedCloud(seed=self.config.seed)
        if self.config.instance_types is not None:
            if not self.config.instance_types:
                raise ValueError("instance_types names no type (None "
                                 "collects the whole catalog)")
            unknown = sorted(set(self.config.instance_types)
                             - set(self.cloud.catalog.instance_type_names))
            if unknown:
                raise ValueError("unknown instance type(s): "
                                 + ", ".join(unknown))
        retention = None
        if self.config.retention_max_age is not None:
            retention = RetentionPolicy(
                max_age_seconds=self.config.retention_max_age)
        self.archive = SpotLakeArchive(
            retention=retention,
            data_dir=self.config.data_dir,
            checkpoint_every=self.config.checkpoint_every,
            io=io)

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
        self.plan: QueryPlan = self._build_plan(offering_map, io)

        self.accounts = AccountPool(AccountPool.size_for(
            self.plan.optimized_query_count))

        policy = RetryPolicy(max_attempts=self.config.retry_attempts,
                             seed=self.config.seed)
        self.executors: Dict[str, ResilientExecutor] = {
            source: ResilientExecutor(
                source, self.cloud.clock, policy,
                CircuitBreaker(self.cloud.clock,
                               self.config.breaker_threshold,
                               self.config.breaker_reset))
            for source in ("sps", "advisor", "price")}

        self.sps_collector = SpsCollector(
            self.cloud, self.archive, self.accounts, self.plan,
            resilience=self.executors["sps"])
        self.advisor_collector = AdvisorCollector(
            self.cloud, self.archive,
            resilience=self.executors["advisor"])
        self.price_collector = PriceCollector(
            self.cloud, self.archive, self._selected_pools(),
            resilience=self.executors["price"])

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

    def _build_plan(self, offering_map, io: DurableIO) -> QueryPlan:
        """Build the packed plan through the shared plan cache.

        The cache only skips solver work: its plans equal
        :func:`~repro.core.query_planner.plan_for_offering_map`'s.  With
        durable storage the cache also round-trips through
        ``data_dir/plan-cache.json`` so a restarted service replans
        without a single solver call.
        """
        cache = PlanCache.shared()
        path = self._plan_cache_path()
        if path is not None:
            cache.load(path)
        plan = cache.plan(offering_map)
        if path is not None and cache.dirty:
            cache.save(path, io)
        return plan

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the archive's storage engine."""
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
        """Per-data-source retry/gap/breaker counters."""
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
        return max(e.breaker.cooldown_remaining()
                   for e in self.executors.values())

    def frontend(self, tenants: Optional[Sequence[Tenant]] = None,
                 workers: Optional[int] = None,
                 **kwargs) -> ServingFrontend:
        """An admission-controlled frontend over this service's gateway.

        Config supplies the worker count; keyword arguments (a test's
        ``queue_depth`` / ``shed_cooldown``, say) pass straight through
        to :class:`ServingFrontend`.  The frontend is not started -- use
        it as a context manager or call ``start()``.
        """
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
        optionally the spot price -- one committed round per sample time,
        through the same merge -> diff path the collectors use.  Returns
        records captured (pre-diff).
        """
        cloud = self.cloud
        archive = self.archive
        pool_list = list(pools) if pools is not None else self._selected_pools()
        # the (type, region) pairs, in first-seen order
        pairs = list(dict.fromkeys((t, r) for t, r, _zone in pool_list))
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
            archive.commit_round(ts)
        return written
