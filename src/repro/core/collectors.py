"""Dataset collectors (paper Sections 3 and 4, Figure 2).

Three collectors feed the archive:

* :class:`SpsCollector` executes a bin-packed query plan against the SPS
  API, rotating across an account pool to stay inside the per-account
  50-unique-queries/24 h budget;
* :class:`AdvisorCollector` fetches the web-only advisor dataset through a
  SpotInfo-style scraper (:class:`SpotInfoScraper`), converting categorical
  buckets to the interruption-free score;
* :class:`PriceCollector` reads the current spot price per pool from the
  price-history API.

Each collector optionally runs behind a :class:`ResilientExecutor`
(retries, circuit breaker); a call that exhausts its budget degrades to
an explicit gap record instead of crashing the round, so the archive
never holes silently (the failure mode of the paper's Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cloudsim import (
    AccountPool,
    AdvisorEntry,
    CredentialExpiredError,
    QuotaExceededError,
    SimulatedCloud,
    make_query_key,
)
from ..scoring import score_from_bucket
from .archive import ADVISOR_TABLE, PRICE_TABLE, SpotLakeArchive
from .parallel import Admitted, ParallelCollectionEngine
from .query_planner import QueryPlan, SpsQuery, plan_for_catalog
from .resilience import CallOutcome, ResilientExecutor


@dataclass
class CollectionReport:
    """What one collection round actually did.

    In tiered-lake mode ``records_written`` counts the records captured
    into the round merger (the collector's whole output); how many of
    them the diff actually ingests into the hot engine is decided at the
    round commit and reported by the archive's lake stats.
    """

    queries_issued: int = 0
    queries_failed: int = 0
    records_written: int = 0
    accounts_used: int = 0
    #: transient-fault retries spent (a retried-then-successful query
    #: counts here, never in queries_failed)
    retries: int = 0
    #: explicit gap records written; every failed query produces exactly
    #: one, so queries_failed == gaps whenever resilience is on
    gaps: int = 0
    #: circuit-breaker close->open transitions triggered this round
    breaker_trips: int = 0

    def merge(self, other: "CollectionReport") -> "CollectionReport":
        """Fold two partial reports into one.

        ``accounts_used`` is *not* additive: two shards running on disjoint
        accounts would double-count under ``+``, and ``max`` undercounts
        them.  Neither merge rule can be exact from partial counts alone,
        so collectors keep shard sub-reports **sum-free by construction**
        (``accounts_used == 0``) and stamp the true value once at round
        end, from the pool itself (``max`` then just propagates the single
        authoritative stamp unchanged).
        """
        return CollectionReport(
            self.queries_issued + other.queries_issued,
            self.queries_failed + other.queries_failed,
            self.records_written + other.records_written,
            max(self.accounts_used, other.accounts_used),
            self.retries + other.retries,
            self.gaps + other.gaps,
            self.breaker_trips + other.breaker_trips,
        )

    def apply_outcome(self, outcome: CallOutcome) -> None:
        """Fold one resilient call's accounting into this report."""
        self.retries += outcome.retries
        if outcome.breaker_tripped:
            self.breaker_trips += 1
        if not outcome.ok:
            self.queries_failed += 1
            self.gaps += 1


class SpotInfoScraper:
    """Programmatic wrapper over the advisor's web-only dataset.

    Stands in for the SpotInfo CLI tool the paper uses: the advisor has no
    API, so SpotLake scrapes the website's JSON snapshot.
    """

    def __init__(self, cloud: SimulatedCloud):
        self._cloud = cloud

    def fetch(self) -> List[AdvisorEntry]:
        """The full advisor snapshot at the cloud's current time."""
        return self._cloud.advisor_web_snapshot()


class SpsCollector:
    """Collects placement scores per the packed query plan.

    The collector owns the serial admission pass (:meth:`admit_queries`:
    accounts, quota charges, fault draws, retries, gap records -- all in
    canonical plan order); the
    :class:`~repro.core.parallel.ParallelCollectionEngine` runs the round
    around it (see :mod:`repro.core.parallel` for the three phases).
    """

    def __init__(self, cloud: SimulatedCloud, archive: SpotLakeArchive,
                 accounts: AccountPool, plan: Optional[QueryPlan] = None,
                 resilience: Optional[ResilientExecutor] = None,
                 engine: Optional[ParallelCollectionEngine] = None):
        self.cloud = cloud
        self.archive = archive
        self.accounts = accounts
        self.plan = plan or plan_for_catalog(cloud.catalog)
        self.resilience = resilience
        #: runs the round; the default materializes inline (no threads)
        self.engine = engine or ParallelCollectionEngine()

    @staticmethod
    def query_fingerprint(query: SpsQuery) -> str:
        """Stable human-readable identity of a planned query (gap key)."""
        return (f"{query.instance_type}@{'+'.join(query.regions)}"
                f"/cap={query.target_capacity}")

    def attempt_deferred(self, query: SpsQuery):
        """One try of one planned query: acquire an account, call the API.

        Re-acquires on every try, so a retry may land on a different
        account; an expired token is refreshed before the error surfaces
        to the retry loop (re-auth is cheap, the retry backoff models it).
        The full admission gauntlet (account, credentials, fault hook,
        quota charge) runs here, on the caller's thread; only the score
        computation is deferred: the returned
        :class:`~repro.cloudsim.ec2_api.DeferredScoreCall` is pure and
        can be materialized on any worker thread.
        """
        key = make_query_key([query.instance_type], query.regions,
                             query.target_capacity,
                             query.single_availability_zone)
        account = self.accounts.acquire(key, self.cloud.clock.now())
        client = self.cloud.client(account)
        try:
            return client.get_spot_placement_scores_deferred(
                [query.instance_type], list(query.regions),
                target_capacity=query.target_capacity,
                single_availability_zone=query.single_availability_zone)
        except CredentialExpiredError:
            account.refresh_credentials()
            raise

    def admit_queries(self) -> Tuple[List[Admitted], CollectionReport]:
        """The serial control pass over the plan, in canonical order.

        Each query is *issued* exactly once however many attempts it
        takes, and it is *failed* only when it ends as a gap -- a query
        that exhausts one account's quota but succeeds on another (or
        succeeds on a retry) contributes zero to ``queries_failed``.
        """
        clock = self.cloud.clock
        if self.resilience is not None:
            self.resilience.start_round()
        report = CollectionReport()
        admitted: List[Admitted] = []
        for query in self.plan.queries:
            report.queries_issued += 1
            if self.resilience is None:
                try:
                    deferred = self.attempt_deferred(query)
                except QuotaExceededError:
                    report.queries_failed += 1
                    continue
            else:
                outcome = self.resilience.call(
                    (self.query_fingerprint(query),),
                    lambda q=query: self.attempt_deferred(q))
                report.apply_outcome(outcome)
                if not outcome.ok:
                    self.archive.put_gap(
                        "sps", self.query_fingerprint(query),
                        outcome.gap_reason, outcome.attempts, clock.now())
                    continue
                deferred = outcome.value
            # rows are stamped with the clock as of the successful
            # attempt, however late they are materialized
            admitted.append((query, deferred, clock.now()))
        return admitted, report

    def accounts_used_now(self) -> int:
        """Accounts with in-window charges -- the round-end authoritative
        ``accounts_used`` stamp (see :meth:`CollectionReport.merge`)."""
        return sum(
            1 for a in self.accounts.accounts
            if a.unique_queries_used(self.cloud.clock.now()) > 0)

    def collect(self) -> CollectionReport:
        """Run the full plan once (one collection round)."""
        return self.engine.run_sps_round(self)


class AdvisorCollector:
    """Collects the advisor dataset through the scraper."""

    def __init__(self, cloud: SimulatedCloud, archive: SpotLakeArchive,
                 scraper: Optional[SpotInfoScraper] = None,
                 resilience: Optional[ResilientExecutor] = None):
        self.cloud = cloud
        self.archive = archive
        self.scraper = scraper or SpotInfoScraper(cloud)
        self.resilience = resilience

    def collect(self) -> CollectionReport:
        report = CollectionReport(queries_issued=1)
        if self.resilience is None:
            entries = self.scraper.fetch()
        else:
            self.resilience.start_round()
            outcome = self.resilience.call(("snapshot",), self.scraper.fetch)
            report.apply_outcome(outcome)
            if not outcome.ok:
                self.archive.put_gap("advisor", "snapshot",
                                     outcome.gap_reason, outcome.attempts,
                                     self.cloud.clock.now())
                return report
            entries = outcome.value
        now = self.cloud.clock.now()
        rows = []
        for entry in entries:
            # spotlint: disable=QUO001 -- the advisor is web-only (paper
            # Section 3.1): there is no API surface to route through; the
            # scraper's snapshot carries buckets, the raw ratio is archived
            ratio = self.cloud.advisor.interruption_ratio(
                entry.instance_type, entry.region, now)
            rows.append((entry.instance_type, entry.region, ratio,
                         score_from_bucket(entry.interruption_bucket),
                         entry.savings_percent, now))
        report.records_written += self.archive.append(ADVISOR_TABLE, rows)
        return report


class PriceCollector:
    """Records the current spot price of every offered pool."""

    def __init__(self, cloud: SimulatedCloud, archive: SpotLakeArchive,
                 pools: Optional[Sequence[Tuple[str, str, str]]] = None,
                 resilience: Optional[ResilientExecutor] = None):
        self.cloud = cloud
        self.archive = archive
        self.pools = list(pools) if pools is not None else cloud.catalog.all_pools()
        self.resilience = resilience

    def _sweep(self) -> List[Tuple[str, str, str, float, float]]:
        """One price sweep: a single describe-history-style fetch.

        The row timestamp MUST be read *after* the fault hook and *inside*
        this function: the resilient retry loop re-invokes ``_sweep`` after
        advancing the clock past the backoff, so a retried sweep stamps its
        rows with the post-backoff time.  Hoisting ``now`` out of the call
        (or reading it before ``maybe_fault``) would archive pre-fault
        timestamps on retry -- the chaos regression test
        ``tests/chaos/test_price_timestamps.py`` pins this ordering.
        """
        self.cloud.maybe_fault("price")
        now = self.cloud.clock.now()
        rows = []
        for itype, region, zone in self.pools:
            # spotlint: disable=QUO001 -- the price-history API is not
            # quota-limited (Section 2.1); the engine's current price equals
            # the newest describe_spot_price_history point
            price = self.cloud.pricing.spot_price(itype, region, now, zone)
            rows.append((itype, region, zone, price, now))
        return rows

    def collect(self) -> CollectionReport:
        report = CollectionReport(queries_issued=1)
        if self.resilience is None:
            rows = self._sweep()
        else:
            self.resilience.start_round()
            outcome = self.resilience.call(("sweep",), self._sweep)
            report.apply_outcome(outcome)
            if not outcome.ok:
                self.archive.put_gap("price", "sweep", outcome.gap_reason,
                                     outcome.attempts,
                                     self.cloud.clock.now())
                return report
            rows = outcome.value
        report.records_written += self.archive.append(PRICE_TABLE, rows)
        return report
