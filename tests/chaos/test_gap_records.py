"""Gap-record archival: terminal failures leave explicit, queryable holes."""

from repro import AccountPool
from repro.cloudsim import FaultInjector, FaultPlan, FaultWindow
from repro.core import (
    AdvisorCollector,
    CircuitBreaker,
    CollectionReport,
    GAP_QUOTA_EXHAUSTED,
    GAP_RETRIES_EXHAUSTED,
    GAPS_TABLE,
    PriceCollector,
    ResilientExecutor,
    RetryPolicy,
    SpotLakeArchive,
    SpsCollector,
    plan_for_catalog,
)
from .conftest import build_tiny_cloud


def outage(cloud, operation="*", hours=24.0, kind="internal"):
    """Arm ``cloud`` with a full outage window over the next ``hours``."""
    window = FaultWindow(cloud.clock.now(),
                         cloud.clock.now() + hours * 3600.0,
                         operation=operation, kind=kind)
    cloud.faults = FaultInjector(FaultPlan(windows=(window,)), cloud.clock)
    return cloud


def executor_for(cloud, source, max_attempts=2, threshold=100):
    return ResilientExecutor(
        source, cloud.clock,
        RetryPolicy(max_attempts=max_attempts, base_delay=1.0, jitter=0.0),
        CircuitBreaker(cloud.clock, failure_threshold=threshold))


class TestArchiveGapTable:
    def test_gap_table_is_lazy(self):
        archive = SpotLakeArchive()
        assert archive.gaps is None
        assert archive.gap_count() == 0
        assert archive.gap_history() == []
        assert GAPS_TABLE not in archive.stats()

    def test_put_gap_materializes_the_table(self):
        archive = SpotLakeArchive()
        archive.put_gap("sps", "m5.large@r1/cap=1", "retries-exhausted",
                        3, 100.0)
        assert archive.gaps is not None
        assert archive.gap_count() == 1
        assert GAPS_TABLE in archive.stats()

    def test_gap_history_filters_by_source(self):
        archive = SpotLakeArchive()
        archive.put_gap("sps", "q1", "retries-exhausted", 3, 100.0)
        archive.put_gap("advisor", "snapshot", "breaker-open", 0, 200.0)
        sps_gaps = archive.gap_history({"Source": "sps"})
        assert len(sps_gaps) == 1
        assert sps_gaps[0].dimension_dict["Key"] == "q1"
        assert archive.gap_history({"Source": "advisor"})[0].value == 0

    def test_gaps_survive_snapshot_round_trip(self):
        archive = SpotLakeArchive()
        archive.put_gap("price", "sweep", "retries-exhausted", 2, 50.0)
        assert GAPS_TABLE in archive.store.content_digests()


class TestCollectorGaps:
    def test_sps_outage_archives_one_gap_per_query(self):
        cloud = outage(build_tiny_cloud(), "sps")
        archive = SpotLakeArchive()
        plan = plan_for_catalog(cloud.catalog)
        collector = SpsCollector(cloud, archive, AccountPool(2), plan,
                                 resilience=executor_for(cloud, "sps"))
        report = collector.collect()
        archive.commit_round(cloud.clock.now())
        assert report.queries_issued == plan.optimized_query_count
        assert report.queries_failed == plan.optimized_query_count
        assert report.gaps == plan.optimized_query_count
        assert archive.gap_count() == plan.optimized_query_count
        assert archive.stats()["sps"]["records_written"] == 0

    def test_advisor_outage_archives_snapshot_gap(self):
        cloud = outage(build_tiny_cloud(), "advisor")
        archive = SpotLakeArchive()
        collector = AdvisorCollector(
            cloud, archive, resilience=executor_for(cloud, "advisor"))
        report = collector.collect()
        assert report.gaps == 1 and report.queries_failed == 1
        gap = archive.gap_history({"Source": "advisor"})[0]
        assert gap.dimension_dict["Key"] == "snapshot"
        assert gap.dimension_dict["Reason"] == GAP_RETRIES_EXHAUSTED

    def test_price_outage_archives_sweep_gap(self):
        cloud = outage(build_tiny_cloud(), "price")
        archive = SpotLakeArchive()
        collector = PriceCollector(
            cloud, archive, resilience=executor_for(cloud, "price"))
        report = collector.collect()
        assert report.gaps == 1
        assert archive.gap_history({"Source": "price"})[0].value == 2

    def test_transient_fault_cleared_by_retry_leaves_no_gap(self):
        """A fault window shorter than the first backoff: the retry lands
        after the outage and succeeds, so nothing is failed or holed."""
        cloud = build_tiny_cloud()
        window = FaultWindow(cloud.clock.now(), cloud.clock.now() + 0.5,
                             operation="sps", kind="throttle")
        cloud.faults = FaultInjector(FaultPlan(windows=(window,)),
                                     cloud.clock)
        archive = SpotLakeArchive()
        plan = plan_for_catalog(cloud.catalog)
        collector = SpsCollector(cloud, archive, AccountPool(2), plan,
                                 resilience=executor_for(cloud, "sps",
                                                         max_attempts=3))
        report = collector.collect()
        assert report.queries_failed == 0
        assert report.gaps == 0
        assert report.retries >= 1
        assert archive.gap_count() == 0
        assert report.records_written > 0

    def test_quota_exhaustion_becomes_gap_not_crash(self):
        cloud = build_tiny_cloud()
        archive = SpotLakeArchive()
        plan = plan_for_catalog(cloud.catalog)
        starved = AccountPool(1, quota=1)
        collector = SpsCollector(cloud, archive, starved, plan,
                                 resilience=executor_for(cloud, "sps"))
        report = collector.collect()
        assert report.queries_failed == plan.optimized_query_count - 1
        assert report.gaps == report.queries_failed
        reasons = {g.dimension_dict["Reason"]
                   for g in archive.gap_history({"Source": "sps"})}
        assert reasons == {GAP_QUOTA_EXHAUSTED}

    def test_quota_failover_to_sibling_account_is_not_a_failure(self):
        """The satellite audit: a query the first account cannot afford but
        a sibling can must count as neither failed nor double-issued."""
        cloud = build_tiny_cloud()
        archive = SpotLakeArchive()
        plan = plan_for_catalog(cloud.catalog)
        # quota 1 per account, one account per planned query: every query
        # after the first fails over to a fresh sibling and succeeds
        pool = AccountPool(plan.optimized_query_count, quota=1)
        collector = SpsCollector(cloud, archive, pool, plan,
                                 resilience=executor_for(cloud, "sps"))
        report = collector.collect()
        assert report.queries_issued == plan.optimized_query_count
        assert report.queries_failed == 0
        assert report.gaps == 0
        assert report.accounts_used == plan.optimized_query_count


class TestReportAccounting:
    def test_merge_sums_resilience_fields(self):
        a = CollectionReport(queries_issued=2, queries_failed=1,
                             records_written=5, accounts_used=2, retries=3,
                             gaps=1, breaker_trips=1)
        b = CollectionReport(queries_issued=1, queries_failed=0,
                             records_written=2, accounts_used=4, retries=2,
                             gaps=0, breaker_trips=0)
        merged = a.merge(b)
        assert merged.queries_issued == 3
        assert merged.queries_failed == 1
        assert merged.records_written == 7
        assert merged.accounts_used == 4  # max, not sum
        assert merged.retries == 5
        assert merged.gaps == 1
        assert merged.breaker_trips == 1

    def test_legacy_collector_without_resilience_unchanged(self):
        cloud = build_tiny_cloud()
        archive = SpotLakeArchive()
        plan = plan_for_catalog(cloud.catalog)
        starved = AccountPool(1, quota=1)
        report = SpsCollector(cloud, archive, starved, plan).collect()
        assert report.queries_failed == plan.optimized_query_count - 1
        assert report.gaps == 0          # no resilience layer, no gaps
        assert archive.gap_count() == 0
