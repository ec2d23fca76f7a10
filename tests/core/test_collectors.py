"""Tests for the three dataset collectors."""

import pytest

from repro import AccountPool, SimulatedCloud
from repro.core import (
    AdvisorCollector,
    PriceCollector,
    SpotLakeArchive,
    SpotInfoScraper,
    SpsCollector,
    plan_for_offering_map,
)


@pytest.fixture()
def setup(fresh_cloud):
    offering = {t: rz for t, rz in fresh_cloud.catalog.offering_map().items()
                if t in ("m5.large", "p3.2xlarge", "c5.xlarge")}
    plan = plan_for_offering_map(offering)
    archive = SpotLakeArchive()
    return fresh_cloud, plan, archive


class TestSpsCollector:
    def test_collect_round(self, setup):
        cloud, plan, archive = setup
        collector = SpsCollector(cloud, archive, AccountPool(2), plan)
        report = collector.collect()
        archive.commit_round(cloud.clock.now())
        assert report.queries_issued == plan.optimized_query_count
        assert report.queries_failed == 0
        assert report.records_written > 0
        assert archive.stats()["sps"]["series"] == report.records_written

    def test_records_match_engine(self, setup):
        cloud, plan, archive = setup
        SpsCollector(cloud, archive, AccountPool(2), plan).collect()
        now = cloud.clock.now()
        archive.commit_round(now)
        zone = cloud.catalog.supported_zones("m5.large", "us-east-1")[0]
        archived = archive.sps_at("m5.large", "us-east-1", zone, now)
        direct = cloud.placement.zone_score("m5.large", "us-east-1", zone, now)
        assert archived == direct

    def test_quota_starvation_reported(self, setup):
        cloud, plan, archive = setup
        starved = AccountPool(1, quota=3)
        report = SpsCollector(cloud, archive, starved, plan).collect()
        assert report.queries_failed == plan.optimized_query_count - 3

    def test_repeat_round_is_free(self, setup):
        """A second identical round re-issues the same unique queries and
        costs no additional quota."""
        cloud, plan, archive = setup
        pool = AccountPool(AccountPool.size_for(plan.optimized_query_count))
        collector = SpsCollector(cloud, archive, pool, plan)
        collector.collect()
        used_before = pool.total_remaining(cloud.clock.now())
        cloud.clock.advance_minutes(10)
        report = collector.collect()
        assert report.queries_failed == 0
        assert pool.total_remaining(cloud.clock.now()) == used_before


class TestAdvisorCollector:
    def test_single_fetch_covers_catalog(self, fresh_cloud):
        archive = SpotLakeArchive()
        report = AdvisorCollector(fresh_cloud, archive).collect()
        assert report.queries_issued == 1
        offering = fresh_cloud.catalog.offering_map()
        pairs = sum(len(r) for r in offering.values())
        assert report.records_written == 3 * pairs

    def test_scraper_is_programmatic_wrapper(self, fresh_cloud):
        scraper = SpotInfoScraper(fresh_cloud)
        snapshot = scraper.fetch()
        assert snapshot
        assert snapshot[0].interruption_label in (
            "<5%", "5-10%", "10-15%", "15-20%", ">20%")

    def test_if_score_stored(self, fresh_cloud):
        archive = SpotLakeArchive()
        AdvisorCollector(fresh_cloud, archive).collect()
        now = fresh_cloud.clock.now()
        archive.commit_round(now)
        score = archive.if_score_at("m5.large", "us-east-1", now)
        assert score in (1.0, 1.5, 2.0, 2.5, 3.0)


class TestPriceCollector:
    def test_restricted_pools(self, fresh_cloud):
        pools = [p for p in fresh_cloud.catalog.all_pools()
                 if p[0] == "m5.large"][:5]
        archive = SpotLakeArchive()
        report = PriceCollector(fresh_cloud, archive, pools).collect()
        assert report.records_written == len(pools)
        now = fresh_cloud.clock.now()
        archive.commit_round(now)
        itype, region, zone = pools[0]
        assert archive.price_at(itype, region, zone, now) == \
            fresh_cloud.pricing.spot_price(itype, region, now, zone)
