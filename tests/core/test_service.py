"""Tests for the assembled SpotLake service."""

import pytest

from repro import ServiceConfig, SpotLakeService

from tests.chaos.conftest import build_tiny_cloud


class TestWiring:
    def test_plan_restricted_to_configured_types(self, small_service):
        types = {q.instance_type for q in small_service.plan.queries}
        assert types <= set(small_service.config.instance_types)

    def test_account_pool_sized_for_plan(self, small_service):
        from repro import AccountPool
        needed = AccountPool.size_for(small_service.plan.optimized_query_count)
        assert len(small_service.accounts) == needed

    def test_three_jobs_registered(self, small_service):
        names = {job.name for job in small_service.scheduler.jobs()}
        assert names == {"sps", "advisor", "price"}

    def test_lake_is_derived_from_data_dir(self, tmp_path):
        """A data_dir always means WAL + lake: ``lake`` follows it, and
        any other value is refused."""
        assert ServiceConfig().lake is False
        assert ServiceConfig(data_dir=str(tmp_path)).lake is True
        assert ServiceConfig(data_dir=str(tmp_path), lake=True).lake is True
        with pytest.raises(ValueError):
            ServiceConfig(lake=True)
        with pytest.raises(ValueError):
            ServiceConfig(data_dir=str(tmp_path), lake=False)


class TestCollection:
    def test_collect_once_populates_all_tables(self, small_service):
        reports = small_service.collect_once()
        assert reports["sps"].records_written > 0
        assert reports["advisor"].records_written > 0
        assert reports["price"].records_written > 0
        stats = small_service.archive.stats()
        assert all(stats[t]["records_written"] > 0
                   for t in ("sps", "advisor", "price"))

    def test_run_collection_advances_clock(self, small_service):
        before = small_service.cloud.clock.now()
        runs = small_service.run_collection(1800)
        assert small_service.cloud.clock.now() == before + 1800
        assert runs >= 3  # each collector fires at least once

    def test_run_collection_enforces_retention_in_memory(self):
        """Regression: ``run_collection`` on an in-memory archive used to
        skip ``commit_round``, so ``retention_max_age`` was honoured by
        ``collect_once`` and silently ignored here."""
        def build():
            return SpotLakeService(
                ServiceConfig(seed=5, retention_max_age=1200.0),
                cloud=build_tiny_cloud(seed=5))

        rounds, step = 48, 600.0
        scheduled = build()
        scheduled.run_collection((rounds - 1) * step)
        stepped = build()
        for index in range(rounds):
            stepped.collect_once()
            if index < rounds - 1:
                stepped.cloud.clock.advance(step)

        def stored(service):
            return {name: sum(len(table.series(key))
                              for key in table.series_keys())
                    for name, table in (
                        (n, service.archive.store.table(n))
                        for n in ("sps", "advisor", "price"))}

        assert scheduled.cloud.clock.now() == stepped.cloud.clock.now()
        assert stored(scheduled) == stored(stepped)
        cutoff = scheduled.cloud.clock.now() - 1200.0
        price = scheduled.archive.price
        assert all(len(price.series(key)) <= 1
                   or price.series(key).times[1] > cutoff
                   for key in price.series_keys())

    def test_served_data_matches_engine(self, small_service):
        small_service.collect_once()
        cloud = small_service.cloud
        now = cloud.clock.now()
        zone = cloud.catalog.supported_zones("m5.large", "us-east-1")[0]
        response = small_service.gateway.get("/latest", {
            "instance_type": "m5.large", "region": "us-east-1",
            "zone": zone, "at": str(now)})
        assert response.status == 200
        assert response.body["sps"] == cloud.placement.zone_score(
            "m5.large", "us-east-1", zone, now)
        assert response.body["spot_price"] == cloud.pricing.spot_price(
            "m5.large", "us-east-1", now, zone)


class TestBulkBackfill:
    def test_backfill_equivalent_to_collection(self, small_service):
        """The fast path writes the same values the collectors would."""
        cloud = small_service.cloud
        t = cloud.clock.now()
        pools = [p for p in cloud.catalog.all_pools()
                 if p[0] == "m5.large"][:3]
        small_service.bulk_backfill([t], pools=pools)
        for itype, region, zone in pools:
            assert small_service.archive.sps_at(itype, region, zone, t) == \
                cloud.placement.zone_score(itype, region, zone, t)

    def test_backfill_respects_type_restriction(self, small_service):
        t = small_service.cloud.clock.now()
        small_service.bulk_backfill([t])
        keys = small_service.archive.sps.series_keys("sps")
        types = {k.dimension_dict["InstanceType"] for k in keys}
        assert types <= set(small_service.config.instance_types)

    def test_backfill_returns_record_count(self, small_service):
        t = small_service.cloud.clock.now()
        pools = [p for p in small_service.cloud.catalog.all_pools()
                 if p[0] == "m5.large"][:2]
        written = small_service.bulk_backfill([t, t + 600], pools=pools,
                                              include_price=False)
        # 2 instants x (2 sps records + 1 advisor pair x 3 measures)
        assert written == 2 * (2 + 3)
