"""End-to-end integration: the full Figure-2 pipeline on a catalog slice.

Collect through the quota-limited API -> archive -> serve -> analyze ->
experiment -> predict, all against one shared world.
"""

import numpy as np
import pytest

from repro import ServiceConfig, SpotLakeService
from repro.analysis import update_frequency_study, value_distribution
from repro.experiments import (
    ExperimentRunner,
    prediction_study,
    sample_cases,
    table3,
)

TYPES = [
    "m5.large", "m5.xlarge", "t3.micro", "c5.large", "c5.xlarge",
    "r5.large", "p3.2xlarge", "g4dn.xlarge", "inf1.xlarge",
    "i3.large", "d2.xlarge",
]


@pytest.fixture(scope="module")
def pipeline():
    """Run 12 hours of 30-minute collection rounds."""
    service = SpotLakeService(ServiceConfig(
        seed=0, instance_types=TYPES, collection_interval=1800.0))
    service.run_collection(12 * 3600.0)
    return service


class TestCollectionToArchive:
    def test_all_rounds_ran(self, pipeline):
        jobs = {j.name: j for j in pipeline.scheduler.jobs()}
        assert jobs["sps"].runs == 25  # t=0 plus 24 half-hour rounds
        assert jobs["advisor"].runs == 25
        assert jobs["price"].runs == 25

    def test_no_quota_failures(self, pipeline):
        assert pipeline.scheduler.jobs()[0].last_report.queries_failed == 0

    def test_archive_dedup_effective(self, pipeline):
        # the round differ dedups before the table: change points stored
        # over the records the collector captured (each fault-free round
        # captures the whole plan)
        sps = {j.name: j for j in pipeline.scheduler.jobs()}["sps"]
        captured = sps.runs * sps.last_report.records_written
        stored = pipeline.archive.stats()["sps"]["change_points_stored"]
        assert stored / captured < 0.2  # 30-min cadence repeats

    def test_archive_consistent_with_engines(self, pipeline):
        cloud = pipeline.cloud
        now = cloud.clock.now()
        zone = cloud.catalog.supported_zones("p3.2xlarge", "us-east-1")[0]
        assert pipeline.archive.sps_at("p3.2xlarge", "us-east-1", zone, now) \
            == cloud.placement.zone_score("p3.2xlarge", "us-east-1", zone, now)


class TestServing:
    def test_history_roundtrip(self, pipeline):
        now = pipeline.cloud.clock.now()
        response = pipeline.gateway.get("/sps/history", {
            "instance_type": "m5.large", "region": "us-east-1",
            "start": str(now - 12 * 3600.0), "end": str(now)})
        assert response.status == 200
        assert response.body["count"] >= 1

    def test_latest_serves_all_datasets(self, pipeline):
        cloud = pipeline.cloud
        zone = cloud.catalog.supported_zones("m5.large", "us-east-1")[0]
        response = pipeline.gateway.get("/latest", {
            "instance_type": "m5.large", "region": "us-east-1",
            "zone": zone, "at": str(cloud.clock.now())})
        body = response.body
        assert body["sps"] is not None
        assert body["if_score"] is not None
        assert body["spot_price"] is not None
        assert body["savings"] is not None


class TestAnalysisOnCollectedData:
    def test_value_distribution_from_collected_archive(self, pipeline):
        now = pipeline.cloud.clock.now()
        times = list(np.linspace(now - 10 * 3600.0, now, 8))
        dist = value_distribution(pipeline.archive, times)
        assert dist.sps_observations > 0
        assert sum(dist.sps_percent.values()) == pytest.approx(100.0)

    def test_update_study_from_collected_archive(self, pipeline):
        study = update_frequency_study(pipeline.archive)
        # 12 hours rarely shows advisor updates; sps/price may have some
        assert isinstance(study.intervals["sps"], np.ndarray)


class TestExperimentToPrediction:
    def test_full_study(self):
        service = SpotLakeService(ServiceConfig(seed=1))
        cloud = service.cloud
        submit = cloud.clock.start + 20 * 86400.0
        cloud.clock.set(submit)
        cases = sample_cases(cloud, submit, per_combo=30)
        results = ExperimentRunner(cloud).run_all(cases)
        rows = table3(results)
        assert rows

        pools = sorted({(c.instance_type, c.region, c.availability_zone)
                        for c in cases})
        times = np.linspace(submit - 30 * 86400.0, submit, 40)
        service.bulk_backfill(times.tolist(), pools=pools,
                              include_price=False)
        scores = prediction_study(service.archive, results, submit,
                                  n_estimators=20)
        assert len(scores) == 4
