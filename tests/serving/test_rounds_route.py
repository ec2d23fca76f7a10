"""Regressions for history-param validation and the /rounds/<date> route."""

from repro import ServiceConfig, SimulatedCloud, SpotLakeService
from repro.cloudsim import Catalog, InstanceFamily, Region
from repro.lake import lake_day

from .conftest import build_serving_service, full_range


def _lake_service(tmp_path, rounds: int = 3) -> SpotLakeService:
    """A small durable lake-mode service populated via real collections.

    ``bulk_backfill`` is refused in lake mode (it bypasses the round
    merger), so the cold tier is fed the faithful way: one
    ``collect_once`` per interval.  Uses the same tiny catalog as
    :func:`build_serving_service` to keep rounds sub-second.
    """
    families = [InstanceFamily("m9", "M", "general", ("large", "xlarge"))]
    regions = [Region("rg-one-1", "rg", 2)]
    cloud = SimulatedCloud(seed=3, catalog=Catalog(seed=1, families=families,
                                                   regions=regions))
    service = SpotLakeService(
        ServiceConfig(seed=3, lake=True,
                      data_dir=str(tmp_path / "lake-data")),
        cloud=cloud)
    clock = service.cloud.clock
    for _ in range(rounds):
        service.collect_once()
        clock.set(clock.now() + 1800.0)
    return service


class TestHistoryParamValidation:
    def test_unknown_parameter_is_a_400_listing_expected(self):
        service = build_serving_service()
        try:
            params = dict(full_range(service), instancetype="m9.large")
            response = service.gateway.get("/sps/history", params)
            assert response.status == 400
            message = response.body["error"]
            assert "'instancetype'" in message
            assert "expected any of:" in message
            for expected in ("'instance_type'", "'region'", "'zone'",
                             "'start'", "'end'", "'limit'", "'next_token'"):
                assert expected in message
        finally:
            service.close()

    def test_measure_is_not_a_sps_or_price_parameter(self):
        service = build_serving_service()
        try:
            params = dict(full_range(service), measure="sps")
            for route in ("/sps/history", "/price/history"):
                response = service.gateway.get(route, params)
                assert response.status == 400
                assert "'measure'" in response.body["error"]
            # ...while /advisor/history legitimately accepts it
            ok = service.gateway.get(
                "/advisor/history", dict(full_range(service),
                                         measure="savings"))
            assert ok.status == 200
        finally:
            service.close()

    def test_zone_filter_rejected_on_zoneless_advisor_route(self):
        service = build_serving_service()
        try:
            response = service.gateway.get(
                "/advisor/history", dict(full_range(service), zone="rg-one-1a"))
            assert response.status == 400
            assert "'zone'" in response.body["error"]
        finally:
            service.close()


class TestRoundsRoute:
    def test_404_without_a_lake_tier(self):
        service = build_serving_service()
        try:
            response = service.gateway.get("/rounds/2022-01-01")
            assert response.status == 404
            assert "no cold lake tier" in response.body["error"]
        finally:
            service.close()

    def test_bad_dates_and_params_are_400s(self, tmp_path):
        service = _lake_service(tmp_path, rounds=1)
        try:
            gateway = service.gateway
            for bad in ("2022/01/01", "2022-1-1", "yesterday", "20220101"):
                response = gateway.get(f"/rounds/{bad}")
                assert response.status == 400, bad
                assert "expected YYYY-MM-DD" in response.body["error"]
            response = gateway.get("/rounds/2022-01-01", {"page": "1"})
            assert response.status == 400
            assert "'page'" in response.body["error"]
        finally:
            service.close()

    def test_lists_rounds_and_pages_one_snapshot(self, tmp_path):
        service = _lake_service(tmp_path, rounds=3)
        try:
            lake = service.archive.lake
            times = lake.round_times()
            date = lake_day(times[0]).replace("/", "-")
            listing = service.gateway.get(f"/rounds/{date}")
            assert listing.status == 200
            assert listing.body["rounds"] == lake.rounds_on(date)
            assert listing.body["count"] == len(listing.body["rounds"])

            at = times[0]
            full = service.gateway.get(f"/rounds/{date}", {"at": str(at)})
            assert full.status == 200
            total = full.body["round"]["total"]
            assert total > 0
            assert full.body["round"]["time"] == at
            # pages tile the snapshot exactly
            walked = []
            for offset in range(0, total, 5):
                page = service.gateway.get(
                    f"/rounds/{date}",
                    {"at": str(at), "limit": "5", "offset": str(offset)})
                assert page.status == 200
                assert page.body["round"]["offset"] == offset
                walked.extend(page.body["round"]["rows"])
            assert walked == full.body["round"]["rows"]
            # past the end: an empty page of the same round
            for offset in (total, total + 5):
                beyond = service.gateway.get(
                    f"/rounds/{date}",
                    {"at": str(at), "limit": "5", "offset": str(offset)})
                assert beyond.status == 200
                assert beyond.body["round"] == {
                    "time": at, "total": total, "count": 0,
                    "offset": offset, "rows": []}
            # the last archived round pages the same way over its deltas
            late = service.gateway.get(f"/rounds/{date}",
                                       {"at": str(times[-1])})
            tail = service.gateway.get(
                f"/rounds/{date}",
                {"at": str(times[-1]), "limit": "3", "offset": "2"})
            assert tail.body["round"]["total"] == \
                late.body["round"]["total"]
            assert tail.body["round"]["rows"] == \
                late.body["round"]["rows"][2:5]
        finally:
            service.close()

    def test_missing_round_time_is_a_404(self, tmp_path):
        service = _lake_service(tmp_path, rounds=1)
        try:
            times = service.archive.lake.round_times()
            date = lake_day(times[0]).replace("/", "-")
            response = service.gateway.get(f"/rounds/{date}",
                                           {"at": str(times[0] + 1.0)})
            assert response.status == 404
            assert "no archived round" in response.body["error"]
        finally:
            service.close()

    def test_route_label_is_shared_in_metrics(self, tmp_path):
        service = _lake_service(tmp_path, rounds=1)
        try:
            times = service.archive.lake.round_times()
            date = lake_day(times[0]).replace("/", "-")
            service.gateway.get(f"/rounds/{date}")
            service.gateway.get("/rounds/2021-12-25")
            snapshot = service.gateway.metrics.snapshot()
            routes = snapshot["routes"]
            assert "/rounds/<date>" in routes
            assert not any(r.startswith("/rounds/2") for r in routes)
        finally:
            service.close()
