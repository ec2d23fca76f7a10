"""Tests for the API-gateway/Lambda-style serving layer."""

import json

import pytest

from repro.core import (
    ApiGateway,
    MetricsRegistry,
    Response,
    SpotLakeArchive,
    decode_cursor,
    encode_cursor,
)

from tests.conftest import land


def populated_archive(**kwargs):
    archive = SpotLakeArchive(**kwargs)
    land(archive, "sps", [("m5.large", "us-east-1", "us-east-1a", 3, 0)])
    land(archive, "sps", [("m5.large", "us-east-1", "us-east-1a", 2, 100)])
    land(archive, "advisor", [("m5.large", "us-east-1", 0.03, 3.0, 70, 0)])
    land(archive, "price", [("m5.large", "us-east-1", "us-east-1a", 0.035, 0)])
    return archive


@pytest.fixture()
def archive():
    return populated_archive()


@pytest.fixture()
def gateway(archive):
    return ApiGateway(archive)


class TestRouting:
    def test_routes_listed(self, gateway):
        assert "/sps/history" in gateway.routes()
        assert "/latest" in gateway.routes()

    def test_unknown_route_404(self, gateway):
        assert gateway.get("/nope").status == 404


class TestHistoryEndpoints:
    def test_sps_history(self, gateway):
        response = gateway.get("/sps/history", {
            "instance_type": "m5.large", "region": "us-east-1",
            "start": "0", "end": "1000"})
        assert response.status == 200
        assert response.body["count"] == 2
        assert response.body["rows"][0]["value"] == 3
        json.loads(response.json())  # serializable

    def test_advisor_history_measures(self, gateway):
        ok = gateway.get("/advisor/history", {
            "instance_type": "m5.large", "region": "us-east-1",
            "start": "0", "end": "10", "measure": "savings"})
        assert ok.status == 200
        bad = gateway.get("/advisor/history", {
            "instance_type": "m5.large", "region": "us-east-1",
            "start": "0", "end": "10", "measure": "weather"})
        assert bad.status == 400

    def test_price_history(self, gateway):
        response = gateway.get("/price/history", {
            "start": "0", "end": "10"})
        assert response.status == 200
        assert response.body["count"] == 1

    def test_missing_range_400(self, gateway):
        assert gateway.get("/sps/history", {}).status == 400

    def test_inverted_range_400(self, gateway):
        response = gateway.get("/sps/history",
                               {"start": "10", "end": "0"})
        assert response.status == 400

    def test_filters_narrow_results(self, gateway):
        response = gateway.get("/sps/history", {
            "instance_type": "c5.large", "start": "0", "end": "1000"})
        assert response.status == 200
        assert response.body["count"] == 0


class TestLatest:
    def test_full_payload(self, gateway):
        response = gateway.get("/latest", {
            "instance_type": "m5.large", "region": "us-east-1",
            "zone": "us-east-1a", "at": "150"})
        assert response.status == 200
        assert response.body["sps"] == 2
        assert response.body["if_score"] == 3.0
        assert response.body["spot_price"] == 0.035

    def test_region_only_payload(self, gateway):
        response = gateway.get("/latest", {
            "instance_type": "m5.large", "region": "us-east-1", "at": "50"})
        assert response.status == 200
        assert "sps" not in response.body
        assert response.body["savings"] == 70

    def test_missing_parameters_400(self, gateway):
        assert gateway.get("/latest", {"region": "us-east-1"}).status == 400

    def test_bad_timestamp_400(self, gateway):
        response = gateway.get("/latest", {
            "instance_type": "m5.large", "region": "us-east-1",
            "at": "noon"})
        assert response.status == 400


class TestStats:
    def test_stats_endpoint(self, gateway):
        response = gateway.get("/stats")
        assert response.status == 200
        assert response.body["sps"]["records_written"] == 2


class TestNonFiniteTimestamps:
    @pytest.mark.parametrize("start,end", [
        ("nan", "10"), ("0", "nan"), ("-inf", "10"), ("0", "inf"),
        ("NaN", "10"), ("0", "Infinity"),
    ])
    def test_history_rejects_non_finite_range(self, gateway, start, end):
        response = gateway.get("/sps/history", {"start": start, "end": end})
        assert response.status == 400

    def test_nan_range_does_not_silently_match(self, gateway):
        # regression: float("nan") passed the old `end < start` check
        response = gateway.get("/sps/history", {"start": "nan", "end": "nan"})
        assert response.status == 400

    @pytest.mark.parametrize("at", ["nan", "inf", "-inf"])
    def test_latest_rejects_non_finite_at(self, gateway, at):
        response = gateway.get("/latest", {
            "instance_type": "m5.large", "region": "us-east-1", "at": at})
        assert response.status == 400


class TestJsonEnvelope:
    def test_nan_measure_serializes_as_null(self, archive, gateway):
        land(archive, "price", [("m5.large", "us-east-1", "us-east-1a",
                                 float("nan"), 50)])
        response = gateway.get("/price/history", {"start": "0", "end": "100"})
        assert response.status == 200
        parsed = json.loads(response.json())  # spec-compliant parse
        assert parsed["rows"][-1]["value"] is None
        assert "NaN" not in response.json()

    def test_infinite_measure_serializes_as_null(self, archive, gateway):
        land(archive, "price", [("m5.large", "us-east-1", "us-east-1a",
                                 float("inf"), 50)])
        response = gateway.get("/price/history", {"start": "0", "end": "100"})
        assert json.loads(response.json())["rows"][-1]["value"] is None

    def test_plain_nan_body_never_emits_bare_literal(self):
        response = Response(200, {"x": float("nan"), "nested": [float("-inf")]})
        assert json.loads(response.json()) == {"x": None, "nested": [None]}


class TestServerErrors:
    def test_unexpected_handler_exception_maps_to_500(self, gateway):
        def boom(params):
            raise RuntimeError("handler crashed")
        gateway._routes["/boom"] = boom
        response = gateway.get("/boom")
        assert response.status == 500
        assert response.body["error"] == "internal server error"
        assert response.body["exception"] == "RuntimeError"

    def test_500_counted_in_metrics(self, gateway):
        gateway._routes["/boom"] = lambda p: 1 / 0
        gateway.get("/boom")
        snapshot = gateway.metrics.snapshot()
        assert snapshot["routes"]["/boom"]["server_errors"] == 1
        assert snapshot["totals"]["server_errors"] == 1

    def test_bad_request_is_not_a_server_error(self, gateway):
        gateway.get("/sps/history", {})
        snapshot = gateway.metrics.snapshot()
        assert snapshot["totals"]["server_errors"] == 0


class TestRouteMatrix:
    """Every route x outcome class the gateway can produce."""

    OK_REQUESTS = [
        ("/sps/history", {"start": "0", "end": "1000"}),
        ("/advisor/history", {"start": "0", "end": "1000"}),
        ("/price/history", {"start": "0", "end": "1000"}),
        ("/latest", {"instance_type": "m5.large", "region": "us-east-1",
                     "at": "50"}),
        ("/stats", {}),
        ("/metrics", {}),
    ]

    @pytest.mark.parametrize("path,params", OK_REQUESTS)
    def test_200(self, gateway, path, params):
        response = gateway.get(path, params)
        assert response.status == 200
        json.loads(response.json())

    BAD_REQUESTS = [
        ("/sps/history", {}),
        ("/advisor/history", {"start": "0", "end": "1", "measure": "x"}),
        ("/price/history", {"start": "5", "end": "1"}),
        ("/latest", {"instance_type": "m5.large", "region": "us-east-1",
                     "at": "noon"}),
        ("/sps/history", {"start": "0", "end": "1", "limit": "-3"}),
        ("/sps/history", {"start": "0", "end": "1", "limit": "many"}),
        ("/sps/history", {"start": "0", "end": "1", "next_token": "!!!"}),
    ]

    @pytest.mark.parametrize("path,params", BAD_REQUESTS)
    def test_400(self, gateway, path, params):
        assert gateway.get(path, params).status == 400

    def test_404(self, gateway):
        assert gateway.get("/sps").status == 404

    def test_500(self, gateway):
        gateway._routes["/boom"] = lambda p: {}[1]
        assert gateway.get("/boom").status == 500


class TestPagination:
    def fill(self, archive, n=10):
        for i in range(n):
            land(archive, "sps", [("m5.large", "us-east-1", "us-east-1a",
                                   (i % 3) + 1, 200 + i * 10)])

    def test_limit_bounds_the_page(self, archive, gateway):
        self.fill(archive)
        response = gateway.get("/sps/history", {
            "start": "0", "end": "1e9", "limit": "4"})
        assert response.status == 200
        assert response.body["count"] == 4
        assert len(response.body["rows"]) == 4
        assert response.body["total"] > 4
        assert response.body["next_token"]

    def test_walking_pages_covers_every_row_once(self, archive, gateway):
        self.fill(archive)
        full = gateway.get("/sps/history", {"start": "0", "end": "1e9"})
        walked, token, pages = [], None, 0
        while True:
            params = {"start": "0", "end": "1e9", "limit": "3"}
            if token:
                params["next_token"] = token
            page = gateway.get("/sps/history", params)
            assert page.status == 200
            walked.extend(page.body["rows"])
            pages += 1
            token = page.body["next_token"]
            if token is None:
                break
        assert walked == full.body["rows"]
        assert pages == -(-full.body["total"] // 3)

    def test_cursor_stable_across_writes(self, archive, gateway):
        self.fill(archive)
        page1 = gateway.get("/sps/history", {
            "start": "0", "end": "1e9", "limit": "3"})
        expected_next = gateway.get("/sps/history", {
            "start": "0", "end": "1e9", "limit": "3",
            "next_token": page1.body["next_token"]}).body["rows"]
        # a write lands between page fetches (including one sorting
        # *before* the cursor, via a brand-new series with an old time)
        land(archive, "sps", [("a1.large", "us-east-1", "us-east-1a", 1, 5)])
        land(archive, "sps", [("m5.large", "us-east-1", "us-east-1a", 3, 99999)])
        page2 = gateway.get("/sps/history", {
            "start": "0", "end": "1e9", "limit": "3",
            "next_token": page1.body["next_token"]})
        assert page2.status == 200
        # the cursor is positional-by-value: no skipped or repeated rows
        assert page2.body["rows"] == expected_next

    def test_cursor_roundtrip(self):
        pos = (123.5, "sps", (("InstanceType", "m5.large"),
                              ("Region", "us-east-1")))
        assert decode_cursor(encode_cursor(pos)) == pos

    def test_exhausted_page_has_no_token(self, gateway):
        response = gateway.get("/sps/history", {
            "start": "0", "end": "1e9", "limit": "100"})
        assert response.body["next_token"] is None

    def test_token_without_limit_resumes_to_the_end(self, archive, gateway):
        self.fill(archive)
        page1 = gateway.get("/sps/history", {
            "start": "0", "end": "1e9", "limit": "3"})
        rest = gateway.get("/sps/history", {
            "start": "0", "end": "1e9",
            "next_token": page1.body["next_token"]})
        assert rest.body["count"] == rest.body["total"] - 3
        assert rest.body["next_token"] is None


class TestMetricsRoute:
    def test_metrics_payload_shape(self, gateway):
        gateway.get("/sps/history", {"start": "0", "end": "1000"})
        gateway.get("/nope")
        response = gateway.get("/metrics")
        assert response.status == 200
        body = response.body
        assert set(body) == {"routes", "tenants", "totals", "cache",
                             "analytics"}
        route = body["routes"]["/sps/history"]
        assert route["requests"] == 1
        assert route["by_status"] == {"200": 1}
        assert set(route["latency"]) == {"p50_ms", "p95_ms", "p99_ms",
                                         "max_ms", "mean_ms"}
        assert body["routes"]["<unknown>"]["by_status"] == {"404": 1}
        assert body["totals"]["requests"] == 2
        assert body["cache"]["enabled"] is True
        json.loads(response.json())

    def test_rows_served_counted(self, gateway):
        gateway.get("/sps/history", {"start": "0", "end": "1000"})
        body = gateway.get("/metrics").body
        assert body["routes"]["/sps/history"]["rows_served"] == 2

    def test_cache_hits_surface_in_metrics(self, gateway):
        params = {"start": "0", "end": "1000"}
        gateway.get("/sps/history", params)
        gateway.get("/sps/history", params)
        cache = gateway.get("/metrics").body["cache"]
        assert cache["hits"] >= 1
        assert 0.0 < cache["hit_rate"] <= 1.0


class TestCacheBehaviourThroughGateway:
    def test_repeated_history_is_memoized(self, gateway):
        params = {"start": "0", "end": "1000"}
        first = gateway.get("/sps/history", params)
        renders = gateway.handlers._render_calls
        second = gateway.get("/sps/history", params)
        assert gateway.handlers._render_calls == renders  # no re-render
        assert second.json() == first.json()

    def test_overlapping_write_invalidates_through_gateway(self, archive,
                                                           gateway):
        params = {"start": "0", "end": "1e9"}
        assert gateway.get("/sps/history", params).body["total"] == 2
        land(archive, "sps", [("m5.large", "us-east-1", "us-east-1a", 1, 500)])
        assert gateway.get("/sps/history", params).body["total"] == 3

    def test_cache_disabled_archive_serves_identically(self):
        cached = ApiGateway(populated_archive(cache=True))
        uncached = ApiGateway(populated_archive(cache=False))
        for path, params in TestRouteMatrix.OK_REQUESTS[:-1]:  # not /metrics
            a = cached.get(path, dict(params))
            b = uncached.get(path, dict(params))
            assert (a.status, a.json()) == (b.status, b.json()), path
