"""ServingFrontend behaviour: envelopes, metrics, shedding, worker sweeps.

Overload tests pin the queue deterministically by submitting *before*
``start()`` -- with no workers draining, queue occupancy is a pure
function of the submission sequence (see the frontend module docstring's
determinism contract).
"""

import hashlib
import threading

import pytest

from repro.core import ACCEPTING, SHEDDING, ServingFrontend, Tenant
from repro.devtools.doublerun import build_workload

from .conftest import build_serving_service, full_range, generous_tenant


def analytics_mix(service):
    """Grouped/bucketed ``/analytics`` requests over every dataset."""
    base = full_range(service)
    return [
        ("/analytics", {**base, "dataset": "sps", "bucket": "7200.0",
                        "group_by": "region", "agg": "count,mean,std"}),
        ("/analytics", {**base, "dataset": "advisor",
                        "agg": "mean,min,max"}),
        ("/analytics", {**base, "dataset": "price", "bucket": "14400.0",
                        "group_by": "instance_type,region",
                        "agg": "mean,last,twa_mean"}),
        ("/analytics", {**base, "dataset": "sps", "bucket": "7200.0",
                        "group_by": "instance_type",
                        "agg": "change_count,mean_interval",
                        "limit": "7"}),
    ]


class TestEnvelopes:
    def test_unknown_api_key_is_401(self, service):
        frontend = service.frontend(tenants=[generous_tenant()])
        ticket = frontend.submit("not-a-key", "/stats")
        assert ticket.done()  # rejections resolve synchronously
        response = ticket.result(0)
        assert response.status == 401
        assert "api key" in response.body["error"]
        assert frontend.stats.unauthorized == 1
        # counted per route even though no handler ran
        snap = service.metrics.snapshot()
        assert snap["routes"]["/stats"]["by_status"]["401"] == 1

    def test_unknown_path_rejections_use_the_shared_label(self, service):
        frontend = service.frontend(tenants=[generous_tenant()])
        frontend.submit("not-a-key", "/no/such/route")
        snap = service.metrics.snapshot()
        assert snap["routes"]["<unknown>"]["by_status"]["401"] == 1

    def test_rate_limited_429_carries_retry_after(self, service):
        tenant = Tenant("slow", rate=1.0, burst=1.0)
        frontend = service.frontend(tenants=[tenant], workers=1)
        first = frontend.submit("key-slow", "/stats", arrival_time=0.0)
        second = frontend.submit("key-slow", "/stats", arrival_time=0.0)
        response = second.result(0)
        assert response.status == 429
        assert response.body["retry_after"] == pytest.approx(1.0)
        snap = service.metrics.snapshot()
        assert snap["tenants"]["slow"]["rate_limited"] == 1
        assert snap["totals"]["rate_limited"] == 1
        assert frontend.stats.rate_limited == 1
        with frontend:
            assert first.result(10.0).status == 200
        assert frontend.stats.served == 1

    def test_duplicate_api_key_rejected(self, service):
        with pytest.raises(ValueError):
            service.frontend(tenants=[Tenant("a", api_key="k"),
                                      Tenant("b", api_key="k")])


class TestShedStateMachine:
    def test_overflow_sheds_then_resumes_after_cooldown_and_drain(self,
                                                                  service):
        frontend = service.frontend(tenants=[generous_tenant()], workers=1,
                                    queue_depth=3, resume_depth=0,
                                    shed_cooldown=10.0)
        key = "key-dash"
        accepted = [frontend.submit(key, "/stats", arrival_time=0.0)
                    for _ in range(3)]
        overflow = frontend.submit(key, "/stats", arrival_time=0.0)
        response = overflow.result(0)
        assert response.status == 503
        assert response.body["retry_after"] == pytest.approx(10.0)
        assert frontend.snapshot()["state"] == SHEDDING
        assert frontend.stats.shed_events == 1

        # while shedding, later arrivals report the *remaining* window
        late = frontend.submit(key, "/stats", arrival_time=4.0).result(0)
        assert late.status == 503
        assert late.body["retry_after"] == pytest.approx(6.0)
        assert frontend.stats.shed == 2
        assert frontend.stats.shed_events == 1  # one episode, two 503s

        with frontend:  # drain the three admitted requests
            for ticket in accepted:
                assert ticket.result(10.0).status == 200

        # drained but not cooled down: still shedding
        still = frontend.submit(key, "/stats", arrival_time=9.0).result(0)
        assert still.status == 503

        # cooled down *and* drained: resume and accept
        ticket = frontend.submit(key, "/stats", arrival_time=10.0)
        assert not ticket.done()
        assert frontend.snapshot()["state"] == ACCEPTING
        assert frontend.stats.resumed == 1
        with frontend:
            assert ticket.result(10.0).status == 200

        snap = service.metrics.snapshot()
        assert snap["tenants"]["dash"]["shed"] == 3
        assert snap["totals"]["shed"] == 3

    def test_503_retry_after_raised_to_breaker_cooldown(self, service):
        frontend = ServingFrontend(service.gateway,
                                   tenants=(generous_tenant(),),
                                   workers=1, queue_depth=1,
                                   shed_cooldown=5.0,
                                   breaker_cooldown=lambda: 1234.0)
        frontend.submit("key-dash", "/stats", arrival_time=0.0)
        shed = frontend.submit("key-dash", "/stats", arrival_time=0.0)
        assert shed.result(0).body["retry_after"] == pytest.approx(1234.0)
        with frontend:
            pass  # drain the accepted request

    def test_constructor_validation(self, service):
        with pytest.raises(ValueError):
            ServingFrontend(service.gateway, workers=0)
        with pytest.raises(ValueError):
            ServingFrontend(service.gateway, queue_depth=0)


class TestWorkerPool:
    def test_responses_byte_identical_across_worker_counts(self, service):
        # two batteries, swept separately (/stats reports the analytics
        # counters the second one moves): the history/latest workload,
        # then repeated /analytics requests whose result memo and rollup
        # caches the workers race on
        for requests in (build_workload(service),
                         analytics_mix(service) * 6):
            digests = {}
            for workers in (1, 2, 4):
                service.metrics.reset()
                frontend = service.frontend(tenants=[generous_tenant()],
                                            workers=workers)
                with frontend:
                    tickets = [frontend.submit("key-dash", path, params,
                                               arrival_time=float(i))
                               for i, (path, params) in enumerate(requests)]
                    records = [(i, t.result(30.0).status,
                                t.result(30.0).json())
                               for i, t in enumerate(tickets)]
                assert all(status == 200 for _, status, _ in records), \
                    records
                digest = hashlib.sha256(repr(records).encode()).hexdigest()
                digests[workers] = digest
            assert len(set(digests.values())) == 1, digests

    def test_cold_cache_race_renders_once(self, conc_sanitizer):
        # built after the sanitizer installs so every lock is tracked
        service = build_serving_service()
        try:
            params = full_range(service)
            frontend = service.frontend(tenants=[generous_tenant()],
                                        workers=4)
            # queue 8 identical cold-cache scans, then release 4 workers
            # at once: the generation-stamped memo must compute once
            tickets = [frontend.submit("key-dash", "/sps/history",
                                       params, arrival_time=0.0)
                       for _ in range(8)]
            with frontend:
                bodies = {t.result(30.0).json() for t in tickets}
                statuses = {t.result(30.0).status for t in tickets}
            assert statuses == {200}
            assert len(bodies) == 1
            assert service.gateway.handlers._render_calls == 1
            stats = service.archive.cache_stats()
            assert stats["tables"]["sps"]["hits"] >= 1
        finally:
            service.close()

    def test_start_and_stop_are_idempotent(self, service):
        frontend = service.frontend(tenants=[generous_tenant()], workers=2)
        assert frontend.start() is frontend.start()
        frontend.stop()
        frontend.stop()
        # restartable after a stop
        ticket = frontend.submit("key-dash", "/stats")
        with frontend:
            assert ticket.result(10.0).status == 200

    def test_stop_drains_queued_requests(self, service):
        frontend = service.frontend(tenants=[generous_tenant()], workers=2)
        tickets = [frontend.submit("key-dash", "/stats", arrival_time=0.0)
                   for _ in range(10)]
        frontend.start()
        frontend.stop()
        assert all(t.done() for t in tickets)
        assert frontend.stats.served == 10

    def test_concurrent_submitters_all_get_served(self, service):
        # a closed-loop fleet: each client issues its next request only
        # after the previous one resolves, rotating over four tenants
        # whose limits never bind -- so every tenant must be served
        # evenly and nothing may be rejected
        tenants = [generous_tenant(f"t{i}") for i in range(4)]
        frontend = service.frontend(tenants=tenants, workers=4,
                                    queue_depth=1024)
        params = full_range(service)
        statuses = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def client(cid):
            barrier.wait()
            mine = []
            for i in range(20):
                seq = cid * 20 + i
                response = frontend.request(
                    tenants[seq % 4].api_key, "/sps/history", params,
                    arrival_time=float(seq), timeout=30.0)
                mine.append(response.status)
            with lock:
                statuses.extend(mine)

        with frontend:
            threads = [threading.Thread(target=client, args=(cid,))
                       for cid in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert statuses == [200] * 120
        assert frontend.stats.served == 120
        served = service.metrics.snapshot()["tenants"]
        assert {t.name: served[t.name]["succeeded"] for t in tenants} == \
            {t.name: 30 for t in tenants}


class TestTenantAccounting:
    def test_tenant_metrics_are_isolated(self, service):
        fast = generous_tenant("fast")
        slow = Tenant("slow", rate=1.0, burst=1.0)
        frontend = service.frontend(tenants=[fast, slow], workers=2)
        with frontend:
            for i in range(3):
                assert frontend.request("key-fast", "/stats",
                                        arrival_time=float(i)).status == 200
            assert frontend.request("key-slow", "/stats",
                                    arrival_time=0.0).status == 200
            assert frontend.request("key-slow", "/stats",
                                    arrival_time=0.0).status == 429
        snap = service.metrics.snapshot()
        assert snap["tenants"]["fast"]["requests"] == 3
        assert snap["tenants"]["fast"]["rate_limited"] == 0
        assert snap["tenants"]["fast"]["succeeded"] == 3
        assert snap["tenants"]["slow"]["requests"] == 2
        assert snap["tenants"]["slow"]["rate_limited"] == 1
        assert snap["tenants"]["slow"]["succeeded"] == 1
        assert (fast.admitted, fast.rejected) == (3, 0)
        assert (slow.admitted, slow.rejected) == (1, 1)

    def test_rejections_leave_latency_percentiles_alone(self, service):
        slow = Tenant("slow", rate=1.0, burst=1.0)
        frontend = service.frontend(tenants=[slow], workers=1)
        with frontend:
            assert frontend.request("key-slow", "/stats",
                                    arrival_time=0.0).status == 200
            for _ in range(5):
                assert frontend.request("key-slow", "/stats",
                                        arrival_time=0.0).status == 429
        route = service.metrics.route("/stats")
        assert route.requests == 6
        # 429s are counted but contribute no 0ms latency samples
        assert len(route.samples_ms) == 1

    def test_snapshot_shape(self, service):
        frontend = service.frontend(tenants=[generous_tenant()], workers=2)
        snap = frontend.snapshot()
        assert set(snap) == {"state", "queue_depth", "queue_limit",
                             "workers", "counters", "tenants"}
        assert snap["state"] == ACCEPTING
        assert snap["workers"] == 2
        assert snap["tenants"] == {"dash": {"admitted": 0, "rejected": 0}}
