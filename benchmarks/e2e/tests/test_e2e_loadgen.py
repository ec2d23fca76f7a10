"""Open-loop accounting: latency runs from the due time, lateness shows."""

import threading
import time

from spotbench import gen, harness
from spotbench.sizes import HOT_MIX
from spotbench.tracer import NullTracer

POOLS = [("m5.large", "us-east-1", f"use1-az{i}") for i in range(8)]
FRAME = gen.Frame(first=0.0, hot_start=601.0, last=1200.0, rounds=())


class FakeResponse:
    def __init__(self, status):
        self.status = status


class FakeTicket:
    """A ticket that resolved ``service_s`` after it was submitted."""

    def __init__(self, submitted, service_s, status=200):
        self.resolved_at = submitted + service_s
        self._status = status

    def result(self, timeout=None):
        return FakeResponse(self._status)


class FakeFrontend:
    def __init__(self, service_s=0.0, stall_at=None, stall_s=0.0):
        self.service_s = service_s
        self.stall_at, self.stall_s = stall_at, stall_s
        self.seen = []

    def submit(self, api_key, path, params, arrival_time=0.0):
        k = len(self.seen)
        self.seen.append((api_key, path, params, arrival_time))
        if k == self.stall_at:
            time.sleep(self.stall_s)    # the submitter itself is held up
        return FakeTicket(time.perf_counter(), self.service_s)


def offer(frontend, rate, seconds):
    stream = gen.op_stream(7, 0, HOT_MIX, POOLS, 1.1)
    offered, stop = [], threading.Event()
    started = time.perf_counter()
    thread = threading.Thread(
        target=harness.open_loop_generator,
        args=(frontend, stream, rate, [FRAME], started, stop, NullTracer(),
              offered))
    thread.start()
    time.sleep(seconds)
    stop.set()
    thread.join(5)
    assert not thread.is_alive()
    return started, offered


def test_requests_are_due_on_the_schedule_not_on_completion():
    started, offered = offer(FakeFrontend(), rate=200.0, seconds=0.25)
    assert 40 <= len(offered) <= 52
    for k, _name, due, sent, _ticket, _root, _wait in offered:
        assert abs(due - (started + k / 200.0)) < 1e-9
        assert sent >= due
    # virtual arrival times are the due offsets; tenants alternate
    frontend_calls = offered[3]
    assert frontend_calls[0] == 3


def test_latency_counts_from_due_time_and_a_stall_hits_later_requests():
    frontend = FakeFrontend(service_s=0.001, stall_at=5, stall_s=0.1)
    _started, offered = offer(frontend, rate=100.0, seconds=0.3)
    reads = harness.settle_open_loop(offered, NullTracer())
    latency = [seconds for _name, seconds in reads["latency"]]
    # request 5 held the generator for 100 ms: requests 6.. were due
    # during the stall, were sent late, and their latency says so
    assert latency[4] < 0.05
    assert latency[6] > 0.08 and latency[7] > 0.07
    assert max(reads["late"]) > 0.08
    assert reads["attempted"] == len(offered)
    assert reads["failed"] == 0


def test_refusals_and_slow_answers_miss_the_limit():
    now = time.perf_counter()
    offered = [
        (0, "latest", now, now, FakeTicket(now, 0.010), (), ()),
        (1, "latest", now, now, FakeTicket(now, 0.300), (), ()),       # slow
        (2, "latest", now, now, FakeTicket(now, 0.001, 503), (), ()),  # shed
    ]
    reads = harness.settle_open_loop(offered, NullTracer())
    assert (reads["attempted"], reads["misses"], reads["failed"]) == (3, 2, 1)


def test_arrival_times_and_tenants_reach_the_frontend():
    frontend = FakeFrontend()
    offer(frontend, rate=100.0, seconds=0.06)
    keys = [call[0] for call in frontend.seen[:4]]
    assert keys == ["key-tenant-0", "key-tenant-1"] * 2
    assert [call[3] for call in frontend.seen[:3]] == [0.0, 0.01, 0.02]
    hot_windows = [call[2] for call in frontend.seen if "start" in call[2]]
    assert all(p["start"] == "601.0" and p["end"] == "1200.0"
               for p in hot_windows)
