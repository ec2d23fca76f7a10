"""Span bookkeeping: parents, cross-thread hand-offs, self-time arithmetic."""

import threading

from spotbench.tracer import NullTracer, Span, SpanTable, Tracer, covered


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_is_a_union_clipped_to_the_parent():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert covered(0.0, 10.0, [(-5.0, -1.0), (11.0, 12.0)]) == 0.0
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_is_duration_minus_child_cover():
    spans = [
        Span(1, 0, "request", 0.0, 10.0, ("latest", 0)),
        Span(2, 1, "core.frontend.request", 1.0, 9.0, None),
        Span(3, 2, "core.serving.get", 2.0, 6.0, None),
        Span(4, 3, "timeseries.cache.lookup", 3.0, 4.0, None),
        Span(5, 3, "timeseries.cache.lookup", 4.5, 5.0, None),
        Span(6, 1, "core.serving.render", 9.0, 9.5, None),
    ]
    table = SpanTable(spans)
    assert table.self_time[1] == 1.5            # 10 - (8 + 0.5)
    assert table.self_time[2] == 4.0            # 8 - 4
    assert table.self_time[3] == 2.5            # 4 - (1 + 0.5)
    assert table.self_time[4] == 1.0
    # the layers under a root add up to the root
    assert sum(table.self_time.values()) == 10.0
    assert set(table.root_of.values()) == {1}
    root = table.roots("request")
    assert table.unattributed_share(root) == 0.15
    assert table.self_by_root("timeseries.cache.lookup", root) == {1: 1.5}
    assert sorted(table.self_samples("timeseries.cache.lookup", root)) \
        == [0.5, 1.0]


def test_overlapping_children_on_two_threads_count_once():
    spans = [
        Span(1, 0, "round", 0.0, 10.0, 0),
        Span(2, 1, "core.parallel.materialize", 0.0, 6.0, None),
        Span(3, 2, "cloudsim.api", 1.0, 4.0, None),     # worker a
        Span(4, 2, "cloudsim.api", 2.0, 5.0, None),     # worker b
    ]
    table = SpanTable(spans)
    assert table.self_time[2] == 2.0            # 6 - union(1..5)
    assert table.self_by_root("cloudsim.api", table.roots("round")) \
        == {1: 6.0}                             # busy time, both workers


def test_warmup_roots_are_filtered_by_tag():
    spans = [Span(1, 0, "round", 0.0, 1.0, ("warmup", 0)),
             Span(2, 0, "round", 1.0, 2.0, (0,))]
    table = SpanTable(spans)
    measured = table.roots("round", lambda tag: tag[0] != "warmup")
    assert [s.id for s in measured] == [2]


def test_recording_nests_on_one_thread():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 1.0

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(outer, "outer")
    with tracer.root("request", tag=("op", 3)):
        traced_outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == by_name["request"].id
    assert by_name["request"].parent == 0
    assert by_name["request"].tag == ("op", 3)
    table = SpanTable(tracer.spans)
    assert table.self_time[by_name["outer"].id] == 2.0
    assert table.self_time[by_name["request"].id] == 0.0


def test_link_and_claim_bridge_the_frontend_hand_off():
    tracer = Tracer(FakeClock())
    params = {"instance_type": "m5.large"}
    with tracer.root("request") as root:
        tracer.link(params)

    def worker():
        tracer.begin("core.serving.get", parent=tracer.claim(params))
        tracer.end()
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    served = [s for s in tracer.spans if s.name == "core.serving.get"]
    assert served[0].parent == root
    assert tracer.claim(params) is None         # claimed once


def test_ambient_adopts_parentless_worker_spans():
    tracer = Tracer(FakeClock())

    def leaf():
        return None
    traced_leaf = tracer.wrap(leaf, "cloudsim.api")

    def fan_out():
        thread = threading.Thread(target=traced_leaf)
        thread.start()
        thread.join(5)
    tracer.wrap_ambient(fan_out, "core.parallel.materialize")()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["cloudsim.api"].parent \
        == by_name["core.parallel.materialize"].id
    assert tracer.ambient == 0


def test_detached_spans_end_at_the_resolve_stamp():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.begin("request", parent=0, tag=("latest", 0))
    opened = tracer.detach()
    assert tracer.current() == 0
    clock.now = 50.0
    tracer.finish(opened, at=7.5)
    assert tracer.spans == [Span(1, 0, "request", 0.0, 7.5, ("latest", 0))]


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.root("request", tag=1):
        tracer.begin("x")
        tracer.end()
    tracer.finish(tracer.detach(), at=1.0)
    assert not tracer.spans
