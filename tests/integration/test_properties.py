"""Cross-module property-based tests on system invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SimulatedCloud
from repro.cloudsim import ALLOWED_TRANSITIONS, RequestState
from repro.core import SpotLakeArchive
from repro.timeseries import Record, SeriesKey, Table

from tests.conftest import land

#: One shared world for the property tests (hypothesis re-runs are cheap
#: against the lazily evaluated market).
_CLOUD = SimulatedCloud(seed=0)
_POOLS = _CLOUD.catalog.all_pools()

pool_strategy = st.integers(min_value=0, max_value=len(_POOLS) - 1)
day_strategy = st.floats(min_value=0.0, max_value=181.0)


class TestMarketInvariants:
    @given(pool_strategy, day_strategy)
    @settings(max_examples=150, deadline=None)
    def test_headroom_always_in_unit_interval(self, pool_index, day):
        itype, region, zone = _POOLS[pool_index]
        t = _CLOUD.clock.start + day * 86400.0
        assert 0.0 <= _CLOUD.market.headroom(itype, region, zone, t) <= 1.0

    @given(pool_strategy, day_strategy)
    @settings(max_examples=100, deadline=None)
    def test_score_consistent_with_headroom(self, pool_index, day):
        """The published score is exactly the quantized effective headroom."""
        from repro.cloudsim.placement import THRESHOLD_2, THRESHOLD_3
        itype, region, zone = _POOLS[pool_index]
        t = _CLOUD.clock.start + day * 86400.0
        h = _CLOUD.placement.effective_headroom(itype, region, zone, t)
        score = _CLOUD.placement.zone_score(itype, region, zone, t)
        if h >= THRESHOLD_3:
            assert score == 3
        elif h >= THRESHOLD_2:
            assert score == 2
        else:
            assert score == 1

    @given(pool_strategy, day_strategy,
           st.integers(min_value=1, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_capacity_never_raises_score(self, pool_index, day, capacity):
        itype, region, zone = _POOLS[pool_index]
        t = _CLOUD.clock.start + day * 86400.0
        single = _CLOUD.placement.zone_score(itype, region, zone, t, 1)
        many = _CLOUD.placement.zone_score(itype, region, zone, t, capacity)
        assert many <= single

    @given(pool_strategy, day_strategy)
    @settings(max_examples=100, deadline=None)
    def test_price_below_on_demand(self, pool_index, day):
        itype, region, zone = _POOLS[pool_index]
        t = _CLOUD.clock.start + day * 86400.0
        price = _CLOUD.pricing.spot_price(itype, region, t, zone)
        assert 0 < price < _CLOUD.catalog.instance_type(itype).on_demand_price


class TestLifecycleInvariants:
    @given(pool_strategy, day_strategy)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_every_timeline_is_legal(self, pool_index, day):
        itype, region, zone = _POOLS[pool_index]
        t = _CLOUD.clock.start + day * 86400.0
        request = _CLOUD.request_simulator.submit(
            itype, region, zone, bid_price=1.0, created_at=t,
            persistent=True)
        previous = RequestState.PENDING_EVALUATION
        for event in request.events:
            assert event.state in ALLOWED_TRANSITIONS[previous]
            assert event.timestamp >= request.created_at
            previous = event.state
        times = [e.timestamp for e in request.events]
        assert times == sorted(times)


class TestArchiveInvariants:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                              st.integers(min_value=1, max_value=3)),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_archive_point_reads_match_last_write(self, writes):
        """Whatever order of (time, value) observations is archived, the
        point-read at any write instant returns the latest value written
        at or before it."""
        archive = SpotLakeArchive()
        writes = sorted(writes, key=lambda wv: wv[0])
        for t, v in writes:
            land(archive, "sps", [("a.large", "r1", "r1a", v, float(t))])
        for t, _ in writes:
            expected = [v for (wt, v) in writes if wt <= t][-1]
            assert archive.sps_at("a.large", "r1", "r1a", float(t)) == expected

    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=1,
                    max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_dedup_never_loses_information(self, values):
        table = Table("t")
        for t, v in enumerate(values):
            table.write(Record.make({"k": "x"}, "m", v, float(t)))
        for t, v in enumerate(values):
            assert table.value_at("m", {"k": "x"}, float(t)) == v


class TestDurabilityInvariants:
    """For any write stream, the storage engine's recovery (segments +
    WAL tail) must rebuild exactly the store the live process held."""

    write_stream = st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),    # series
                  st.integers(min_value=1, max_value=3),    # value
                  st.integers(min_value=0, max_value=500)),  # time
        min_size=1, max_size=60)

    @given(write_stream, st.integers(min_value=1, max_value=5),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_snapshot_and_engine_recovery_agree(self, writes, per_round,
                                                checkpoint):
        import tempfile
        from pathlib import Path

        from repro.storage import StorageEngine, recover
        from repro.timeseries import RetentionPolicy

        writes = sorted(writes, key=lambda svt: svt[2])
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            (base / "data").mkdir()
            engine = StorageEngine(base / "data", tier_fanout=2)
            store = engine.recovered.store
            engine.attach(store)
            policy = RetentionPolicy(None)
            engine.log_create_table("t", policy)
            store.create_table("t", policy)
            round_index = 0
            for start in range(0, len(writes), per_round):
                for series, value, time in writes[start:start + per_round]:
                    record = Record.make({"k": f"s{series}"}, "m", value,
                                         float(time))
                    engine.log_points("t", [
                        (SeriesKey.of(record), record.time, record.value)])
                    store.table("t").write(record)
                round_index += 1
                engine.commit_round(float(round_index))
                if checkpoint and round_index % 2 == 0:
                    engine.checkpoint(float(round_index))

            recovered = recover(base / "data").store
            assert recovered.content_digests() == store.content_digests()


class TestChaosInvariants:
    """Under any seeded fault schedule, no planned query is silently lost:
    every one ends as a retry-cleared success or an explicit gap record."""

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from(["light", "moderate", "heavy"]))
    @settings(max_examples=20, deadline=None)
    def test_no_query_silently_dropped(self, chaos_seed, profile):
        from tests.chaos.conftest import build_chaos_service

        service = build_chaos_service(profile, chaos_seed=chaos_seed,
                                      retry_attempts=2)
        reports = service.collect_once()
        plan_count = service.plan.optimized_query_count
        sps = reports["sps"]
        assert sps.queries_issued == plan_count
        assert sps.queries_failed == sps.gaps
        sps_gaps = len(service.archive.gap_history({"Source": "sps"}))
        assert sps_gaps == sps.gaps
        for name in ("advisor", "price"):
            report = reports[name]
            assert report.queries_failed == report.gaps
            assert report.queries_failed + (report.records_written > 0) >= 1
        total_gaps = sum(r.gaps for r in reports.values())
        assert service.archive.gap_count() == total_gaps

    @given(st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=10, deadline=None)
    def test_fault_schedule_is_a_pure_function_of_seed(self, chaos_seed):
        from repro.cloudsim import FaultInjector, FaultPlan, resolve_profile
        from repro.cloudsim.clock import SimulationClock

        schedules = []
        for _ in range(2):
            clock = SimulationClock()
            injector = FaultInjector(
                FaultPlan(seed=chaos_seed,
                          profile=resolve_profile("heavy")), clock)
            kinds = []
            for _ in range(40):
                try:
                    injector.before_call("sps")
                except Exception as exc:
                    kinds.append(type(exc).__name__)
                else:
                    kinds.append("ok")
            schedules.append(kinds)
        assert schedules[0] == schedules[1]


class TestReadCacheInvariants:
    """The read cache must never change what a query returns: across any
    seeded interleaving of writes and reads, cached and uncached results
    serialize byte-identically."""

    MEASURES = ("sps", "spot_price")
    TYPES = ("m5.large", "c5.xlarge", "r5.2xlarge")
    ZONES = ("a", "b")

    @staticmethod
    def _serialize(records):
        import json
        return json.dumps(
            [[r.time, r.measure_name, r.value, r.dimension_dict]
             for r in records], sort_keys=True)

    @given(st.integers(min_value=0, max_value=2 ** 16),
           st.integers(min_value=5, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_cached_reads_byte_identical_across_interleavings(self, seed,
                                                              ops):
        import numpy as np
        from repro.timeseries import QueryCache

        rng = np.random.default_rng(seed)
        table = Table("t")
        cache = QueryCache(table, max_entries=8)  # small: exercise LRU too
        clock = 0.0
        for _ in range(ops):
            clock += float(rng.integers(1, 100))
            op = rng.integers(0, 4)
            measure = self.MEASURES[rng.integers(len(self.MEASURES))]
            itype = self.TYPES[rng.integers(len(self.TYPES))]
            zone = self.ZONES[rng.integers(len(self.ZONES))]
            filters = [None, {"it": itype}, {"it": itype, "zone": zone}][
                rng.integers(3)]
            if op == 0:  # write (dedup-heavy values: non-change writes too)
                table.write(Record.make(
                    {"it": itype, "region": "us-east-1", "zone": zone},
                    measure, int(rng.integers(1, 4)), clock))
            elif op == 1:  # range scan
                start = float(rng.integers(0, int(clock) + 1))
                end = start + float(rng.integers(0, 2000))
                assert self._serialize(
                    cache.scan(measure, filters, start, end)) == \
                    self._serialize(table.scan(measure, filters, start, end))
            elif op == 2:  # latest
                assert self._serialize(cache.latest(measure, filters)) == \
                    self._serialize(table.latest(measure, filters))
            else:  # point lookup
                dims = {"it": itype, "region": "us-east-1", "zone": zone}
                t = float(rng.integers(0, int(clock) + 1))
                assert cache.value_at(measure, dims, t) == \
                    table.value_at(measure, dims, t)
        # retention sweep is also just a write-like mutation to the cache
        table.evict_before(clock / 2)
        for measure in self.MEASURES:
            assert self._serialize(cache.scan(measure)) == \
                self._serialize(table.scan(measure))
