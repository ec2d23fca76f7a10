"""Crash injection units + the full kill/restart durability matrix."""

import pytest

from repro.cloudsim import (
    CrashInjector,
    CrashPoint,
    SimulatedCrash,
    seeded_crash_point,
)
from repro.devtools.doublerun import durability_run
from repro.lake import LAKE_CRASH_WINDOWS
from repro.storage import CRASH_WINDOWS

from tests.chaos.conftest import build_tiny_cloud


class TestCrashInjector:
    def test_before_fires_only_at_matching_hit(self):
        injector = CrashInjector([CrashPoint("wal.commit", hit=2)])
        injector.before("wal.commit")
        injector.before("wal.commit")
        with pytest.raises(SimulatedCrash) as excinfo:
            injector.before("wal.commit")
        assert excinfo.value.window == "wal.commit"
        assert excinfo.value.hit == 2
        assert len(injector.fired) == 1

    def test_hit_counters_are_per_window(self):
        injector = CrashInjector([CrashPoint("checkpoint.gc", hit=0)])
        injector.before("wal.commit")  # other windows do not consume hits
        injector.before("checkpoint.segments")
        with pytest.raises(SimulatedCrash):
            injector.before("checkpoint.gc")

    def test_torn_write_returns_prefix_then_crashes(self):
        injector = CrashInjector([CrashPoint("wal.flush", hit=1,
                                             torn_fraction=0.25)])
        assert injector.torn_write("wal.flush", 100) is None  # hit 0
        assert injector.torn_write("wal.flush", 100) == 25    # hit 1
        with pytest.raises(SimulatedCrash):
            injector.crash("wal.flush")
        assert injector.fired[-1].torn_bytes == 25

    def test_torn_fraction_clamped_to_batch(self):
        injector = CrashInjector([CrashPoint("wal.flush", hit=0,
                                             torn_fraction=2.0)])
        assert injector.torn_write("wal.flush", 10) == 10

    def test_unarmed_injector_is_a_noop(self):
        injector = CrashInjector()
        for window in CRASH_WINDOWS:
            injector.before(window)
            assert injector.torn_write(window, 100) is None
        assert injector.fired == []


class TestSeededCrashPoint:
    def test_deterministic_in_seed_and_window(self):
        a = seeded_crash_point(7, "wal.flush", 10)
        b = seeded_crash_point(7, "wal.flush", 10)
        assert a == b
        assert 0 <= a.hit < 10
        assert 0.0 <= a.torn_fraction < 1.0

    def test_windows_get_distinct_schedules(self):
        points = [seeded_crash_point(0, w, 1000) for w in CRASH_WINDOWS]
        assert len({p.hit for p in points}) > 1

    def test_max_hits_floor(self):
        assert seeded_crash_point(0, "wal.flush", 0).hit == 0


class TestDurabilityMatrix:
    """Kill the collection service at every crash window; the recovered
    archive must be byte-identical to an uninterrupted run at however
    many rounds recovery reports as committed (the acceptance gate)."""

    def test_every_window_recovers_byte_identical(self):
        result = durability_run(rounds=2, checkpoint_every=1,
                                instance_types=None,
                                cloud_factory=build_tiny_cloud)
        assert len(result.cases) == len(CRASH_WINDOWS)
        for case in result.cases:
            assert case.crashed, f"{case.window} never fired"
            assert case.identical, case.summary()
        assert result.identical

    def test_durability_under_chaos_faults(self):
        # gap records and retry bookkeeping ride the WAL like any write
        result = durability_run(rounds=2, checkpoint_every=1,
                                instance_types=None,
                                chaos_profile="moderate", chaos_seed=3,
                                cloud_factory=build_tiny_cloud)
        assert result.identical, result.summary()

    def test_wal_crash_loses_at_most_the_inflight_round(self):
        result = durability_run(rounds=3, checkpoint_every=2,
                                instance_types=None,
                                cloud_factory=build_tiny_cloud)
        by_window = {case.window: case for case in result.cases}
        flush = by_window["wal.flush"]
        assert flush.rounds_recovered >= flush.hit  # only round hit+1 lost
        commit = by_window["wal.commit"]
        # the batch is durable before wal.commit fires: nothing is lost
        assert commit.rounds_recovered == commit.hit + 1
        # every restart collects the rest and ends where the reference did
        for case in result.cases:
            assert case.identical, case.summary()
            assert case.rounds_recovered + case.rounds_resumed == 3

    def test_lake_matrix_crosses_midnight_and_resumes(self):
        """Keyframe + delta layout under every window: the run starts one
        round before a UTC midnight with two rounds kept hot, so restarts
        re-collect the new day's keyframe, re-seed the differ from
        keyframe + deltas and replay evictions from the WAL tail."""
        result = durability_run(rounds=4, checkpoint_every=2,
                                instance_types=None, lake=True,
                                cloud_factory=build_tiny_cloud)
        assert len(result.cases) == len(CRASH_WINDOWS) + len(LAKE_CRASH_WINDOWS)
        for case in result.cases:
            assert case.crashed, f"{case.window} never fired"
            assert case.identical, case.summary()
            assert case.rounds_recovered + case.rounds_resumed == 4
        by_window = {case.window: case for case in result.cases}
        # lake.segment fires before the midnight round's file exists:
        # only the old day's keyframe round survives, the rest resumes
        keyframe = by_window["lake.segment"]
        assert (keyframe.rounds_recovered, keyframe.rounds_resumed) == (1, 3)
        # a torn last commit leaves the lake one delta ahead of the WAL
        assert by_window["wal.flush"].rounds_resumed == 1
