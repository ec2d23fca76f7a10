"""Mixed v1/v2 data directories: recovery, in-place migration, crashes."""

import hashlib

from repro.devtools.doublerun import durability_run
from repro.storage import (
    CRASH_WINDOWS,
    StorageEngine,
    forced_segment_format,
    load_manifest,
    recover,
    store_manifest,
    write_segment,
)
from repro.timeseries import ChangePointSeries, Record, dump_store
from repro.timeseries.record import SeriesKey

from tests.chaos.conftest import build_tiny_cloud


def digests(store, directory):
    dump_store(store, directory)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.glob("*.jsonl"))}


def assert_stores_identical(tmp_path, a, b):
    dir_a = tmp_path / "digest-a"
    dir_b = tmp_path / "digest-b"
    dir_a.mkdir(), dir_b.mkdir()
    assert digests(a, dir_a) == digests(b, dir_b)


def build_engine(data_dir, **kwargs):
    kwargs.setdefault("tier_fanout", 2)
    engine = StorageEngine(data_dir, **kwargs)
    store = engine.recovered.store
    engine.attach(store)
    return engine, store


def run_rounds(engine, store, rounds, start_round=0, checkpoint=True):
    for r in range(start_round, start_round + rounds):
        t0 = r * 100.0
        for i in range(3):
            record = Record.make({"k": f"s{i % 2}"}, "m", (r + i) % 3,
                                 t0 + i)
            engine.log_points(
                "t", [(SeriesKey.of(record), record.time, record.value)])
            store.table("t").write(record)
        engine.commit_round(t0 + 3)
        if checkpoint:
            engine.checkpoint(t0 + 3)


def seed_legacy_directory(data_dir, rounds=3):
    """A data directory exactly as a pre-columnar build left it."""
    with forced_segment_format(1):
        engine, store = build_engine(data_dir)
        engine.log_create_table("t", None)
        store.create_table("t", None)
        run_rounds(engine, store, rounds)
        engine.close()
    return store


class TestMixedDirectoryRecovery:
    def test_pure_legacy_directory_recovers_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        live = seed_legacy_directory(data)
        manifest = load_manifest(data)
        assert set(manifest.format_census()) == {1}
        state = recover(data)
        assert_stores_identical(tmp_path, live, state.store)

    def test_mixed_directory_recovers_byte_identical(self, tmp_path):
        # v1 segments from an old build plus a newer v2 segment published
        # on top (the state an upgrade leaves between checkpoints): the
        # reader must dispatch per segment and newest-wins must hold
        # across formats
        data = tmp_path / "data"
        live = seed_legacy_directory(data)
        manifest = load_manifest(data)
        key = SeriesKey("m", (("k", "s0"),))
        newer = ChangePointSeries(times=[10_000.0], values=[9],
                                  observed_until=10_000.0,
                                  observation_count=1)
        meta = write_segment(data, manifest.next_segment_id, "t", 0,
                             [(key, newer)])
        assert meta.format == 2
        manifest.tables["t"].segments.append(meta)
        manifest.next_segment_id += 1
        manifest.version += 1
        store_manifest(data, manifest)

        assert set(load_manifest(data).format_census()) == {1, 2}
        state = recover(data)
        recovered = state.store.table("t")
        # the v2 segment (higher id) shadows the legacy series wholesale
        assert recovered.series(key).values == [9]
        # every other series still comes from the v1 segments untouched
        for other in live.table("t").series_keys():
            if other != key:
                assert recovered.series(other).values == \
                    live.table("t").series(other).values

    def test_checkpoint_migrates_legacy_segments_in_place(self, tmp_path):
        data = tmp_path / "data"
        seed_legacy_directory(data)
        engine, store = build_engine(data)
        run_rounds(engine, store, 1, start_round=3)
        # every surviving segment is now v2, and the migration kept ids
        assert set(engine.manifest.format_census()) == {2}
        assert engine.stats()["segments_migrated"] + \
            engine.compaction_stats.merges > 0
        leftovers = [p.name for p in data.glob("seg-*.jsonl")]
        assert leftovers == []  # old v1 files were garbage-collected
        engine.close()
        state = recover(data)
        assert_stores_identical(tmp_path, store, state.store)

    def test_migration_survives_reopen_without_new_writes(self, tmp_path):
        data = tmp_path / "data"
        live = seed_legacy_directory(data)
        state_before = recover(data)
        engine, store = build_engine(data)
        run_rounds(engine, store, 1, start_round=3)
        engine.close()
        state_after = recover(data)
        # migrated directory still contains everything the legacy one did
        assert_stores_identical(tmp_path, live, state_before.store)
        for key in live.table("t").series_keys():
            assert state_after.store.table("t").series(key).times[:1] == \
                live.table("t").series(key).times[:1]


class TestMixedFormatCrashMatrix:
    def test_crash_mid_migration_recovers_byte_identical(self):
        result = durability_run(rounds=2, checkpoint_every=1,
                                instance_types=None,
                                legacy_format_rounds=1,
                                cloud_factory=build_tiny_cloud)
        assert len(result.cases) == len(CRASH_WINDOWS)
        for case in result.cases:
            assert case.crashed, f"{case.window} never fired"
            assert case.identical, case.summary()
        assert result.identical
