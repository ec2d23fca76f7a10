"""StorageEngine end-to-end: log-then-apply, checkpoint, recover, restart."""

import pytest

from repro.storage import StorageEngine, recover
from repro.storage.wal import wal_file_name
from repro.timeseries import (
    Record,
    RetentionPolicy,
    SeriesKey,
    TimeSeriesStore,
)


def assert_stores_identical(a, b):
    assert a.content_digests() == b.content_digests()


def build_engine(data_dir, **kwargs):
    kwargs.setdefault("tier_fanout", 2)
    engine = StorageEngine(data_dir, **kwargs)
    store = engine.recovered.store
    engine.attach(store)
    return engine, store


def write(engine, store, table, value, time, series="s0"):
    record = Record.make({"k": series}, "m", value, time)
    engine.log_points(
        table, [(SeriesKey.of(record), record.time, record.value)])
    store.table(table).write(record)


def create_table(engine, store, name, policy=None):
    engine.log_create_table(name, policy)
    store.create_table(name, policy)


def run_rounds(engine, store, rounds, per_round=3, start_round=0,
               checkpoint_every=0):
    for r in range(start_round, start_round + rounds):
        t0 = r * 100.0
        for i in range(per_round):
            write(engine, store, "t", (r + i) % 3, t0 + i,
                  series=f"s{i % 2}")
        engine.commit_round(t0 + per_round)
        if checkpoint_every and engine.rounds_committed % checkpoint_every == 0:
            engine.checkpoint(t0 + per_round)


class TestRecoveryParity:
    def test_wal_only_recovery_is_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        engine, store = build_engine(data)
        create_table(engine, store, "t")
        run_rounds(engine, store, 3)
        state = recover(data)
        assert state.rounds_committed == 3
        assert not state.data_loss
        assert_stores_identical(store, state.store)

    def test_checkpointed_recovery_is_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        engine, store = build_engine(data)
        create_table(engine, store, "t")
        run_rounds(engine, store, 6, checkpoint_every=2)
        state = recover(data)
        assert state.rounds_committed == 6
        assert_stores_identical(store, state.store)
        # the checkpoints garbage-collected every superseded WAL file
        wal_files = [p.name for p in data.glob("wal-*.log")]
        assert wal_files == [wal_file_name(engine.manifest.next_wal_number)]

    def test_recovery_is_idempotent(self, tmp_path):
        data = tmp_path / "data"
        engine, store = build_engine(data)
        create_table(engine, store, "t")
        run_rounds(engine, store, 4, checkpoint_every=3)
        assert_stores_identical(recover(data).store,
                                recover(data).store)

    def test_fresh_directory_recovers_empty(self, tmp_path):
        state = recover(tmp_path)
        assert state.store.table_names() == []
        assert state.rounds_committed == 0
        assert not state.data_loss

    def test_uncommitted_round_discarded(self, tmp_path):
        data = tmp_path / "data"
        engine, store = build_engine(data)
        create_table(engine, store, "t")
        run_rounds(engine, store, 2)
        reference = recover(data)  # state as of round 2
        write(engine, store, "t", 9, 999.0)  # in-flight, never committed
        state = recover(data)
        assert state.rounds_committed == 2
        assert_stores_identical(reference.store, state.store)


class TestRetentionDurability:
    def test_policy_round_trips_through_recovery(self, tmp_path):
        data = tmp_path / "data"
        engine, store = build_engine(data)
        create_table(engine, store, "t", RetentionPolicy(150.0))
        run_rounds(engine, store, 2, checkpoint_every=1)
        state = recover(data)
        assert state.store.policy("t").max_age_seconds == 150.0

    def test_eviction_replayed_from_wal_tail(self, tmp_path):
        data = tmp_path / "data"
        engine, store = build_engine(data)
        create_table(engine, store, "t")
        run_rounds(engine, store, 3)
        table = store.table("t")
        engine.log_eviction("t", 150.0)
        trimmed = []
        table.evict_before(150.0, trimmed)
        engine.mark_dirty("t", trimmed)
        engine.commit_round(400.0)
        state = recover(data)
        assert_stores_identical(store, state.store)

    def test_eviction_survives_wal_garbage_collection(self, tmp_path):
        # evict, then checkpoint (GC's the evict op); evicted_through in
        # the manifest must preserve its effect for the next recovery
        data = tmp_path / "data"
        engine, store = build_engine(data)
        create_table(engine, store, "t")
        run_rounds(engine, store, 3)
        table = store.table("t")
        engine.log_eviction("t", 150.0)
        trimmed = []
        table.evict_before(150.0, trimmed)
        engine.mark_dirty("t", trimmed)
        engine.commit_round(400.0)
        engine.checkpoint(400.0)
        assert engine.manifest.tables["t"].evicted_through == 150.0
        state = recover(data)
        assert_stores_identical(store, state.store)


class TestRestart:
    def test_restart_continues_the_log(self, tmp_path):
        data = tmp_path / "data"
        engine, store = build_engine(data)
        create_table(engine, store, "t")
        run_rounds(engine, store, 3, checkpoint_every=2)

        engine2, store2 = build_engine(data)
        assert engine2.rounds_committed == 3
        run_rounds(engine2, store2, 2, start_round=3, checkpoint_every=2)
        state = recover(data)
        assert state.rounds_committed == 5
        assert_stores_identical(store2, state.store)

    def test_restart_preserves_records_written_counter(self, tmp_path):
        data = tmp_path / "data"
        engine, store = build_engine(data)
        create_table(engine, store, "t")
        run_rounds(engine, store, 2, checkpoint_every=1)
        written = store.table("t").stats.records_written
        _, store2 = build_engine(data)
        assert store2.table("t").stats.records_written == written


class TestEngineContract:
    def test_templated_wal_lines_match_canonical_encoding(self, tmp_path):
        """log_points' per-series template splice must emit the exact
        bytes encode_record would (the fast path is invisible on disk),
        with the canonical-encoder scalars (bool, str) landing mid-batch
        in sequence order."""
        from repro.storage.wal import encode_record

        engine, store = build_engine(tmp_path / "data")
        create_table(engine, store, "t")
        records = [
            Record.make({"az": "a", "it": "m5.large"}, "sps", 3, 100.0),
            Record.make({"az": "a", "it": "m5.large"}, "sps", 2, 160.5),
            Record.make({"b": "x"}, "price", 0.123, 7.0),
            Record.make({"b": "x"}, "price", True, 8.0),  # slow path
            Record.make({"b": "x"}, "price", "s", 9.0),   # slow path
            Record.make({"b": "x"}, "price", 0.5, 9.5),   # fast again
        ]
        base_seq = engine._writer.next_seq
        engine.log_points("t", [(SeriesKey.of(r), r.time, r.value)
                                for r in records])
        for record in records:
            store.table("t").write(record)
        canonical = [
            encode_record(base_seq + i, {
                "op": "write", "table": "t",
                "measure": r.measure_name, "dims": r.dimension_dict,
                "value": r.value, "time": r.time})
            for i, r in enumerate(records)]
        assert list(engine._writer._buffer)[-len(records):] == canonical
        engine.commit_round(10.0)

    def test_dirty_tracking_survives_checkpoint_with_cached_series(
            self, tmp_path):
        """The template cache holds references to per-table dirty sets;
        a checkpoint must clear them in place so post-checkpoint writes
        to already-cached series still reach the next flush."""
        data = tmp_path / "data"
        engine, store = build_engine(data)
        create_table(engine, store, "t")
        write(engine, store, "t", 1, 0.0)
        engine.commit_round(1.0)
        engine.checkpoint(1.0)
        # same series again: cached template, must re-mark dirty
        write(engine, store, "t", 2, 10.0)
        engine.commit_round(11.0)
        manifest = engine.checkpoint(11.0)
        assert len(manifest.tables["t"].segments) >= 1
        state = recover(data)
        assert_stores_identical(store, state.store)

    def test_checkpoint_rejects_uncommitted_batch(self, tmp_path):
        engine, store = build_engine(tmp_path / "data")
        create_table(engine, store, "t")
        write(engine, store, "t", 1, 0.0)
        with pytest.raises(RuntimeError, match="round boundary"):
            engine.checkpoint(0.0)

    def test_detached_store_rejected(self, tmp_path):
        engine = StorageEngine(tmp_path / "data")
        with pytest.raises(RuntimeError, match="no attached store"):
            engine.store

    def test_compaction_keeps_levels_slim(self, tmp_path):
        data = tmp_path / "data"
        engine, store = build_engine(data, tier_fanout=2)
        create_table(engine, store, "t")
        run_rounds(engine, store, 8, checkpoint_every=1)
        by_level = {}
        for meta in engine.manifest.tables["t"].segments:
            by_level.setdefault(meta.level, []).append(meta)
        assert all(len(metas) < 2 for metas in by_level.values())
        assert engine.compaction_stats.merges > 0
        state = recover(data)
        assert_stores_identical(store, state.store)

    def test_stats_payload(self, tmp_path):
        engine, store = build_engine(tmp_path / "data")
        create_table(engine, store, "t")
        run_rounds(engine, store, 2, checkpoint_every=1)
        stats = engine.stats()
        assert stats["rounds_committed"] == 2
        assert stats["checkpoints"] == 2
        assert stats["wal_records_written"] > 0
        assert stats["live_segment_bytes"] > 0
        assert stats["write_amplification"] > 0.0
