"""Tests for store snapshots (dump/load round trips)."""

import pytest

from repro.timeseries import Record, RetentionPolicy, Table, TimeSeriesStore
from repro.timeseries.persistence import (
    dump_store,
    dump_table,
    load_store,
    load_table,
    load_table_with_policy,
)


def build_table():
    table = Table("sps")
    for t, v in [(0, 3), (10, 3), (20, 2), (30, 3)]:
        table.write(Record.make({"it": "m5.large", "az": "a"}, "sps", v, t))
    table.write(Record.make({"it": "c5.large", "az": "b"}, "sps", 1, 5))
    return table


class TestTableRoundTrip:
    def test_lossless(self, tmp_path):
        table = build_table()
        path = tmp_path / "sps.jsonl"
        written = dump_table(table, path)
        assert written == 2

        loaded = load_table(path)
        assert loaded.name == "sps"
        assert len(loaded) == len(table)
        dims = {"it": "m5.large", "az": "a"}
        for t in (0, 15, 25, 35):
            assert loaded.value_at("sps", dims, t) == table.value_at("sps", dims, t)

    def test_stats_preserved(self, tmp_path):
        table = build_table()
        path = tmp_path / "sps.jsonl"
        dump_table(table, path)
        loaded = load_table(path)
        assert loaded.stats.records_written == table.stats.records_written
        assert loaded.stats.change_points_stored == \
            table.stats.change_points_stored
        assert loaded.stats.dedup_ratio == table.stats.dedup_ratio

    def test_appends_continue_after_load(self, tmp_path):
        table = build_table()
        path = tmp_path / "sps.jsonl"
        dump_table(table, path)
        loaded = load_table(path)
        changed = loaded.write(Record.make(
            {"it": "m5.large", "az": "a"}, "sps", 3, 40))
        assert not changed  # 3 was already the latest value

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": 99, "table": "x", "records_written": 0}\n')
        with pytest.raises(ValueError):
            load_table(path)

    def test_series_count_stat_round_trips(self, tmp_path):
        """Regression: install_series must rebuild series_count, so a
        loaded table's TableStats match the dumped table's exactly."""
        table = build_table()
        path = tmp_path / "sps.jsonl"
        dump_table(table, path)
        loaded = load_table(path)
        assert loaded.stats.series_count == table.stats.series_count == 2
        assert loaded.stats.change_points_stored == \
            table.stats.change_points_stored

    def test_atomic_dump_leaves_original_on_failure(self, tmp_path):
        """A failing dump must not clobber the existing snapshot file."""
        table = build_table()
        path = tmp_path / "sps.jsonl"
        dump_table(table, path)
        original = path.read_bytes()

        class Boom(RuntimeError):
            pass

        broken = build_table()
        broken.write(Record.make({"it": "m5.large", "az": "a"}, "sps", 2, 50))
        series = broken.series(broken.series_keys()[1])
        series.values[-1] = float("nan")  # allow_nan=False -> dump raises
        with pytest.raises(ValueError):
            dump_table(broken, path)
        assert path.read_bytes() == original
        assert list(tmp_path.iterdir()) == [path]  # no temp debris

    def test_retention_policy_round_trips(self, tmp_path):
        table = build_table()
        path = tmp_path / "sps.jsonl"
        dump_table(table, path, policy=RetentionPolicy(3600.0))
        loaded, policy = load_table_with_policy(path)
        assert policy.max_age_seconds == 3600.0
        assert len(loaded) == len(table)

    def test_policy_absent_in_old_snapshots(self, tmp_path):
        table = build_table()
        path = tmp_path / "sps.jsonl"
        dump_table(table, path)  # no policy: pre-retention header shape
        _, policy = load_table_with_policy(path)
        assert policy is None


class TestStoreRoundTrip:
    def test_directory_round_trip(self, tmp_path):
        store = TimeSeriesStore()
        store.create_table("sps").write(
            Record.make({"k": "a"}, "sps", 3, 0))
        store.create_table("price").write(
            Record.make({"k": "a"}, "spot_price", 0.03, 0))
        written = dump_store(store, tmp_path / "snap")
        assert written == {"sps": 1, "price": 1}

        loaded = load_store(tmp_path / "snap")
        assert loaded.table_names() == ["price", "sps"]
        assert loaded.table("sps").value_at("sps", {"k": "a"}, 1) == 3
        assert loaded.table("price").value_at("spot_price", {"k": "a"}, 1) == 0.03

    def test_archive_level_round_trip(self, tmp_path):
        """A SpotLake archive survives dump/load through its store."""
        from repro.core import SpotLakeArchive
        archive = SpotLakeArchive()
        archive.append("sps", [("m5.large", "us-east-1", "us-east-1a", 3, 0)])
        archive.append("advisor", [("m5.large", "us-east-1", 0.03, 3.0, 70, 0)])
        dump_store(archive.store, tmp_path / "arch")

        restored = SpotLakeArchive()
        restored.store = load_store(tmp_path / "arch")
        assert restored.sps_at("m5.large", "us-east-1", "us-east-1a", 1) == 3
        assert restored.if_score_at("m5.large", "us-east-1", 1) == 3.0
