"""Segment files and the MANIFEST: round trips, validation, atomicity."""

import json
from pathlib import Path

import pytest

from repro.cloudsim import CrashInjector, CrashPoint, SimulatedCrash
from repro.storage import (
    CorruptManifestError,
    CorruptSegmentError,
    MANIFEST_NAME,
    Manifest,
    SegmentMeta,
    TableManifest,
    load_manifest,
    read_segment,
    recover,
    sanitize_table_component,
    segment_file_name,
    store_manifest,
    write_segment,
)
from repro.storage import segments as segments_module
from repro.timeseries import Record, Table
from repro.timeseries.record import SeriesKey


def build_items(count=3):
    table = Table("t")
    for i in range(count):
        for t in range(4):
            table.write(Record.make({"k": f"s{i}"}, "m", (t % 2) + i,
                                    float(t * 10)))
    return [(key, table.series(key)) for key in table.series_keys()]


class TestSegmentFiles:
    def test_write_read_round_trip(self, tmp_path):
        items = build_items()
        meta = write_segment(tmp_path, 1, "t", 0, items)
        assert meta.series == len(items)
        assert meta.file == "seg-00000001-t-L0.seg"
        loaded = read_segment(tmp_path, meta)
        assert [key for key, _ in loaded] == [key for key, _ in items]
        for (_, got), (_, want) in zip(loaded, items):
            assert got.times == want.times
            assert got.values == want.values
            assert got.observed_until == want.observed_until
            assert got.observation_count == want.observation_count

    def test_dimension_order_is_canonical(self, tmp_path):
        key = SeriesKey("m", (("a", "1"), ("b", "2")))
        table = Table("t")
        table.write(Record.make({"b": "2", "a": "1"}, "m", 5, 0.0))
        items = [(key, table.series(key))]
        meta = write_segment(tmp_path, 1, "t", 0, items)
        [(loaded_key, _)] = read_segment(tmp_path, meta)
        assert loaded_key == key

    def test_checksum_mismatch_detected(self, tmp_path):
        meta = write_segment(tmp_path, 1, "t", 0, build_items())
        path = tmp_path / meta.file
        path.write_bytes(path.read_bytes().replace(b'"m"', b'"x"', 1))
        with pytest.raises(CorruptSegmentError, match="checksum"):
            read_segment(tmp_path, meta)

    def test_missing_file_detected(self, tmp_path):
        meta = write_segment(tmp_path, 1, "t", 0, build_items())
        (tmp_path / meta.file).unlink()
        with pytest.raises(CorruptSegmentError, match="missing"):
            read_segment(tmp_path, meta)

    def test_header_mismatch_detected(self, tmp_path):
        meta = write_segment(tmp_path, 1, "t", 0, build_items())
        other = SegmentMeta(meta.file, meta.segment_id, "other", meta.level,
                            meta.series, meta.bytes, meta.sha256)
        with pytest.raises(CorruptSegmentError, match="header"):
            read_segment(tmp_path, other)

    def test_no_temp_files_left_behind(self, tmp_path):
        write_segment(tmp_path, 1, "t", 0, build_items())
        assert [p.name for p in tmp_path.iterdir()] == \
            ["seg-00000001-t-L0.seg"]

    @pytest.mark.parametrize("verify", [True, False])
    def test_empty_file_is_corrupt_not_index_error(self, tmp_path, verify):
        # an empty body must never escape as a raw decoder exception,
        # even when checksum verification is skipped
        meta = write_segment(tmp_path, 1, "t", 0, build_items())
        (tmp_path / meta.file).write_bytes(b"")
        with pytest.raises(CorruptSegmentError):
            read_segment(tmp_path, meta, verify=verify)

    def test_truncated_file_is_corrupt_without_verify(self, tmp_path):
        meta = write_segment(tmp_path, 1, "t", 0, build_items())
        path = tmp_path / meta.file
        path.write_bytes(path.read_bytes()[:meta.bytes // 2])
        with pytest.raises(CorruptSegmentError):
            read_segment(tmp_path, meta, verify=False)

    def test_garbage_bytes_are_corrupt_without_verify(self, tmp_path):
        meta = write_segment(tmp_path, 1, "t", 0, build_items())
        (tmp_path / meta.file).write_bytes(b"\xff" * 64)
        with pytest.raises(CorruptSegmentError):
            read_segment(tmp_path, meta, verify=False)


def v1_entries(meta):
    """Manifest entries as older builds wrote them: the retired JSON-lines
    and v2 columnar formats named explicitly, and the key absent
    altogether (which means v1)."""
    absent = meta.as_dict()
    del absent["format"]
    return [SegmentMeta.from_dict(dict(meta.as_dict(), format=1)),
            SegmentMeta.from_dict(dict(meta.as_dict(), format=2)),
            SegmentMeta.from_dict(absent)]


class TestLegacyFormat:
    """v3 is the only format; the version gate refuses everything else."""

    def test_manifest_without_format_key_deserializes_as_v1(self, tmp_path):
        meta = write_segment(tmp_path, 1, "t", 0, build_items())
        assert meta.as_dict()["format"] == 3
        raw = meta.as_dict()
        del raw["format"]  # manifests from pre-columnar builds
        assert SegmentMeta.from_dict(raw).format == 1

    def test_v1_entries_refused_before_a_byte_is_decoded(self, tmp_path):
        meta = write_segment(tmp_path, 1, "t", 0, build_items())
        # the gate fires on the manifest entry alone: with the file gone
        # the error is still "unsupported format", not "missing segment"
        (tmp_path / meta.file).unlink()
        for legacy in v1_entries(meta):
            with pytest.raises(CorruptSegmentError,
                               match=f"unsupported format {legacy.format}"):
                read_segment(tmp_path, legacy)

    def test_recover_surfaces_a_v1_entry(self, tmp_path):
        manifest = build_manifest(tmp_path)
        table = manifest.tables["sps"]
        for legacy in v1_entries(table.segments[0]):
            table.segments = [legacy]
            store_manifest(tmp_path, manifest)
            with pytest.raises(CorruptSegmentError,
                               match=f"unsupported format {legacy.format}"):
                recover(tmp_path)

    def test_unsupported_format_rejected(self, tmp_path):
        meta = write_segment(tmp_path, 1, "t", 0, build_items())
        raw = meta.as_dict()
        raw["format"] = 99
        with pytest.raises(CorruptSegmentError, match="format"):
            read_segment(tmp_path, SegmentMeta.from_dict(raw))


class TestTableNameSanitization:
    def test_plain_names_embed_verbatim(self):
        assert sanitize_table_component("spot_prices.v2") == "spot_prices.v2"

    def test_level_marker_lookalike_cannot_collide(self):
        # regression: a table literally named "a-L1" used to produce
        # "seg-XXXXXXXX-a-L1-L0.seg", ambiguous with table "a" names
        name = segment_file_name(1, "a-L1", 0)
        assert name == f"seg-00000001-{sanitize_table_component('a-L1')}-L0.seg"
        assert "-" not in sanitize_table_component("a-L1")

    def test_path_separators_never_reach_the_file_name(self):
        for table in ["../escape", "a/b", "a\\b", "nul\x00byte", "sps 3"]:
            component = sanitize_table_component(table)
            assert "/" not in component and "\\" not in component
            assert "\x00" not in component and " " not in component

    def test_sanitization_is_injective(self):
        tables = ["a-L1", "a%2dL1", "a/b", "a%2fb", "t", "t.", "ü", "%fc"]
        components = {sanitize_table_component(t) for t in tables}
        assert len(components) == len(tables)

    def test_write_read_round_trip_with_hostile_name(self, tmp_path):
        items = build_items()
        meta = write_segment(tmp_path, 1, "a-L1/..", 0, items)
        assert (tmp_path / meta.file).is_file()
        assert Path(meta.file).name == meta.file  # no directory traversal
        loaded = read_segment(tmp_path, meta)
        assert [key for key, _ in loaded] == [key for key, _ in items]


def build_manifest(tmp_path):
    meta = write_segment(tmp_path, 1, "sps", 0, build_items())
    return Manifest(
        version=3, last_applied_seq=17, rounds_committed=4,
        last_commit_time=1234.5, next_segment_id=2, next_wal_number=2,
        tables={"sps": TableManifest(retention=3600.0, records_written=12,
                                     evicted_through=100.0,
                                     segments=[meta])})


class TestManifest:
    def test_store_load_round_trip(self, tmp_path):
        manifest = build_manifest(tmp_path)
        store_manifest(tmp_path, manifest)
        loaded = load_manifest(tmp_path)
        assert loaded.as_dict() == manifest.as_dict()
        assert loaded.live_files() == ["seg-00000001-sps-L0.seg"]
        assert loaded.live_bytes() == manifest.tables["sps"].segments[0].bytes

    def test_fresh_directory_has_no_manifest(self, tmp_path):
        assert load_manifest(tmp_path) is None

    def test_unsupported_format_rejected(self, tmp_path):
        store_manifest(tmp_path, Manifest())
        path = tmp_path / MANIFEST_NAME
        raw = json.loads(path.read_text())
        raw["format"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="format"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("body", [
        '{"format": 1, "version": 3, "last_appl',       # torn mid-write
        "\x00\xff not json",                            # garbage
        json.dumps({"format": 99}),                     # wrong format
        json.dumps({"format": 1, "version": 1}),        # missing keys
        "[]",                                           # not an object
        json.dumps(dict(Manifest().as_dict(), tables=[])),  # nested shape
    ], ids=["torn", "garbage", "wrong-format", "missing-key", "non-object",
            "tables-not-object"])
    def test_corrupt_manifest_is_one_typed_error(self, tmp_path, body):
        # regression: these used to escape load_manifest / recover as raw
        # JSONDecodeError / KeyError / AttributeError
        (tmp_path / MANIFEST_NAME).write_text(body, encoding="latin-1")
        with pytest.raises(CorruptManifestError):
            load_manifest(tmp_path)
        with pytest.raises(CorruptManifestError):
            recover(tmp_path)

    def test_crash_before_publish_keeps_old_version(self, tmp_path):
        old = build_manifest(tmp_path)
        store_manifest(tmp_path, old)
        new = build_manifest(tmp_path)
        new.version = 4
        hook = CrashInjector([CrashPoint("checkpoint.manifest", hit=0)])
        with pytest.raises(SimulatedCrash):
            store_manifest(tmp_path, new, hook)
        assert load_manifest(tmp_path).version == 3  # old manifest intact

    def test_crash_after_publish_shows_new_version(self, tmp_path):
        store_manifest(tmp_path, build_manifest(tmp_path))
        new = build_manifest(tmp_path)
        new.version = 4
        hook = CrashInjector([CrashPoint("checkpoint.publish", hit=0)])
        with pytest.raises(SimulatedCrash):
            store_manifest(tmp_path, new, hook)
        assert load_manifest(tmp_path).version == 4

    def test_directory_fsynced_before_publish_window(self, tmp_path,
                                                     monkeypatch):
        # regression: the rename used to be published without fsyncing
        # the directory, so a power loss inside the checkpoint.publish
        # window could resurrect the previous manifest version
        synced = []
        monkeypatch.setattr(segments_module, "fsync_directory",
                            lambda d: synced.append(Path(d)))
        hook = CrashInjector([CrashPoint("checkpoint.publish", hit=0)])
        with pytest.raises(SimulatedCrash):
            store_manifest(tmp_path, build_manifest(tmp_path), hook)
        # by the time the publish window fires, the rename is durable
        assert synced == [tmp_path]
        assert load_manifest(tmp_path).version == 3
