"""Units for the date-partitioned cold lake store."""

import json
import shutil

import numpy as np
import pytest

from repro.lake import (
    LAKE_FORMAT,
    LAKE_MANIFEST_NAME,
    LakeFormatError,
    RoundMerger,
    SPS_MEASURE,
    SpotDataLake,
    lake_day,
)
from repro.lake.schema import empty_rows
from repro.storage import SegmentCursor

T0 = 1640995200.0  # 2022-01-01 00:00:00 UTC
DAY = 86400.0


def _merged(time, score=3, price=1.5, itype="a.large"):
    merger = RoundMerger()
    merger.add("sps", [(itype, "r1", "r1a", score, time)])
    merger.add("price", [(itype, "r1", "r1a", price, time)])
    return merger.take_round(time)


def _land(lake, merged):
    """Append ``merged`` with every row changed, as a refresh round is."""
    return lake.append_round(merged, merged.rows)


def _fill(lake, times, scores=None):
    for index, t in enumerate(times):
        score = scores[index] if scores is not None else 3
        _land(lake, _merged(t, score=score))


def test_lake_day_is_utc():
    assert lake_day(T0) == "2022/01/01"
    assert lake_day(T0 + DAY) == "2022/01/02"
    assert lake_day(T0 - 1.0) == "2021/12/31"


def test_append_publishes_versioned_manifest(tmp_path):
    lake = SpotDataLake(tmp_path)
    _land(lake, _merged(T0))
    _land(lake, _merged(T0 + 600, score=2))
    manifest = json.loads((tmp_path / LAKE_MANIFEST_NAME).read_text())
    assert manifest["format"] == LAKE_FORMAT
    assert manifest["version"] == 2
    assert [p["kind"] for p in manifest["partitions"]] == ["round", "round"]
    assert lake.round_times() == [T0, T0 + 600]
    assert (tmp_path / "2022" / "01" / "01").is_dir()


def test_a_days_first_round_lands_whole_later_rounds_land_changed_rows(
        tmp_path):
    lake = SpotDataLake(tmp_path)
    nothing = empty_rows()
    lake.append_round(_merged(T0), nothing)   # no partition that day yet
    lake.append_round(_merged(T0 + 600, score=4), dict(
        nothing, sps=[("a.large", "r1", "r1a", 4, T0 + 600)]))
    quiet = lake.append_round(_merged(T0 + 1200, score=4), nothing)
    lake.append_round(_merged(T0 + DAY, score=4), nothing)   # a new day
    assert [p.rows for p in lake.partitions] == [2, 1, 0, 2]
    assert (quiet.start, quiet.end, quiet.rounds) == \
        (T0 + 1200, T0 + 1200, (T0 + 1200,))
    assert lake.round_times() == [T0, T0 + 600, T0 + 1200, T0 + DAY]
    total, (row,) = lake.round_snapshot(T0 + 1200)   # over keyframe + delta
    assert total == 1
    assert (row["sps"], row["spot_price"]) == (4, 1.5)
    assert [r.value for r in lake.change_points(
        SPS_MEASURE, {}, T0, T0 + DAY)] == [3, 4]
    # a trimmed keyframe is re-collected as a keyframe
    assert lake.trim_to(T0 + 1200) == 1
    assert lake.append_round(_merged(T0 + DAY, score=4), nothing).rows == 2


def test_a_pool_the_keyframe_missed_lands_with_its_first_round_that_day(
        tmp_path):
    def both(time):
        merged = _merged(time)
        merged.rows["sps"].append(("b.large", "r1", "r1a", 5, time))
        merged.rows["price"].append(("b.large", "r1", "r1a", 2.5, time))
        return merged

    lake = SpotDataLake(tmp_path)
    nothing = empty_rows()
    lake.append_round(both(T0), nothing)
    # 00:00 the next day fails to observe b.large; at 00:10 it is back,
    # unchanged, so the differ reports nothing
    lake.append_round(_merged(T0 + DAY), nothing)
    back = lake.append_round(both(T0 + DAY + 600), nothing)
    assert back.rows == 2
    assert [r["instance_type"]
            for r in lake.round_snapshot(T0 + DAY)[1]] == ["a.large"]
    assert [(r["instance_type"], r["sps"], r["spot_price"])
            for r in lake.round_snapshot(T0 + DAY + 600)[1]] == \
        [("a.large", 3, 1.5), ("b.large", 5, 2.5)]
    # once held, not stored again -- nor after a re-open or a trim
    assert lake.append_round(both(T0 + DAY + 1200), nothing).rows == 0
    lake = SpotDataLake(tmp_path)
    assert lake.append_round(both(T0 + DAY + 1800), nothing).rows == 0
    assert lake.trim_to(T0 + DAY) == 3
    assert lake.append_round(both(T0 + DAY + 600), nothing).sha256 == \
        back.sha256
    # history is none the wiser
    assert [r.value for r in lake.change_points(
        SPS_MEASURE, {"InstanceType": "b.large"}, T0, T0 + 2 * DAY)] == [5]


def test_empty_round_refused(tmp_path):
    lake = SpotDataLake(tmp_path)
    with pytest.raises(ValueError):
        _land(lake, RoundMerger().take_round(T0))


def test_reload_is_digest_stable(tmp_path):
    lake = SpotDataLake(tmp_path)
    _fill(lake, [T0, T0 + 600, T0 + DAY])
    reloaded = SpotDataLake(tmp_path)
    assert reloaded.digest() == lake.digest()
    assert reloaded.round_times() == lake.round_times()
    assert reloaded.census() == lake.census()


def test_unsupported_manifest_format_raises(tmp_path):
    (tmp_path / LAKE_MANIFEST_NAME).write_text(
        '{"format": 99, "version": 1, "partitions": []}\n')
    with pytest.raises(LakeFormatError):
        SpotDataLake(tmp_path)


def test_a_lake_of_an_older_format_is_refused_when_opened(tmp_path):
    """Format 1 lakes hold v2 segments, which nothing reads any more: the
    lake refuses them on open, not on the first cold read."""
    _fill(SpotDataLake(tmp_path), [T0])
    path = tmp_path / LAKE_MANIFEST_NAME
    path.write_text(json.dumps(dict(json.loads(path.read_text()), format=1)))
    with pytest.raises(LakeFormatError,
                       match="unsupported lake manifest format 1"):
        SpotDataLake(tmp_path)


def test_undecodable_manifest_raises(tmp_path):
    (tmp_path / LAKE_MANIFEST_NAME).write_text('{"format": 1}\n')
    with pytest.raises(LakeFormatError):
        SpotDataLake(tmp_path)


def test_trim_to_drops_uncommitted_tail(tmp_path):
    lake = SpotDataLake(tmp_path)
    _fill(lake, [T0, T0 + 600, T0 + 1200])
    # the hot WAL only committed through the second round
    assert lake.trim_to(T0 + 600) == 1
    assert lake.round_times() == [T0, T0 + 600]
    # a fresh directory (no commits at all) trims everything
    assert SpotDataLake(tmp_path).trim_to(None) == 3


def test_trimmed_round_file_collected_on_next_publish(tmp_path):
    lake = SpotDataLake(tmp_path)
    _fill(lake, [T0, T0 + 600])
    lake.trim_to(T0)
    seg_files = lambda: sorted(p.name for p in tmp_path.rglob("*.seg"))
    assert len(seg_files()) == 2  # trim is in-memory; GC waits for publish
    _land(lake, _merged(T0 + 600, score=1))
    assert len(seg_files()) == 2  # re-collected round replaced the orphan
    assert SpotDataLake(tmp_path).round_times() == [T0, T0 + 600]


def test_scan_windows_and_filters(tmp_path):
    lake = SpotDataLake(tmp_path)
    _fill(lake, [T0, T0 + 600, T0 + 1200], scores=[1, 2, 3])
    stored = {key.measure_name for part in lake.partitions
              for key, _ in lake._cursor(part).items()}
    assert stored == {SPS_MEASURE, "spot_price"}
    assert [r.value for r in lake.change_points(
        SPS_MEASURE, {}, T0, T0 + 1200)] == [1, 2, 3]
    assert [r.value for r in lake.change_points(
        SPS_MEASURE, {}, T0 + 600, T0 + 600)] == [2]
    assert lake.change_points(SPS_MEASURE, {"InstanceType": "other.large"},
                              T0, T0 + 1200) == []


def test_compact_preserves_change_points(tmp_path):
    lake = SpotDataLake(tmp_path)
    times = [T0 + 600 * i for i in range(6)] + \
        [T0 + DAY + 600 * i for i in range(6)]
    scores = [1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 5, 5]
    _fill(lake, times, scores=scores)
    reference = lake.change_points(SPS_MEASURE, {}, T0, times[-1])

    summary = lake.compact()  # newest day stays active
    assert summary["days_compacted"] == 1
    assert [p.kind for p in lake.partitions].count("day") == 1
    assert lake.change_points(SPS_MEASURE, {}, T0, times[-1]) == reference

    summary = lake.compact(include_active=True)
    assert summary["days_compacted"] == 1
    assert all(p.kind == "day" for p in lake.partitions)
    assert lake.change_points(SPS_MEASURE, {}, T0, times[-1]) == reference
    # round accounting survives compaction, and reload agrees
    assert lake.round_times() == times
    assert SpotDataLake(tmp_path).digest() == lake.digest()


def test_compaction_builds_no_per_series_python_objects(tmp_path,
                                                       monkeypatch):
    """Compaction folds the decoded id columns: with the cursor's item
    and key reads disabled it writes the same files."""
    times = [T0 + 600 * i for i in range(4)] + \
        [T0 + DAY + 600 * i for i in range(4)]
    _fill(SpotDataLake(tmp_path / "plain"), times,
          scores=[1, 1, 2, 1, 3, 3, 4, 4])
    shutil.copytree(tmp_path / "plain", tmp_path / "columns")
    plain = SpotDataLake(tmp_path / "plain")
    want = [plain.compact()["days_compacted"], plain.digest(),
            plain.compact(include_active=True)["days_compacted"],
            plain.digest()]

    def refuse(*_args, **_kwargs):
        raise AssertionError("compaction built per-series objects")
    for name in ("items", "keys"):
        monkeypatch.setattr(SegmentCursor, name, refuse)
    columns = SpotDataLake(tmp_path / "columns")
    got = [columns.compact()["days_compacted"], columns.digest(),
           columns.compact(include_active=True)["days_compacted"],
           columns.digest()]
    assert got == want and want[0] == want[2] == 1


def _row_lists(value, rows):
    """Python lists with ``rows`` entries anywhere inside ``value``."""
    if isinstance(value, list) and len(value) == rows:
        yield value
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:   # an object's attributes, slotted or not
        items = [getattr(value, name, None)
                 for name in getattr(value, "__slots__", ())]
        items += list(getattr(value, "__dict__", {}).values())
    for item in items:
        if not isinstance(item, (str, bytes, memoryview, np.ndarray)):
            yield from _row_lists(item, rows)


def test_cold_reads_keep_no_python_row_lists(tmp_path):
    """A per-pool history, a column scan and ``latest_values`` read the
    decoded columns: no memoized cursor keeps a Python list with one
    entry per file row."""
    lake = SpotDataLake(tmp_path)
    pools = [f"t{i}.large" for i in range(6)]
    for r in range(5):
        merger = RoundMerger()
        merger.add("sps", [(t, "r1", "r1a", r + i, T0 + 600 * r)
                           for i, t in enumerate(pools)])
        merged = merger.take_round(T0 + 600 * r)
        lake.append_round(merged, merged.rows)
    lake.compact(include_active=True)
    (day,) = lake.partitions
    assert day.rows == 5 * len(pools)
    pool = {"InstanceType": pools[2], "Region": "r1",
            "AvailabilityZone": "r1a"}
    assert [r.value for r in lake.change_points(
        SPS_MEASURE, pool, T0 + 600, T0 + 1800)] == [3, 4, 5]
    keys = [key for key, _ in lake.latest_values()]
    assert lake.scan_column_arrays(SPS_MEASURE, {}, T0 + 600, T0 + 1800,
                                   keys).counts.tolist() == [3] * 6
    assert lake._cursor(day).header["series"] < day.rows
    assert not list(_row_lists(lake._open(day), day.rows))


def test_change_points_baseline_suppresses_window_edge_reemit(tmp_path):
    lake = SpotDataLake(tmp_path)
    _fill(lake, [T0, T0 + 600, T0 + 1200], scores=[1, 1, 1])
    # value unchanged since T0: a window starting later must emit nothing
    assert lake.change_points(SPS_MEASURE, {}, T0 + 600, T0 + 1200) == []
    changed = SpotDataLake(tmp_path / "changed")
    _fill(changed, [T0, T0 + 600, T0 + 1200], scores=[1, 2, 2])
    rows = changed.change_points(SPS_MEASURE, {}, T0 + 600, T0 + 1200)
    assert [(r.time, r.value) for r in rows] == [(T0 + 600, 2)]


def test_latest_values_and_census(tmp_path):
    lake = SpotDataLake(tmp_path)
    _fill(lake, [T0, T0 + 600], scores=[1, 4])
    latest = dict(lake.latest_values())
    sps_latest = [v for key, v in latest.items()
                  if key.measure_name == SPS_MEASURE]
    assert sps_latest == [4]
    census = lake.census()
    assert census["rounds"] == 2
    assert census["partitions"] == 2
    assert census["days"] == 1
    assert census["start"] == T0 and census["end"] == T0 + 600


def test_rounds_on_and_round_snapshot(tmp_path):
    lake = SpotDataLake(tmp_path)
    merger = RoundMerger()
    merger.add("sps", [("a.large", "r1", "r1a", 3, T0)])
    merger.add("price", [("a.large", "r1", "r1a", 1.5, T0)])
    merger.add("advisor", [("a.large", "r1", 0.05, 2.0, 60, T0)])
    merger.add("advisor", [("b.large", "r1", 0.10, 1.0, 50, T0)])  # pair, no zone
    _land(lake, merger.take_round(T0))
    assert lake.rounds_on("2022-01-01") == [T0]
    assert lake.rounds_on("2022/01/01") == [T0]
    assert lake.rounds_on("2022-01-02") == []

    total, rows = lake.round_snapshot(T0)
    assert total == 2
    assert [r["instance_type"] for r in rows] == ["a.large", "b.large"]
    wide = rows[0]
    assert wide["sps"] == 3 and wide["spot_price"] == 1.5
    assert wide["if_score"] == 2.0 and wide["savings"] == 60
    assert rows[1]["zone"] is None and rows[1]["sps"] is None
    assert lake.round_snapshot(T0, offset=1, limit=1) == (2, rows[1:])
    assert lake.round_snapshot(T0, offset=2) == (2, [])
    with pytest.raises(KeyError):
        lake.round_snapshot(T0 + 1.0)


def test_a_zone_less_row_gives_way_once_a_delta_brings_the_pairs_pools(
        tmp_path):
    """Row existence is decided across the day's files: the advisor pair
    sits in the keyframe, its first pool in a later delta (and, folded
    into a day file, in a series that starts later than the pair's)."""
    lake = SpotDataLake(tmp_path)

    def land(time, with_pool):
        merger = RoundMerger()
        merger.add("sps", [("a.large", "r1", "r1a", 3, time)])
        merger.add("advisor", [("b.large", "r1", 0.10, 1.0, 50, time)])
        if with_pool:
            merger.add("sps", [("b.large", "r1", "r1b", 2, time)])
        return lake.append_round(merger.take_round(time), empty_rows())

    assert land(T0, with_pool=False).rows == 4
    assert land(T0 + 600, with_pool=True).rows == 1   # just the new pool

    def rows_at(time):
        total, rows = lake.round_snapshot(time)
        assert total == len(rows)
        return [(r["instance_type"], r["zone"], r["sps"], r["savings"])
                for r in rows]

    for _layout in ("keyframe + delta", "day file"):
        assert rows_at(T0) == [("a.large", "r1a", 3, None),
                               ("b.large", None, None, 50)]
        assert rows_at(T0 + 600) == [("a.large", "r1a", 3, None),
                                     ("b.large", "r1b", 2, 50)]
        assert lake.round_snapshot(T0 + 600, 1, 5)[1] == \
            lake.round_snapshot(T0 + 600)[1][1:]
        lake.compact(include_active=True)
    assert [p.kind for p in lake.partitions] == ["day"]
