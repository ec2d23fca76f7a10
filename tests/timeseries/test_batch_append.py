"""Batched table ingest must be observably identical to pointwise ingest.

``Table.append_many`` inlines the change-point test, the generation
stamping and the latest-value maintenance for speed; these tests pin the
equivalence the inlining must preserve: same series contents, same
stats, same generation stamps, same latest view, same errors.
"""

import pytest

from repro.timeseries import Record, Table
from repro.timeseries.record import SeriesKey, dimension_key


def _key(region: str) -> SeriesKey:
    return SeriesKey("sps", dimension_key({"Region": region, "AZ": region + "a"}))


def _points():
    """Three series over four stamps with dedup-able repeats."""
    keys = [_key(f"r{i}") for i in range(3)]
    out = []
    for step in range(4):
        for i, key in enumerate(keys):
            out.append((key, float(step), (step // 2 + i) % 3))
    return out


def _by_pointwise(points):
    table = Table("t")
    for key, time, value in points:
        table.write(Record(key.dimensions, key.measure_name, value, time))
    return table


class TestBatchPointwiseParity:
    def test_series_stats_and_latest_match(self):
        points = _points()
        pointwise = _by_pointwise(points)
        batched = Table("t")
        changed = batched.append_many(points)

        assert changed == batched.stats.change_points_stored
        assert batched.stats.records_written == \
            pointwise.stats.records_written == len(points)
        assert batched.stats.change_points_stored == \
            pointwise.stats.change_points_stored
        assert batched.stats.series_count == pointwise.stats.series_count
        for key in pointwise.series_keys():
            a, b = pointwise.series(key), batched.series(key)
            assert a.times == b.times and a.values == b.values
            assert a.observed_until == b.observed_until
            assert a.observation_count == b.observation_count
        assert pointwise.latest("sps") == batched.latest("sps")

    def test_generation_stamps_match_pointwise(self):
        points = _points()
        pointwise = _by_pointwise(points)
        batched = Table("t")
        batched.append_many(points)
        assert batched.generation == pointwise.generation
        for key in pointwise.series_keys():
            assert batched.series_generation(key) == \
                pointwise.series_generation(key)
        assert batched.generation_stamp("sps") == \
            pointwise.generation_stamp("sps")

    def test_out_of_order_batch_raises_like_pointwise(self):
        key = _key("r0")
        table = Table("t")
        table.append_many([(key, 10.0, 1)])
        with pytest.raises(ValueError, match="out-of-order"):
            table.append_many([(key, 5.0, 2)])
        # the in-order prefix before the bad point still landed
        table2 = Table("t")
        with pytest.raises(ValueError):
            table2.append_many([(key, 10.0, 1), (key, 5.0, 2)])
        assert table2.series(key).times == [10.0]

    def test_dedup_still_applies_within_a_batch(self):
        key = _key("r0")
        table = Table("t")
        changed = table.append_many(
            [(key, 0.0, 7), (key, 1.0, 7), (key, 2.0, 8), (key, 3.0, 8)])
        assert changed == 2
        series = table.series(key)
        assert series.times == [0.0, 2.0]
        assert series.observation_count == 4
