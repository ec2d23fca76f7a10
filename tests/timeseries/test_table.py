"""Tests for the dimensioned time-series table."""

from repro.timeseries import ChangePointSeries, Record, Table


def rec(value, t, it="m5.large", region="us-east-1", zone="a",
        measure="sps"):
    return Record.make({"it": it, "region": region, "zone": zone},
                       measure, value, t)


class TestWrites:
    def test_series_created_per_dimension_set(self):
        table = Table("t")
        table.write(rec(3, 0))
        table.write(rec(3, 10, it="c5.large"))
        assert len(table) == 2

    def test_batch_write_returns_change_count(self):
        table = Table("t")
        changes = table.write_records([rec(3, 0), rec(3, 10), rec(2, 20)])
        assert changes == 2

    def test_stats(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(3, 10), rec(2, 20)])
        assert table.stats.records_written == 3
        assert table.stats.change_points_stored == 2
        assert table.stats.dedup_ratio == 2 / 3


class TestReads:
    def test_value_at(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(2, 20)])
        dims = {"it": "m5.large", "region": "us-east-1", "zone": "a"}
        assert table.value_at("sps", dims, 10) == 3
        assert table.value_at("sps", dims, 25) == 2
        assert table.value_at("sps", dims, -1) is None
        assert table.value_at("sps", {"it": "nope"}, 10) is None

    def test_latest(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(2, 20), rec(1, 5, it="c5.large")])
        latest = table.latest("sps")
        assert len(latest) == 2
        by_type = {r.dimension_dict["it"]: r.value for r in latest}
        assert by_type == {"m5.large": 2, "c5.large": 1}

    def test_latest_with_filters(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(1, 5, it="c5.large")])
        latest = table.latest("sps", {"it": "c5.large"})
        assert len(latest) == 1

    def test_scan_time_ordered(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(2, 20), rec(1, 5, it="c5.large")])
        scanned = table.scan("sps")
        times = [r.time for r in scanned]
        assert times == sorted(times)

    def test_scan_with_range(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(2, 20), rec(1, 40)])
        assert len(table.scan("sps", start=10, end=30)) == 1

    def test_dimension_index_consistency(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(1, 5, region="eu-west-1")])
        keys = table.series_keys("sps", {"region": "eu-west-1"})
        assert len(keys) == 1
        assert keys[0].dimension_dict["region"] == "eu-west-1"

    def test_series_keys_equal_a_brute_force_filter(self):
        """The posting-set walk answers what a scan of every key would."""
        table = Table("t")
        table.write_records([
            rec(1, 0, it=it, region=region, zone=zone, measure=measure)
            for measure in ("sps", "price")
            for it in ("m5.large", "c5.large", "r5.large")
            for region in ("us-east-1", "eu-west-1")
            for zone in ("a", "b")]
            + [Record.make({"it": "m5.large", "region": "us-east-1"},
                           "savings", 60, 0)])   # a series with no zone

        def brute(measure, filters):
            return sorted(
                (k for k in table._series
                 if measure in (None, k.measure_name)
                 and all(k.dimension_dict.get(d) == v
                         for d, v in filters.items())),
                key=lambda k: (k.measure_name, k.dimensions))

        queries = [
            (None, {}), ("sps", {}), ("savings", {}), ("nope", {}),
            (None, {"region": "eu-west-1"}), (None, {"zone": "a"}),
            (None, {"it": "m5.large", "region": "us-east-1"}),
            ("price", {"it": "c5.large"}),
            ("sps", {"it": "r5.large", "region": "eu-west-1", "zone": "b"}),
            ("savings", {"zone": "a"}),          # dimension it lacks
            ("sps", {"region": "ap-south-1"}),   # unknown value
            ("sps", {"rack": "a"}),              # unknown dimension
        ]
        for measure, filters in queries:
            assert table.series_keys(measure, filters) == \
                brute(measure, filters), (measure, filters)
        assert table.series_keys("sps", {"region": "ap-south-1"}) == []
        assert len(table.series_keys("sps", {"zone": "a"})) == 6


class TestRetention:
    def test_evict_keeps_value_in_force(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(2, 20), rec(1, 40)])
        dropped = table.evict_before(30)
        assert dropped == 1  # the t=0 point goes; t=20 remains in force
        dims = {"it": "m5.large", "region": "us-east-1", "zone": "a"}
        assert table.value_at("sps", dims, 30) == 2
        assert table.value_at("sps", dims, 45) == 1

    def test_evict_updates_stats(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(2, 20), rec(1, 40)])
        before = table.stats.change_points_stored
        dropped = table.evict_before(50)
        assert table.stats.change_points_stored == before - dropped

    def test_evict_point_exactly_at_cutoff_drops_stale_predecessors(self):
        # regression: a change point sitting exactly at the cutoff used to
        # shield the strictly-before point from eviction (off-by-one)
        table = Table("t")
        table.write_records([rec(3, 0), rec(2, 5), rec(1, 10)])
        dropped = table.evict_before(10)
        assert dropped == 2  # t=0 AND t=5 go; t=10 is the value in force
        dims = {"it": "m5.large", "region": "us-east-1", "zone": "a"}
        assert table.value_at("sps", dims, 10) == 1
        assert table.value_at("sps", dims, 9) is None

    def test_evict_stats_stay_consistent_with_stored_points(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(2, 5), rec(1, 10),
                             rec(9, 0, it="c5.large"), rec(8, 10, it="c5.large")])
        table.evict_before(10)
        stored = sum(len(table.series(k) or []) for k in table.series_keys())
        assert table.stats.change_points_stored == stored

    def test_evict_preserves_latest_view(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(2, 20), rec(1, 40)])
        table.evict_before(40)
        latest = table.latest("sps")
        assert [r.value for r in latest] == [1]
        assert [r.time for r in latest] == [40.0]


class TestGenerationStamps:
    def test_stamp_moves_on_overlapping_write_only(self):
        table = Table("t")
        table.write(rec(3, 0))
        stamp = table.generation_stamp("sps", {"it": "m5.large"})
        # non-overlapping write: different type, different measure
        table.write(rec(1, 5, it="c5.large", measure="price"))
        assert table.generation_stamp("sps", {"it": "m5.large"}) == stamp
        # overlapping write moves the stamp
        table.write(rec(2, 10))
        assert table.generation_stamp("sps", {"it": "m5.large"}) != stamp

    def test_unchanged_value_does_not_move_the_stamp(self):
        # a deduplicated (non-change-point) write is query-invisible
        table = Table("t")
        table.write(rec(3, 0))
        stamp = table.generation_stamp("sps")
        table.write(rec(3, 10))
        assert table.generation_stamp("sps") == stamp

    def test_eviction_moves_the_stamp(self):
        table = Table("t")
        table.write_records([rec(3, 0), rec(2, 20)])
        stamp = table.generation_stamp("sps")
        table.evict_before(20)
        assert table.generation_stamp("sps") != stamp

    def test_unconstrained_stamp_is_the_table_generation(self):
        table = Table("t")
        table.write(rec(3, 0))
        assert table.generation_stamp() == table.generation


class TestInstallSeries:
    """``install_series`` is how recovery loads segment state: the
    installed table must count, serve and dedup like the written one."""

    @staticmethod
    def installed_copy(table):
        copy = Table(table.name)
        for key in table.series_keys():
            series = table.series(key)
            copy.install_series(key, ChangePointSeries(
                times=list(series.times), values=list(series.values),
                observed_until=series.observed_until,
                observation_count=series.observation_count))
        return copy

    @staticmethod
    def written():
        table = Table("t")
        table.write_records([rec(3, 0), rec(3, 10), rec(2, 20), rec(3, 30),
                             rec(1, 5, it="c5.large", zone="b")])
        return table

    def test_rebuilds_stats_and_the_latest_view(self):
        table = self.written()
        copy = self.installed_copy(table)
        assert copy.stats.series_count == table.stats.series_count == 2
        assert copy.stats.change_points_stored == \
            table.stats.change_points_stored == 4
        assert copy.latest("sps") == table.latest("sps")
        dims = {"it": "m5.large", "region": "us-east-1", "zone": "a"}
        for t in (0, 15, 25, 35):
            assert copy.value_at("sps", dims, t) == \
                table.value_at("sps", dims, t)

    def test_later_writes_dedup_against_installed_series(self):
        copy = self.installed_copy(self.written())
        assert not copy.write(rec(3, 40))  # 3 is already the latest value
        assert copy.write(rec(2, 50))
        assert copy.stats.change_points_stored == 5
