"""v3 binary columnar segments: round trips, windows, column packing."""

import json
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import (
    ColumnarFormatError,
    CorruptSegmentError,
    SegmentCursor,
    encode_segment,
    read_segment,
    write_segment,
)
from repro.storage.columnar import PREFIX_BYTES, Selection, header_bytes
from repro.timeseries.compression import (
    ChangePointSeries,
    int_column_fits,
    pack_index_column,
    pack_time_column,
    unpack_time_column,
    unpack_value_column,
)
from repro.timeseries.record import SeriesKey

from .cursor_rows import float_columns, last_rows, scan_rows


def build_items(points=40, series_count=3):
    """Mixed-type series: floats, ints, bools, strings and NaN."""
    items = []
    for s in range(series_count):
        key = SeriesKey("m", (("az", f"az-{s}"), ("it", f"t{s}.large")))
        times, values = [], []
        for i in range(points):
            times.append(float(s * 10000 + i * 30))
            cycle = (i + s) % 5
            values.append([1.25 + i, i, bool(i % 2), f"bucket-{i % 7}",
                           float("nan")][cycle])
        items.append((key, ChangePointSeries(
            times=times, values=values, observed_until=times[-1] + 30.0,
            observation_count=points * 2)))
    items.sort(key=lambda kv: (kv[0].measure_name, kv[0].dimensions))
    return items


def norm(pairs):
    """repr-normalize so NaN compares equal and 1 / 1.0 / True do not."""
    return [(key, [(t, type(v).__name__, repr(v))
                   for t, v in zip(s.times, s.values)],
             s.observed_until, s.observation_count) for key, s in pairs]


class TestEncodeDecode:
    def test_round_trip_preserves_types_and_nan(self):
        items = build_items()
        cursor = SegmentCursor(encode_segment("t", 3, 1, items))
        assert norm(cursor.items()) == norm(items)

    def test_encoding_is_deterministic(self):
        items = build_items()
        assert encode_segment("t", 3, 1, items) == \
            encode_segment("t", 3, 1, items)

    def test_empty_segment_round_trips(self):
        cursor = SegmentCursor(encode_segment("t", 1, 0, []))
        assert cursor.items() == []
        assert scan_rows(cursor) == [] and last_rows(cursor) == []
        assert [a.size for a in cursor.scan()] == [0, 0, 0]

    @pytest.mark.parametrize("values, dictionary", [
        ([i / 3 for i in range(300)], 0),           # distinct floats: raw f8
        ([10 ** 12 + 7919 * i for i in range(300)], 0),  # raw int64
        ([3 * i for i in range(300)], 300),         # short ints: indices
        ([float(i % 3) for i in range(300)], 3),    # few floats: indices
        ([-0.0, 0.0, float("nan"), float("nan"), 1, 1.0, True, "1",
          2 ** 70], 8),
    ], ids=["raw-floats", "raw-ints", "short-ints", "few-floats", "mixed"])
    def test_value_column_picks_the_smaller_exact_encoding(self, values,
                                                           dictionary):
        key = SeriesKey("m", (("k", "v"),))
        items = [(key, ChangePointSeries(
            times=[float(i) for i in range(len(values))], values=values,
            observed_until=float(len(values)),
            observation_count=len(values)))]
        raw = encode_segment("t", 1, 0, items)
        cursor = SegmentCursor(raw)
        assert norm(cursor.items()) == norm(items)
        # raw columns carry no dictionary; a dictionary keeps 1 / 1.0 /
        # True / "1" and the two zeros apart and every NaN in one slot
        assert len(cursor.header["values"]) == dictionary

    def test_header_holds_no_per_series_entry(self):
        """N single-row series over one fixed dictionary (ten values in
        four dimension slots; the first ten series already use all ten):
        the header is the same size for N = 10 and N = 10,000, up to the
        digits of the counts and column offsets."""
        values = [f"v{i}" for i in range(10)]

        def header(n):
            keys = sorted({SeriesKey("m", tuple(
                (name, values[(i // 10 ** d) % 10])
                for d, name in enumerate("abcd"))) for i in range(n)},
                key=lambda k: k.dimensions)
            raw = encode_segment("t", 1, 0, [(key, ChangePointSeries(
                times=[60.0], values=[i % 3], observed_until=60.0,
                observation_count=1)) for i, key in enumerate(keys)])
            end = header_bytes(raw[:PREFIX_BYTES])
            return json.loads(raw[PREFIX_BYTES:end]), raw[PREFIX_BYTES:end]

        small, small_raw = header(10)
        big, big_raw = header(10_000)
        assert (small["series"], big["series"]) == (10, 10_000)
        assert sorted(small["strings"]) == sorted(big["strings"])
        assert small["values"] == big["values"] == [0, 1, 2]
        assert len(re.sub(rb"[0-9]+", b"0", small_raw)) == \
            len(re.sub(rb"[0-9]+", b"0", big_raw))


class TestZoneMapScan:
    """Windowed reads: each series is one slice of the row columns, cut
    to the window by its sorted times."""

    @pytest.mark.parametrize("points", [4, 16, 512])
    def test_scan_matches_naive_filter(self, points):
        items = build_items(points=points)
        cursor = SegmentCursor(encode_segment("t", 1, 0, items))
        for window in [(-1.0, 1e9), (100.0, 900.0), (10030.0, 10030.0),
                       (10030.0, 10000.0), (5e8, 6e8), (-50.0, -1.0)]:
            start, end = window
            want = []
            for key, series in items:
                rows = [(t, v) for t, v in zip(series.times, series.values)
                        if start <= t <= end]
                if rows:
                    want.append((key, rows))

            def rows_norm(result):
                return [(k, [(t, type(v).__name__, repr(v)) for t, v in r])
                        for k, r in result]

            assert rows_norm(scan_rows(cursor, start, end)) == \
                rows_norm(want)
            last = [(key, rows[-1][0], type(rows[-1][1]).__name__,
                     repr(rows[-1][1])) for key, rows in
                    [(k, [(t, v) for t, v in zip(s.times, s.values)
                          if t <= end]) for k, s in items] if rows]
            assert [(k, t, type(v).__name__, repr(v)) for k, t, v in
                    last_rows(cursor, end)] == last

    def test_out_of_range_chunks_are_never_decoded(self, monkeypatch):
        """A chunk is one series' slice: a window over the first series
        builds Python values for its in-window rows and nothing else."""
        items = build_items(points=64)
        cursor = SegmentCursor(encode_segment("t", 1, 0, items))
        built = []
        original = SegmentCursor.values_at

        def recording(self, rows):
            built.extend(rows.tolist())
            return original(self, rows)

        monkeypatch.setattr(SegmentCursor, "values_at", recording)
        ((key, rows),) = scan_rows(cursor, 0.0, 120.0)
        assert key == items[0][0] and len(rows) == 5
        assert built == [0, 1, 2, 3, 4]
        numeric = SegmentCursor(encode_segment("t", 1, 0, [
            (key, ChangePointSeries(
                times=s.times, values=[float(t) for t in s.times],
                observed_until=s.observed_until,
                observation_count=s.observation_count))
            for key, s in items]))
        counters = {}
        numeric.scan_columns(0.0, 120.0, Selection("m"), counters=counters)
        assert counters == {"chunks_decoded": 1, "chunks_pruned": 2,
                            "rows_decoded": 5}


MEASURES = ("sps", "spot_price", "if_score")
DIM_VALUES = {"type": ("m5.large", "c5.large", "r5.large"),
              "region": ("us-east-1", "eu-west-1"),
              # repeated across regions on purpose; None: the series does
              # not carry the dimension (the pair-level advisor series)
              "zone": ("a", "b", None)}


def old_predicate(measure, filters):
    """The ``match=`` callable scans took before the series index: the
    measure if given, and every filter equal to a dimension the series
    carries."""
    def match(key):
        if measure is not None and key.measure_name != measure:
            return False
        dims = dict(key.dimensions)
        return all(dims.get(name) == value
                   for name, value in (filters or {}).items())
    return match


def numeric_items(coords):
    """One short numeric series per drawn (measure, type, region, zone)."""
    items = []
    for n, (measure, itype, region, zone) in enumerate(sorted(
            coords, key=lambda c: tuple(x or "" for x in c))):
        dims = {"type": itype, "region": region}
        if zone is not None:
            dims["zone"] = zone
        times = [100.0 * n + 10.0 * i for i in range(1 + n % 3)]
        items.append((SeriesKey(measure, tuple(sorted(dims.items()))),
                      ChangePointSeries(
                          times=times, values=[float(n + i) for i in
                                               range(len(times))],
                          observed_until=times[-1],
                          observation_count=len(times))))
    items.sort(key=lambda kv: (kv[0].measure_name, kv[0].dimensions))
    return items


series_sets = st.sets(st.tuples(
    st.sampled_from(MEASURES), *(st.sampled_from(DIM_VALUES[d])
                                 for d in ("type", "region", "zone"))),
    min_size=0, max_size=24)
queries = st.tuples(
    st.sampled_from((None, *MEASURES, "no_such_measure")),
    st.dictionaries(
        st.sampled_from(("type", "region", "zone", "rack")),
        st.sampled_from(("m5.large", "c5.large", "us-east-1", "eu-west-1",
                         "a", "b", "no-such-value")), max_size=3))


class TestSeriesSelection:
    """A selection names exactly the series the predicate it replaced
    accepted, in descriptor order."""

    @settings(max_examples=150, deadline=None)
    @given(coords=series_sets, query=queries, memoize=st.booleans())
    def test_select_equals_the_old_predicate(self, coords, query, memoize):
        items = numeric_items(coords)
        keys = [key for key, _ in items]
        measure, filters = query
        accept = old_predicate(measure, filters)
        want = [i for i, key in enumerate(keys) if accept(key)]
        cursor = SegmentCursor(encode_segment("t", 1, 0, items),
                               memoize=memoize)
        select = Selection(measure, filters)
        assert list(cursor.select(select)) == want

        window = (50.0, 1500.0)
        assert scan_rows(cursor, *window, select) == \
            [(key, rows) for key, rows in scan_rows(cursor, *window)
             if accept(key)]
        got_keys, got_counts, got_t, got_v = float_columns(
            cursor, *window, select)
        all_keys, counts, times, values = float_columns(cursor, *window)
        offsets = [0, *counts.cumsum().tolist()]
        kept = [j for j, key in enumerate(all_keys) if accept(key)]
        assert got_keys == [all_keys[j] for j in kept]
        assert got_counts.tolist() == [int(counts[j]) for j in kept]
        assert got_t.tolist() == [t for j in kept for t in
                                  times[offsets[j]:offsets[j + 1]].tolist()]
        assert got_v.tolist() == [v for j in kept for v in
                                  values[offsets[j]:offsets[j + 1]].tolist()]

    @settings(max_examples=60, deadline=None)
    @given(coords=series_sets, data=st.data())
    def test_key_set_selection(self, coords, data):
        items = numeric_items(coords)
        keys = [key for key, _ in items]
        foreign = [SeriesKey("sps", (("type", "not-in-the-file"),)),
                   SeriesKey("other", ())]
        wanted = data.draw(st.sets(st.sampled_from(keys + foreign)),
                           label="keys")
        measure = data.draw(st.sampled_from((None, *MEASURES)),
                            label="measure")
        cursor = SegmentCursor(encode_segment("t", 1, 0, items),
                               memoize=True)
        for given_keys in (wanted, dict.fromkeys(wanted)):
            assert list(cursor.select(Selection(keys=given_keys))) == \
                [i for i, key in enumerate(keys) if key in wanted]
            # constraints combine: every one given must hold
            assert list(cursor.select(
                Selection(measure, keys=given_keys))) == \
                [i for i, key in enumerate(keys) if key in wanted
                 and measure in (None, key.measure_name)]
        assert scan_rows(cursor, select=Selection(keys=wanted)) == \
            [(key, rows) for key, rows in scan_rows(cursor)
             if key in wanted]

    def test_no_constraint_selects_everything_without_an_index(self):
        cursor = SegmentCursor(encode_segment("t", 1, 0, build_items()),
                               memoize=True)
        for select in (None, Selection(), Selection(None, {})):
            assert list(cursor.select(select)) == [0, 1, 2]
            assert len(scan_rows(cursor, select=select)) == 3
        assert cursor._index is None   # nothing asked for it

    def test_index_lives_and_dies_with_the_cursor_memo(self):
        raw = encode_segment("t", 1, 0, build_items())
        memoized = SegmentCursor(raw, memoize=True)
        index = memoized.series_index()
        assert memoized.series_index() is index   # built once, kept
        assert index.first_tmin.tolist() == [0.0, 10000.0, 20000.0]
        assert sorted(index.by_measure) == ["m"]
        memoized.release()
        assert memoized._index is None
        one_shot = SegmentCursor(raw)
        assert scan_rows(one_shot, select=Selection("m", {"az": "az-1"})) \
            == scan_rows(one_shot)[1:2]
        assert one_shot._index is None            # built per call, not kept

    def test_series_without_rows_never_enter_first_tmin(self):
        items = build_items(series_count=2)
        items[0] = (items[0][0], ChangePointSeries(
            times=[], values=[], observed_until=0.0, observation_count=0))
        index = SegmentCursor(encode_segment("t", 1, 0, items),
                              memoize=True).series_index()
        assert index.first_tmin.tolist() == [math.inf, 10000.0]

    def test_malformed_descriptors_are_a_format_error(self):
        raw = bytearray(encode_segment("t", 1, 0, build_items()))
        end = header_bytes(bytes(raw[:PREFIX_BYTES]))
        header = json.loads(raw[PREFIX_BYTES:end])
        offset, _ = header["columns"]["dim1"]
        # the second series' dimension value id: one past the dictionary
        raw[end + offset + 1 + 1] = len(header["strings"])
        cursor = SegmentCursor(bytes(raw), memoize=True)
        with pytest.raises(ColumnarFormatError, match="range"):
            cursor.scan_columns(select=Selection("m"))

    def test_two_first_readers_publish_one_finished_index(
            self, conc_sanitizer):
        """Two threads first-touch one memoized cursor with different
        selections: both answer what a private cursor answers."""
        coords = {(m, t, r, z) for m in MEASURES
                  for t in DIM_VALUES["type"] + tuple(
                      f"x{i}.large" for i in range(120))
                  for r in DIM_VALUES["region"]
                  for z in DIM_VALUES["zone"]}
        raw = encode_segment("t", 1, 0, numeric_items(coords))
        selections = [Selection("sps", {"type": "x7.large"}),
                      Selection(None, {"region": "eu-west-1", "zone": "b"})]
        want = [scan_rows(SegmentCursor(raw, memoize=True), select=s)
                for s in selections]
        assert all(want)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = SegmentCursor(raw, memoize=True)
                barrier = threading.Barrier(len(selections))
                got = [None] * len(selections)

                def first_touch(i):
                    barrier.wait(timeout=30)
                    got[i] = scan_rows(shared, select=selections[i])

                threads = [threading.Thread(target=first_touch, args=(i,))
                           for i in range(len(selections))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == want
                index = shared.series_index()
                assert shared.series_index() is index
                assert len(index.position) == len(coords)
        finally:
            sys.setswitchinterval(interval)


class TestCorruption:
    def test_bad_magic_rejected(self):
        with pytest.raises(ColumnarFormatError, match="magic"):
            SegmentCursor(b"NOTASEGMENT....")

    def test_truncated_header_rejected(self):
        raw = encode_segment("t", 1, 0, build_items())
        with pytest.raises(ColumnarFormatError):
            SegmentCursor(raw[:10])

    def test_truncated_body_rejected(self):
        raw = encode_segment("t", 1, 0, build_items(points=200))
        with pytest.raises(ColumnarFormatError):
            SegmentCursor(raw[: len(raw) // 2]).items()

    def test_truncated_file_surfaces_as_corrupt_segment(self, tmp_path):
        meta = write_segment(tmp_path, 1, "t", 0, build_items(points=200))
        path = tmp_path / meta.file
        path.write_bytes(path.read_bytes()[: meta.bytes // 2])
        with pytest.raises(CorruptSegmentError):
            read_segment(tmp_path, meta, verify=False)


class TestColumnPrimitives:
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=0,
                    max_size=50))
    def test_regular_cadence_times_round_trip(self, deltas):
        times, t = [], 1.7e9
        for d in deltas:
            t += d
            times.append(float(t))
        assert unpack_time_column(pack_time_column(times)) == times

    @given(st.lists(st.floats(min_value=0, max_value=1e12,
                              allow_nan=False), min_size=1, max_size=50))
    def test_arbitrary_float_times_round_trip(self, times):
        times = sorted(times)
        assert unpack_time_column(pack_time_column(times)) == times

    def test_fractional_times_fall_back_to_raw_floats(self):
        times = [0.1, 0.30000000000000004, 1e17 + 0.5]
        blob = pack_time_column(times)
        assert blob[:1] == b"F"
        assert unpack_time_column(blob) == times

    def test_integral_deltas_pack_narrow(self):
        blob = pack_time_column([1000.0, 1300.0, 1600.0])
        assert blob[:1] == b"2"  # int16 deltas: 1 + 8 + 2 * 2 bytes
        assert len(blob) == 13

    @given(st.lists(st.integers(min_value=0, max_value=70000), min_size=0,
                    max_size=50))
    def test_index_columns_round_trip_at_narrowest_width(self, indices):
        blob = pack_index_column(indices)
        is_indices, got = unpack_value_column(blob)
        assert is_indices and got == indices
        top = max(indices, default=0)
        assert blob[:1] == (b"u" if top < 256 else
                            b"v" if top < 65536 else b"w")

    @pytest.mark.parametrize("top", [None, 255, 256, 65535, 65536])
    def test_index_column_bytes_do_not_depend_on_the_container(self, top):
        indices = [] if top is None else [0, top, top // 2, 7]
        blob = pack_index_column(indices)
        assert pack_index_column(np.asarray(indices, dtype=np.int64)) == \
            pack_index_column(np.asarray(indices, dtype=np.uint32)) == blob

    @pytest.mark.parametrize("values, fits", [
        ([], True), ([0, -5, 7], True),
        ([-2 ** 63, 2 ** 63 - 1], True), ([2 ** 63], False),
        ([-2 ** 63 - 1], False), ([2 ** 63, -1], False), ([1, 2 ** 70], False),
    ])
    def test_int_column_fits_lists_and_arrays_alike(self, values, fits):
        assert int_column_fits(values) is fits
        assert int_column_fits(np.asarray(values, dtype=object)) is fits
        if fits:
            assert int_column_fits(np.asarray(values, dtype=np.int64))

    def test_unknown_tags_rejected(self):
        with pytest.raises(ValueError, match="tag"):
            unpack_time_column(b"zjunk")
        with pytest.raises(ValueError, match="tag"):
            unpack_value_column(b"zjunk")
