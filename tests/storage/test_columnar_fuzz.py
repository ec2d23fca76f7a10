"""Hostile bytes: a damaged v3 segment is a typed error, never a crash.

Every case starts from a small valid file and damages it -- truncation at
any offset, any single-byte flip, column directory entries pointing
outside the file, per-series row counts that no longer add up to the row
count or point past the time column, and ids at or past their
dictionary's length.  Whatever the damage, a reader -- ``items()``, the
window primitive ``scan`` and the ``scan_columns`` gather behind it --
either raises ``ColumnarFormatError`` (the storage layer's
``CorruptSegmentError``) or decodes well-formed rows: no leaked
``IndexError`` / ``KeyError`` / numpy error, and no allocation sized by a
count the file lies about.  Each case runs through a one-shot cursor,
``read_segment(verify=False)`` and the lake's memoized mmap-backed
cursor, which must still close cleanly afterwards.
"""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.lake import (
    LAKE_FORMAT,
    LAKE_MANIFEST_NAME,
    LakePartition,
    SpotDataLake,
)
from repro.storage import (
    ColumnarFormatError,
    CorruptSegmentError,
    SegmentCursor,
    encode_segment,
    read_segment,
    write_segment,
)
from repro.storage.columnar import MAGIC, PREFIX_BYTES, Selection, header_bytes
from repro.timeseries.compression import ChangePointSeries
from repro.timeseries.record import SeriesKey

from .cursor_rows import float_columns, last_rows, scan_rows

SCALARS = (str, int, float, bool)
#: a decode may allocate this much at most, however large a count claims
MEMORY_BOUND = 2 << 20


def _items(numeric):
    """Five series over two dimension shapes, one of them empty."""
    items = []
    for n, (measure, dims) in enumerate([
            ("if", (("InstanceType", "a.large"), ("Region", "r1"))),
            ("price", (("AvailabilityZone", "r1a"),
                       ("InstanceType", "a.large"), ("Region", "r1"))),
            ("price", (("AvailabilityZone", "r1b"),
                       ("InstanceType", "a.large"), ("Region", "r1"))),
            ("sps", (("AvailabilityZone", "r1a"),
                     ("InstanceType", "b.large"), ("Region", "r1"))),
            ("sps", (("AvailabilityZone", "r1b"),
                     ("InstanceType", "b.large"), ("Region", "r1")))]):
        times = [1000.0 + 600.0 * i + 7.0 * n for i in range(n % 4 + 1)]
        if n == 2:
            times = []
        values = [n / 7 + i for i in range(len(times))] if numeric else \
            [[3, 1.5, "high", True, float("nan")][(n + i) % 5]
             for i in range(len(times))]
        items.append((SeriesKey(measure, dims), ChangePointSeries(
            times=times, values=values,
            observed_until=times[-1] + 60.0 if times else 900.0,
            observation_count=2 * len(times))))
    return items


BASES = {"mixed": _items(numeric=False), "numeric": _items(numeric=True)}


def _split(raw):
    end = header_bytes(raw[:PREFIX_BYTES])
    return json.loads(raw[PREFIX_BYTES:end]), raw[end:]


def _join(header, body):
    text = json.dumps(header).encode("utf-8")
    return MAGIC + len(text).to_bytes(4, "little") + text + body


def _poke(raw, column, index, value):
    """Overwrite entry ``index`` of a packed integer column."""
    header, body = _split(raw)
    offset, length = header["columns"][column]
    tag = body[offset:offset + 1]
    width = {b"u": 1, b"v": 2, b"w": 4, b"i": 8}[tag]
    count = (length - 1) // width
    if not count:
        return raw
    at = offset + 1 + (index % count) * width
    value = min(value, (1 << (8 * width - (tag == b"i"))) - 1)
    body = body[:at] + value.to_bytes(width, "little") + body[at + width:]
    return _join(header, body)


def _well_formed_items(items):
    for key, series in items:
        assert type(key.measure_name) is str
        assert all(type(name) is str and type(value) is str
                   for name, value in key.dimensions)
        assert len(series.times) == len(series.values)
        assert all(type(t) is float and math.isfinite(t)
                   for t in series.times)
        assert series.times == sorted(series.times)
        assert all(type(v) in SCALARS for v in series.values)
        assert type(series.observed_until) is float
        assert type(series.observation_count) is int
        assert series.observation_count >= 0


def _exercise(cursor):
    """Every read; raises ColumnarFormatError or returns checked rows."""
    items = cursor.items()
    _well_formed_items(items)
    assert [(key, [t for t, _ in rows]) for key, rows in scan_rows(cursor)] \
        == [(key, s.times) for key, s in items if s.times]
    window = (1300.0, 2000.0)
    # the window's id columns: ascending series, each one's rows in
    # order, every position inside the file
    found = cursor.scan(*window)
    assert found.series.tolist() == sorted(set(found.series.tolist()))
    assert found.counts.sum() == found.rows.size and (found.counts > 0).all()
    assert ((0 <= found.rows) & (found.rows < cursor.header["rows"])).all()
    assert [(key, [t for t, _ in rows])
            for key, rows in scan_rows(cursor, *window)] == \
        [(key, t) for key, t in (
            (key, [x for x in s.times if window[0] <= x <= window[1]])
            for key, s in items) if t]
    assert [(key, t) for key, t, _ in last_rows(cursor, window[1])] == \
        [(key, max(x for x in s.times if x <= window[1]))
         for key, s in items if any(x <= window[1] for x in s.times)]
    for key, _ in items[:2]:
        filters = dict(key.dimensions)
        assert [k for k, _ in scan_rows(cursor, select=Selection(
            key.measure_name, filters))] == \
            [k for k, s in items if s.times
             and k.measure_name == key.measure_name
             and all(dict(k.dimensions).get(name) == value
                     for name, value in filters.items())]
    try:
        float_columns(cursor, *window, Selection(items[0][0].measure_name)
                      if items else None)
    except TypeError as exc:
        assert "non-numeric" in str(exc)
    return items


def _check_cursor(raw):
    tracemalloc.start()
    try:
        try:
            _exercise(SegmentCursor(raw))
        except ColumnarFormatError:
            pass
        assert tracemalloc.get_traced_memory()[1] < MEMORY_BOUND
    finally:
        tracemalloc.stop()


def _check_segment_file(raw, base):
    with tempfile.TemporaryDirectory() as tmp:
        meta = write_segment(Path(tmp), 7, "t", 0, BASES[base])
        (Path(tmp) / meta.file).write_bytes(raw)
        try:
            _well_formed_items(read_segment(Path(tmp), meta, verify=False))
        except CorruptSegmentError:
            pass


def _check_lake_cursor(raw):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "2022" / "01" / "01").mkdir(parents=True)
        part = LakePartition(
            kind="round", path="2022/01/01/round-1000.seg", start=1000.0,
            end=3000.0, rounds=(1000.0,), rows=1, bytes=len(raw), sha256="")
        (root / part.path).write_bytes(raw)
        (root / LAKE_MANIFEST_NAME).write_text(json.dumps(
            {"format": LAKE_FORMAT, "version": 1,
             "partitions": [part.as_dict()]}))
        lake = SpotDataLake(root)
        try:
            for _ in range(2):      # the second pass reads the memos
                try:
                    _exercise(lake._cursor(part))
                except ColumnarFormatError:
                    pass
        finally:
            lake.close()


def _check(raw, base):
    _check_cursor(raw)
    _check_segment_file(raw, base)
    _check_lake_cursor(raw)


RAW = {name: encode_segment("t", 7, 0, items)
       for name, items in BASES.items()}

bases = st.sampled_from(sorted(BASES))
FUZZ = settings(max_examples=120, deadline=None)


def test_the_base_files_decode_to_what_was_written():
    for name, raw in RAW.items():
        items = _exercise(SegmentCursor(raw))
        assert [(k, s.times, s.observed_until, s.observation_count)
                for k, s in items] == \
            [(k, s.times, s.observed_until, s.observation_count)
             for k, s in BASES[name]]


@FUZZ
@given(base=bases, data=st.data())
def test_truncation_at_any_offset(base, data):
    raw = RAW[base]
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    _check(raw[:cut], base)


@FUZZ
@given(base=bases, data=st.data())
def test_any_single_byte_flip(base, data):
    raw = bytearray(RAW[base])
    at = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    raw[at] ^= data.draw(st.integers(min_value=1, max_value=255))
    _check(bytes(raw), base)


@FUZZ
@given(base=bases, data=st.data())
def test_directory_entries_outside_the_buffer(base, data):
    header, body = _split(RAW[base])
    column = data.draw(st.sampled_from(sorted(header["columns"])))
    huge = st.integers(min_value=len(body) - 2, max_value=1 << 62)
    header["columns"][column] = data.draw(st.one_of(
        st.tuples(huge, st.integers(0, 64)),
        st.tuples(st.integers(0, len(body)), huge),
        st.tuples(st.integers(-4, len(body)), st.integers(-4, 64)),
    ).map(list))
    _check(_join(header, body), base)


@FUZZ
@given(base=bases, data=st.data())
def test_series_counts_that_do_not_add_up(base, data):
    raw = RAW[base]
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        raw = _poke(raw, "count", data.draw(st.integers(0, 8)),
                    data.draw(st.integers(0, 1 << 40)))
    header, body = _split(raw)
    for count in ("rows", "series"):
        if data.draw(st.booleans(), label=f"lie about {count}"):
            header[count] = data.draw(st.integers(0, 1 << 40))
    raw = _join(header, body)
    _check(raw, base)


@FUZZ
@given(base=bases, data=st.data())
def test_ids_at_or_past_their_dictionary(base, data):
    header, _ = _split(RAW[base])
    # the numeric file's value column is raw float64: no ids to forge
    column = data.draw(st.sampled_from(
        ["measure", "shape", *(["value"] if header["values"] else [])]
        + [name for name in header["columns"] if name.startswith("dim")]))
    bound = len(header["shapes"] if column == "shape" else
                header["values"] if column == "value" else header["strings"])
    raw = _poke(RAW[base], column, data.draw(st.integers(0, 16)),
                bound + data.draw(st.integers(0, 300)))
    _check(raw, base)


@FUZZ
@given(base=bases, data=st.data())
def test_series_rows_past_the_time_column(base, data):
    """Counts that add up to a header ``rows`` larger than the time and
    value columns: the last series' rows start or run past both, and
    the gather behind the window refuses them."""
    header, body = _split(RAW[base])
    last = len(BASES[base][-1][1].times)
    # past the columns, not past the file: the header check allows it
    extra = data.draw(st.integers(1, min(255 - last,
                                         len(body) - header["rows"])))
    raw = _poke(RAW[base], "count", header["series"] - 1, last + extra)
    header, body = _split(raw)
    header["rows"] += extra
    raw = _join(header, body)
    cursor = SegmentCursor(raw)
    assert cursor.scan().rows.max() >= header["rows"] - extra
    with pytest.raises(ColumnarFormatError, match="entries"):
        cursor.scan_columns()
    _check(raw, base)
