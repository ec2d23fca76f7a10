"""The column encoder and the column day fold against their oracles.

The oracles are the item-by-item implementations the column code
replaced, kept here verbatim in substance: a per-value dictionary
encoder over ``(SeriesKey, ChangePointSeries)`` items, and a day fold
that merges each partition's decoded series into a dict with a
per-point ``values_equal`` loop.  For drawn days, ``encode_segment``
must write the oracle encoder's bytes for every round file, and
``SpotDataLake.compact`` the oracle's bytes for the day file.
"""

import hashlib
import json
import math
import struct
import tempfile
from itertools import chain
from pathlib import Path
from typing import Dict, List

from hypothesis import example, given, settings, strategies as st

from repro.lake import LAKE_FORMAT, LAKE_MANIFEST_NAME, SpotDataLake
from repro.lake.store import LakePartition
from repro.storage import SegmentCursor, encode_segment
from repro.storage.columnar import MAGIC
from repro.timeseries.compression import (
    ChangePointSeries,
    int_column_fits,
    pack_float_column,
    pack_index_column,
    pack_int_column,
    pack_time_column,
    values_equal,
)
from repro.timeseries.record import SeriesKey

T0 = 1640995200.0  # 2022-01-01 00:00:00 UTC
ROUND = 600.0


# -- the oracles --------------------------------------------------------------

def _value_key(value):
    if type(value) is float and (value != value or value == 0.0):
        return float, repr(value)
    return type(value), value


class _Dictionary:
    """Insertion-ordered value -> index mapping."""

    def __init__(self, key=None):
        self._key = key
        self._index = {}
        self.items = []

    def index_of(self, value):
        key = self._key(value) if self._key else value
        idx = self._index.setdefault(key, len(self.items))
        if idx == len(self.items):
            self.items.append(value)
        return idx


def _value_column(vals):
    dictionary = _Dictionary(key=_value_key)
    column = pack_index_column([dictionary.index_of(v) for v in vals])
    kinds = set(map(type, vals))
    if kinds == {float} or (kinds == {int} and int_column_fits(vals)):
        raw = (pack_float_column if float in kinds else pack_int_column)(vals)
        if len(raw) < len(column) + len(json.dumps(dictionary.items)):
            return raw, []
    return column, dictionary.items


def oracle_encode(table, segment_id, level, items):
    """Sorted series items -> v3 segment bytes, one value at a time."""
    strings = _Dictionary()
    shapes = _Dictionary()
    measure, shape, slots = [], [], []
    for name in sorted({key.measure_name for key, _ in items}):
        strings.index_of(name)
    for i, (key, series) in enumerate(items):
        measure.append(strings.index_of(key.measure_name))
        dims = key.dimensions
        shape.append(shapes.index_of(
            tuple(strings.index_of(name) for name, _ in dims)))
        while len(slots) < len(dims):
            slots.append([0] * len(items))
        for slot, (_, value) in zip(slots, dims):
            slot[i] = strings.index_of(value)
    times = list(chain.from_iterable(series.times for _, series in items))
    value_column, values = _value_column(
        list(chain.from_iterable(series.values for _, series in items)))
    columns = {
        "measure": pack_index_column(measure),
        "shape": pack_index_column(shape),
        **{f"dim{k}": pack_index_column(slot)
           for k, slot in enumerate(slots)},
        "count": pack_index_column([len(s.times) for _, s in items]),
        "oc": pack_index_column([s.observation_count for _, s in items]),
        "ou": pack_time_column([s.observed_until for _, s in items]),
        "time": pack_time_column(times),
        "value": value_column,
    }
    directory, offset = {}, 0
    for name, blob in columns.items():
        directory[name] = [offset, len(blob)]
        offset += len(blob)
    header = {"format": 3, "table": table, "id": segment_id,
              "level": level, "series": len(items), "rows": len(times),
              "strings": strings.items, "shapes": shapes.items,
              "values": values, "columns": directory}
    header_raw = json.dumps(header, separators=(",", ":"),
                            sort_keys=True).encode("utf-8")
    return b"".join((MAGIC, len(header_raw).to_bytes(4, "little"),
                     header_raw, *columns.values()))


def oracle_fold(partitions):
    """Per-partition decoded items, in partition order -> the day's
    sorted items: a series' first partition whole, later rows only
    when they change the value."""
    merged: Dict[SeriesKey, ChangePointSeries] = {}
    for items in partitions:
        for key, series in items:
            into = merged.get(key)
            if into is None:
                merged[key] = ChangePointSeries(
                    times=list(series.times), values=list(series.values),
                    observed_until=series.observed_until,
                    observation_count=series.observation_count)
                continue
            for t, v in zip(series.times, series.values):
                if not values_equal(into.values[-1], v):
                    into.times.append(t)
                    into.values.append(v)
            into.observed_until = max(into.observed_until,
                                      series.observed_until)
            into.observation_count += series.observation_count
    return [(key, merged[key]) for key in
            sorted(merged, key=lambda k: (k.measure_name, k.dimensions))]


# -- drawn days ---------------------------------------------------------------

#: pair-level (2-dim), pool-level (3-dim) and one odd shape, so a file
#: mixes widths and a shorter key is a prefix of a longer one
KEYS = sorted({
    SeriesKey(measure, (("instance_type", itype), ("region", region),
                        *((("zone", region + zone),) if zone else ())))
    for measure in ("if_score", "sps", "spot_price")
    for itype in ("a.large", "a", "b.xlarge")
    for region in ("r1", "r2")
    for zone in ("", "a", "b")
} | {SeriesKey("sps", (("az", "r1a"),))},
    key=lambda k: (k.measure_name, k.dimensions))

#: the values dedup and the dictionary must tell apart, or must not
EDGE_VALUES = (0.0, -0.0, math.nan, 1, 1.0, True, "1", None, 2 ** 70,
               -(2 ** 64), 3, 1.5, "x", False, 0)

#: NaNs of three payloads (a raw column keeps each one's bits) and zeros
ODD_FLOATS = tuple(struct.unpack("<d", bytes.fromhex(bits))[0] for bits in (
    "000000000000f87f", "010000000000f87f", "000000000000f8ff",
    "0000000000000000", "0000000000000080"))

#: per file, which kind of value column its rows are drawn for
VALUE_KINDS = {
    # dictionary-coded: few distinct values of mixed types
    "edge": st.sampled_from(EDGE_VALUES),
    # raw f8: mostly distinct floats, NaN payloads and signed zeros too
    "floats": st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from(ODD_FLOATS)),
    # raw i8: mostly distinct ints that fit int64
    "ints": st.integers(-(2 ** 63), 2 ** 63 - 1),
}


@st.composite
def days(draw):
    """A day's round files: per partition, its sorted series items."""
    partitions = []
    for p in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(VALUE_KINDS)))
        keys = draw(st.lists(st.sampled_from(KEYS), unique=True,
                             max_size=len(KEYS)))
        items = []
        for key in sorted(keys, key=lambda k: (k.measure_name,
                                               k.dimensions)):
            n = draw(st.integers(1, 3))
            offsets = sorted(draw(st.lists(st.integers(0, 599), min_size=n,
                                           max_size=n)))
            times = [T0 + p * ROUND + o for o in offsets]
            values = draw(st.lists(VALUE_KINDS[kind], min_size=n,
                                   max_size=n))
            items.append((key, ChangePointSeries(
                times=times, values=values, observed_until=times[-1],
                observation_count=n + draw(st.integers(0, 2)))))
        partitions.append(items)
    return partitions


def _write_lake(root: Path, partitions) -> List[bytes]:
    """Each partition as one round file under a fresh manifest."""
    listed, blobs = [], []
    for p, items in enumerate(partitions):
        time = T0 + p * ROUND
        blob = encode_segment("lake", int(time), 0, items)
        rel = f"2022/01/01/round-{int(time)}.seg"
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(blob)
        rows = [t for _, s in items for t in s.times]
        listed.append(LakePartition(
            kind="round", path=rel, start=min(rows, default=time),
            end=max(rows, default=time), rounds=(time,), rows=len(rows),
            bytes=len(blob), sha256=hashlib.sha256(blob).hexdigest()))
        blobs.append(blob)
    (root / LAKE_MANIFEST_NAME).write_text(json.dumps({
        "format": LAKE_FORMAT, "version": 1,
        "partitions": [part.as_dict() for part in listed]}))
    return blobs


def _one_series_day(*values):
    """One pool-level series, one row per partition."""
    key = KEYS[-1]
    return [[(key, ChangePointSeries(
        times=[T0 + p * ROUND], values=[value], observed_until=T0 + p * ROUND,
        observation_count=1))] for p, value in enumerate(values)]


@settings(max_examples=150, deadline=None)
@given(days())
@example(_one_series_day(0.0, -0.0, 0.0))       # one class, two slots
@example(_one_series_day(-0.0, 0.0, 1.0))
@example(_one_series_day(math.nan, math.nan, ODD_FLOATS[2]))
@example(_one_series_day(1, 1.0, True, "1"))    # four classes
@example(_one_series_day(None, None, 2 ** 70, 2 ** 70))
def test_encoder_and_day_fold_write_the_oracles_bytes(partitions):
    for items in partitions:
        assert encode_segment("lake", 7, 0, items) == \
            oracle_encode("lake", 7, 0, items)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        blobs = _write_lake(root, partitions)
        lake = SpotDataLake(root)
        try:
            assert lake.compact(include_active=True)["days_compacted"] == 1
            (day,) = lake.partitions
            got = (root / day.path).read_bytes()
        finally:
            lake.close()
    want = oracle_encode("lake", int(T0), 1, oracle_fold(
        [SegmentCursor(blob).items() for blob in blobs]))
    assert got == want
    assert day.rows == SegmentCursor(want).header["rows"]


def test_the_draws_reach_every_value_column_kind():
    """The three kinds of input file the property means to cover."""
    floats = [(SeriesKey("m", (("k", "v"),)), ChangePointSeries(
        times=[float(i) for i in range(50)], values=[i / 7 for i in range(50)],
        observed_until=49.0, observation_count=50))]
    ints = [(key, ChangePointSeries(
        times=series.times, values=[10 ** 15 + i for i in range(50)],
        observed_until=49.0, observation_count=50))
        for key, series in floats]
    edge = [(key, ChangePointSeries(
        times=series.times[:len(EDGE_VALUES)], values=list(EDGE_VALUES),
        observed_until=49.0, observation_count=50))
        for key, series in floats]
    tags = [SegmentCursor(encode_segment("t", 1, 0, items)).header["values"]
            for items in (floats, ints, edge)]
    assert tags[0] == tags[1] == [] and len(tags[2]) == len(EDGE_VALUES)
