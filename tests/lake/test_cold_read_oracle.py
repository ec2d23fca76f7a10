"""The lake's cold readers against their oracle.

The oracle is the four readers as they stood when each kept its own
reconstruction -- ``change_points`` (per-partition row tuples merged by
``heapq.merge``, deduped with ``values_equal``), ``scan_column_arrays``
(float columns concatenated in partition-start order, deduped in the
float domain), ``latest_values`` and ``round_snapshot`` (each series'
last row at or before a time) -- copied here verbatim but for two
things: their per-partition reads are rebuilt from ``cursor.items()``,
and ``change_points`` takes its baseline from the last row before the
window rather than the first of the latest equal-time rows, which a day
file holds when two round files tied (the old rule answered differently
once such a day was compacted).

For lakes built through ``append_round`` -- a keyframe plus deltas
across a UTC midnight, series first seen in a delta, empty deltas,
mid-day gaps, row times that tie across adjacent partitions, closed days
after ``compact()`` and ``compact(include_active=True)`` -- every live
reader must answer exactly what the oracle answers: ``Record`` lists
with their order and value types, ``latest_values``, every page of
every round snapshot, and -- for draws with one numeric type per
series, as every dataset stores -- ``TierColumns`` bit for bit with the
same counters.
"""

import dataclasses
import heapq
import math
import struct
import tempfile
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lake import DATASETS, RoundMerger, SpotDataLake
from repro.lake.schema import (
    IF_SCORE_MEASURE,
    INTERRUPTION_RATIO_MEASURE,
    KeyMemo,
    MEASURE_SLOTS,
    PRICE_MEASURE,
    SAVINGS_MEASURE,
    SPS_MEASURE,
    empty_rows,
)
from repro.lake.store import _WIDE_MEASURES, lake_day
from repro.storage.columnar import Selection
from repro.timeseries.compression import values_equal
from repro.timeseries.record import Record, SeriesKey, Value
from repro.timeseries.vector import TierColumns

#: 2022-01-01 00:00:00 UTC: the draws cross this midnight
MIDNIGHT = 1640995200
ROUND = 600


# -- per-partition reads, rebuilt from cursor.items() -------------------------

def _selected(key: SeriesKey, select: Optional[Selection]) -> bool:
    """The series a :class:`Selection` names (see its docstring)."""
    if select is None:
        return True
    dims = dict(key.dimensions)
    return (select.measure in (None, key.measure_name)
            and all(dims.get(name) == value
                    for name, value in (select.filters or {}).items())
            and (select.keys is None or key in select.keys))


def _scan(cursor, start=-math.inf, end=math.inf, select=None):
    """Per selected series, its rows inside ``[start, end]``."""
    out = []
    for key, series in cursor.items():
        rows = [(t, v) for t, v in zip(series.times, series.values)
                if start <= t <= end]
        if rows and _selected(key, select):
            out.append((key, rows))
    return out


def _last_rows(cursor, end=math.inf, select=None):
    """Per selected series, its last ``(key, time, value)`` at or before
    ``end``."""
    return [(key, *rows[-1]) for key, rows in
            _scan(cursor, -math.inf, end, select)]


def _scan_columns(cursor, start=-math.inf, end=math.inf, select=None,
                  counters=None):
    """``_scan`` as float columns, with the chunk counters."""
    keys, counts, times, values = [], [], [], []
    pruned = 0
    for key, series in cursor.items():
        if not _selected(key, select) or not series.times:
            continue
        rows = [(t, v) for t, v in zip(series.times, series.values)
                if start <= t <= end]
        pruned += not rows
        if rows:
            keys.append(key)
            counts.append(len(rows))
            times += [t for t, _ in rows]
            values += [v for _, v in rows]
    if not all(isinstance(v, (int, float)) for v in values):
        raise TypeError("column scan over non-numeric series values")
    if counters is not None:
        for name, count in (("chunks_pruned", pruned),
                            ("chunks_decoded", len(keys)),
                            ("rows_decoded", len(times))):
            counters[name] = counters.get(name, 0) + count
    return (keys, np.asarray(counts, dtype=np.int64),
            np.asarray(times, dtype="<f8"),
            np.asarray([float(v) for v in values], dtype="<f8"))


# -- the oracle readers --------------------------------------------------------

def _merge_runs(runs: List[List[Tuple[float, Value]]],
                ) -> List[Tuple[float, Value]]:
    if len(runs) == 1:
        return runs[0]
    return list(heapq.merge(*runs, key=itemgetter(0)))


def oracle_change_points(self, measure: str, filters: Dict[str, str],
                         start: float, end: float) -> List[Record]:
    parts = self.partitions
    select = Selection(measure, filters)
    per_key: Dict[SeriesKey, List[List[Tuple[float, Value]]]] = {}
    for part in parts:
        if part.end < start or part.start > end:
            continue
        for key, rows in _scan(self._cursor(part), start, end, select):
            per_key.setdefault(key, []).append(rows)
    if not per_key:
        return []

    baseline: Dict[SeriesKey, Value] = {}
    unresolved = dict.fromkeys(per_key)
    if start != float("-inf"):
        for part in reversed(parts):
            if not unresolved:
                break
            if part.start >= start:
                continue
            found = _scan(self._cursor(part), float("-inf"), start,
                          Selection(keys=unresolved))
            for key, rows in found:
                rows = [r for r in rows if r[0] < start]
                if rows and key not in baseline:
                    # the one change to the copy: the last row before the
                    # window (was ``max(rows, key=time)``, the first of
                    # equal-time rows; see the test at the end)
                    baseline[key] = rows[-1][1]
                    unresolved.pop(key, None)

    out: List[Record] = []
    for key in sorted(per_key, key=lambda k: (k.measure_name,
                                              k.dimensions)):
        rows = _merge_runs(per_key[key])
        has_prev = key in baseline
        prev = baseline.get(key)
        for t, v in rows:
            if not has_prev or not values_equal(prev, v):
                out.append(Record(key.dimensions, key.measure_name, v, t))
            prev, has_prev = v, True
    out.sort(key=lambda r: r.time)
    return out


def oracle_scan_column_arrays(self, measure: str, filters: Dict[str, str],
                              start: float, end: float,
                              universe: Sequence[SeriesKey],
                              counters: Optional[Dict[str, int]] = None,
                              ) -> TierColumns:
    n = len(universe)
    cols = TierColumns.empty(n)
    index_of = {key: i for i, key in enumerate(universe)}
    select = Selection(measure, filters)
    parts = sorted(self.partitions, key=lambda p: (p.start, p.path))
    runs_t: List[List[np.ndarray]] = [[] for _ in range(n)]
    runs_v: List[List[np.ndarray]] = [[] for _ in range(n)]
    for part in parts:
        if part.end < start or part.start > end:
            if counters is not None:
                counters["partitions_pruned"] = \
                    counters.get("partitions_pruned", 0) + 1
            continue
        keys, counts, times, values = _scan_columns(
            self._cursor(part), start, end, select, counters=counters)
        offset = 0
        for j, key in enumerate(keys):
            cnt = int(counts[j])
            i = index_of.get(key)
            if i is not None:
                runs_t[i].append(times[offset:offset + cnt])
                runs_v[i].append(values[offset:offset + cnt])
            offset += cnt

    if start != float("-inf"):
        unresolved = dict.fromkeys(universe)
        for part in reversed(parts):
            if not unresolved:
                break
            if part.start >= start:
                continue
            keys, counts, times, values = _scan_columns(
                self._cursor(part), float("-inf"), start,
                Selection(keys=unresolved), counters=counters)
            offset = 0
            for j, key in enumerate(keys):
                cnt = int(counts[j])
                seg_t = times[offset:offset + cnt]
                seg_v = values[offset:offset + cnt]
                offset += cnt
                hi = int(np.searchsorted(seg_t, start, side="left"))
                i = index_of.get(key)
                if hi and i is not None and not cols.has_base[i]:
                    cols.has_base[i] = True
                    cols.base_values[i] = seg_v[hi - 1]
                    unresolved.pop(key, None)

    t_parts: List[np.ndarray] = []
    v_parts: List[np.ndarray] = []
    for i in range(n):
        if not runs_t[i]:
            continue
        raw_t = np.concatenate(runs_t[i])
        raw_v = np.concatenate(runs_v[i])
        m = raw_t.size
        prev = np.empty(m)
        prev[1:] = raw_v[:-1]
        prev[0] = cols.base_values[i]
        keep = ~((raw_v == prev)
                 | (np.isnan(raw_v) & np.isnan(prev)))
        if not cols.has_base[i]:
            keep[0] = True
        kept = int(np.count_nonzero(keep))
        if kept:
            cols.counts[i] = kept
            t_parts.append(raw_t[keep])
            v_parts.append(raw_v[keep])
    if t_parts:
        cols.times = np.concatenate(t_parts)
        cols.values = np.concatenate(v_parts)
    return cols


def oracle_latest_values(self) -> List[Tuple[SeriesKey, Value]]:
    latest: Dict[SeriesKey, Tuple[float, Value]] = {}
    for part in self.partitions:
        for key, t, v in _last_rows(self._cursor(part)):
            current = latest.get(key)
            if current is None or t >= current[0]:
                latest[key] = (t, v)
    return [(key, latest[key][1]) for key in
            sorted(latest, key=lambda k: (k.measure_name, k.dimensions))]


def oracle_round_snapshot(self, time: float, offset: int = 0,
                          limit: Optional[int] = None,
                          ) -> Tuple[int, List[dict]]:
    time = float(time)
    day = lake_day(time)
    parts = [p for p in self.partitions if p.day == day]
    if not any(time in part.rounds for part in parts):
        raise KeyError(f"no archived round at t={time!r}")
    parts = [p for p in parts if p.start <= time]

    runs = [run for run in (self._open(part).wide_rows().upto(time)
                            for part in parts) if run]
    held = max(runs, key=len, default=[])
    if len(runs) > 1:
        extras = set().union(*(run for run in runs if run is not held)
                             ).difference(held)
        if extras:
            held = sorted([*held, *extras])
    universe = [coords for coords, after in zip(held, [*held[1:], None])
                if coords[2] or after is None or after[:2] != coords[:2]]
    page = universe[offset:] if limit is None \
        else universe[offset:offset + limit]

    memos = {table: KeyMemo(dataset)
             for table, dataset in DATASETS.items()}
    fields = [(memos[dataset.table], len(dataset.dims), slot)
              for dataset, slot in (MEASURE_SLOTS[measure]
                                    for measure in _WIDE_MEASURES)]
    page_keys: List[List[Optional[SeriesKey]]] = [
        [keys_at[coords[:width]][slot] if all(coords[:width]) else None
         for keys_at, width, slot in fields]
        for coords in page]
    wanted = {key for keys in page_keys for key in keys
              if key is not None}
    resolved: Dict[SeriesKey, Value] = {}
    for part in parts:
        for key, _, value in _last_rows(self._cursor(part), time,
                                        Selection(keys=wanted)):
            resolved[key] = value
    return len(universe), [
        {"instance_type": itype, "region": region, "zone": zone or None,
         **{measure: resolved.get(key)
            for measure, key in zip(_WIDE_MEASURES, keys)}}
        for (itype, region, zone), keys in zip(page, page_keys)]


# -- comparing answers ---------------------------------------------------------

def _value(v):
    """A value as its type, repr and (for a float) bits: NaN compares
    equal to NaN, and 0.0 / -0.0 / 1 / 1.0 / True / "1" all differ."""
    return type(v), repr(v), struct.pack("<d", v) if type(v) is float \
        else None


def _records(records):
    return [(r.time, r.measure_name, r.dimensions, _value(r.value))
            for r in records]


def _columns(cols):
    return (cols.counts.tolist(), cols.times.view("<i8").tolist(),
            cols.values.view("<i8").tolist(),
            cols.base_values.view("<i8").tolist(), cols.has_base.tolist())


def _latest(pairs):
    return [(key, _value(v)) for key, v in pairs]


def _snapshot(answer):
    total, rows = answer
    return total, [{name: _value(v) for name, v in row.items()}
                   for row in rows]


# -- the draws -----------------------------------------------------------------

TYPES = ("a.large", "b.large")
REGIONS = ("r1", "r2")
ZONES = ("a", "b")
POOLS = tuple((t, r, r + z) for t in TYPES for r in REGIONS for z in ZONES)
PAIRS = tuple(dict.fromkeys(pool[:2] for pool in POOLS))

#: per measure of the numeric draws, one type: what every dataset stores
NUMERIC = {
    "sps": st.sampled_from((1, 2, 3, 2 ** 40)),
    "ints": st.sampled_from((0, 10, 25)),
    # long reprs make a price-only delta's raw float64 column the smaller
    "floats": st.one_of(st.sampled_from((0.0, -0.0, math.nan, 1.5, 0.25)),
                        st.floats(allow_nan=False)),
}
#: values ``values_equal`` must tell apart, or must not
EDGE = st.sampled_from((None, True, False, "1", 1, 1.0, 0.0, -0.0, math.nan,
                        "x", 2))


def _keep(value):
    return value


@st.composite
def rounds(draw):
    """Collection rounds (time, per-dataset rows, changed subset) and
    where ``compact()`` runs between them."""
    edge = draw(st.booleans(), label="edge values")

    def value(kind):
        return draw(EDGE if edge else NUMERIC[kind])

    steps = []
    first = MIDNIGHT - ROUND * draw(st.integers(0, 3))
    prev = first - ROUND
    for n in range(draw(st.integers(1, 7))):
        time = first + n * ROUND
        rows = empty_rows()
        # a pool not observed this round is a mid-day gap, or a series
        # first seen in a later delta
        for pool in draw(st.one_of(st.just(POOLS), st.lists(
                st.sampled_from(POOLS), unique=True, max_size=len(POOLS)))):
            # a row stamped at the previous round's time ties across
            # the two partitions
            t = draw(st.sampled_from((prev, prev + 1, time)))
            rows["sps"].append((*pool, value("sps"), t))
            rows["price"].append((*pool, value("floats"), t))
        for pair in draw(st.lists(st.sampled_from(PAIRS), unique=True,
                                  max_size=len(PAIRS))):
            rows["advisor"].append((*pair, value("floats"), value("floats"),
                                    value("ints"), time))
        # what the differ found changed: a price-only delta can store a
        # raw float64 value column
        tables = draw(st.sampled_from((("sps", "advisor", "price"),
                                       ("price",), ())))
        changed = {table: [r for r in observed if table in tables
                           and draw(st.booleans())]
                   for table, observed in rows.items()}
        steps.append(("round", time, rows, changed))
        if draw(st.integers(0, 3)) == 0:
            steps.append(("compact", draw(st.booleans())))
        prev = time
    if draw(st.booleans()):
        steps.append(("compact", True))
    return edge, steps


def _build(root: Path, steps, monkeypatch) -> SpotDataLake:
    # archive every drawn value as it is, with no per-measure cast
    for table, dataset in list(DATASETS.items()):
        monkeypatch.setitem(DATASETS, table, dataclasses.replace(
            dataset, measures=tuple((m, _keep) for m, _ in dataset.measures)))
    lake = SpotDataLake(root)
    for step in steps:
        if step[0] == "compact":
            lake.compact(include_active=step[1])
            continue
        _, time, rows, changed = step
        if not any(rows.values()):
            continue
        merger = RoundMerger()
        for table, observed in rows.items():
            merger.add(table, observed)
        lake.append_round(merger.take_round(time), changed)
    return lake


def _windows(lake: SpotDataLake):
    """±inf, exact row times, windows inside a gap and before the first
    row."""
    times = sorted({t for part in lake.partitions
                    for _, series in lake._cursor(part).items()
                    for t in series.times})
    out = [(-math.inf, math.inf)]
    if not times:
        return out
    out += [(times[0] - 100.0, times[0] - 1.0), (-math.inf, times[0]),
            (times[-1], math.inf)]
    for a, b in zip(times, times[1:]):
        out += [(a, a), (a, b), (a + 0.5, b - 0.5), (b, math.inf),
                (-math.inf, a)]
    return out


def _selections(lake: SpotDataLake):
    out = []
    for measure in (SPS_MEASURE, PRICE_MEASURE, SAVINGS_MEASURE,
                    INTERRUPTION_RATIO_MEASURE, IF_SCORE_MEASURE):
        out += [(measure, {}), (measure, {"InstanceType": TYPES[0]}),
                (measure, {"Region": REGIONS[1]}),
                (measure, {"AvailabilityZone": POOLS[0][2]}),
                (measure, dict(zip(("InstanceType", "Region",
                                    "AvailabilityZone"), POOLS[-1])))]
    return out


def _check(lake: SpotDataLake, edge: bool, data) -> None:
    windows = [(-math.inf, math.inf), *data.draw(st.lists(
        st.sampled_from(_windows(lake)), unique=True, max_size=5),
        label="windows")]
    for window in windows:
        for measure, filters in _selections(lake):
            assert _records(lake.change_points(measure, filters, *window)) \
                == _records(oracle_change_points(lake, measure, filters,
                                                 *window))
    keys = sorted({key for part in lake.partitions
                   for key in lake._cursor(part).keys()},
                  key=lambda k: (k.measure_name, k.dimensions))
    foreign = SeriesKey(SPS_MEASURE, (("InstanceType", "none"),))
    # one numeric type per series, as every dataset stores: there the
    # float-domain dedup and ``values_equal`` agree
    for window in windows if not edge else ():
        (measure, filters), universe = data.draw(st.tuples(
            st.sampled_from(_selections(lake)),
            st.lists(st.sampled_from([*keys, foreign]), unique=True)),
            label="column selection")
        live, want = {}, {}
        assert _columns(lake.scan_column_arrays(
            measure, filters, *window, universe, live)) == \
            _columns(oracle_scan_column_arrays(
                lake, measure, filters, *window, universe, want))
        assert live == want
    assert _latest(lake.latest_values()) == \
        _latest(oracle_latest_values(lake))
    for time in lake.round_times():
        total, _ = oracle_round_snapshot(lake, time)
        for offset in range(total + 1):
            for limit in (None, 2):
                assert _snapshot(lake.round_snapshot(time, offset, limit)) \
                    == _snapshot(oracle_round_snapshot(lake, time, offset,
                                                       limit))


@settings(max_examples=150, deadline=None)
@given(drawn=rounds(), data=st.data())
def test_the_live_readers_answer_what_the_oracle_answers(drawn, data):
    edge, steps = drawn
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() \
            as monkeypatch:
        lake = _build(Path(tmp), steps, monkeypatch)
        try:
            _check(lake, edge, data)
        finally:
            lake.close()


def test_a_compacted_tie_answers_what_its_round_files_answered(tmp_path):
    """Two round files hold one series at one time with two values; the
    day file keeps both, in partition order.  The value in force after
    that time is the later one, before and after compaction."""
    lake = SpotDataLake(tmp_path)
    pool = ("a.large", "r1", "r1a")
    for time, value, at in ((MIDNIGHT, 1, MIDNIGHT),
                            (MIDNIGHT + ROUND, 2, MIDNIGHT),
                            (MIDNIGHT + 2 * ROUND, 1, MIDNIGHT + 2 * ROUND)):
        merger = RoundMerger()
        merger.add("sps", [(*pool, value, at)])
        merged = merger.take_round(time)
        lake.append_round(merged, merged.rows)
    window = (MIDNIGHT + 100.0, math.inf)
    want = [(MIDNIGHT + 2.0 * ROUND, 1)]
    try:
        for compact in (False, True):
            if compact:
                lake.compact(include_active=True)
                assert [p.kind for p in lake.partitions] == ["day"]
            for read in (lake.change_points, partial(oracle_change_points,
                                                     lake)):
                assert [(r.time, r.value) for r in read(
                    SPS_MEASURE, {}, *window)] == want
    finally:
        lake.close()
