"""Binary columnar segments (segment format v3): a file is one table.

``file := MAGIC | header_len(u32le) | header_json | columns``

The JSON header holds the segment identity, the ``series`` and ``rows``
counts, three dictionaries -- ``strings`` (measure names, dimension
names and values), ``shapes`` (each distinct tuple of dimension names, as
string ids) and ``values`` (observation values; JSON keeps ``1``,
``1.0``, ``true`` and ``"1"`` distinct, and every NaN is one slot) --
and the ``columns`` directory of ``[offset, length]`` pairs.  Nothing in
it grows with the number of series.  The columns are self-describing
blobs of the :mod:`repro.timeseries.compression` primitives at the
narrowest exact width: per series, in canonical key order, ``measure``,
``shape``, ``dim0``, ``dim1``, ... (the value id in each dimension slot,
0 past the series' shape), ``count`` (rows), ``oc`` and ``ou``
(``observation_count`` / ``observed_until``); per row, series-major and
time-sorted within a series, one file-wide delta-packed ``time`` column
and one ``value`` column (dictionary indices, or raw float64 / int64
when every value has that type and raw is smaller for the file).

A series is one contiguous slice of the row columns, found by the prefix
sum of ``count``.  A :class:`SegmentCursor` parses only the header; each
column is copied off the buffer (with an mmap, only its pages are read),
validated -- entry count, id ranges, row order -- and decoded once per
cursor, so a malformed byte raises :class:`ColumnarFormatError` before a
row is built from it.  A scan that names its series (a
:class:`Selection`) resolves them against a :class:`SeriesIndex` grouped
out of the id columns, and the window primitive
(:meth:`SegmentCursor.scan`) cuts their rows to id columns in one
vectorised pass, so a scan costs the series it returns.

One encoder writes every file: :func:`encode_columns` takes a table as
id columns (:class:`TableColumns`) and rewrites each dictionary in
first-visit order over the canonically sorted series, so identical
content always produces identical bytes -- what the crash matrix's
byte-identity gate and the segment checksums rely on.
:func:`encode_segment` is its adapter for ``(SeriesKey,
ChangePointSeries)`` items; lake compaction hands it the columns it
folded out of :meth:`SegmentCursor.columns`.  Files, manifests and
checksums belong to :mod:`repro.storage.segments`.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from itertools import chain
from typing import (Collection, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from ..timeseries.compression import (
    ChangePointSeries,
    int_column_fits,
    pack_float_column,
    pack_index_column,
    pack_int_column,
    pack_time_column,
    unpack_time_array,
    unpack_value_array,
)
from ..timeseries.record import SeriesKey, Value

#: v3 segment file magic (8 bytes, includes the format version).
MAGIC = b"SPSEG3\r\n"

#: Bytes before the header JSON: the magic and the header length.
PREFIX_BYTES = len(MAGIC) + 4

_FORMAT = 3

#: Python types a values-dictionary entry may decode to.
_SCALARS = frozenset((str, int, float, bool, type(None)))

#: Columns every file holds, besides one ``dim<k>`` per dimension slot.
_COLUMNS = ("measure", "shape", "count", "oc", "ou", "time", "value")


class ColumnarFormatError(ValueError):
    """The buffer is not a well-formed v3 columnar segment."""


def header_bytes(prefix: bytes) -> int:
    """Bytes a segment spends before its first column, read off its
    first :data:`PREFIX_BYTES` bytes."""
    if len(prefix) < PREFIX_BYTES or prefix[:len(MAGIC)] != MAGIC:
        raise ColumnarFormatError("bad magic: not a v3 columnar segment")
    return PREFIX_BYTES + int.from_bytes(prefix[len(MAGIC):PREFIX_BYTES],
                                         "little")


def _value_key(value: Value) -> Tuple[type, object]:
    """Dictionary slot of a value: equal values of one type share a slot,
    except ``-0.0`` (kept apart from ``0.0``) and NaN (never equal to
    itself; every NaN shares one slot, as in ``values_equal``)."""
    if type(value) is float and (value != value or value == 0.0):
        return float, repr(value)
    return type(value), value


def value_id(value: Value) -> Tuple[type, object]:
    """Identity of a value in a :class:`TableColumns` dictionary: its
    :func:`_value_key` refined to the float's bits, so a raw float64
    column keeps each NaN's payload."""
    if type(value) is float and (value != value or value == 0.0):
        return float, struct.pack("<d", value)
    return type(value), value


@dataclass(frozen=True)
class TableColumns:
    """One table as id columns: what :func:`encode_columns` writes and
    :meth:`SegmentCursor.columns` reads back.

    ``strings``, ``shapes`` (tuples of string ids: each distinct tuple of
    dimension names) and ``values`` are dictionaries in any order, the
    first two without repeats; ids need not all be used.  Per series, in
    canonical key order: ``measure`` and ``dims[k]`` (string ids; past
    the series' shape, -1 or any string id), ``shape``, ``count``
    (rows), ``oc``, ``ou``.  Per row, series-major: ``time``, and
    ``value`` (ids into ``values``).
    """

    strings: Sequence[str]
    shapes: Sequence[Sequence[int]]
    values: Sequence[Value]
    measure: np.ndarray
    shape: np.ndarray
    dims: Sequence[np.ndarray]
    count: np.ndarray
    oc: np.ndarray
    ou: np.ndarray
    time: np.ndarray
    value: np.ndarray


#: first-visit position of an id never visited
_NEVER = np.iinfo(np.int64).max


def _first_visit(visits: Iterable[Tuple[np.ndarray, np.ndarray]],
                 size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Ids ``0..size-1`` in order of first visit, and each id's place in
    that order (-1 when never visited); ``visits`` are ``(ids,
    positions)`` pairs, every position distinct."""
    first = np.full(size, _NEVER, dtype=np.int64)
    for ids, at in visits:
        np.minimum.at(first, ids, at)
    order = np.flatnonzero(first != _NEVER)
    order = order[np.argsort(first[order])]
    place = np.full(size, -1, dtype=np.int64)
    place[order] = np.arange(order.size)
    return order, place


def _value_column(values: Sequence[Value], ids: np.ndarray,
                  ) -> Tuple[bytes, list]:
    """The value column of rows ``ids`` and its values dictionary,
    whichever exact encoding is smaller: dictionary indices, or raw
    float64 / int64 with no dictionary when every value has that one
    type."""
    order, place = _first_visit([(ids, np.arange(ids.size))], len(values))
    used = [values[i] for i in order.tolist()]
    slot_of: Dict[object, int] = {}
    slots = np.asarray([slot_of.setdefault(_value_key(v), len(slot_of))
                        for v in used], dtype=np.int64)
    # slots are numbered in first-visit order: each keeps its first value
    dictionary = [used[i] for i in np.unique(slots, return_index=True)[1]]
    rows = place[ids]
    column = pack_index_column(slots[rows])
    kinds = set(map(type, dictionary))
    if kinds == {float} or (kinds == {int} and int_column_fits(
            np.asarray(used, dtype=object))):
        # a raw column's length is known before it is built
        if 1 + 8 * ids.size < len(column) + len(json.dumps(dictionary)):
            pack = pack_float_column if float in kinds else pack_int_column
            return pack(np.asarray(used)[rows]), []
    return column, dictionary


def encode_columns(table: str, segment_id: int, level: int,
                   columns: TableColumns) -> bytes:
    """Serialize one table into v3 segment bytes: the one encoder.

    Each dictionary is rewritten in first-visit order -- ``strings``: the
    sorted measure names, then per series its dimension names and then
    its dimension values; ``shapes`` and ``values`` per series and per
    row -- and values that share a :func:`_value_key` slot share a
    dictionary entry.  The value column is dictionary indices, or raw
    float64 / int64 when every value has that type and raw is smaller
    for the file.
    """
    c = columns
    n_series, rows = c.measure.size, c.time.size
    widths = np.asarray([len(s) for s in c.shapes], dtype=np.int64)[c.shape]
    n_slots = int(widths.max()) if n_series else 0
    series_at = np.arange(n_series) * (2 * n_slots)
    filled = [widths > k for k in range(n_slots)]
    # the few measure names first, so their ids stay one byte wide
    measures = sorted(set(c.measure.tolist()), key=c.strings.__getitem__)

    def string_visits():
        yield (np.asarray(measures, dtype=np.int64),
               np.arange(len(measures)) - len(measures))
        for k in range(n_slots):
            names = np.asarray([s[k] if len(s) > k else 0 for s in c.shapes],
                               dtype=np.int64)[c.shape]
            at = series_at[filled[k]]
            yield names[filled[k]], at + k
            yield c.dims[k][filled[k]], at + n_slots + k
    string_order, string_of = _first_visit(string_visits(), len(c.strings))
    shape_order, shape_of = _first_visit([(c.shape, np.arange(n_series))],
                                         len(c.shapes))

    value_column, values = _value_column(c.values, c.value)
    columns_out = {
        "measure": pack_index_column(string_of[c.measure]),
        "shape": pack_index_column(shape_of[c.shape]),
        **{f"dim{k}": pack_index_column(
            np.where(filled[k], string_of[c.dims[k]], 0))
           for k in range(n_slots)},
        "count": pack_index_column(c.count),
        "oc": pack_index_column(c.oc),
        "ou": pack_time_column(c.ou),
        "time": pack_time_column(c.time),
        "value": value_column,
    }
    directory, offset = {}, 0
    for name, blob in columns_out.items():
        directory[name] = [offset, len(blob)]
        offset += len(blob)
    strings = [c.strings[i] for i in string_order.tolist()]
    shapes = [string_of[np.asarray(c.shapes[i], dtype=np.int64)].tolist()
              for i in shape_order.tolist()]
    header = {"format": _FORMAT, "table": table, "id": segment_id,
              "level": level, "series": n_series, "rows": rows,
              "strings": strings, "shapes": shapes,
              "values": values, "columns": directory}
    # compact separators keep the header small; sorted keys make the
    # bytes canonical (dictionaries are already first-visit-ordered lists)
    header_raw = json.dumps(header, separators=(",", ":"),
                            sort_keys=True).encode("utf-8")
    return b"".join((MAGIC, len(header_raw).to_bytes(4, "little"),
                     header_raw, *columns_out.values()))


def encode_segment(table: str, segment_id: int, level: int,
                   items: Sequence[Tuple[SeriesKey, ChangePointSeries]],
                   ) -> bytes:
    """Serialize sorted series items into one v3 segment byte string."""
    return encode_columns(table, segment_id, level, _item_columns(items))


def _item_columns(items: Sequence[Tuple[SeriesKey, ChangePointSeries]],
                  ) -> TableColumns:
    """Series items as id columns, in one pass."""
    strings: Dict[str, int] = {}
    shapes: Dict[Tuple[int, ...], int] = {}
    measure: List[int] = []
    shape: List[int] = []
    dims: List[List[int]] = []
    for i, (key, _) in enumerate(items):
        measure.append(strings.setdefault(key.measure_name, len(strings)))
        names = tuple(strings.setdefault(name, len(strings))
                      for name, _ in key.dimensions)
        shape.append(shapes.setdefault(names, len(shapes)))
        while len(dims) < len(names):
            dims.append([-1] * len(items))
        for slot, (_, value) in zip(dims, key.dimensions):
            slot[i] = strings.setdefault(value, len(strings))
    ids: Dict[object, int] = {}
    values: List[Value] = []

    def id_of(value: Value) -> int:
        key = value_id(value)
        at = ids.get(key)
        if at is None:
            at = ids[key] = len(values)
            values.append(value)
        return at
    rows = sum(len(series.times) for _, series in items)
    return TableColumns(
        strings=list(strings), shapes=list(shapes), values=values,
        measure=np.asarray(measure, dtype=np.int64),
        shape=np.asarray(shape, dtype=np.int64),
        dims=[np.asarray(d, dtype=np.int64) for d in dims],
        count=np.asarray([len(s.times) for _, s in items], dtype=np.int64),
        oc=np.asarray([s.observation_count for _, s in items],
                      dtype=np.int64),
        ou=np.asarray([s.observed_until for _, s in items], dtype="<f8"),
        time=np.fromiter(chain.from_iterable(s.times for _, s in items),
                         dtype="<f8", count=rows),
        value=np.fromiter(map(id_of, chain.from_iterable(
            s.values for _, s in items)), dtype=np.int64, count=rows))


@dataclass(frozen=True)
class Selection:
    """The series a scan reads, stated as data.

    Every constraint given must hold: the series' measure is
    ``measure``, it carries each ``filters`` dimension with exactly that
    value (a series lacking the dimension never matches), and its key is
    one of ``keys``.  No constraint at all selects every series.
    """

    measure: Optional[str] = None
    filters: Optional[Mapping[str, str]] = None
    #: a set or dict: resolved by membership from whichever side is smaller
    keys: Optional[Collection[SeriesKey]] = None


def _everything(selection: Optional[Selection]) -> bool:
    """True when ``selection`` constrains nothing."""
    return selection is None or (selection.measure is None
                                 and not selection.filters
                                 and selection.keys is None)


class Window(NamedTuple):
    """What a :meth:`SegmentCursor.scan` found, as id columns: the
    selected series with rows in the window (positions, ascending), each
    one's in-window row count, and those rows' positions, series-major."""

    series: np.ndarray
    counts: np.ndarray
    rows: np.ndarray


_NO_SERIES = np.empty(0, dtype=np.int32)


def _postings(codes: np.ndarray, owners: np.ndarray,
              ) -> List[Tuple[int, np.ndarray]]:
    """Per distinct code, the ascending owners carrying it."""
    order = np.lexsort((owners, codes))
    codes, owners = codes[order], owners[order].astype(np.int32)
    # select() hands a posting out as is: nobody may write through it
    owners.flags.writeable = False
    cuts = np.flatnonzero(np.diff(codes)) + 1
    heads = codes[np.concatenate(([0], cuts))].tolist() if codes.size else []
    return list(zip(heads, np.split(owners, cuts)))


class SeriesIndex:
    """Which series one segment holds, built once and never mutated:
    posting arrays (ascending positions) per measure and per
    ``(dimension, value)``, each key's position, and each series' first
    stored time (``inf`` when it has no rows)."""

    __slots__ = ("by_measure", "by_dim", "position", "first_tmin")

    def __init__(self, strings: Sequence[str], shapes: Sequence[list],
                 series: Dict[str, object], keys: Sequence[SeriesKey],
                 first_tmin: np.ndarray):
        measure, shape = series["measure"], series["shape"]
        self.by_measure = {strings[m]: found for m, found in _postings(
            measure, np.arange(measure.size))}
        # one (name id, value id) pair per series and filled slot, coded
        # as one int so a single sort groups them all
        width = len(strings)
        codes, owners = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for k, column in enumerate(series["dims"]):
            names = np.asarray([s[k] if len(s) > k else -1 for s in shapes],
                               dtype=np.int64)[shape]
            filled = np.flatnonzero(names >= 0)
            codes.append(names[filled] * width + column[filled])
            owners.append(filled)
        self.by_dim = {(strings[code // width], strings[code % width]): found
                       for code, found in _postings(np.concatenate(codes),
                                                    np.concatenate(owners))}
        self.position = {key: index for index, key in enumerate(keys)}
        self.first_tmin = first_tmin

    def select(self, selection: Selection) -> np.ndarray:
        """Positions of the selected series, ascending."""
        postings: List[np.ndarray] = []
        if selection.measure is not None:
            postings.append(self.by_measure.get(selection.measure,
                                                _NO_SERIES))
        for item in (selection.filters or {}).items():
            postings.append(self.by_dim.get(item, _NO_SERIES))
        if selection.keys is not None:
            position, keys = self.position, selection.keys
            found = [i for i in map(position.get, keys) if i is not None] \
                if len(keys) <= len(position) else \
                [index for key, index in position.items() if key in keys]
            postings.append(np.sort(np.asarray(found, dtype=np.int32)))
        # shortest posting first: each step costs the survivors so far
        postings.sort(key=len)
        out = postings[0]
        for other in postings[1:]:
            if not out.size:
                break
            out = out[other.take(other.searchsorted(out), mode="clip") == out]
        return out


class SegmentCursor:
    """Decoder over one v3 segment buffer (bytes or an mmap).

    The constructor parses and checks only the header.  A column is
    decoded on first use and published, finished and validated, with one
    assignment: two first readers may each decode it; nobody sees it
    half-built."""

    def __init__(self, buffer, memoize: bool = False):
        view = memoryview(buffer)
        self._view = view
        #: long-lived cursors (the lake keeps one per partition) keep the
        #: series keys and index; one-shot cursors build them per call
        self._memoize = memoize
        self._keys: Optional[List[SeriesKey]] = None
        self._index: Optional[SeriesIndex] = None
        #: decoded columns (and the value dictionary's float64 reading)
        self._decoded: Dict[str, object] = {}
        parsed = False
        try:
            header_end = header_bytes(bytes(view[:PREFIX_BYTES]))
            if header_end > len(view):
                raise ColumnarFormatError("truncated segment header")
            self.header = json.loads(bytes(
                view[PREFIX_BYTES:header_end]).decode("utf-8"))
            self._body = view[header_end:]
            self._check_header()
            parsed = True
        except ColumnarFormatError:
            raise
        except (ValueError, KeyError, IndexError, TypeError,
                RecursionError) as exc:
            raise ColumnarFormatError(
                f"undecodable v3 segment header: {exc}") from None
        finally:
            if not parsed:
                self.release()

    def _check_header(self) -> None:
        """Every header field typed and in range, before any use."""
        header = self.header
        if not isinstance(header, dict) or header.get("format") != _FORMAT:
            raise ColumnarFormatError("not a v3 segment header")
        strings, shapes = header["strings"], header["shapes"]
        values, directory = header["values"], header["columns"]
        series, rows = header["series"], header["rows"]
        # a series or a row costs at least a byte: no count outgrows the file
        if not (isinstance(values, list) and isinstance(directory, dict)
                and isinstance(strings, list) and isinstance(shapes, list)
                and _is_count(series) and series <= len(self._body)
                and _is_count(rows) and rows <= len(self._body)
                and all(type(s) is str for s in strings)
                and all(type(v) in _SCALARS for v in values)
                and all(isinstance(s, list) and all(
                    _is_count(i) and i < len(strings) for i in s)
                    for s in shapes)):
            raise ColumnarFormatError("malformed segment header")
        self._slots = max(map(len, shapes), default=0)
        for name in (*_COLUMNS, *(f"dim{k}" for k in range(self._slots))):
            entry = directory.get(name)
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(map(_is_count, entry))
                    and entry[0] + entry[1] <= len(self._body)):
                raise ColumnarFormatError(
                    f"column {name!r} is missing or outside the file")
        self._strings, self._shapes, self._values = strings, shapes, values
        self._directory, self._n_series, self._n_rows = \
            directory, series, rows

    def release(self) -> None:
        """Drop the buffer views so an underlying mmap can close (the
        decoded columns are copies).  Idempotent, and safe on a
        half-constructed cursor."""
        body = getattr(self, "_body", None)
        if body is not None:
            body.release()
        self._view.release()
        self._keys = None
        self._index = None
        self._decoded = {}

    def __enter__(self) -> "SegmentCursor":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def _column(self, name: str, size: int, time: bool = False,
                bound: Optional[int] = None) -> Tuple[bool, np.ndarray]:
        """Column ``name`` copied off the buffer and unpacked: whether it
        holds dictionary indices, and its ``size`` entries -- NaN-free
        when ``time``, integers in ``[0, bound)`` when ``bound`` is set."""
        offset, length = self._directory[name]
        blob = bytes(self._body[offset:offset + length])
        try:
            is_index, column = (False, unpack_time_array(blob)) if time \
                else unpack_value_array(blob)
        except ValueError as exc:
            raise ColumnarFormatError(f"column {name!r}: {exc}") from None
        if column.size != size:
            raise ColumnarFormatError(f"column {name!r} holds {column.size}"
                                      f" entries, the header says {size}")
        if (time and np.isnan(column).any()) or bound is not None and (
                column.dtype.kind not in "ui" or column.size and (
                    int(column.min()) < 0 or int(column.max()) >= bound)):
            raise ColumnarFormatError(f"column {name!r} is out of range")
        return is_index, column

    def _series_columns(self) -> Dict[str, object]:
        """The per-series columns as int64 ids, plus ``starts``: each
        series' first row, and one past the last row at the end."""
        series = self._decoded.get("series")
        if series is None:
            def ids(name, bound):
                return self._column(name, self._n_series,
                                    bound=bound)[1].astype(np.int64)
            counts = ids("count", self._n_rows + 1)
            starts = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            if int(starts[-1]) != self._n_rows:
                raise ColumnarFormatError("series rows do not add up to "
                                          f"the header's {self._n_rows}")
            series = self._decoded["series"] = {
                "measure": ids("measure", len(self._strings)),
                "shape": ids("shape", len(self._shapes)),
                "dims": [ids(f"dim{k}", len(self._strings))
                         for k in range(self._slots)],
                "count": counts, "starts": starts, "oc": ids("oc", 1 << 63),
                "ou": self._column("ou", self._n_series, time=True)[1]}
        return series

    def _time_column(self) -> np.ndarray:
        """Every row's timestamp, checked sorted within each series."""
        times = self._decoded.get("time")
        if times is None:
            starts = self._series_columns()["starts"]
            _, times = self._column("time", self._n_rows, time=True)
            backwards = np.diff(times) < 0
            # a series may start earlier than the previous one ended
            backwards[starts[(starts > 0) & (starts < times.size)] - 1] = 0
            if backwards.any() or not np.isfinite(times).all():
                raise ColumnarFormatError(
                    "column 'time' is out of order within a series")
            self._decoded["time"] = times
        return times

    def _value_column(self) -> Tuple[bool, np.ndarray]:
        raw = self._decoded.get("value")
        if raw is None:
            raw = self._column("value", self._n_rows)
            if raw[0] and raw[1].size and raw[1].max() >= len(self._values):
                raise ColumnarFormatError("value index past the dictionary")
            self._decoded["value"] = raw
        return raw

    def values_at(self, rows) -> List[Value]:
        """The values at row positions ``rows``, one Python object per
        row (a dictionary-coded value is the dictionary's own object)."""
        is_index, column = self._value_column()
        picked = column[rows].tolist()
        return [self._values[i] for i in picked] if is_index else picked

    def columns(self) -> TableColumns:
        """The whole table as id columns, with no per-series Python
        object: what compaction folds.  A raw value column becomes ids
        into a dictionary of its distinct values, told apart by their
        bits."""
        series = self._series_columns()
        is_index, column = self._value_column()
        if is_index:
            values, value = self._values, column.astype(np.int64)
        else:
            distinct, value = np.unique(column.view("<i8"),
                                        return_inverse=True)
            values = distinct.view(column.dtype).tolist()
        return TableColumns(
            strings=self._strings, shapes=self._shapes, values=values,
            measure=series["measure"], shape=series["shape"],
            dims=series["dims"], count=series["count"],
            oc=series["oc"], ou=series["ou"], time=self._time_column(),
            value=value)

    def _build_keys(self, at) -> List[SeriesKey]:
        series = self._series_columns()
        strings = self._strings
        names = [tuple(strings[i] for i in shape) for shape in self._shapes]
        known: Dict[tuple, tuple] = {}
        out = []
        for m, ids in zip(series["measure"][at].tolist(),
                          zip(series["shape"][at].tolist(),
                              *(d[at].tolist() for d in series["dims"]))):
            dims = known.get(ids)
            if dims is None:
                dims = known[ids] = tuple(zip(
                    names[ids[0]], (strings[v] for v in ids[1:])))
            out.append(SeriesKey(strings[m], dims))
        return out

    def keys(self) -> List[SeriesKey]:
        """Every series key in file order (kept by a memoized cursor)."""
        keys = self._keys
        if keys is None:
            keys = self._build_keys(slice(None))
            if self._memoize:
                self._keys = keys
        return keys

    def _keys_at(self, at: np.ndarray) -> List[SeriesKey]:
        if self._memoize:
            keys = self.keys()
            return [keys[i] for i in at.tolist()]
        return self._build_keys(at)

    def series_index(self) -> SeriesIndex:
        """The segment's :class:`SeriesIndex`, built on first use; a
        memoized cursor publishes the finished index with one assignment,
        a one-shot cursor builds it per call."""
        index = self._index
        if index is None:
            series = self._series_columns()
            starts = series["starts"]
            first_tmin = np.full(self._n_series, math.inf)
            filled = starts[1:] > starts[:-1]
            first_tmin[filled] = self._time_column()[starts[:-1][filled]]
            index = SeriesIndex(self._strings, self._shapes, series,
                                self.keys(), first_tmin)
            if self._memoize:
                self._index = index
        return index

    def select(self, selection: Optional[Selection]) -> np.ndarray:
        """Positions of the series a scan of ``selection`` visits,
        ascending."""
        if _everything(selection):
            return np.arange(self._n_series)
        return self.series_index().select(selection)

    def items(self) -> List[Tuple[SeriesKey, ChangePointSeries]]:
        """Decode every series -- the full read (recovery, the content
        digest)."""
        series = self._series_columns()
        bounds = series["starts"].tolist()
        times = self._time_column().tolist()
        values = self.values_at(slice(None))
        return [(key, ChangePointSeries(
                    times=times[lo:hi], values=values[lo:hi],
                    observed_until=until, observation_count=count))
                for key, lo, hi, until, count in zip(
                    self.keys(), bounds, bounds[1:], series["ou"].tolist(),
                    series["oc"].tolist())]

    def scan(self, start: float = -math.inf, end: float = math.inf,
             select: Optional[Selection] = None,
             counters: Optional[Dict[str, int]] = None) -> Window:
        """The window primitive: the rows of the ``select``-ed series (all
        when None) inside ``[start, end]``, as id columns.  ``counters``
        accumulates ``chunks_decoded`` / ``chunks_pruned`` (selected
        series with / with no rows in the window; one with no rows at
        all is neither) and ``rows_decoded``."""
        series = self._series_columns()
        at = self.select(select)
        counts = held = series["count"][at]
        rows = spans(series["starts"][at], counts)
        if start != -math.inf or end != math.inf:
            times = self._time_column()[rows]
            inside = (times >= start) & (times <= end)
            rows = rows[inside]
            counts = np.bincount(np.arange(at.size).repeat(counts)[inside],
                                 minlength=at.size)
        found = counts > 0
        if counters is not None:
            for name, count in (
                    ("chunks_pruned",
                     int(np.count_nonzero((held > 0) & ~found))),
                    ("chunks_decoded", int(np.count_nonzero(found))),
                    ("rows_decoded", rows.size)):
                counters[name] = counters.get(name, 0) + count
        return Window(at[found], counts[found], rows)

    def scan_columns(self, start: float = -math.inf, end: float = math.inf,
                     select: Optional[Selection] = None,
                     counters: Optional[Dict[str, int]] = None,
                     ) -> Tuple[List[SeriesKey], np.ndarray, np.ndarray,
                                List[Value]]:
        """A :meth:`scan` window decoded: ``(keys, counts, times,
        values)`` -- the keys of the series with rows in the window (file
        order), their row counts, and the rows' times and values."""
        window = self.scan(start, end, select, counters)
        return (self._keys_at(window.series), window.counts,
                self._time_column()[window.rows],
                self.values_at(window.rows))


def spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] .. starts[i] + counts[i] - 1`` of every
    span, concatenated."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + \
        (starts - ends + counts).repeat(counts)


def _is_count(value: object) -> bool:
    """A non-negative plain int (JSON ``true`` is not a count)."""
    return type(value) is int and value >= 0
