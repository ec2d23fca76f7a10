"""Binary columnar segment bodies (segment format v2).

The v1 segment codec is JSON-lines: one line per series with the full
change-point arrays spelled out in text.  Parsing it dominates cold
reads and the text encoding bloats disk.  Format v2 keeps the same
*logical* content -- the exact state of every flushed series, sorted by
series key -- but lays it out columnar and binary:

``file := MAGIC | header_len(u32le) | header_json | body``

* **Header** -- one JSON object (parsed with the C decoder in a single
  call) holding the segment identity, two dictionaries, and per-series
  descriptors.  ``strings`` dictionary-encodes every measure name,
  dimension name and dimension value in the segment; ``values``
  dictionary-encodes non-numeric / low-cardinality observation values
  (JSON preserves their concrete types: ``1``, ``1.0``, ``true`` and
  ``"1"`` stay distinct).
* **Body** -- per series, the time and value columns split into *chunks*
  of at most ``chunk_points`` rows.  Time columns are delta-encoded
  against the first timestamp at the narrowest integer width that
  round-trips exactly (raw float64 otherwise); value columns are raw
  float64 / int64 when a chunk is type-homogeneous and high-cardinality,
  dictionary indices at the narrowest unsigned width otherwise (see
  :mod:`repro.timeseries.compression` for the column primitives).
* **Zone maps** -- every chunk descriptor carries ``[tmin, tmax]``, so a
  time-range scan touches only the chunk byte ranges that can overlap
  the query window; with an mmap-backed buffer the skipped chunks are
  never read off disk at all.  This is the predicate pushdown that lifts
  cold full-archive sweeps (and the serving front end's read ceiling).
* **Series index** -- a scan that names its series (a :class:`Selection`:
  measure, exact-match dimension filters and/or an explicit key set)
  resolves them against a :class:`SeriesIndex` built lazily from the
  parsed header: posting arrays of descriptor indices per measure and
  per ``(dimension, value)``, intersected shortest first, so the scan
  costs the series it returns rather than the series the file holds.
  Nothing is stored for it; an unfiltered scan never builds it.

Encoding is deterministic: dictionaries are populated in first-visit
order over the (already canonically sorted) series items, so identical
logical content always produces identical bytes -- the property the
crash matrix's byte-identity gate and segment checksums rely on.

This module deliberately knows nothing about files, manifests or
checksums; :mod:`repro.storage.segments` owns naming, atomic publish and
validation, and dispatches between the v1 and v2 codecs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..timeseries.compression import (
    ChangePointSeries,
    int_column_fits,
    pack_float_column,
    pack_index_column,
    pack_int_column,
    pack_time_column,
    unpack_time_array,
    unpack_time_column,
    unpack_value_array,
    unpack_value_column,
)
from ..timeseries.record import SeriesKey, Value

#: v2 segment file magic (8 bytes, includes the format version).
MAGIC = b"SPSEG2\r\n"

#: Rows per column chunk: the zone-map granularity.  Small enough that a
#: narrow time window decodes only a sliver of a long series, large
#: enough that numpy's per-call overhead amortizes.
DEFAULT_CHUNK_POINTS = 512

#: Chunks whose value column has at most this many distinct values are
#: dictionary-encoded regardless of type (1-2 bytes per row beats 8).
_DICT_MAX_DISTINCT = 64


class ColumnarFormatError(ValueError):
    """The buffer is not a well-formed v2 columnar segment."""


def _value_key(value: Value) -> Tuple[str, str]:
    """Hashable dictionary key distinguishing type and NaN.

    ``repr`` of a float is its shortest exact round-trip, so distinct
    float values map to distinct keys while every NaN collapses to one
    dictionary slot (matching ``values_equal`` semantics).
    """
    return (type(value).__name__, repr(value))


class _Dictionary:
    """Insertion-ordered value -> index mapping with O(1) lookup."""

    def __init__(self, key=None):
        self._key = key
        self._index: Dict[object, int] = {}
        self.items: List[object] = []

    def index_of(self, value):
        key = self._key(value) if self._key else value
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.items)
            self._index[key] = idx
            self.items.append(value)
        return idx


def _encode_value_chunk(chunk: Sequence[Value],
                        dictionary: _Dictionary) -> bytes:
    """Pick the cheapest exact encoding for one value chunk."""
    distinct = {_value_key(v) for v in chunk}
    if len(distinct) > _DICT_MAX_DISTINCT:
        if all(type(v) is float for v in chunk):
            return pack_float_column(chunk)
        if all(type(v) is int for v in chunk) and int_column_fits(chunk):
            return pack_int_column(chunk)
    return pack_index_column([dictionary.index_of(v) for v in chunk])


def encode_segment(table: str, segment_id: int, level: int,
                   items: Sequence[Tuple[SeriesKey, ChangePointSeries]],
                   chunk_points: int = DEFAULT_CHUNK_POINTS) -> bytes:
    """Serialize sorted series items into one v2 segment byte string."""
    strings = _Dictionary()
    values = _Dictionary(key=_value_key)
    body = bytearray()
    descriptors = []
    for key, series in items:
        times, vals = series.times, series.values
        chunks = []
        for lo in range(0, len(times), chunk_points):
            hi = min(lo + chunk_points, len(times))
            t_blob = pack_time_column(times[lo:hi])
            v_blob = _encode_value_chunk(vals[lo:hi], values)
            t_off = len(body)
            body.extend(t_blob)
            v_off = len(body)
            body.extend(v_blob)
            chunks.append([hi - lo, times[lo], times[hi - 1],
                           t_off, len(t_blob), v_off, len(v_blob)])
        dims = []
        for name, value in key.dimensions:
            dims.append(strings.index_of(name))
            dims.append(strings.index_of(value))
        descriptors.append({
            "m": strings.index_of(key.measure_name),
            "d": dims,
            "ou": series.observed_until,
            "oc": series.observation_count,
            "n": len(times),
            "ch": chunks,
        })
    header = {
        "format": 2,
        "table": table,
        "id": segment_id,
        "level": level,
        "series": len(items),
        "strings": strings.items,
        "values": values.items,
        "desc": descriptors,
    }
    # compact separators keep the header small; sorted keys make the
    # bytes canonical (dictionaries are already insertion-ordered lists)
    header_raw = json.dumps(header, separators=(",", ":"),
                            sort_keys=True).encode("utf-8")
    return b"".join((MAGIC, len(header_raw).to_bytes(4, "little"),
                     header_raw, bytes(body)))


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


_NO_SERIES = np.empty(0, dtype=np.int32)


class SeriesIndex:
    """Which series one segment holds, built once and never mutated.

    ``by_measure`` / ``by_dim`` are posting arrays: the ascending
    descriptor indices of the series with that measure / that
    ``(dimension, value)`` pair.  ``position`` maps each key to its
    descriptor index, and ``first_tmin`` is each series' earliest stored
    timestamp (``inf`` for a series with no rows), read off its first
    chunk's zone map.
    """

    __slots__ = ("by_measure", "by_dim", "position", "first_tmin")

    def __init__(self, strings: Sequence[str], desc: Sequence[dict],
                 keys: Sequence[SeriesKey]):
        by_measure: Dict[int, List[int]] = {}
        by_dim: Dict[Tuple[int, int], List[int]] = {}
        first_tmin = np.full(len(desc), math.inf)
        for index, series in enumerate(desc):
            by_measure.setdefault(series["m"], []).append(index)
            dims = series["d"]
            for i in range(0, len(dims), 2):
                by_dim.setdefault((dims[i], dims[i + 1]), []).append(index)
            if series["ch"]:
                first_tmin[index] = series["ch"][0][1]
        # the descriptors name strings by dictionary id; queries name them
        self.by_measure = {strings[m]: np.asarray(found, dtype=np.int32)
                           for m, found in by_measure.items()}
        self.by_dim = {(strings[name], strings[value]):
                       np.asarray(found, dtype=np.int32)
                       for (name, value), found in by_dim.items()}
        self.position = {key: index for index, key in enumerate(keys)}
        self.first_tmin = first_tmin

    def select(self, selection: Selection) -> List[int]:
        """Descriptor indices of the selected series, ascending."""
        postings: List[np.ndarray] = []
        if selection.measure is not None:
            postings.append(self.by_measure.get(selection.measure,
                                                _NO_SERIES))
        for item in (selection.filters or {}).items():
            postings.append(self.by_dim.get(item, _NO_SERIES))
        if selection.keys is not None:
            position, keys = self.position, selection.keys
            found = [position[key] for key in keys if key in position] \
                if len(keys) <= len(position) else \
                [index for key, index in position.items() if key in keys]
            postings.append(np.sort(np.asarray(found, dtype=np.int32)))
        # shortest posting first: each step costs the survivors so far
        postings.sort(key=len)
        out = postings[0]
        for other in postings[1:]:
            if not out.size:
                break
            at = np.minimum(np.searchsorted(other, out), other.size - 1)
            out = out[other[at] == out]
        return out.tolist()


class SegmentCursor:
    """Decoder over one v2 segment buffer (bytes or an mmap).

    The constructor parses only the header; column bytes are touched
    lazily per chunk, so zone-map-guided scans over an mmap-backed
    buffer never fault in the skipped pages.
    """

    def __init__(self, buffer, memoize: bool = False):
        view = memoryview(buffer)
        self._view = view
        #: memoized decode state, opt-in for long-lived cursors (the
        #: lake keeps one cursor per partition and serves many scans
        #: from it): series keys and chunk columns are decoded once and
        #: reused.  One-shot cursors leave it off -- the bookkeeping is
        #: pure overhead when nothing is ever re-read.
        self._memoize = memoize
        self._keys: Optional[List[SeriesKey]] = None
        self._index: Optional[SeriesIndex] = None
        self._chunk_cache: Dict[int, Tuple[List[float], list]] = {}
        self._array_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # float64 lookup table over the value dictionary, built lazily on
        # the first scan_columns call (None until then); _float_lut_bad
        # flags dictionary slots with no exact numeric reading
        self._float_lut: Optional[np.ndarray] = None
        self._float_lut_bad: Optional[np.ndarray] = None
        parsed = False
        try:
            if bytes(view[:len(MAGIC)]) != MAGIC:
                raise ColumnarFormatError(
                    "bad magic: not a v2 columnar segment")
            header_len = int.from_bytes(view[len(MAGIC):len(MAGIC) + 4],
                                        "little")
            header_end = len(MAGIC) + 4 + header_len
            if header_end > len(view):
                raise ColumnarFormatError("truncated segment header")
            self.header = json.loads(bytes(
                view[len(MAGIC) + 4:header_end]).decode("utf-8"))
            self._body = view[header_end:]
            self._strings = self.header["strings"]
            self._values = self.header["values"]
            self._desc = self.header["desc"]
            if self.header.get("format") != 2 or \
                    len(self._desc) != self.header.get("series"):
                raise ColumnarFormatError(
                    "segment header is internally inconsistent")
            parsed = True
        except ColumnarFormatError:
            raise
        except (ValueError, KeyError, IndexError, TypeError,
                UnicodeDecodeError) as exc:
            raise ColumnarFormatError(
                f"undecodable v2 segment: {exc}") from None
        finally:
            if not parsed:
                self.release()

    def release(self) -> None:
        """Drop the buffer views so an underlying mmap can close.

        Idempotent and safe on a half-constructed cursor (a failed parse
        releases its views before the exception propagates).
        """
        body = getattr(self, "_body", None)
        if body is not None:
            body.release()
        self._view.release()
        self._keys = None
        self._index = None
        self._chunk_cache.clear()
        self._array_cache.clear()
        self._float_lut = None
        self._float_lut_bad = None

    def __enter__(self) -> "SegmentCursor":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # -- helpers -----------------------------------------------------------

    def _key_of(self, desc: dict) -> SeriesKey:
        strings = self._strings
        dims = desc["d"]
        pairs = tuple((strings[dims[i]], strings[dims[i + 1]])
                      for i in range(0, len(dims), 2))
        return SeriesKey(strings[desc["m"]], pairs)

    def keys(self) -> Optional[List[SeriesKey]]:
        """Every series key in descriptor order, or None un-memoized."""
        if self._memoize and self._keys is None:
            self._keys = [self._key_of(desc) for desc in self._desc]
        return self._keys

    def series_index(self) -> SeriesIndex:
        """The segment's :class:`SeriesIndex`, built on first use.

        A memoized cursor publishes the finished index with one
        assignment (two first readers may each build one; nobody sees it
        half-built); a one-shot cursor builds it per call and keeps
        nothing.
        """
        index = self._index
        if index is None:
            try:
                index = SeriesIndex(
                    self._strings, self._desc,
                    self.keys() or [self._key_of(d) for d in self._desc])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise ColumnarFormatError(
                    f"undecodable v2 segment header: {exc}") from None
            if self._memoize:
                self._index = index
        return index

    def select(self, selection: Optional[Selection]) -> Sequence[int]:
        """Descriptor indices a scan of ``selection`` visits, ascending."""
        if selection is None or (selection.measure is None
                                 and not selection.filters
                                 and selection.keys is None):
            return range(len(self._desc))
        return self.series_index().select(selection)

    def _chunk_columns(self, chunk: Sequence) -> Tuple[List[float], list]:
        n, _, _, t_off, t_len, v_off, v_len = chunk
        if self._memoize:
            cached = self._chunk_cache.get(t_off)
            if cached is not None:
                return cached
        times = unpack_time_column(bytes(self._body[t_off:t_off + t_len]))
        is_index, raw = unpack_value_column(
            bytes(self._body[v_off:v_off + v_len]))
        if is_index:
            dictionary = self._values
            vals = [dictionary[i] for i in raw]
        else:
            vals = raw
        if len(times) != n or len(vals) != n:
            raise ColumnarFormatError(
                f"chunk decodes to {len(times)}/{len(vals)} rows, "
                f"descriptor says {n}")
        if self._memoize:
            self._chunk_cache[t_off] = (times, vals)
        return times, vals

    # -- full decode (recovery / compaction) -------------------------------

    def items(self) -> List[Tuple[SeriesKey, ChangePointSeries]]:
        """Decode every series -- the v1-equivalent full read."""
        try:
            out = []
            keys = self.keys()
            for index, desc in enumerate(self._desc):
                times: List[float] = []
                vals: list = []
                for chunk in desc["ch"]:
                    t, v = self._chunk_columns(chunk)
                    times.extend(t)
                    vals.extend(v)
                if len(times) != desc["n"]:
                    raise ColumnarFormatError(
                        f"series decodes to {len(times)} rows, "
                        f"descriptor says {desc['n']}")
                key = keys[index] if keys is not None else self._key_of(desc)
                out.append((key, ChangePointSeries(
                    times=times, values=vals,
                    observed_until=float(desc["ou"]),
                    observation_count=int(desc["oc"]))))
            return out
        except ColumnarFormatError:
            raise
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ColumnarFormatError(
                f"undecodable v2 segment body: {exc}") from None

    # -- predicate-pushdown scan -------------------------------------------

    def scan(self, start: float = float("-inf"),
             end: float = float("inf"),
             select: Optional[Selection] = None,
             ) -> List[Tuple[SeriesKey, List[Tuple[float, Value]]]]:
        """Change points inside ``[start, end]``, per series.

        Only chunks whose zone map ``[tmin, tmax]`` overlaps the window
        are decoded; boundary chunks are trimmed row-wise after decode.
        Series with no overlapping chunks are omitted entirely.  Only
        the series ``select`` names are visited (all of them when None),
        in descriptor order either way.
        """
        try:
            out = []
            keys = self.keys()
            descs = self._desc
            for index in self.select(select):
                desc = descs[index]
                rows: List[Tuple[float, Value]] = []
                for chunk in desc["ch"]:
                    tmin, tmax = chunk[1], chunk[2]
                    if tmax < start or tmin > end:
                        continue  # zone map excludes the whole chunk
                    times, vals = self._chunk_columns(chunk)
                    if tmin >= start and tmax <= end:
                        rows.extend(zip(times, vals))
                    else:
                        rows.extend((t, v) for t, v in zip(times, vals)
                                    if start <= t <= end)
                if rows:
                    out.append((keys[index] if keys is not None
                                else self._key_of(desc), rows))
            return out
        except ColumnarFormatError:
            raise
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ColumnarFormatError(
                f"undecodable v2 segment body: {exc}") from None

    # -- columnar fast path (analytics pushdown) ---------------------------

    def _value_lut(self) -> Tuple[np.ndarray, np.ndarray]:
        """Float64 view of the value dictionary plus a bad-slot mask.

        Bools read as 0.0/1.0 and ints as exact float64 (the analytics
        engine aggregates in the float domain); strings and other
        non-numeric dictionary entries are flagged so a chunk that
        actually references one raises instead of aggregating garbage.
        """
        if self._float_lut is None:
            lut = np.zeros(len(self._values), dtype="<f8")
            bad = np.zeros(len(self._values), dtype=bool)
            for slot, value in enumerate(self._values):
                if isinstance(value, (int, float)):
                    lut[slot] = float(value)
                else:
                    bad[slot] = True
            self._float_lut = lut
            self._float_lut_bad = bad
        return self._float_lut, self._float_lut_bad

    def _chunk_arrays(self, chunk: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """One chunk as (times, values) float64 arrays, no row tuples."""
        n, _, _, t_off, t_len, v_off, v_len = chunk
        if self._memoize:
            cached = self._array_cache.get(t_off)
            if cached is not None:
                return cached
        times = unpack_time_array(bytes(self._body[t_off:t_off + t_len]))
        is_index, raw = unpack_value_array(
            bytes(self._body[v_off:v_off + v_len]))
        if is_index:
            lut, bad = self._value_lut()
            if raw.size and int(raw.max()) >= lut.size:
                raise ColumnarFormatError(
                    "value index out of dictionary range")
            if bad[raw].any():
                raise TypeError(
                    "column scan over non-numeric series values")
            vals = lut[raw]
        else:
            vals = raw.astype("<f8") if raw.dtype.kind == "i" else raw
        if times.size != n or vals.size != n:
            raise ColumnarFormatError(
                f"chunk decodes to {times.size}/{vals.size} rows, "
                f"descriptor says {n}")
        if self._memoize:
            self._array_cache[t_off] = (times, vals)
        return times, vals

    def scan_columns(self, start: float = float("-inf"),
                     end: float = float("inf"),
                     select: Optional[Selection] = None,
                     counters: Optional[Dict[str, int]] = None,
                     ) -> Tuple[List[SeriesKey], np.ndarray,
                                np.ndarray, np.ndarray]:
        """Decoded columns inside ``[start, end]`` without per-row tuples.

        Returns ``(keys, counts, times, values)``: the selected series'
        keys (descriptor order) that have at least one in-window row,
        rows-per-series counts, and the concatenated float64 time/value
        columns (series-major; time-sorted within each series).  Chunk
        selection is the same zone-map pruning :meth:`scan` performs,
        but surviving chunks decode straight into numpy arrays and only
        boundary chunks are trimmed (via ``searchsorted``, not a Python
        row filter).  Series holding non-numeric values raise
        ``TypeError``.  ``counters``, when given, accumulates
        ``chunks_pruned`` / ``chunks_decoded`` / ``rows_decoded``.
        """
        try:
            keys_out: List[SeriesKey] = []
            counts: List[int] = []
            t_parts: List[np.ndarray] = []
            v_parts: List[np.ndarray] = []
            pruned = decoded = rows_decoded = 0
            keys = self.keys()
            descs = self._desc
            for index in self.select(select):
                desc = descs[index]
                total = 0
                first_part = len(t_parts)
                for chunk in desc["ch"]:
                    tmin, tmax = chunk[1], chunk[2]
                    if tmax < start or tmin > end:
                        pruned += 1
                        continue  # zone map excludes the whole chunk
                    times, vals = self._chunk_arrays(chunk)
                    decoded += 1
                    rows_decoded += times.size
                    if tmin < start or tmax > end:
                        lo = int(np.searchsorted(times, start, side="left"))
                        hi = int(np.searchsorted(times, end, side="right"))
                        times, vals = times[lo:hi], vals[lo:hi]
                    if times.size:
                        total += times.size
                        t_parts.append(times)
                        v_parts.append(vals)
                if total:
                    keys_out.append(keys[index] if keys is not None
                                    else self._key_of(desc))
                    counts.append(total)
                else:
                    del t_parts[first_part:]
                    del v_parts[first_part:]
            if counters is not None:
                counters["chunks_pruned"] = \
                    counters.get("chunks_pruned", 0) + pruned
                counters["chunks_decoded"] = \
                    counters.get("chunks_decoded", 0) + decoded
                counters["rows_decoded"] = \
                    counters.get("rows_decoded", 0) + rows_decoded
            times_flat = (np.concatenate(t_parts) if t_parts
                          else np.empty(0, dtype="<f8"))
            values_flat = (np.concatenate(v_parts) if v_parts
                           else np.empty(0, dtype="<f8"))
            return (keys_out, np.asarray(counts, dtype=np.int64),
                    times_flat, values_flat)
        except (ColumnarFormatError, TypeError):
            raise
        except (ValueError, KeyError, IndexError) as exc:
            raise ColumnarFormatError(
                f"undecodable v2 segment body: {exc}") from None

    def time_bounds(self) -> Optional[Tuple[float, float]]:
        """Segment-wide [min, max] timestamp from the zone maps alone."""
        tmin, tmax = math.inf, -math.inf
        for desc in self._desc:
            for chunk in desc["ch"]:
                tmin = min(tmin, chunk[1])
                tmax = max(tmax, chunk[2])
        if tmin > tmax:
            return None
        return tmin, tmax
