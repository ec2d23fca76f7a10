"""Change-point (dedup) compression for step-valued series.

SpotLake's datasets are step functions: the placement score, the advisor
bucket and the spot price hold their value for long stretches.  Storing one
row per collection round wastes space and hides the update events the
paper's Figure 10 analyses.  The codec therefore stores only *changes*
(plus the first observation), and can reconstruct the value at any observed
instant or the full step series.

Besides the in-memory series this module provides the *columnar* primitives
the binary segment format (``repro.storage.columnar``) is built from:
self-describing packed time columns (delta-encoded against the first
timestamp when that round-trips exactly, raw float64 otherwise) and packed
numeric/index value columns.  They live here rather than in ``storage``
because they are properties of the series representation itself, not of
any particular file layout.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .record import Value


def values_equal(a: Value, b: Value) -> bool:
    """Type-and-NaN-aware equality for change-point deduplication.

    Plain ``==`` is wrong on both edges the archive actually hits:
    ``float("nan") != float("nan")`` turns every repeated-NaN observation
    into a fresh change point, and ``True == 1 == 1.0`` collapses values
    that serialize (and therefore recover) differently.  Two values are
    dedup-equal only when they have the *same concrete type* and are
    either ``==`` or both NaN.
    """
    if type(a) is not type(b):
        return False
    if a != a:  # NaN never equals itself; type already matched
        return b != b
    return a == b


@dataclass
class ChangePointSeries:
    """A compressed step-valued series.

    Appends must be in non-decreasing time order.  ``observed_until`` tracks
    the last time a value was *observed* (even if unchanged), so the series
    distinguishes "no data yet" from "unchanged since".
    """

    times: List[float] = field(default_factory=list)
    values: List[Value] = field(default_factory=list)
    observed_until: float = float("-inf")
    observation_count: int = 0

    def append(self, time: float, value: Value) -> bool:
        """Record an observation; returns True when it was a change point."""
        if time < self.observed_until:
            raise ValueError(
                f"out-of-order append: {time} < {self.observed_until}")
        self.observed_until = time
        self.observation_count += 1
        if self.values and values_equal(self.values[-1], value):
            return False
        self.times.append(time)
        self.values.append(value)
        return True

    def __len__(self) -> int:
        return len(self.times)

    @property
    def is_empty(self) -> bool:
        return not self.times

    def value_at(self, time: float) -> Optional[Value]:
        """Value in force at ``time`` (None before the first observation)."""
        idx = bisect_right(self.times, time)
        if idx == 0:
            return None
        return self.values[idx - 1]

    def change_points(self, start: float = float("-inf"),
                      end: float = float("inf")) -> List[Tuple[float, Value]]:
        """Change events inside [start, end].

        ``times`` is sorted, so the window is located with two bisects
        instead of a linear scan over the full series -- O(log n + k) for
        k events in range, which is what keeps narrow-window queries on
        long archival series cheap.
        """
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end, lo)
        return list(zip(self.times[lo:hi], self.values[lo:hi]))

    def update_intervals(self) -> List[float]:
        """Elapsed seconds between consecutive change points (Figure 10)."""
        return [b - a for a, b in zip(self.times, self.times[1:])]

    def resample(self, sample_times: Sequence[float]) -> List[Optional[Value]]:
        """Step-function values at each of the given instants."""
        return [self.value_at(t) for t in sample_times]

    def compression_ratio(self) -> float:
        """Observations stored per observation ingested (lower is better)."""
        if self.observation_count == 0:
            return 1.0
        return len(self.times) / self.observation_count


# -- columnar packing ------------------------------------------------------
#
# Every packed column is a self-describing blob: one ASCII tag byte, then
# raw little-endian data.  Blobs round-trip exactly (bit-for-bit for
# floats, type-preserving for ints) -- the storage layer's byte-identity
# contract depends on it.

#: tag -> (numpy dtype, delta flag) for packed time columns
_TIME_TAGS = {
    b"F": ("<f8", False),   # raw float64 timestamps
    b"1": ("<i1", True),    # float64 first + int8 deltas
    b"2": ("<i2", True),
    b"4": ("<i4", True),
    b"8": ("<i8", True),
}

_DELTA_WIDTHS = (
    (b"1", np.iinfo(np.int8)),
    (b"2", np.iinfo(np.int16)),
    (b"4", np.iinfo(np.int32)),
    (b"8", np.iinfo(np.int64)),
)


def pack_time_column(times: Sequence[float]) -> bytes:
    """Pack sorted float timestamps, delta-encoded when exactly invertible.

    Collection timestamps are overwhelmingly whole numbers of seconds at a
    fixed cadence, so consecutive deltas are small integers: the packed
    form stores the first timestamp as float64 plus deltas at the
    narrowest integer width that fits.  The encoding is used only when
    ``first + cumsum(deltas)`` reproduces every input bit-exactly;
    anything else (fractional or huge timestamps) falls back to a raw
    float64 column.
    """
    arr = np.asarray(times, dtype="<f8")
    if arr.size >= 2:
        deltas = np.diff(arr)
        ints = deltas.astype("<i8", copy=True)
        # the cast truncates; candidate only when every delta is integral
        if np.array_equal(ints.astype("<f8"), deltas):
            recon = arr[0] + np.concatenate(
                ([0.0], np.cumsum(ints, dtype="<f8")))
            if np.array_equal(recon, arr):
                lo, hi = int(ints.min()), int(ints.max())
                for tag, info in _DELTA_WIDTHS:
                    if info.min <= lo and hi <= info.max:
                        dtype = _TIME_TAGS[tag][0]
                        return (tag + arr[:1].tobytes()
                                + ints.astype(dtype).tobytes())
    return b"F" + arr.tobytes()


def unpack_time_array(blob: bytes) -> np.ndarray:
    """Invert :func:`pack_time_column` into a float64 array."""
    tag = blob[:1]
    try:
        dtype, delta = _TIME_TAGS[tag]
    except KeyError:
        raise ValueError(f"unknown time column tag {tag!r}") from None
    if not delta:
        # frombuffer views the immutable bytes; copy so callers can hold
        # the array after the segment buffer is released
        return np.frombuffer(blob, dtype="<f8", offset=1).copy()
    first = np.frombuffer(blob, dtype="<f8", count=1, offset=1)[0]
    deltas = np.frombuffer(blob, dtype=dtype, offset=9)
    return first + np.concatenate(([0.0], np.cumsum(deltas, dtype="<f8")))


#: tag -> numpy dtype for packed value/index columns
_VALUE_TAGS = {
    b"f": "<f8",  # raw float64 values
    b"i": "<i8",  # raw int64 values (plain ints only, never bools)
    b"u": "<u1",  # dictionary indices, 1 byte
    b"v": "<u2",  # dictionary indices, 2 bytes
    b"w": "<u4",  # dictionary indices, 4 bytes
}

#: int64 bounds for the raw-int value column fast path
_I8 = np.iinfo(np.int64)


def pack_float_column(values: Sequence[float]) -> bytes:
    """Raw float64 value column (NaN-safe, bit-exact round trip)."""
    return b"f" + np.asarray(values, dtype="<f8").tobytes()


def pack_int_column(values: Sequence[int]) -> bytes:
    """Raw int64 value column; caller guarantees values fit int64."""
    return b"i" + np.asarray(values, dtype="<i8").tobytes()


def int_column_fits(values: Sequence[int]) -> bool:
    """True when every (plain) int packs losslessly into int64 (a list
    or an ndarray, object dtype included)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        # a list with an int past 64 bits reads as float64 or object:
        # compare the Python ints themselves
        arr = np.asarray(values, dtype=object)
    return not arr.size or bool(_I8.min <= arr.min() and arr.max() <= _I8.max)


def pack_index_column(indices: Sequence[int]) -> bytes:
    """Dictionary-index column at the narrowest unsigned width (a list
    or an integer ndarray; the bytes are the same)."""
    arr = np.asarray(indices)
    top = int(arr.max()) if arr.size else 0
    if top < 1 << 8:
        return b"u" + arr.astype("<u1").tobytes()
    if top < 1 << 16:
        return b"v" + arr.astype("<u2").tobytes()
    return b"w" + arr.astype("<u4").tobytes()


def unpack_value_array(blob: bytes) -> Tuple[bool, np.ndarray]:
    """Invert a packed value column without boxing into Python scalars.

    Returns ``(is_indices, array)``: raw columns come back as float64 /
    int64 arrays, index columns as their stored unsigned index arrays
    for the caller to resolve (typically via a vectorized dictionary
    lookup table).
    """
    tag = blob[:1]
    try:
        dtype = _VALUE_TAGS[tag]
    except KeyError:
        raise ValueError(f"unknown value column tag {tag!r}") from None
    return tag not in (b"f", b"i"), \
        np.frombuffer(blob, dtype=dtype, offset=1).copy()
