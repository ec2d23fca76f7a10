"""Time-series record model.

Mirrors the shape of Amazon Timestream records as SpotLake uses them: a set
of string *dimensions* identifying the series (instance type, region,
zone, ...), a *measure name*, a numeric or string value, and a timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

Value = Union[float, int, str]

#: Canonical hashable form of a dimensions dict.
DimensionKey = Tuple[Tuple[str, str], ...]


def dimension_key(dimensions: Dict[str, str]) -> DimensionKey:
    """Canonical, hashable form of a dimensions mapping."""
    return tuple(sorted(dimensions.items()))


@dataclass(frozen=True)
class Record:
    """One observation of one measure of one series."""

    dimensions: DimensionKey
    measure_name: str
    value: Value
    time: float

    @classmethod
    def make(cls, dimensions: Dict[str, str], measure_name: str,
             value: Value, time: float) -> "Record":
        """Build a record from a plain dimensions dict."""
        if not measure_name:
            raise ValueError("measure_name must be non-empty")
        return cls(dimension_key(dimensions), measure_name, value, float(time))

    @property
    def dimension_dict(self) -> Dict[str, str]:
        return dict(self.dimensions)


@dataclass(frozen=True)
class SeriesKey:
    """Identity of one time series: measure plus full dimension set."""

    measure_name: str
    dimensions: DimensionKey

    def __post_init__(self):
        # keys are hashed on every table/index lookup and on the storage
        # engine's dirty tracking; compute once instead of per operation
        object.__setattr__(
            self, "_hash",
            hash((self.measure_name, self.dimensions)))  # spotlint: disable=DET003 -- in-memory dict/set key, never persisted

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, record: Record) -> "SeriesKey":
        return cls(record.measure_name, record.dimensions)

    @property
    def dimension_dict(self) -> Dict[str, str]:
        return dict(self.dimensions)
