"""Multi-table time-series store with retention policies.

The store is the embedded stand-in for Amazon Timestream: named tables,
batched writes, per-table retention windows, and store-wide statistics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .compression import ChangePointSeries
from .record import Record, SeriesKey
from .table import Table


def update_series_digest(sha, key: SeriesKey,
                         series: ChangePointSeries) -> None:
    """Feed one series' content into ``sha``: measure, dimensions, times,
    type-tagged values, ``observed_until`` and ``observation_count``.

    The one content encoding of a series, shared by the hot store's and
    the lake's content digests.
    """
    sha.update(json.dumps([
        key.measure_name, key.dimensions, series.times,
        [(type(v).__name__, repr(v)) for v in series.values],
        series.observed_until, series.observation_count,
    ]).encode("utf-8"))


@dataclass
class RetentionPolicy:
    """Drop change points older than ``max_age_seconds`` (None = keep all)."""

    max_age_seconds: Optional[float] = None

    def cutoff(self, now: float) -> Optional[float]:
        if self.max_age_seconds is None:
            return None
        return now - self.max_age_seconds


class TimeSeriesStore:
    """A collection of named tables sharing one retention sweep."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._policies: Dict[str, RetentionPolicy] = {}

    def create_table(self, name: str,
                     retention: Optional[RetentionPolicy] = None) -> Table:
        """Create (or return the existing) table called ``name``."""
        if name not in self._tables:
            self._tables[name] = Table(name)
            self._policies[name] = retention or RetentionPolicy()
        return self._tables[name]

    def install_table(self, table: Table,
                      policy: Optional[RetentionPolicy] = None) -> Table:
        """Adopt a pre-built table (snapshot load, engine recovery).

        Replaces any existing table of the same name along with its
        retention policy; ``policy=None`` installs the keep-all default.
        """
        self._tables[table.name] = table
        self._policies[table.name] = policy or RetentionPolicy()
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    def policy(self, name: str) -> RetentionPolicy:
        """The retention policy of table ``name``."""
        self.table(name)  # raise the canonical KeyError on unknown names
        return self._policies[name]

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def write(self, table_name: str, records: Iterable[Record]) -> int:
        """Batch write; the table must already exist."""
        return self.table(table_name).write_records(records)

    def apply_retention(self, now: float) -> Dict[str, int]:
        """Run the retention sweep; returns dropped counts per table."""
        dropped: Dict[str, int] = {}
        for name, table in self._tables.items():
            cutoff = self._policies[name].cutoff(now)
            if cutoff is not None:
                dropped[name] = table.evict_before(cutoff)
        return dropped

    def content_digests(self) -> Dict[str, str]:
        """``{table: sha256}`` of what each table holds.

        Hashes the table's name, ``records_written`` and retention age,
        then every series in :meth:`Table.series_keys` order.  Two stores
        with equal digests hold the same data, however they were built
        (live writes, WAL replay, segment load).
        """
        digests = {}
        for name in self.table_names():
            table = self._tables[name]
            sha = hashlib.sha256(json.dumps([
                name, table.stats.records_written,
                self._policies[name].max_age_seconds]).encode("utf-8"))
            for key in table.series_keys():
                update_series_digest(sha, key, table.series(key))
            digests[name] = sha.hexdigest()
        return digests

    def stats(self) -> Dict[str, dict]:
        """Ingestion statistics per table."""
        return {
            name: {
                "records_written": table.stats.records_written,
                "change_points_stored": table.stats.change_points_stored,
                "series": len(table),
                "dedup_ratio": table.stats.dedup_ratio,
            }
            for name, table in self._tables.items()
        }
