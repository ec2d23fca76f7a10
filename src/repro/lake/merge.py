"""Round merge: capture the three per-source outputs of one round.

The :class:`RoundMerger` is the collectors' *sink*: instead of writing
rows straight into the hot tables, the archive hands each collector's
rows to the merger, and the round commit takes the whole merged round at
once -- diffing it against the previous round (see :mod:`repro.lake.diff`)
and landing the changed rows in every tier; a durable archive's cold
tier additionally keeps the whole round once per UTC day, as that day's
keyframe (see :mod:`repro.lake.store`).

It is written to by the collecting thread only (an SPS round admits and
materializes on the calling thread), so no locking is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..timeseries.compression import ChangePointSeries
from ..timeseries.record import SeriesKey, Value
from .schema import DATASETS, Row, empty_rows


@dataclass
class MergedRound:
    """One collection round's full merged output, before diffing.

    ``time`` is the round's commit timestamp; the rows (per dataset, in
    schema order) keep their own per-source observation timestamps (a
    retried price sweep stamps post-backoff times), so a cold row carries
    exactly the timestamp the hot ingest path stores for it.
    """

    time: float
    rows: Dict[str, List[Row]] = field(default_factory=empty_rows)

    @property
    def row_count(self) -> int:
        """Source rows captured (an advisor row counts once here)."""
        return sum(len(rows) for rows in self.rows.values())

    def items(self, subset: Optional[Dict[str, List[Row]]] = None,
              ) -> List[Tuple[SeriesKey, ChangePointSeries]]:
        """The round as canonically-sorted columnar-codec series items.

        Every row becomes a point under exactly the series key the hot
        tables use (advisor rows fan out to their three measures).
        ``subset`` narrows the output to some of the round's rows, per
        dataset (what the lake stores of the round: all of it in a
        keyframe, the changed rows in a delta); by default the whole
        round is expanded.
        """
        points: Dict[SeriesKey, List[Tuple[float, Value]]] = {}
        source = self.rows if subset is None else subset
        for table, rows in source.items():
            for key, time, value in DATASETS[table].points(rows):
                points.setdefault(key, []).append((time, value))

        items: List[Tuple[SeriesKey, ChangePointSeries]] = []
        for key in sorted(points, key=lambda k: (k.measure_name,
                                                 k.dimensions)):
            rows = sorted(points[key], key=lambda r: r[0])
            items.append((key, ChangePointSeries(
                times=[t for t, _ in rows],
                values=[v for _, v in rows],
                observed_until=rows[-1][0],
                observation_count=len(rows))))
        return items


class RoundMerger:
    """Accumulates one round's rows from the three collectors."""

    def __init__(self) -> None:
        self._rows = empty_rows()

    def add(self, dataset: str, rows: Iterable[Row]) -> None:
        self._rows[dataset].extend(rows)

    def take_round(self, time: float) -> MergedRound:
        """Snapshot and clear the buffered rows as one merged round."""
        merged = MergedRound(time=float(time), rows=self._rows)
        self._rows = empty_rows()
        return merged
