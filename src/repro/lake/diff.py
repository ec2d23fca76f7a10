"""Round diff: emit only the rows that changed since the previous round.

The hot store already deduplicates per series (appending an unchanged
value stores no new change point), but a full ingest still pays for the
WAL line of every row, every round -- and a cold tier that archives the
whole round pays for encoding it.  :class:`RoundDiffer` extends the
dedup to the *whole round*: it keeps the previous round's merged values
and emits only the rows whose value actually changed, so steady-state
rounds write a few percent of the raw row volume.  The one subset feeds
both tiers: the lake stores it as the round's delta partition (see
:mod:`repro.lake.store`) and the hot tables ingest it.  Because both
dedup on value anyway, feeding them the diffed subset produces
byte-identical change-point history to feeding them everything -- the
property the federated-query identity tests pin.

Comparison semantics are :func:`~repro.timeseries.compression.values_equal`
(type- and NaN-aware), matching the store's own dedup rule.  A row is
emitted when *any* of its measures changed (an advisor row's unchanged
measures ride along; the table absorbs them without new change points).
The periodic full image is the lake's day keyframe, not the diff: every
row a reader needs to reconstruct a day's state is in that day's
keyframe plus its deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..timeseries.compression import values_equal
from ..timeseries.record import SeriesKey, Value
from .merge import MergedRound
from .schema import DATASETS, MEASURE_SLOTS, Row, empty_rows


@dataclass
class RoundDiff:
    """The changed-rows subset of one merged round, per dataset."""

    time: float
    rows: Dict[str, List[Row]] = field(default_factory=empty_rows)
    #: source rows the differ examined (the pre-diff volume)
    rows_seen: int = 0

    @property
    def rows_changed(self) -> int:
        return sum(len(rows) for rows in self.rows.values())


class RoundDiffer:
    """Stateful whole-round change detector."""

    def __init__(self):
        #: rounds diffed so far (a restarted differ is re-seeded to the
        #: lake's round count)
        self.rounds = 0
        #: per dataset: coords -> the previous round's values, one per
        #: measure (None where a restart seed had no archived value)
        self._previous: Dict[str, Dict[Tuple[str, ...], Sequence[Value]]] = {
            table: {} for table in DATASETS}

    # -- restart seeding -----------------------------------------------------

    def seed(self, items: Sequence[Tuple[SeriesKey, Value]],
             rounds: int = 0) -> None:
        """Restore the previous-round value map from lake series items.

        ``items`` is each series' latest archived value (see
        :meth:`SpotDataLake.latest_values`); ``rounds`` restores the
        round counter.
        """
        self.rounds = rounds
        for key, value in items:
            slot = MEASURE_SLOTS.get(key.measure_name)
            if slot is None:
                continue
            dataset, index = slot
            values = self._previous[dataset.table].setdefault(
                dataset.coords(key), [None] * len(dataset.measures))
            values[index] = value

    # -- the diff ------------------------------------------------------------

    def diff(self, merged: MergedRound) -> RoundDiff:
        """Changed rows of ``merged``; updates the previous-round state.

        A key never seen before always emits; a key absent this round
        (a collection gap) keeps its previous value, mirroring what the
        hot store's series would hold.
        """
        out = RoundDiff(time=merged.time, rows_seen=merged.row_count)
        for table, rows in merged.rows.items():
            width = len(DATASETS[table].dims)
            previous = self._previous[table]
            emit = out.rows[table].append
            for row in rows:
                coords = row[:width]
                values = row[width:-1]
                before = previous.get(coords)
                if before is None or not all(
                        map(values_equal, before, values)):
                    emit(row)
                previous[coords] = values
        self.rounds += 1
        return out

    def stats(self) -> dict:
        return {
            "rounds": self.rounds,
            "tracked": {table: len(previous)
                        for table, previous in self._previous.items()},
        }
