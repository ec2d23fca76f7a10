"""The merged wide-record schema shared by the archive and the lake.

SpotLake's production merge stage joins the three per-source collection
outputs into one wide row per pool -- (instance_type, region, zone) ->
sps, interruption_ratio, if_score, savings, spot_price -- before diffing
and upload (``merge_data.py`` in the real pipeline).  This module is the
single definition of that schema: the hot tables' names, measure names
and dimension names, and -- in :data:`DATASETS` -- what a collector's row
is and which series it fans out to.  Every stage of the write path
(archive append, round merge, round diff) is one loop over that table.
``core.archive`` re-exports every constant, so the rest of the codebase
keeps importing them from the archive facade.

Measure names are globally unique across the three tables, which is what
lets the cold tier store a whole round in one columnar segment and route
any history query by (measure, filters) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..timeseries.record import SeriesKey, Value

SPS_TABLE = "sps"
ADVISOR_TABLE = "advisor"
PRICE_TABLE = "price"

SPS_MEASURE = "sps"
IF_SCORE_MEASURE = "if_score"
INTERRUPTION_RATIO_MEASURE = "interruption_ratio"
SAVINGS_MEASURE = "savings"
PRICE_MEASURE = "spot_price"

DIM_TYPE = "InstanceType"
DIM_REGION = "Region"
DIM_ZONE = "AvailabilityZone"

#: Per-source row tuples, exactly as the collectors produce them:
#: coordinates, then one value per measure, then the observation time.
SpsRow = Tuple[str, str, str, int, float]            # type, region, zone, score, t
PriceRow = Tuple[str, str, str, float, float]        # type, region, zone, price, t
AdvisorRow = Tuple[str, str, float, float, int, float]  # type, region, ratio, if, sav, t
Row = Tuple  # any of the three

Point = Tuple[SeriesKey, float, Value]
#: coords -> the series keys a row there fans out to
KeysOf = Callable[[Tuple[str, ...]], Tuple[SeriesKey, ...]]


@dataclass(frozen=True)
class Dataset:
    """One collected dataset: its hot table and its row layout.

    A row is ``(*coords, *values, time)``: one coordinate per entry of
    ``dims``, one value per entry of ``measures``.  Each row fans out to
    one series per measure, all sharing the coordinates as dimensions.
    """

    #: the hot table the dataset lands in (also the dataset's name)
    table: str
    dims: Tuple[str, ...]
    #: ordered (measure, cast): the cast fixes the archived scalar type
    measures: Tuple[Tuple[str, Callable[[object], Value]], ...]

    def keys(self, coords: Tuple[str, ...]) -> Tuple[SeriesKey, ...]:
        """The series a row at ``coords`` writes, in measure order."""
        # == dimension_key(dict(zip(self.dims, coords))): names are unique
        dims = tuple(sorted(zip(self.dims, coords)))
        return tuple([SeriesKey(measure, dims)
                      for measure, _ in self.measures])

    def coords(self, key: SeriesKey) -> Tuple[str, ...]:
        """The coordinates of the rows that write ``key`` (see :meth:`keys`)."""
        dims = key.dimension_dict
        return tuple(dims[d] for d in self.dims)

    def points(self, rows: Iterable[Row],
               keys_of: Optional[KeysOf] = None) -> Iterator[Point]:
        """Fan ``rows`` out to (key, time, value) points, in row order.

        ``keys_of`` stands in for :meth:`keys`: a writer that sees the
        same coordinates every round (the archive) passes the lookup of a
        :class:`KeyMemo` it owns, so the keys and their hashes are built
        once.
        """
        keys_of = keys_of or self.keys
        width = len(self.dims)
        casts = tuple(cast for _, cast in self.measures)
        for row in rows:
            time = float(row[-1])
            for key, cast, value in zip(keys_of(row[:width]), casts,
                                        row[width:-1]):
                yield key, time, cast(value)


class KeyMemo(dict):
    """``coords -> dataset.keys(coords)``, expanded on first lookup."""

    def __init__(self, dataset: Dataset):
        super().__init__()
        self._dataset = dataset

    def __missing__(self, coords: Tuple[str, ...]) -> Tuple[SeriesKey, ...]:
        keys = self[coords] = self._dataset.keys(coords)
        return keys


#: The three datasets, in the collectors' fixed ``sps, advisor, price``
#: order -- the order every stage walks them in, so WAL sequence numbers
#: never depend on buffering order.  Gap records are not datasets: holes
#: are archived directly at collection time.
DATASETS: Dict[str, Dataset] = {d.table: d for d in (
    Dataset(SPS_TABLE, (DIM_TYPE, DIM_REGION, DIM_ZONE),
            ((SPS_MEASURE, int),)),
    Dataset(ADVISOR_TABLE, (DIM_TYPE, DIM_REGION),
            ((INTERRUPTION_RATIO_MEASURE, float), (IF_SCORE_MEASURE, float),
             (SAVINGS_MEASURE, int))),
    Dataset(PRICE_TABLE, (DIM_TYPE, DIM_REGION, DIM_ZONE),
            ((PRICE_MEASURE, float),)),
)}


def empty_rows() -> Dict[str, List[Row]]:
    """A fresh per-dataset row buffer, in schema order."""
    return {table: [] for table in DATASETS}


#: The tables the merged round fans out to.
MERGED_TABLES = tuple(DATASETS)

#: measure -> (dataset, position of the measure in the dataset's rows)
MEASURE_SLOTS: Dict[str, Tuple[Dataset, int]] = {
    measure: (dataset, slot)
    for dataset in DATASETS.values()
    for slot, (measure, _) in enumerate(dataset.measures)}
