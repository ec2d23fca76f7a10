"""Embedded time-series store (Amazon Timestream stand-in).

Dimensioned records, change-point (dedup) compression, filtered range
queries, resampling, aggregation, and retention sweeps.
"""

from .cache import CacheStats, QueryCache
from .compression import ChangePointSeries, values_equal
from .query import QuerySpec, group_aggregate, resample_matrix, run_query, update_intervals
from .record import DimensionKey, Record, SeriesKey, Value, dimension_key
from .store import RetentionPolicy, TimeSeriesStore
from .table import Table, TableStats
from .vector import (
    AGGREGATES,
    AggResult,
    AggSpec,
    Partials,
    TierColumns,
    bucket_edges,
    compute_partials,
    finish_aggregates,
    merge_partials,
)

__all__ = [
    "CacheStats", "QueryCache",
    "ChangePointSeries", "values_equal",
    "QuerySpec", "group_aggregate", "resample_matrix", "run_query", "update_intervals",
    "DimensionKey", "Record", "SeriesKey", "Value", "dimension_key",
    "RetentionPolicy", "TimeSeriesStore",
    "Table", "TableStats",
    "AGGREGATES", "AggResult", "AggSpec", "Partials", "TierColumns",
    "bucket_edges", "compute_partials", "finish_aggregates",
    "merge_partials",
]
