"""Tiered lake: round merge + diff ingest, cold tier, federated reads.

The package reproduces SpotLake's archival pipeline (paper Section 4):
each collection round's three per-source outputs are merged into one
wide per-pool record (:mod:`merge`) and diffed against the previous
round (:mod:`diff`); only the changed rows reach the hot engine and the
date-partitioned immutable cold tier, which also keeps each day's first
round whole (:mod:`store`); history queries federate across the
hot/cold boundary (:mod:`federated`).
"""

from .diff import RoundDiff, RoundDiffer
from .federated import FederatedHistory, FederatedPlan
from .merge import MergedRound, RoundMerger
from .schema import (
    ADVISOR_TABLE,
    AdvisorRow,
    DATASETS,
    Dataset,
    DIM_REGION,
    DIM_TYPE,
    DIM_ZONE,
    IF_SCORE_MEASURE,
    INTERRUPTION_RATIO_MEASURE,
    KeyMemo,
    MERGED_TABLES,
    PRICE_MEASURE,
    PRICE_TABLE,
    PriceRow,
    SAVINGS_MEASURE,
    SPS_MEASURE,
    SPS_TABLE,
    SpsRow,
)
from .store import (
    LAKE_CRASH_WINDOWS,
    LAKE_DIR_NAME,
    LAKE_FORMAT,
    LAKE_MANIFEST_NAME,
    LakeFormatError,
    LakePartition,
    SpotDataLake,
    lake_day,
)

__all__ = [
    "ADVISOR_TABLE", "AdvisorRow", "DATASETS", "DIM_REGION", "DIM_TYPE",
    "DIM_ZONE", "Dataset", "FederatedHistory", "FederatedPlan",
    "IF_SCORE_MEASURE", "INTERRUPTION_RATIO_MEASURE", "KeyMemo",
    "LAKE_CRASH_WINDOWS", "LAKE_DIR_NAME", "LAKE_FORMAT",
    "LAKE_MANIFEST_NAME", "LakeFormatError", "LakePartition",
    "MERGED_TABLES", "MergedRound", "PRICE_MEASURE", "PRICE_TABLE",
    "PriceRow", "RoundDiff", "RoundDiffer", "RoundMerger",
    "SAVINGS_MEASURE", "SPS_MEASURE", "SPS_TABLE", "SpotDataLake",
    "SpsRow", "lake_day",
]
