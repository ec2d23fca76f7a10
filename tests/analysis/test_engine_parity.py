"""Vectorized analytics engine == row-at-a-time reference (issue satellite).

The oracle is :func:`tests.analysis.reference.reference_aggregate`, a
pure-Python left-to-right fold over ``archive.history`` rows.  The engine
must match it for every aggregate across hot-only, cold-only, and
federated tier splits -- exactly for the integer/extremal aggregates
(``count``/``min``/``max``/``last``/``change_count``), and within a 1e-9
relative tolerance for the float folds, whose cross-tier partial merges
may legally re-associate additions.  ``compare_aggregates`` encodes that
contract; these tests assert its verdict.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive import (
    DIM_REGION,
    DIM_TYPE,
    DIM_ZONE,
    SpotLakeArchive,
)
from repro.lake import IF_SCORE_MEASURE, PRICE_MEASURE, SPS_MEASURE
from repro.timeseries import RetentionPolicy
from repro.timeseries.vector import AGGREGATES, AggSpec

from ..lake.conftest import EPOCH, drive_round
from .reference import compare_aggregates, reference_aggregate

INTERVAL = 600.0
ROUNDS = 12

#: Every aggregate the engine implements, asserted in one result.
ALL_AGGS = tuple(AGGREGATES)


def _drive(archive: SpotLakeArchive, churn: int = 3) -> float:
    last = EPOCH
    for r in range(ROUNDS):
        last = drive_round(archive, r, interval=INTERVAL, churn=churn)
    return last


def _spec_grid(last: float):
    """Windows x buckets x groupings x filters, plus off-table probes."""
    windows = [
        (EPOCH, last),                                   # exact span
        (EPOCH - 3600.0, last + 1800.0),                 # padded both sides
        (EPOCH + 4 * INTERVAL + 37.0,
         EPOCH + 9 * INTERVAL + 11.0),                   # interior, unaligned
    ]
    buckets = [None, INTERVAL, 1800.0, 7 * INTERVAL + 13.0]
    groupings = [(), (DIM_TYPE,), (DIM_REGION, DIM_ZONE)]
    filters = [None, {DIM_TYPE: "pool1.large"}]
    for start, end in windows:
        for bucket in buckets:
            for group_by in groupings:
                for flt in filters:
                    yield AggSpec.make("sps", SPS_MEASURE, start, end,
                                       bucket_seconds=bucket,
                                       group_by=group_by,
                                       aggregates=ALL_AGGS, filters=flt)
    # the zoneless and price tables, one probe each
    yield AggSpec.make("advisor", IF_SCORE_MEASURE, EPOCH, last,
                       bucket_seconds=1800.0, group_by=(DIM_TYPE,),
                       aggregates=ALL_AGGS)
    yield AggSpec.make("price", PRICE_MEASURE, EPOCH - 1.0, last + 1.0,
                       bucket_seconds=None, group_by=(DIM_REGION,),
                       aggregates=ALL_AGGS)


def _assert_parity(archive: SpotLakeArchive, spec: AggSpec) -> None:
    verdict = compare_aggregates(archive.analytics.run(spec),
                                 reference_aggregate(archive, spec))
    assert verdict["identical"], (spec, verdict["mismatch"])


class TestHotOnlyParity:
    def test_every_aggregate_matches_reference(self):
        archive = SpotLakeArchive()
        try:
            last = _drive(archive)
            for spec in _spec_grid(last):
                _assert_parity(archive, spec)
        finally:
            archive.close()

    def test_empty_window_and_empty_table(self):
        archive = SpotLakeArchive()
        try:
            last = _drive(archive)
            # a window with no rows at all (before the first write)
            _assert_parity(archive, AggSpec.make(
                "sps", SPS_MEASURE, EPOCH - 7200.0, EPOCH - 3600.0,
                bucket_seconds=600.0, group_by=(DIM_TYPE,),
                aggregates=ALL_AGGS))
            # a filter that matches nothing
            _assert_parity(archive, AggSpec.make(
                "sps", SPS_MEASURE, EPOCH, last,
                aggregates=ALL_AGGS, filters={DIM_TYPE: "nope.large"}))
        finally:
            archive.close()

    def test_zero_width_window(self):
        archive = SpotLakeArchive()
        try:
            _drive(archive)
            _assert_parity(archive, AggSpec.make(
                "sps", SPS_MEASURE, EPOCH + INTERVAL, EPOCH + INTERVAL,
                aggregates=ALL_AGGS))
        finally:
            archive.close()


class TestTieredParity:
    """Cold-only and federated splits against the same oracle."""

    def _lake_archive(self, base: Path, retention_rounds: int,
                      churn: int = 3):
        archive = SpotLakeArchive(
            data_dir=base, lake=True,
            retention=RetentionPolicy(
                max_age_seconds=retention_rounds * INTERVAL))
        last = _drive(archive, churn=churn)
        assert archive.evicted_through("sps") is not None
        return archive, last

    def test_federated_window_spans_the_boundary(self, tmp_path):
        archive, last = self._lake_archive(tmp_path, retention_rounds=4)
        try:
            for spec in _spec_grid(last):
                _assert_parity(archive, spec)
        finally:
            archive.close()

    def test_cold_only_window(self, tmp_path):
        archive, last = self._lake_archive(tmp_path, retention_rounds=2)
        try:
            boundary = archive.evicted_through("sps")
            assert boundary > EPOCH
            for bucket in (None, INTERVAL, 950.0):
                _assert_parity(archive, AggSpec.make(
                    "sps", SPS_MEASURE, EPOCH - 1.0, boundary,
                    bucket_seconds=bucket, group_by=(DIM_TYPE, DIM_ZONE),
                    aggregates=ALL_AGGS))
        finally:
            archive.close()

    def test_narrow_cold_window_is_pruned_not_decoded(self, tmp_path):
        """A narrow interior window over compacted day partitions: the
        zone maps must skip what lies wholly outside it -- the two later
        day files unopened, and in the first the chunks of series that
        only changed at midnight -- and the pruned answer must still
        match the row fold."""
        six_hours = 21600.0
        archive = SpotLakeArchive(
            data_dir=tmp_path, lake=True,
            retention=RetentionPolicy(max_age_seconds=2 * six_hours))
        try:
            for r in range(ROUNDS):  # three UTC days
                drive_round(archive, r, interval=six_hours, churn=4)
            assert archive.lake.compact(include_active=True)
            assert len(archive.lake.partitions) == 3
            before = archive.analytics.stats()
            _assert_parity(archive, AggSpec.make(
                "sps", SPS_MEASURE, EPOCH + six_hours, EPOCH + 3 * six_hours,
                bucket_seconds=six_hours, group_by=(DIM_TYPE,),
                aggregates=ALL_AGGS))
            after = archive.analytics.stats()
            assert after["partitions_pruned"] \
                == before["partitions_pruned"] + 2
            assert after["chunks_pruned"] > before["chunks_pruned"]
            assert after["rows_decoded"] > before["rows_decoded"]
        finally:
            archive.close()

    def test_compaction_preserves_parity(self, tmp_path):
        archive, last = self._lake_archive(tmp_path, retention_rounds=4)
        try:
            assert archive.lake.compact(include_active=True)
            for spec in _spec_grid(last):
                _assert_parity(archive, spec)
        finally:
            archive.close()


@settings(max_examples=15, deadline=None)
@given(retention_rounds=st.integers(min_value=1, max_value=ROUNDS),
       churn=st.sampled_from([1, 2, 4]),
       start_off=st.integers(min_value=-2, max_value=ROUNDS - 1),
       width=st.integers(min_value=0, max_value=ROUNDS + 2),
       bucket=st.sampled_from([None, INTERVAL / 2, INTERVAL, 1800.0,
                               5 * INTERVAL + 17.0]),
       group_by=st.sampled_from([(), (DIM_TYPE,), (DIM_ZONE,),
                                 (DIM_TYPE, DIM_REGION, DIM_ZONE)]))
def test_parity_property(retention_rounds, churn, start_off, width, bucket,
                         group_by):
    """Any eviction boundary x any window x any bucketing: engine == oracle."""
    base = Path(tempfile.mkdtemp(prefix="analytics-parity-"))
    archive = SpotLakeArchive(
        data_dir=base, lake=True,
        retention=RetentionPolicy(max_age_seconds=retention_rounds * INTERVAL))
    try:
        _drive(archive, churn=churn)
        start = EPOCH + start_off * INTERVAL + 7.0
        spec = AggSpec.make("sps", SPS_MEASURE, start,
                            start + width * INTERVAL,
                            bucket_seconds=bucket, group_by=group_by,
                            aggregates=ALL_AGGS)
        verdict = compare_aggregates(archive.analytics.run(spec),
                                     reference_aggregate(archive, spec))
        assert verdict["identical"], verdict["mismatch"]
    finally:
        archive.close()
        shutil.rmtree(base, ignore_errors=True)
