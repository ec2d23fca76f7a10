"""Generation-stamped rollup cache and result memo of the analytics runtime.

The invalidation contract under test (DESIGN.md "Vectorized analytics &
rollups"): a cached per-day partial is served only while the series
generation proves it current; an append drops only days at or past the
stale frontier (appends are monotone in time); an eviction bumps
``Table.eviction_generation`` and invalidates a series' rollups
wholesale.  Staleness is never acceptable -- every reuse scenario is
cross-checked against the row-at-a-time reference oracle.
"""

import pytest

from repro.core.archive import DIM_TYPE, SpotLakeArchive
from repro.lake import SPS_MEASURE
from repro.timeseries import RetentionPolicy
from repro.timeseries.vector import AggSpec

from ..analysis.reference import compare_aggregates, reference_aggregate

from tests.conftest import land

DAY = 86400.0
EPOCH = 1640995200.0  # 2022-01-01 UTC, day-aligned
DAYS = 5
PER_DAY = 4
TYPES = 3


def _fill(archive: SpotLakeArchive, days: int = DAYS) -> float:
    last = EPOCH
    for d in range(days):
        for s in range(PER_DAY):
            t = EPOCH + d * DAY + s * (DAY / PER_DAY)
            for p in range(TYPES):
                land(archive, "sps", [(f"pool{p}.large", "r1", "r1a",
                                       (d + s + p) % 3 + 1, t)])
            last = t
    return last


def _day_spec(days: int = DAYS) -> AggSpec:
    return AggSpec.make("sps", SPS_MEASURE, EPOCH, EPOCH + days * DAY,
                        bucket_seconds=DAY, group_by=(DIM_TYPE,),
                        aggregates=("count", "mean", "std", "last",
                                    "change_count"))


def _assert_oracle(archive: SpotLakeArchive, spec: AggSpec) -> None:
    verdict = compare_aggregates(archive.analytics.run(spec),
                                 reference_aggregate(archive, spec))
    assert verdict["identical"], verdict["mismatch"]


class TestResultMemo:
    def test_repeat_query_hits_the_result_cache(self):
        archive = SpotLakeArchive()
        try:
            _fill(archive)
            spec = _day_spec()
            first = archive.analytics.run(spec)
            again = archive.analytics.run(spec)
            stats = archive.analytics.stats()
            assert stats["queries"] == 2
            assert stats["result_hits"] == 1
            assert stats["result_misses"] == 1
            assert again is first  # the memo shares the object
        finally:
            archive.close()

    def test_cacheless_archive_recomputes(self):
        archive = SpotLakeArchive(cache=False)
        try:
            _fill(archive)
            spec = _day_spec()
            archive.analytics.run(spec)
            archive.analytics.run(spec)
            stats = archive.analytics.stats()
            assert stats["result_hits"] == 0
            assert stats["queries"] == 2
        finally:
            archive.close()


class TestRollupGenerationStamps:
    def test_first_run_computes_every_day_partial(self):
        archive = SpotLakeArchive()
        try:
            _fill(archive)
            archive.analytics.run(_day_spec())
            stats = archive.analytics.stats()
            assert stats["rollup_day_recomputes"] == DAYS * TYPES
            assert stats["rollup_day_hits"] == 0
            assert stats["rollup_invalidations"] == 0
        finally:
            archive.close()

    def test_append_reuses_pre_frontier_days(self):
        """An append invalidates only days >= the stale frontier."""
        archive = SpotLakeArchive()
        try:
            last = _fill(archive)
            spec = _day_spec()
            archive.analytics.run(spec)
            baseline = archive.analytics.stats()
            # one new observation on the last day bumps every touched
            # series' generation, so the result memo must NOT serve the
            # stale result -- but day partials before the frontier stay
            land(archive, "sps", [("pool0.large", "r1", "r1a", 9, last + 1.0)])
            result = archive.analytics.run(spec)
            stats = archive.analytics.stats()
            assert stats["result_hits"] == baseline["result_hits"]
            assert stats["rollup_day_hits"] > 0
            recomputed = stats["rollup_day_recomputes"] \
                - baseline["rollup_day_recomputes"]
            # strictly fewer than a full rebuild of the appended series
            assert 0 < recomputed < DAYS * TYPES
            # and the served numbers reflect the append (no staleness)
            verdict = compare_aggregates(result,
                                         reference_aggregate(archive, spec))
            assert verdict["identical"], verdict["mismatch"]
        finally:
            archive.close()

    def test_warm_repeat_after_memo_bust_hits_every_day(self):
        """Day partials outlive the result memo (cacheless archive)."""
        archive = SpotLakeArchive(cache=False)
        try:
            _fill(archive)
            spec = _day_spec()
            archive.analytics.run(spec)
            archive.analytics.run(spec)
            stats = archive.analytics.stats()
            assert stats["rollup_day_recomputes"] == DAYS * TYPES
            assert stats["rollup_day_hits"] == DAYS * TYPES
        finally:
            archive.close()

    def test_non_day_aligned_specs_bypass_the_rollup_cache(self):
        archive = SpotLakeArchive()
        try:
            _fill(archive)
            for spec in (
                AggSpec.make("sps", SPS_MEASURE, EPOCH + 1.0,
                             EPOCH + DAYS * DAY, bucket_seconds=DAY),
                AggSpec.make("sps", SPS_MEASURE, EPOCH, EPOCH + DAYS * DAY,
                             bucket_seconds=DAY / 2),
                AggSpec.make("sps", SPS_MEASURE, EPOCH, EPOCH + DAYS * DAY),
            ):
                _assert_oracle(archive, spec)
            stats = archive.analytics.stats()
            assert stats["rollup_day_recomputes"] == 0
            assert stats["rollup_day_hits"] == 0
        finally:
            archive.close()


class TestEvictionInvalidation:
    def test_eviction_drops_rollups_wholesale(self):
        archive = SpotLakeArchive(
            retention=RetentionPolicy(max_age_seconds=2 * DAY))
        try:
            last = _fill(archive)
            archive.commit_round(last)
            spec = AggSpec.make(
                "sps", SPS_MEASURE, EPOCH + (DAYS - 2) * DAY,
                EPOCH + DAYS * DAY, bucket_seconds=DAY,
                group_by=(DIM_TYPE,), aggregates=("count", "mean"))
            _assert_oracle(archive, spec)
            assert archive.analytics.stats()["rollup_day_recomputes"] > 0

            # another write plus a retention sweep advances the cutoff,
            # evicting rows and bumping the eviction generation
            t2 = last + 2 * DAY
            land(archive, "sps", [("pool0.large", "r1", "r1a", 2, t2)])
            archive.commit_round(t2)
            assert archive.store.table("sps").eviction_generation > 0

            late = AggSpec.make(
                "sps", SPS_MEASURE, EPOCH + DAYS * DAY,
                EPOCH + (DAYS + 2) * DAY, bucket_seconds=DAY,
                group_by=(DIM_TYPE,), aggregates=("count", "mean"))
            _assert_oracle(archive, late)
            assert archive.analytics.stats()["rollup_invalidations"] > 0
        finally:
            archive.close()
