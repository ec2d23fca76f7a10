"""Federated history: hot/cold boundary splits, pagination, recovery.

The headline property (issue satellite): for *any* eviction boundary, a
lake archive's federated history -- and a cursor-paginated walk over it
through the serving gateway -- is byte-identical to an un-evicted
in-memory reference driven with the same rounds.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive import SpotLakeArchive
from repro.core.serving import ApiGateway
from repro.lake import (
    FederatedHistory,
    IF_SCORE_MEASURE,
    LAKE_DIR_NAME,
    PRICE_MEASURE,
    SPS_MEASURE,
    SpotDataLake,
)
from repro.timeseries import RetentionPolicy

from .conftest import (EPOCH, LAKE_STEPS, REGION, drive_round,
                       lake_step_cuts)

INTERVAL = 600.0

#: (table, measure, filters) probes spanning all three hot tables,
#: with and without dimension pushdown.
QUERIES = (
    ("sps", SPS_MEASURE, {}),
    ("sps", SPS_MEASURE, {"InstanceType": "pool1.large"}),
    ("advisor", IF_SCORE_MEASURE, {}),
    ("price", PRICE_MEASURE, {"AvailabilityZone": f"{REGION}a"}),
)


def _drive_pair(lake_archive, reference, rounds, churn=4):
    last = EPOCH
    for r in range(rounds):
        drive_round(lake_archive, r, interval=INTERVAL, churn=churn)
        last = drive_round(reference, r, interval=INTERVAL, churn=churn)
    return last


class TestPlanner:
    def test_no_eviction_is_hot_only(self):
        planner = FederatedHistory(SpotDataLake.__new__(SpotDataLake))
        plan = planner.plan(SPS_MEASURE, EPOCH, EPOCH + 100, None)
        assert plan.boundary == float("-inf")
        assert not plan.use_cold and plan.use_hot

    def test_window_split_at_boundary(self):
        planner = FederatedHistory(SpotDataLake.__new__(SpotDataLake))
        both = planner.plan(SPS_MEASURE, EPOCH, EPOCH + 100, EPOCH + 50)
        assert both.use_cold and both.use_hot
        cold_only = planner.plan(SPS_MEASURE, EPOCH, EPOCH + 50, EPOCH + 50)
        assert cold_only.use_cold and not cold_only.use_hot
        hot_only = planner.plan(SPS_MEASURE, EPOCH + 51, EPOCH + 100,
                                EPOCH + 50)
        assert not hot_only.use_cold and hot_only.use_hot


class TestFederatedArchive:
    def test_history_matches_unevicted_reference(self, tmp_path):
        archive = SpotLakeArchive(
            data_dir=tmp_path,
            retention=RetentionPolicy(max_age_seconds=4 * INTERVAL))
        reference = SpotLakeArchive(cache=False)
        try:
            last = _drive_pair(archive, reference, rounds=12)
            assert archive.evicted_through("sps") is not None
            for table, measure, filters in QUERIES:
                fed = archive.history(table, measure, filters, EPOCH, last)
                hot = reference.history(table, measure, filters, EPOCH, last)
                assert fed == hot, (table, measure, filters)
            stats = archive.stats()["lake"]["federated"]
            assert stats["cold_queries"] == len(QUERIES)
            assert stats["cold_rows"] > 0
        finally:
            archive.close()
            reference.close()

    def test_compaction_keeps_federation_exact(self, tmp_path):
        archive = SpotLakeArchive(
            data_dir=tmp_path,
            retention=RetentionPolicy(max_age_seconds=3 * INTERVAL))
        reference = SpotLakeArchive(cache=False)
        try:
            last = _drive_pair(archive, reference, rounds=10)
            archive.lake.compact(include_active=True)
            for table, measure, filters in QUERIES:
                assert archive.history(table, measure, filters, EPOCH, last) \
                    == reference.history(table, measure, filters, EPOCH, last)
        finally:
            archive.close()
            reference.close()


@settings(max_examples=10, deadline=None)
@given(retention_rounds=st.integers(min_value=1, max_value=12),
       churn=st.sampled_from([1, 2, 4]),
       limit=st.integers(min_value=1, max_value=7))
def test_federated_walk_matches_reference(retention_rounds, churn, limit):
    """Any eviction boundary: full reads and paged walks are identical.

    The cursor walk pages through the gateway with a small ``limit`` so
    at least one page straddles the hot/cold boundary; the concatenated
    pages must equal the un-evicted reference exactly -- no duplicated
    and no skipped row at any page edge.
    """
    base = Path(tempfile.mkdtemp(prefix="lake-fed-"))
    archive = SpotLakeArchive(
        data_dir=base,
        retention=RetentionPolicy(max_age_seconds=retention_rounds * INTERVAL))
    reference = SpotLakeArchive(cache=False)
    try:
        last = _drive_pair(archive, reference, rounds=12, churn=churn)
        for table, measure, filters in QUERIES:
            assert archive.history(table, measure, filters, EPOCH, last) \
                == reference.history(table, measure, filters, EPOCH, last)

        gateway = ApiGateway(archive)
        ref_gateway = ApiGateway(reference)
        params = {"start": str(EPOCH), "end": str(last)}
        expected = ref_gateway.get("/sps/history", dict(params))
        assert expected.status == 200

        walked, token, pages = [], None, 0
        while True:
            page_params = dict(params, limit=str(limit))
            if token is not None:
                page_params["next_token"] = token
            page = gateway.get("/sps/history", page_params)
            assert page.status == 200
            walked.extend(page.body["rows"])
            token = page.body["next_token"]
            pages += 1
            if token is None:
                break
            assert pages <= expected.body["total"] + 1  # no cursor loop
        assert walked == expected.body["rows"]
    finally:
        archive.close()
        reference.close()
        shutil.rmtree(base, ignore_errors=True)


@pytest.mark.parametrize("window", LAKE_STEPS)
def test_lake_crash_window_recovers_byte_identical(tmp_path, window):
    """Crash inside each lake publish step; recovery trims and re-lands."""
    from repro._util import stable_hash
    from repro.storage import RecordingIO, SimulatedCrash, recover

    rounds = 5
    recorder = RecordingIO()
    reference = SpotLakeArchive(data_dir=tmp_path / "reference",
                                checkpoint_every=2, io=recorder)
    ref_lake = {0: reference.lake.digest()}
    for committed in range(1, rounds + 1):
        drive_round(reference, committed - 1, types=3)
        ref_lake[committed] = reference.lake.digest()
    reference.close()

    # a seeded occurrence of the step; the victim makes the same operations
    cuts = lake_step_cuts(recorder.log, window)
    crash_dir = tmp_path / "victim"
    victim = SpotLakeArchive(
        data_dir=crash_dir, checkpoint_every=2,
        io=RecordingIO(cut=cuts[stable_hash(window) % len(cuts)]))
    with pytest.raises(SimulatedCrash):
        for r in range(rounds):
            drive_round(victim, r, types=3)
    victim.close()

    state = recover(crash_dir)
    recovered = SpotDataLake(crash_dir / LAKE_DIR_NAME)
    recovered.trim_to(state.last_commit_time)
    assert recovered.digest() == ref_lake[state.rounds_committed]

    # a restarted lake archive adopts the trimmed tier and can keep going
    resumed = SpotLakeArchive(data_dir=crash_dir, checkpoint_every=2)
    try:
        assert resumed.lake.round_count == state.rounds_committed
        for r in range(state.rounds_committed, rounds):
            drive_round(resumed, r, types=3)
        assert resumed.lake.digest() == ref_lake[rounds]
    finally:
        resumed.close()
