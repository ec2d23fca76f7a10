"""Tests for value distributions and the score-difference histogram."""

import pytest

from repro.analysis import (
    contradiction_summary,
    score_difference_histogram,
    value_distribution,
)
from repro.core import SpotLakeArchive

from tests.conftest import land


class TestValueDistribution:
    def test_percentages_sum_to_100(self, filled_service, sample_times):
        dist = value_distribution(filled_service.archive, sample_times[::4])
        assert sum(dist.sps_percent.values()) == pytest.approx(100.0)
        assert sum(dist.if_percent.values()) == pytest.approx(100.0)

    def test_sps_concentrated_at_3(self, filled_service, sample_times):
        dist = value_distribution(filled_service.archive, sample_times[::4])
        assert dist.sps_percent[3.0] > 70.0

    def test_counts_reported(self, filled_service, sample_times):
        dist = value_distribution(filled_service.archive, sample_times[::4])
        assert dist.sps_observations > 0
        assert dist.if_observations > 0

    def test_empty_archive(self):
        dist = value_distribution(SpotLakeArchive(), [0.0])
        assert dist.sps_observations == 0
        assert all(v == 0.0 for v in dist.sps_percent.values())


class TestScoreDifference:
    def test_valid_bins(self, filled_service, sample_times):
        histogram = score_difference_histogram(filled_service.archive,
                                               sample_times[::8])
        assert set(histogram) <= {0.0, 0.5, 1.0, 1.5, 2.0}
        assert sum(histogram.values()) == pytest.approx(100.0)

    def test_agreement_modal(self, filled_service, sample_times):
        histogram = score_difference_histogram(filled_service.archive,
                                               sample_times[::8])
        assert histogram[0.0] == max(histogram.values())

    def test_known_construction(self):
        archive = SpotLakeArchive()
        land(archive, "sps", [("a.large", "r1", "r1a", 3, 0)])
        land(archive, "advisor", [("a.large", "r1", 0.3, 1.0, 60, 0)])  # full clash
        land(archive, "sps", [("b.large", "r1", "r1a", 2, 0)])
        land(archive, "advisor", [("b.large", "r1", 0.12, 2.0, 60, 0)])  # agree
        histogram = score_difference_histogram(archive, [10.0])
        assert histogram == {0.0: 50.0, 2.0: 50.0}

    def test_empty(self):
        assert score_difference_histogram(SpotLakeArchive(), [0.0]) == {}


class TestContradictionSummary:
    def test_summary_fields(self):
        summary = contradiction_summary({0.0: 50.0, 1.5: 30.0, 2.0: 20.0})
        assert summary["exact_agreement"] == 50.0
        assert summary["full_contradiction"] == 20.0
        assert summary["severe_disagreement"] == 50.0
