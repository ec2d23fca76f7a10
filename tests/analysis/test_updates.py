"""Tests for the update-frequency study (Figure 10)."""

import math

import numpy as np

from repro.analysis import update_frequency_study
from repro.core import SpotLakeArchive

from tests.conftest import land


class TestUpdateFrequencyStudy:
    def test_ordering_matches_paper(self, filled_service):
        """SPS updates most often, the advisor least (Figure 10)."""
        study = update_frequency_study(filled_service.archive)
        assert study.ordering() == ["sps", "price", "if_score"]

    def test_cdf_shape(self, filled_service):
        study = update_frequency_study(filled_service.archive)
        xs, fs = study.cdf("price")
        assert len(xs) == len(fs)
        assert np.all(np.diff(xs) >= 0)
        assert fs[-1] == 1.0

    def test_empty_dataset(self):
        study = update_frequency_study(SpotLakeArchive())
        assert math.isnan(study.median_hours("sps"))
        xs, fs = study.cdf("sps")
        assert len(xs) == 0

    def test_intervals_positive(self, filled_service):
        study = update_frequency_study(filled_service.archive)
        for values in study.intervals.values():
            assert np.all(values > 0)

    def test_known_construction(self):
        archive = SpotLakeArchive()
        for t, v in [(0, 3), (3600, 2), (7200, 3)]:
            land(archive, "sps", [("a.large", "r1", "r1a", v, t)])
        study = update_frequency_study(archive)
        assert study.median_hours("sps") == 1.0
