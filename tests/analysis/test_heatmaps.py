"""Tests for the temporal/spatial heatmap aggregations."""

import numpy as np
import pytest

from repro.analysis import (
    Heatmap,
    spatial_heatmap,
    spatial_vs_temporal_variation,
    temporal_heatmap,
)

from .reference import (
    _reference_row_means,
    _reference_temporal_heatmap,
    _reference_temporal_std,
)


class TestHeatmapType:
    def test_row_means_skip_all_nan_rows(self):
        hm = Heatmap(["a", "b"], ["x"],
                     np.array([[1.0], [np.nan]]))
        assert hm.row_means() == {"a": 1.0}

    def test_overall_mean_ignores_nan(self):
        hm = Heatmap(["a"], ["x", "y"], np.array([[2.0, np.nan]]))
        assert hm.overall_mean() == 2.0


class TestTemporal:
    def test_shape_and_range(self, filled_service, sample_times):
        catalog = filled_service.cloud.catalog
        day_times = [sample_times[d * 2:(d + 1) * 2] for d in range(40)]
        hm = temporal_heatmap(filled_service.archive, catalog, day_times, "sps")
        assert hm.values.shape == (len(catalog.classes), 40)
        finite = hm.values[~np.isnan(hm.values)]
        assert np.all((finite >= 1.0) & (finite <= 3.0))

    def test_if_dataset(self, filled_service, sample_times):
        catalog = filled_service.cloud.catalog
        day_times = [sample_times[d * 2:(d + 1) * 2] for d in range(10)]
        hm = temporal_heatmap(filled_service.archive, catalog, day_times,
                              "if_score")
        finite = hm.values[~np.isnan(hm.values)]
        assert len(finite) > 0

    @pytest.mark.parametrize("dataset", ["sps", "if_score"])
    def test_byte_identical_to_day_at_a_time_reference(
            self, filled_service, sample_times, dataset):
        """Figure 3 through the single-resample engine path must equal
        the old day-at-a-time, value-at-a-time loop bit for bit."""
        catalog = filled_service.cloud.catalog
        day_times = [sample_times[d * 2:(d + 1) * 2] for d in range(40)]
        new = temporal_heatmap(filled_service.archive, catalog, day_times,
                               dataset)
        old = _reference_temporal_heatmap(filled_service.archive, catalog,
                                          day_times, dataset)
        assert new.row_labels == old.row_labels
        assert new.col_labels == old.col_labels
        assert new.values.tobytes() == old.values.tobytes()
        assert new.row_means() == _reference_row_means(old)
        np.testing.assert_array_equal(new.temporal_std(),
                                      _reference_temporal_std(old))

    def test_unknown_dataset(self, filled_service, sample_times):
        catalog = filled_service.cloud.catalog
        with pytest.raises(ValueError):
            temporal_heatmap(filled_service.archive, catalog,
                             [sample_times[:2]], "weather")


class TestSpatial:
    def test_shape(self, filled_service, sample_times):
        catalog = filled_service.cloud.catalog
        hm = spatial_heatmap(filled_service.archive, catalog,
                             sample_times[::8], "sps")
        assert hm.values.shape == (len(catalog.classes), 17)

    def test_na_cells_for_missing_pools(self, filled_service, sample_times):
        """A 200-pool sample cannot cover every (class, region) cell."""
        catalog = filled_service.cloud.catalog
        hm = spatial_heatmap(filled_service.archive, catalog,
                             sample_times[::8], "sps")
        assert np.any(np.isnan(hm.values))

    def test_spatial_exceeds_temporal(self, filled_service, sample_times):
        catalog = filled_service.cloud.catalog
        day_times = [sample_times[d * 2:(d + 1) * 2] for d in range(40)]
        temporal = temporal_heatmap(filled_service.archive, catalog,
                                    day_times, "sps")
        spatial = spatial_heatmap(filled_service.archive, catalog,
                                  sample_times[::8], "sps")
        variation = spatial_vs_temporal_variation(temporal, spatial)
        assert variation["spatial_std"] > variation["temporal_std"]
