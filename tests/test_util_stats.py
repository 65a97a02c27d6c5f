"""Tests for repro.util.stats."""

import pytest

from repro.util.errors import ValidationError
from repro.util.stats import Ewma, weighted_mean, weighted_percentile


def unit_weights(values):
    return [1] * len(values)


class TestWeightedMeanAndPercentile:
    def test_mean_of_values(self):
        assert weighted_mean([1, 2, 3, 4], unit_weights([1, 2, 3, 4])) == 2.5

    def test_mean_counts_each_weight(self):
        assert weighted_mean([1.0, 4.0], [2, 1]) == 2.0

    def test_mean_rejects_zero_total_weight(self):
        with pytest.raises(ValidationError):
            weighted_mean([], [])

    def test_percentile_median(self):
        assert weighted_percentile([1, 2, 3, 4], unit_weights([1, 2, 3, 4]), 0.5) == 2.5

    def test_percentile_extremes(self):
        values = [5, 1, 9]
        assert weighted_percentile(values, unit_weights(values), 0.0) == 1
        assert weighted_percentile(values, unit_weights(values), 1.0) == 9

    def test_percentile_single_value(self):
        assert weighted_percentile([42], [1], 0.3) == 42

    def test_percentile_of_a_weighted_value(self):
        # [1, 1, 1, 5]: position 1.5 falls between two copies of 1.
        assert weighted_percentile([5, 1], [1, 3], 0.5) == 1

    def test_percentile_rejects_empty(self):
        with pytest.raises(ValidationError):
            weighted_percentile([], [], 0.5)

    def test_percentile_rejects_bad_fraction(self):
        with pytest.raises(ValidationError):
            weighted_percentile([1, 2], [1, 1], 1.5)


class TestEwma:
    def test_first_sample_sets_value(self):
        ewma = Ewma(alpha=0.5)
        assert ewma.value == 0.0
        assert ewma.update(10.0) == 10.0

    def test_smoothing_behaviour(self):
        ewma = Ewma(alpha=0.5, initial=0.0)
        assert ewma.update(10.0) == 5.0
        assert ewma.update(10.0) == 7.5

    def test_alpha_one_tracks_exactly(self):
        ewma = Ewma(alpha=1.0)
        ewma.update(3.0)
        assert ewma.update(8.0) == 8.0

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValidationError):
            Ewma(alpha=0.0)
