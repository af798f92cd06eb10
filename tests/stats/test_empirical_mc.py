"""Empirical summary and Monte-Carlo subsampling tests."""

import numpy as np
import pytest

from repro.stats.empirical import summarize
from repro.stats.montecarlo import (
    relative_mean_difference,
    relative_mean_difference_distribution,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestEcdf:
    def test_summarize_fields(self, rng):
        stats = summarize(rng.uniform(0, 10, 50))
        assert stats["min"] <= stats["q1"] <= stats["median"]
        assert stats["median"] <= stats["q3"] <= stats["max"]
        assert stats["n"] == 50


class TestRelativeMeanDifference:
    def test_sign_convention(self):
        assert relative_mean_difference([10.0], [5.0]) == pytest.approx(0.5)
        assert relative_mean_difference([5.0], [10.0]) == pytest.approx(-0.5)

    def test_equal_means_zero(self):
        assert relative_mean_difference([3.0, 5.0], [4.0, 4.0]) == 0.0

    def test_zero_denominator(self):
        assert relative_mean_difference([0.0], [0.0]) == 0.0

    def test_bounded_by_one(self, rng):
        for _ in range(20):
            x = rng.uniform(0, 100, 10)
            y = rng.uniform(0, 100, 10)
            assert abs(relative_mean_difference(x, y)) <= 1.0


class TestOdiffDistribution:
    def test_size_matches_iterations(self, rng):
        x = rng.uniform(5, 10, 40)
        y = rng.uniform(5, 10, 40)
        values = relative_mean_difference_distribution(x, y, 57, rng)
        assert len(values) == 57

    def test_identical_inputs_centre_near_zero(self, rng):
        x = rng.uniform(5, 10, 200)
        values = relative_mean_difference_distribution(x, x, 300, rng)
        assert abs(np.mean(values)) < 0.05

    def test_disjoint_inputs_large_difference(self, rng):
        x = rng.uniform(9, 10, 50)
        y = rng.uniform(1, 2, 50)
        values = relative_mean_difference_distribution(x, y, 100, rng)
        assert np.min(values) > 0.7

    def test_rejects_tiny_samples(self, rng):
        with pytest.raises(ValueError):
            relative_mean_difference_distribution([1.0], [1.0, 2.0], 10, rng)

    def test_rejects_zero_iterations(self, rng):
        with pytest.raises(ValueError):
            relative_mean_difference_distribution([1.0, 2.0], [1.0, 2.0], 0, rng)

