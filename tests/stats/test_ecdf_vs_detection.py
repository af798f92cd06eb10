"""Consistency between the stats layer and WeHe's detection pipeline."""

import numpy as np
import pytest

from repro.wehe.detection import area_test_statistic
from repro.stats.ks import ks_2samp


@pytest.fixture
def rng():
    return np.random.default_rng(53)


class TestConsistency:
    def test_ks_statistic_is_max_ecdf_gap(self, rng):
        x = rng.normal(0, 1, 60)
        y = rng.normal(0.5, 1, 80)
        grid = np.concatenate([x, y])
        cdf_x = np.searchsorted(np.sort(x), grid, side="right") / x.size
        cdf_y = np.searchsorted(np.sort(y), grid, side="right") / y.size
        gap = np.max(np.abs(cdf_x - cdf_y))
        assert ks_2samp(x, y).statistic == pytest.approx(gap)

    def test_area_statistic_bounded_by_ks(self, rng):
        # The mean CDF gap can never exceed the max CDF gap.
        x = rng.normal(0, 1, 60)
        y = rng.normal(1.0, 1, 60)
        assert area_test_statistic(x, y) <= ks_2samp(x, y).statistic + 1e-12
