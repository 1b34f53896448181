"""Unit tests for the convergence bookkeeping (Eq. 12 measurements)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.convergence import (
    coordinate_ranges_per_round,
    max_range_per_round,
    measured_contraction_factors,
)
from repro.exceptions import ConfigurationError


def make_histories():
    """Three processes whose 2-D states converge geometrically."""
    histories = {}
    targets = np.asarray([0.5, 0.5])
    starts = {0: np.asarray([0.0, 0.0]), 1: np.asarray([1.0, 0.0]), 2: np.asarray([1.0, 1.0])}
    for pid, start in starts.items():
        history = [start]
        for round_index in range(1, 5):
            history.append(targets + (start - targets) * (0.5 ** round_index))
        histories[pid] = history
    return histories


class TestRangeSeries:
    def test_coordinate_ranges_shape(self):
        ranges = coordinate_ranges_per_round(make_histories())
        assert ranges.shape == (5, 2)
        assert ranges[0, 0] == pytest.approx(1.0)

    def test_ranges_shrink_monotonically(self):
        series = max_range_per_round(make_histories())
        assert all(series[t + 1] <= series[t] + 1e-12 for t in range(len(series) - 1))

    def test_contraction_factors_are_half(self):
        factors = measured_contraction_factors(make_histories())
        assert np.allclose(factors, 0.5)

    def test_contraction_reports_zero_after_collapse(self):
        histories = {0: [np.zeros(1), np.zeros(1), np.zeros(1)],
                     1: [np.zeros(1), np.zeros(1), np.zeros(1)]}
        factors = measured_contraction_factors(histories)
        assert np.allclose(factors, 0.0)

    def test_empty_histories_rejected(self):
        with pytest.raises(ConfigurationError):
            max_range_per_round({})

    def test_histories_truncated_to_shortest(self):
        histories = make_histories()
        histories[0] = histories[0][:3]
        assert coordinate_ranges_per_round(histories).shape == (3, 2)
