"""Unit tests for the impossibility constructions (Theorems 1 and 4 necessity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.impossibility import (
    THEOREM4_EPSILON,
    analyze_async_necessity,
    analyze_sync_necessity,
    theorem1_construction,
    theorem4_construction,
)
from repro.exceptions import ConfigurationError


class TestTheorem1Construction:
    def test_construction_shape(self):
        multiset = theorem1_construction(4)
        assert len(multiset) == 5
        assert multiset.shape[1] == 4

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5])
    def test_gamma_empty_below_the_bound(self, dimension):
        witness = analyze_sync_necessity(dimension)
        assert witness.process_count == dimension + 1
        assert witness.gamma_empty
        assert witness.witness_point is None

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_gamma_nonempty_at_the_bound(self, dimension):
        witness = analyze_sync_necessity(dimension, process_count=dimension + 2)
        assert not witness.gamma_empty
        assert witness.witness_point is not None

    def test_too_few_processes_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_sync_necessity(3, process_count=2)

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            theorem1_construction(0)


class TestTheorem4Construction:
    def test_construction_shape(self):
        multiset = theorem4_construction(3, epsilon=0.25)
        assert len(multiset) == 5
        assert np.allclose(multiset[0], [1.0, 0.0, 0.0])
        assert np.allclose(multiset[4], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_forced_gap_is_four_epsilon(self, dimension):
        witness = analyze_async_necessity(dimension)
        assert witness.epsilon == THEOREM4_EPSILON
        assert witness.max_forced_gap == pytest.approx(4.0 * THEOREM4_EPSILON, abs=1e-6)
        assert witness.violates_epsilon_agreement

    def test_forced_decisions_equal_own_inputs(self):
        witness = analyze_async_necessity(2)
        construction = theorem4_construction(2, epsilon=THEOREM4_EPSILON)
        for index, decision in enumerate(witness.forced_decisions):
            assert np.allclose(decision, construction[index], atol=1e-6)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            theorem4_construction(2, epsilon=0.0)

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            theorem4_construction(0, epsilon=0.1)
