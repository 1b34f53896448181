"""Unit tests for the workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workloads.generators import (
    basis_counterexample_registry,
    gradient_registry,
    intro_counterexample_registry,
    probability_vector_registry,
    robot_position_registry,
    uniform_box_registry,
)


class TestUniformBox:
    def test_shapes_and_bounds(self):
        registry = uniform_box_registry(6, 3, 1, lower=-2.0, upper=2.0, seed=1)
        assert registry.configuration.process_count == 6
        for pid in registry.process_ids:
            vector = registry.input_of(pid)
            assert vector.shape == (3,)
            assert np.all(vector >= -2.0) and np.all(vector <= 2.0)

    def test_fault_count_respected(self):
        registry = uniform_box_registry(6, 2, 2, fault_count=1, seed=2)
        assert len(registry.faulty_ids) == 1

    def test_deterministic_given_seed(self):
        a = uniform_box_registry(5, 2, 1, seed=3)
        b = uniform_box_registry(5, 2, 1, seed=3)
        assert a.faulty_ids == b.faulty_ids
        for pid in a.process_ids:
            assert np.allclose(a.input_of(pid), b.input_of(pid))

    def test_one_draw_equals_the_per_process_draws(self):
        # The generator draws the (n, d) box in one call; the stream is the
        # one n draws of size d consume, so every input and fault set stays.
        for seed in range(200):
            n, d, f = 4 + seed % 9, 1 + seed % 4, 1 + seed % 3
            registry = uniform_box_registry(n, d, f, lower=-1.5, upper=2.0, seed=seed)
            rng = np.random.default_rng(seed)
            for pid in range(n):
                assert registry.input_of(pid).tobytes() == rng.uniform(-1.5, 2.0, size=d).tobytes()
            chosen = rng.choice(n, size=f, replace=False)
            assert registry.faulty_ids == frozenset(int(pid) for pid in chosen)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_box_registry(5, 2, 1, lower=1.0, upper=0.0)

    def test_invalid_fault_count_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_box_registry(5, 2, 1, fault_count=9)


class TestDomainWorkloads:
    def test_probability_vectors_lie_on_simplex(self):
        registry = probability_vector_registry(5, 4, 1, seed=4)
        for pid in registry.process_ids:
            vector = registry.input_of(pid)
            assert np.all(vector >= 0)
            assert float(vector.sum()) == pytest.approx(1.0)

    def test_robot_positions_inside_arena(self):
        registry = robot_position_registry(6, 1, dimension=3, arena_size=5.0, seed=5)
        for pid in registry.process_ids:
            vector = registry.input_of(pid)
            assert np.all(vector >= 0.0) and np.all(vector <= 5.0)

    def test_gradient_inputs_cluster_around_true_gradient(self):
        registry = gradient_registry(8, 4, 1, noise_scale=0.01, seed=6)
        cloud = np.vstack([registry.input_of(pid) for pid in registry.process_ids])
        spread = cloud.max(axis=0) - cloud.min(axis=0)
        assert np.all(spread < 0.2)


class TestCounterexamples:
    def test_intro_counterexample_literal(self):
        registry = intro_counterexample_registry()
        assert registry.configuration.process_count == 4
        assert registry.faulty_ids == frozenset({3})
        for pid in registry.honest_ids:
            assert float(registry.input_of(pid).sum()) == pytest.approx(1.0)

    def test_intro_counterexample_extended(self):
        registry = intro_counterexample_registry(extended=True)
        assert registry.configuration.process_count == 5
        assert registry.faulty_ids == frozenset({4})

    def test_basis_counterexample(self):
        registry = basis_counterexample_registry(3, epsilon=0.25)
        assert registry.configuration.process_count == 5
        assert np.allclose(registry.input_of(0), [1.0, 0.0, 0.0])
        assert np.allclose(registry.input_of(4), np.zeros(3))

    def test_basis_counterexample_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            basis_counterexample_registry(0)
