"""Unit tests for repro.processes.registry and repro.core.conditions.SystemConfiguration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.conditions import SystemConfiguration
from repro.exceptions import ConfigurationError
from repro.processes.registry import ProcessRegistry


def make_registry(fault_ids=(3,)):
    configuration = SystemConfiguration(process_count=4, dimension=2, fault_bound=1)
    inputs = {pid: np.asarray([float(pid), 1.0 - pid]) for pid in range(4)}
    return ProcessRegistry(configuration, inputs, faulty_ids=fault_ids)


class TestSystemConfiguration:
    def test_aliases_match_paper_notation(self):
        configuration = SystemConfiguration(5, 2, 1)
        assert (configuration.process_count, configuration.dimension, configuration.fault_bound) == (5, 2, 1)

    def test_single_process_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfiguration(1, 2, 0)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfiguration(4, 0, 1)

    def test_fault_bound_must_be_below_n(self):
        with pytest.raises(ConfigurationError):
            SystemConfiguration(3, 2, 3)

    def test_negative_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfiguration(3, 2, -1)


class TestProcessRegistry:
    def test_ids_and_fault_classification(self):
        registry = make_registry()
        assert registry.process_ids == (0, 1, 2, 3)
        assert registry.honest_ids == (0, 1, 2)
        assert registry.is_faulty(3)
        assert not registry.is_faulty(0)

    def test_inputs_are_validated_against_dimension(self):
        configuration = SystemConfiguration(2, 3, 0)
        with pytest.raises(Exception):
            ProcessRegistry(configuration, {0: [1.0, 2.0], 1: [1.0, 2.0, 3.0]})

    def test_missing_input_rejected(self):
        configuration = SystemConfiguration(3, 2, 1)
        with pytest.raises(ConfigurationError):
            ProcessRegistry(configuration, {0: [0.0, 0.0], 1: [1.0, 1.0]})

    def test_extra_input_rejected(self):
        configuration = SystemConfiguration(2, 2, 0)
        inputs = {0: [0.0, 0.0], 1: [1.0, 1.0], 2: [2.0, 2.0]}
        with pytest.raises(ConfigurationError):
            ProcessRegistry(configuration, inputs)

    def test_too_many_faulty_rejected(self):
        configuration = SystemConfiguration(4, 2, 1)
        inputs = {pid: [0.0, 0.0] for pid in range(4)}
        with pytest.raises(ConfigurationError):
            ProcessRegistry(configuration, inputs, faulty_ids={2, 3})

    def test_unknown_faulty_id_rejected(self):
        configuration = SystemConfiguration(4, 2, 1)
        inputs = {pid: [0.0, 0.0] for pid in range(4)}
        with pytest.raises(ConfigurationError):
            ProcessRegistry(configuration, inputs, faulty_ids={9})

    def test_fewer_faulty_than_budget_is_allowed(self):
        registry = make_registry(fault_ids=())
        assert registry.honest_ids == (0, 1, 2, 3)

    def test_honest_input_multiset(self):
        registry = make_registry()
        multiset = registry.honest_input_multiset()
        assert multiset.shape == (3, 2)
        assert np.allclose(multiset[0], [0.0, 1.0])

    def test_value_bounds_cover_honest_inputs_only(self):
        configuration = SystemConfiguration(3, 1, 1)
        inputs = {0: [0.0], 1: [1.0], 2: [100.0]}
        registry = ProcessRegistry(configuration, inputs, faulty_ids={2})
        assert registry.value_bounds() == (0.0, 1.0)

    def test_input_of_returns_copyable_vector(self):
        registry = make_registry()
        vector = registry.input_of(1)
        assert vector.shape == (2,)
