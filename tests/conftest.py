"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.conditions import SystemConfiguration
from repro.obs.registry import get_registry
from repro.processes.registry import ProcessRegistry


class KernelEvents:
    """Movement of ``repro_kernel_events_total`` since construction, by kind.

    ``events.lp_solves`` reads how many LP solves every kernel in this
    process counted since ``events`` was made (an absent kind reads 0).
    """

    def __init__(self) -> None:
        self._baseline = self._totals()

    @staticmethod
    def _totals() -> dict[str, float]:
        family = get_registry().snapshot(collect=False)["repro_kernel_events_total"]
        return {kind: value for (kind,), value in family["samples"].items()}

    def __getattr__(self, kind: str) -> int:
        return int(self._totals().get(kind, 0.0) - self._baseline.get(kind, 0.0))


@pytest.fixture(scope="session")
def kernel_events() -> type[KernelEvents]:
    """Factory: ``kernel_events()`` starts counting kernel events from now."""
    return KernelEvents


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministically seeded random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_registry() -> ProcessRegistry:
    """5 processes, d = 2, f = 1: meets every bound except restricted-async."""
    configuration = SystemConfiguration(process_count=5, dimension=2, fault_bound=1)
    inputs = {
        0: np.asarray([0.0, 0.0]),
        1: np.asarray([1.0, 0.0]),
        2: np.asarray([0.0, 1.0]),
        3: np.asarray([1.0, 1.0]),
        4: np.asarray([0.5, 0.5]),
    }
    return ProcessRegistry(configuration, inputs, faulty_ids={4})


@pytest.fixture
def fault_free_registry() -> ProcessRegistry:
    """4 processes, d = 2, f = 1, but no process actually faulty."""
    configuration = SystemConfiguration(process_count=4, dimension=2, fault_bound=1)
    inputs = {
        0: np.asarray([0.0, 0.0]),
        1: np.asarray([2.0, 0.0]),
        2: np.asarray([0.0, 2.0]),
        3: np.asarray([2.0, 2.0]),
    }
    return ProcessRegistry(configuration, inputs, faulty_ids=frozenset())
