"""Resilience bounds from the paper, as executable predicates.

Every algorithm in this package checks its bound at construction time through
these functions, and the benchmark for experiment E13 sweeps them to produce
the resilience-landscape table.  The bounds are:

=====================  =================================  ======================
Setting                Problem                            Bound on ``n``
=====================  =================================  ======================
Synchronous            Exact BVC (Thms 1, 3)              ``max(3f+1, (d+1)f+1)``
Asynchronous           Approximate BVC (Thms 4, 5)        ``(d+2)f + 1``
Sync, restricted round Approximate BVC (Thm 6)            ``(d+2)f + 1``
Async, restricted rnd  Approximate BVC (Thm 6)            ``(d+4)f + 1``
Scalar, synchronous    Exact consensus ([12, 13])         ``3f + 1``
Scalar, asynchronous   Approximate consensus ([1])        ``3f + 1``
=====================  =================================  ======================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.exceptions import ConfigurationError, ResilienceError

__all__ = [
    "Setting",
    "SystemConfiguration",
    "minimum_processes_exact_sync",
    "minimum_processes_approx_async",
    "minimum_processes_restricted_sync",
    "minimum_processes_restricted_async",
    "minimum_processes_scalar",
    "check_exact_sync",
    "check_approx_async",
    "check_restricted_sync",
    "check_restricted_async",
    "resilience_table",
]


class Setting(str, Enum):
    """The four algorithmic settings studied by the paper, plus the scalar base case."""

    EXACT_SYNC = "exact_sync"
    APPROX_ASYNC = "approx_async"
    RESTRICTED_SYNC = "restricted_sync"
    RESTRICTED_ASYNC = "restricted_async"
    SCALAR = "scalar"


@dataclass(frozen=True)
class SystemConfiguration:
    """A system size: ``n`` processes, dimension ``d``, fault bound ``f``.

    Validates only structural sanity (positive counts, ``f < n``); whether the
    configuration meets a particular algorithm's resilience bound is checked by
    the ``check_*`` functions.
    """

    process_count: int
    dimension: int
    fault_bound: int

    def __post_init__(self) -> None:
        if self.process_count < 2:
            raise ConfigurationError(
                f"need at least 2 processes (consensus is trivial for n=1), got {self.process_count}"
            )
        if self.dimension < 1:
            raise ConfigurationError(f"dimension must be positive, got {self.dimension}")
        if self.fault_bound < 0:
            raise ConfigurationError(f"fault bound must be non-negative, got {self.fault_bound}")
        if self.fault_bound >= self.process_count:
            raise ConfigurationError(
                f"fault bound {self.fault_bound} must be smaller than process count {self.process_count}"
            )

    @property
    def n(self) -> int:
        """Alias matching the paper's notation."""
        return self.process_count


def _validate(dimension: int, fault_bound: int) -> None:
    if dimension < 1:
        raise ConfigurationError(f"dimension must be positive, got {dimension}")
    if fault_bound < 0:
        raise ConfigurationError(f"fault bound must be non-negative, got {fault_bound}")


def minimum_processes_exact_sync(dimension: int, fault_bound: int) -> int:
    """Minimum ``n`` for Exact BVC in a synchronous system (Theorems 1 and 3)."""
    _validate(dimension, fault_bound)
    if fault_bound == 0:
        return 2
    return max(3 * fault_bound + 1, (dimension + 1) * fault_bound + 1)


def minimum_processes_approx_async(dimension: int, fault_bound: int) -> int:
    """Minimum ``n`` for Approximate BVC in an asynchronous system (Theorems 4 and 5)."""
    _validate(dimension, fault_bound)
    if fault_bound == 0:
        return 2
    return (dimension + 2) * fault_bound + 1


def minimum_processes_restricted_sync(dimension: int, fault_bound: int) -> int:
    """Minimum ``n`` for the restricted-round synchronous algorithm (Theorem 6)."""
    _validate(dimension, fault_bound)
    if fault_bound == 0:
        return 2
    return (dimension + 2) * fault_bound + 1


def minimum_processes_restricted_async(dimension: int, fault_bound: int) -> int:
    """Minimum ``n`` for the restricted-round asynchronous algorithm (Theorem 6)."""
    _validate(dimension, fault_bound)
    if fault_bound == 0:
        return 2
    return (dimension + 4) * fault_bound + 1


def minimum_processes_scalar(fault_bound: int) -> int:
    """Minimum ``n`` for scalar Byzantine consensus (classical ``3f + 1``)."""
    if fault_bound < 0:
        raise ConfigurationError(f"fault bound must be non-negative, got {fault_bound}")
    if fault_bound == 0:
        return 2
    return 3 * fault_bound + 1


def _check(
    setting: Setting,
    minimum: Callable[[int, int], int],
    configuration: SystemConfiguration,
    allow_insufficient: bool,
) -> None:
    required = minimum(configuration.dimension, configuration.fault_bound)
    if configuration.process_count < required and not allow_insufficient:
        raise ResilienceError(
            f"{setting.value}: n={configuration.process_count} is below the required "
            f"minimum {required} for d={configuration.dimension}, f={configuration.fault_bound}"
        )


def check_exact_sync(configuration: SystemConfiguration, allow_insufficient: bool = False) -> None:
    """Raise :class:`ResilienceError` unless ``n >= max(3f+1, (d+1)f+1)``."""
    _check(Setting.EXACT_SYNC, minimum_processes_exact_sync, configuration, allow_insufficient)


def check_approx_async(configuration: SystemConfiguration, allow_insufficient: bool = False) -> None:
    """Raise :class:`ResilienceError` unless ``n >= (d+2)f + 1``."""
    _check(Setting.APPROX_ASYNC, minimum_processes_approx_async, configuration, allow_insufficient)


def check_restricted_sync(configuration: SystemConfiguration, allow_insufficient: bool = False) -> None:
    """Raise :class:`ResilienceError` unless ``n >= (d+2)f + 1``."""
    _check(Setting.RESTRICTED_SYNC, minimum_processes_restricted_sync, configuration, allow_insufficient)


def check_restricted_async(configuration: SystemConfiguration, allow_insufficient: bool = False) -> None:
    """Raise :class:`ResilienceError` unless ``n >= (d+4)f + 1``."""
    _check(Setting.RESTRICTED_ASYNC, minimum_processes_restricted_async, configuration, allow_insufficient)


def resilience_table(dimensions: list[int], fault_bounds: list[int]) -> list[dict[str, int]]:
    """Return the minimum-``n`` landscape for experiment E13.

    One row per (d, f) pair with the minimum process count for each of the
    four vector settings and the scalar base case.
    """
    rows: list[dict[str, int]] = []
    for dimension in dimensions:
        for fault_bound in fault_bounds:
            rows.append(
                {
                    "dimension": dimension,
                    "fault_bound": fault_bound,
                    "exact_sync": minimum_processes_exact_sync(dimension, fault_bound),
                    "approx_async": minimum_processes_approx_async(dimension, fault_bound),
                    "restricted_sync": minimum_processes_restricted_sync(dimension, fault_bound),
                    "restricted_async": minimum_processes_restricted_async(dimension, fault_bound),
                    "scalar": minimum_processes_scalar(fault_bound),
                }
            )
    return rows
