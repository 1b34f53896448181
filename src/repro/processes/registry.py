"""Bookkeeping of which processes exist and which are faulty.

A :class:`ProcessRegistry` pairs a :class:`~repro.core.conditions.SystemConfiguration`
with a concrete choice of faulty process ids and the honest processes' input
vectors.  It is the single source of truth the runtimes, the adversary and the
verification layer all consult, so "who is honest" can never drift between
components of an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.conditions import SystemConfiguration
from repro.exceptions import ConfigurationError
from repro.geometry.points import as_cloud, as_point

__all__ = ["ProcessRegistry"]


@dataclass(frozen=True)
class ProcessRegistry:
    """The cast of an experiment: process ids, fault set, honest inputs.

    Attributes:
        configuration: the (n, d, f) system configuration.
        faulty_ids: ids of the processes controlled by the adversary.  The set
            may be smaller than ``f`` (the adversary does not have to use its
            full budget) but never larger.
        inputs: input vector for every process id, including the nominal
            inputs of faulty processes (a Byzantine process may ignore its
            nominal input, but the generators still assign one so that
            baselines and "no actual fault" runs are well defined).
    """

    configuration: SystemConfiguration
    faulty_ids: frozenset[int]
    inputs: dict[int, np.ndarray] = field(default_factory=dict)

    def __init__(
        self,
        configuration: SystemConfiguration,
        inputs: Mapping[int, Sequence[float]],
        faulty_ids: Iterable[int] = (),
    ) -> None:
        faulty = frozenset(int(process_id) for process_id in faulty_ids)
        expected_ids = set(range(configuration.process_count))
        provided_ids = {int(process_id) for process_id in inputs}
        if provided_ids != expected_ids:
            raise ConfigurationError(
                f"inputs must cover exactly process ids {sorted(expected_ids)}, got {sorted(provided_ids)}"
            )
        if not faulty.issubset(expected_ids):
            raise ConfigurationError(
                f"faulty ids {sorted(faulty)} are not a subset of process ids {sorted(expected_ids)}"
            )
        if len(faulty) > configuration.fault_bound:
            raise ConfigurationError(
                f"{len(faulty)} faulty processes exceeds the fault bound f={configuration.fault_bound}"
            )
        normalised = {
            int(process_id): as_point(vector, dimension=configuration.dimension)
            for process_id, vector in inputs.items()
        }
        object.__setattr__(self, "configuration", configuration)
        object.__setattr__(self, "faulty_ids", faulty)
        object.__setattr__(self, "inputs", normalised)

    # -- membership -------------------------------------------------------------

    @property
    def process_ids(self) -> tuple[int, ...]:
        """All process ids, in increasing order."""
        return tuple(range(self.configuration.process_count))

    @property
    def honest_ids(self) -> tuple[int, ...]:
        """Ids of the non-faulty processes, in increasing order."""
        return tuple(pid for pid in self.process_ids if pid not in self.faulty_ids)

    def is_faulty(self, process_id: int) -> bool:
        """Return True when ``process_id`` is adversary controlled."""
        return process_id in self.faulty_ids

    # -- inputs -------------------------------------------------------------------

    def input_of(self, process_id: int) -> np.ndarray:
        """Return the nominal input vector of ``process_id``."""
        return self.inputs[process_id]

    def honest_input_multiset(self) -> np.ndarray:
        """Return the honest inputs as a read-only cloud (the validity hull's generators)."""
        return as_cloud([self.inputs[pid] for pid in self.honest_ids])

    # -- derived quantities ---------------------------------------------------------

    def value_bounds(self) -> tuple[float, float]:
        """Return global coordinate bounds ``(lower, upper)`` over the honest inputs.

        These play the role of the paper's a-priori bounds ``nu`` and ``U`` used
        by the static termination rule of the asynchronous algorithm.
        """
        cloud = self.honest_input_multiset()
        return float(cloud.min()), float(cloud.max())
