"""Synchronous approximate BVC with the restricted round structure (Section 4).

The restricted structure trades processes for simplicity: in every synchronous
round each process simply sends its current state to everyone and updates its
state from whatever it received (one message delay per round, no embedded
broadcast protocol).  Theorem 6 shows ``n >= (d + 2) f + 1`` is necessary and
sufficient for this structure.

Round ``t`` at process ``p_i``:

1. send ``v_i[t-1]`` to all processes; collect the states sent by the others
   this round, substituting the default all-zero vector for processes that
   sent nothing (only Byzantine processes ever stay silent in a synchronous
   complete graph with reliable channels);
2. update ``v_i[t]`` as in Step 2 of the Section 3.2 algorithm, with
   ``B_i[t]`` the collected states: average the deterministic ``Gamma`` points
   of all ``(n - f)``-subsets.

Because any two non-faulty processes receive identical vectors from the
``n - f >= (d + 1) f + 1`` non-faulty processes, their subset enumerations
share at least one common subset, which is what drives the contraction
argument (with the same ``gamma = 1 / (n * C(n, n - f))`` as the unrestricted
algorithm).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.byzantine.adversary import MessageMutator
from repro.core.approx_bvc import contraction_factor, plan_rounds
from repro.core.conditions import SystemConfiguration, check_restricted_sync
from repro.core.driver import ProtocolOutcome, run_protocol
from repro.core.round_ops import coerce_state, restricted_round_step
from repro.core.safe_area import SafeAreaCalculator
from repro.exceptions import ProtocolError
from repro.network.message import Message
from repro.processes.process import SyncProcess
from repro.processes.registry import ProcessRegistry

__all__ = ["RestrictedSyncProcess", "run_restricted_sync_bvc"]


class RestrictedSyncProcess(SyncProcess):
    """One process of the restricted-round synchronous approximate BVC algorithm."""

    PROTOCOL = "restricted_sync_bvc"

    def __init__(
        self,
        process_id: int,
        configuration: SystemConfiguration,
        input_vector: np.ndarray,
        epsilon: float,
        value_lower: float,
        value_upper: float,
        max_rounds_override: int | None = None,
        allow_insufficient: bool = False,
    ) -> None:
        super().__init__(process_id)
        check_restricted_sync(configuration, allow_insufficient=allow_insufficient)
        self.configuration = configuration
        self.input_vector, self.gamma, self.total_rounds = plan_rounds(
            configuration,
            input_vector,
            (value_lower, value_upper),
            epsilon,
            contraction_factor,
            max_rounds_override,
        )
        self.epsilon = float(epsilon)
        self._quorum = configuration.process_count - configuration.fault_bound
        self._choose_all = SafeAreaCalculator(fault_bound=configuration.fault_bound).choose_all
        self._state = self.input_vector.copy()
        self.state_history: list[np.ndarray] = [self._state.copy()]
        self._decided = False
        self._decision: np.ndarray | None = None

    def outgoing(self, round_index: int) -> list[Message]:
        if round_index > self.total_rounds:
            return []
        payload = {"state": tuple(float(x) for x in self._state)}
        return [
            Message(
                sender=self.process_id,
                recipient=recipient,
                protocol=self.PROTOCOL,
                kind="STATE",
                payload=payload,
                round_index=round_index,
            )
            for recipient in range(self.configuration.process_count)
            if recipient != self.process_id
        ]

    def deliver(self, round_index: int, inbox: list[Message]) -> None:
        if round_index > self.total_rounds or self._decided:
            return
        default = np.zeros(self.configuration.dimension)
        received: dict[int, np.ndarray] = {self.process_id: self._state.copy()}
        for message in inbox:
            if message.protocol != self.PROTOCOL or message.kind != "STATE":
                continue
            if not isinstance(message.payload, dict):
                continue
            vector = coerce_state(message.payload.get("state"), self.configuration.dimension)
            if vector is not None:
                received[message.sender] = vector
        for process_id in range(self.configuration.process_count):
            received.setdefault(process_id, default.copy())
        # The Step-2 update itself is the pure function in core.round_ops,
        # shared with the columnar engine (repro.engine.vectorized).
        matrix = np.vstack(
            [received[process_id] for process_id in range(self.configuration.process_count)]
        )
        self._state = restricted_round_step(
            matrix, self.configuration.fault_bound, self._quorum, choose_all=self._choose_all
        )
        self.state_history.append(self._state.copy())
        if round_index >= self.total_rounds:
            self._decision = self._state.copy()
            self._decided = True

    def has_decided(self) -> bool:
        return self._decided

    def decision(self) -> np.ndarray:
        if self._decision is None:
            raise ProtocolError(f"process {self.process_id} has not decided")
        return self._decision


def run_restricted_sync_bvc(
    registry: ProcessRegistry,
    epsilon: float,
    adversary_mutators: dict[int, MessageMutator] | None = None,
    value_bounds: tuple[float, float] | None = None,
    max_rounds_override: int | None = None,
    allow_insufficient: bool = False,
    traffic_observer: Callable[[Message], None] | None = None,
) -> ProtocolOutcome:
    """Run the restricted-round synchronous approximate BVC algorithm end-to-end."""
    value_lower, value_upper = value_bounds if value_bounds is not None else registry.value_bounds()
    core = partial(
        RestrictedSyncProcess,
        epsilon=epsilon,
        value_lower=value_lower,
        value_upper=value_upper,
        max_rounds_override=max_rounds_override,
        allow_insufficient=allow_insufficient,
    )
    return run_protocol(registry, core, adversary_mutators, traffic_observer=traffic_observer)
