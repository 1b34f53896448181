"""Asynchronous approximate BVC with the restricted round structure (Section 4).

The asynchronous restricted structure mirrors Dolev et al.'s classic
approximate-agreement skeleton: in its round ``t`` a process sends its state
(tagged with ``t``) to everyone, then waits for round-``t`` states from
``n - f - 1`` other processes, and updates its state from the ``n - f``
collected vectors.  Theorem 6 shows this structure requires
``n >= (d + 4) f + 1`` — two extra ``f`` compared to the witness-based
algorithm, the price of the simpler communication pattern.

Because two non-faulty processes may wait on *different* ``n - f - 1`` senders,
their collected sets are only guaranteed to share ``n - 3f`` identical vectors
(at least ``n - 2f`` common senders, of which at most ``f`` may have
equivocated).  The Step-2 analogue therefore enumerates subsets of size
``n - 3f`` — large enough that ``Gamma`` is non-empty
(``n - 3f >= (d + 1) f + 1``) and small enough that both processes are
guaranteed to enumerate one common subset, which drives the same contraction
argument with ``gamma = 1 / (n * C(n - f, n - 3f))``.
"""

from __future__ import annotations

from functools import partial
from math import comb
from typing import Callable, Mapping

import numpy as np

from repro.byzantine.adversary import MessageMutator
from repro.core.approx_bvc import plan_rounds
from repro.core.conditions import SystemConfiguration, check_restricted_async
from repro.core.driver import ProtocolOutcome, run_protocol
from repro.core.round_ops import coerce_state, restricted_round_step
from repro.core.safe_area import SafeAreaCalculator
from repro.exceptions import ConfigurationError, ProtocolError
from repro.network.message import Message
from repro.network.scheduler import DeliveryScheduler
from repro.processes.process import AsyncProcess
from repro.processes.registry import ProcessRegistry

__all__ = ["restricted_async_contraction_factor", "RestrictedAsyncProcess", "run_restricted_async_bvc"]


def restricted_async_contraction_factor(process_count: int, fault_bound: int) -> float:
    """Return the per-round contraction weight for the restricted asynchronous algorithm.

    ``gamma = 1 / (n * C(n - f, n - 3f))``: each process averages over the
    ``C(n - f, n - 3f)`` subsets of its collected vectors, and the common
    subset's ``Gamma`` point carries weight at least ``1 / n`` of itself.
    """
    if process_count < 2:
        raise ConfigurationError("consensus is trivial for fewer than 2 processes")
    if fault_bound < 0 or fault_bound >= process_count:
        raise ConfigurationError("fault bound must satisfy 0 <= f < n")
    collected = process_count - fault_bound
    quorum = process_count - 3 * fault_bound
    if quorum < 1:
        raise ConfigurationError("n - 3f must be positive for the restricted asynchronous structure")
    return 1.0 / (process_count * comb(collected, quorum))


def _contraction(process_count: int, fault_bound: int) -> float:
    """The core's ``gamma``: ``1 / n^2`` below the structure's ``n - 3f >= 1`` floor."""
    if process_count - 3 * fault_bound >= 1:
        return restricted_async_contraction_factor(process_count, fault_bound)
    return 1.0 / (process_count * process_count)


class RestrictedAsyncProcess(AsyncProcess):
    """One process of the restricted-round asynchronous approximate BVC algorithm."""

    PROTOCOL = "restricted_async_bvc"

    def __init__(
        self,
        process_id: int,
        configuration: SystemConfiguration,
        input_vector: np.ndarray,
        epsilon: float,
        value_lower: float,
        value_upper: float,
        max_rounds_override: int | None = None,
    ) -> None:
        super().__init__(process_id)
        check_restricted_async(configuration)
        self.configuration = configuration
        self.input_vector, self.gamma, self.total_rounds = plan_rounds(
            configuration,
            input_vector,
            (value_lower, value_upper),
            epsilon,
            _contraction,
            max_rounds_override,
        )
        self.epsilon = float(epsilon)
        fault_bound = configuration.fault_bound
        process_count = configuration.process_count
        self._quorum = max(1, process_count - 3 * fault_bound)
        self._choose_all = SafeAreaCalculator(fault_bound=fault_bound).choose_all
        self._wait_for = process_count - fault_bound - 1
        self._state = self.input_vector.copy()
        self.state_history: list[np.ndarray] = [self._state.copy()]
        self._current_round = 0
        self._received_by_round: dict[int, dict[int, np.ndarray]] = {}
        self._decided = False
        self._decision: np.ndarray | None = None

    # -- asynchronous process interface -------------------------------------------------

    def on_start(self) -> None:
        self._begin_round(1)

    def on_message(self, message: Message) -> None:
        if self._decided:
            return
        if message.protocol != self.PROTOCOL or message.kind != "STATE":
            return
        if not isinstance(message.payload, dict):
            return
        round_index = message.payload.get("round")
        vector = coerce_state(message.payload.get("state"), self.configuration.dimension)
        if not isinstance(round_index, int) or vector is None:
            return
        if round_index < self._current_round:
            return
        bucket = self._received_by_round.setdefault(round_index, {})
        if message.sender in bucket:
            return
        bucket[message.sender] = vector
        self._maybe_finish_round()

    def has_decided(self) -> bool:
        return self._decided

    def decision(self) -> np.ndarray:
        if self._decision is None:
            raise ProtocolError(f"process {self.process_id} has not decided")
        return self._decision

    # -- the algorithm ------------------------------------------------------------------

    def _begin_round(self, round_index: int) -> None:
        self._current_round = round_index
        payload = {"round": round_index, "state": tuple(float(x) for x in self._state)}
        self.send_to_all(
            list(range(self.configuration.process_count)),
            lambda recipient: Message(
                sender=self.process_id,
                recipient=recipient,
                protocol=self.PROTOCOL,
                kind="STATE",
                payload=payload,
                round_index=round_index,
            ),
        )
        # Messages for this round may already have been buffered.
        self._maybe_finish_round()

    def _maybe_finish_round(self) -> None:
        if self._decided or self._current_round == 0:
            return
        bucket = self._received_by_round.get(self._current_round, {})
        collected = {sender: vector for sender, vector in bucket.items() if sender != self.process_id}
        if len(collected) < self._wait_for:
            return
        collected[self.process_id] = self._state
        self._state = self.next_state(collected)
        self.state_history.append(self._state.copy())
        finished_round = self._current_round
        self._received_by_round.pop(finished_round, None)
        if finished_round >= self.total_rounds:
            self._decision = self._state.copy()
            self._decided = True
            return
        self._begin_round(finished_round + 1)

    def next_state(self, collected: Mapping[int, np.ndarray]) -> np.ndarray:
        """Step 2 on one round's collected states (sender id -> state, self included).

        The sorted senders' states go through
        :func:`~repro.core.round_ops.restricted_round_step` at quorum
        ``max(1, n - 3f)``.
        """
        members = sorted(collected)
        return restricted_round_step(
            np.vstack([collected[member] for member in members]),
            self.configuration.fault_bound,
            self._quorum,
            choose_all=self._choose_all,
        )


def run_restricted_async_bvc(
    registry: ProcessRegistry,
    epsilon: float,
    adversary_mutators: dict[int, MessageMutator] | None = None,
    scheduler: DeliveryScheduler | None = None,
    max_rounds_override: int | None = None,
    traffic_observer: Callable[[Message], None] | None = None,
) -> ProtocolOutcome:
    """Run the restricted-round asynchronous approximate BVC algorithm end-to-end.

    The value bounds ``(nu, U)`` are the honest inputs' (``registry.value_bounds()``).
    """
    value_lower, value_upper = registry.value_bounds()
    core = partial(
        RestrictedAsyncProcess,
        epsilon=epsilon,
        value_lower=value_lower,
        value_upper=value_upper,
        max_rounds_override=max_rounds_override,
    )
    return run_protocol(
        registry, core, adversary_mutators, scheduler=scheduler, traffic_observer=traffic_observer
    )
