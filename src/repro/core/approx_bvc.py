"""Approximate Byzantine vector consensus in asynchronous systems (Section 3.2).

Each process maintains a vector state ``v_i[t]`` (initially its input).  In
round ``t`` it obtains, through the AAD-style witness exchange
(:mod:`repro.broadcast.witness`), a set ``B_i[t]`` of at least ``n - f`` state
tuples satisfying Properties 1-3, and then updates its state:

* for each subset ``C`` of ``B_i[t]`` with ``|C| = n - f`` (or, with the
  Appendix F optimisation, for each witness's first ``n - f`` tuples), add to
  ``Z_i`` one deterministically chosen point of ``Gamma(Phi(C))``;
* ``v_i[t] =`` the average of the points in ``Z_i``  (Equation (9)).

After ``1 + ceil( log_{1/(1-gamma)} (U - nu) / epsilon )`` rounds (the paper's
static termination rule, with ``gamma = 1 / (n * C(n, n-f))`` or ``1 / n^2``
for the optimised variant), the process decides its current state.  Validity
holds because every ``Gamma(Phi(C))`` point is a convex combination of honest
round-``t-1`` states; epsilon-agreement holds because every coordinate's range
across honest processes contracts by at least ``1 - gamma`` per round
(Equation (12)).
"""

from __future__ import annotations

from functools import partial
from math import ceil, comb, log
from typing import Any, Callable

import numpy as np

from repro.broadcast.witness import RoundExchangeResult, WitnessExchange
from repro.byzantine.adversary import MessageMutator
from repro.core.conditions import SystemConfiguration, check_approx_async
from repro.core.driver import ProtocolOutcome, run_protocol
from repro.core.round_ops import approx_round_step, approx_subset_families
from repro.core.safe_area import SafeAreaCalculator
from repro.exceptions import ConfigurationError, ProtocolError
from repro.network.message import Message, message_from_fields, next_message_sequence
from repro.network.scheduler import DeliveryScheduler
from repro.processes.process import AsyncProcess
from repro.processes.registry import ProcessRegistry

__all__ = [
    "contraction_factor",
    "witness_contraction_factor",
    "round_threshold",
    "plan_rounds",
    "ApproxBVCProcess",
    "run_approx_bvc",
]


def contraction_factor(process_count: int, fault_bound: int) -> float:
    """Return Equation (11)'s per-round weight ``gamma = 1 / (n * C(n, n - f))``.

    This is the weight of an update that averages over every ``(n - f)``-subset
    (the synchronous restricted-round algorithm);
    :func:`witness_contraction_factor` is the asynchronous algorithm's.
    """
    _check_counts(process_count, fault_bound)
    return 1.0 / (process_count * comb(process_count, process_count - fault_bound))


def witness_contraction_factor(process_count: int, fault_bound: int) -> float:
    """Return Appendix F's per-round weight ``gamma = 1 / n^2``.

    Step 2 of the asynchronous algorithm averages over the witnesses' reported
    member sets, at most ``n`` subsets, so ``1 / n^2`` suffices.
    """
    _check_counts(process_count, fault_bound)
    return 1.0 / (process_count * process_count)


def _check_counts(process_count: int, fault_bound: int) -> None:
    if process_count < 2:
        raise ConfigurationError("consensus is trivial for fewer than 2 processes")
    if fault_bound < 0 or fault_bound >= process_count:
        raise ConfigurationError("fault bound must satisfy 0 <= f < n")


def round_threshold(value_range: float, epsilon: float, gamma: float) -> int:
    """Return the number of rounds of the static termination rule.

    ``1 + ceil( log_{1/(1-gamma)} (value_range / epsilon) )`` — Step 3 of the
    algorithm, with ``value_range = U - nu``.  At least one round is always
    executed so that the decision is well defined.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if not (0.0 < gamma < 1.0):
        raise ConfigurationError("gamma must be in (0, 1)")
    if value_range <= epsilon:
        return 1
    return 1 + ceil(log(value_range / epsilon) / log(1.0 / (1.0 - gamma)))


def plan_rounds(
    configuration: SystemConfiguration,
    input_vector: np.ndarray,
    value_bounds: tuple[float, float],
    epsilon: float,
    contraction: Callable[[int, int], float],
    max_rounds_override: int | None,
) -> tuple[np.ndarray, float, int]:
    """The round-based algorithms' prologue: the checked input, ``gamma`` and the round count.

    In order: the input must be a ``(d,)`` vector and ``value_bounds`` an
    ordered ``(nu, U)`` pair; ``gamma = contraction(n, f)``; the static
    threshold of :func:`round_threshold` — computed, and able to raise,
    even when ``max_rounds_override`` replaces it.
    """
    vector = np.asarray(input_vector, dtype=float)
    if vector.shape != (configuration.dimension,):
        raise ProtocolError(
            f"input vector has shape {vector.shape}, expected ({configuration.dimension},)"
        )
    value_lower, value_upper = value_bounds
    if value_upper < value_lower:
        raise ConfigurationError("value_upper must be at least value_lower")
    epsilon = float(epsilon)
    gamma = contraction(configuration.process_count, configuration.fault_bound)
    computed_rounds = round_threshold(value_upper - value_lower, epsilon, gamma)
    total_rounds = computed_rounds if max_rounds_override is None else max_rounds_override
    return vector, gamma, total_rounds


class _Outbox:
    """The exchange's ``send_all``: one protocol message per peer, tagged with the round.

    ``round_index`` is the process's current round (0 before it starts);
    the process advances it and keeps ``transport`` current.  The outbox
    holds no reference to its process, so handing ``send_all`` to the
    exchange makes no reference cycle.
    """

    __slots__ = ("sender", "protocol", "recipients", "round_index", "transport")

    def __init__(
        self,
        sender: int,
        protocol: str,
        recipients: tuple[int, ...],
        transport: Callable[[Message], None],
    ) -> None:
        self.sender = sender
        self.protocol = protocol
        self.recipients = recipients
        self.round_index = 0
        self.transport = transport

    def send_all(self, kind: str, payload: dict[str, Any]) -> None:
        # One call per echo, ready or report: the n - 1 messages, in
        # recipient order, straight to the bound transport.
        transport = self.transport
        sender, protocol, round_index = self.sender, self.protocol, self.round_index
        for recipient in self.recipients:
            transport(message_from_fields(
                (sender, recipient, protocol, kind, payload, round_index, next_message_sequence())
            ))


class ApproxBVCProcess(AsyncProcess):
    """One process of the asynchronous Approximate BVC algorithm."""

    PROTOCOL = "approx_bvc"

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
        check_approx_async(configuration)
        self.configuration = configuration
        self.input_vector, self.gamma, self.total_rounds = plan_rounds(
            configuration,
            input_vector,
            (value_lower, value_upper),
            epsilon,
            witness_contraction_factor,
            max_rounds_override,
        )
        self.epsilon = float(epsilon)
        if self.total_rounds < 1:
            raise ConfigurationError("the algorithm must run at least one round")
        self._chooser = SafeAreaCalculator(fault_bound=configuration.fault_bound)
        self._state = self.input_vector.copy()
        self.state_history: list[np.ndarray] = [self._state.copy()]
        self._decided = False
        self._decision: np.ndarray | None = None
        process_ids = tuple(range(configuration.process_count))
        self._outbox = _Outbox(
            process_id,
            self.PROTOCOL,
            tuple(pid for pid in process_ids if pid != process_id),
            self._send,
        )
        self._exchange = WitnessExchange(
            owner_id=process_id,
            process_ids=process_ids,
            fault_bound=configuration.fault_bound,
            dimension=configuration.dimension,
            send_all=self._outbox.send_all,
        )
        self._handle_broadcast = self._exchange.reliable_broadcast.handle

    # -- transport plumbing ----------------------------------------------------------

    def bind_transport(self, send: Callable[[Message], None]) -> None:
        super().bind_transport(send)
        self._outbox.transport = send

    # -- asynchronous process interface -------------------------------------------------

    def on_start(self) -> None:
        self._advance_to_next_round()

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if message.protocol != self.PROTOCOL or not isinstance(payload, dict):
            return
        kind = message.kind
        if kind == WitnessExchange.KIND_REPORT:
            completed = self._exchange.on_report(message.sender, payload)
        else:
            # The engine ignores every kind that is not its own; the exchange
            # hears only what it delivers.
            delivery = self._handle_broadcast(message.sender, kind, payload)
            if delivery is None:
                return
            completed = self._exchange.on_delivery(delivery)
        if completed is not None:
            self._on_round_complete(completed)

    def has_decided(self) -> bool:
        return self._decided

    def decision(self) -> np.ndarray:
        if self._decision is None:
            raise ProtocolError(f"process {self.process_id} has not decided")
        return self._decision

    # -- the algorithm ------------------------------------------------------------------

    def _advance_to_next_round(self) -> None:
        self._outbox.round_index += 1
        completed = self._exchange.start_round(self._outbox.round_index, self._state)
        if completed is not None:
            self._on_round_complete(completed)

    def _on_round_complete(self, result: RoundExchangeResult) -> None:
        if self._decided or result.round_index != self._outbox.round_index:
            return
        self._state = self._compute_new_state(result)
        self.state_history.append(self._state.copy())
        if self._outbox.round_index >= self.total_rounds:
            self._decision = self._state.copy()
            self._decided = True
            return
        self._advance_to_next_round()

    def _compute_new_state(self, result: RoundExchangeResult) -> np.ndarray:
        quorum = self.configuration.process_count - self.configuration.fault_bound
        subset_families = self._subset_families(result, quorum)
        if not subset_families:
            # Cannot happen when the exchange met its quorum, but stay total.
            return self._state.copy()
        # The Step-2 update is the pure function in core.round_ops: all queries
        # share the (quorum, d) shape and go to the kernel as one batch.
        return approx_round_step(result.tuples, subset_families, self._chooser)

    def _subset_families(self, result: RoundExchangeResult, quorum: int) -> list[tuple[int, ...]]:
        """Return the subsets ``C`` of ``B_i[t]`` used in Step 2 of the algorithm."""
        return approx_subset_families(list(result.tuples), result.witness_reports, quorum)


def run_approx_bvc(
    registry: ProcessRegistry,
    epsilon: float,
    adversary_mutators: dict[int, MessageMutator] | None = None,
    scheduler: DeliveryScheduler | None = None,
    value_bounds: tuple[float, float] | None = None,
    max_rounds_override: int | None = None,
    traffic_observer: Callable[[Message], None] | None = None,
) -> ProtocolOutcome:
    """Run the Approximate BVC algorithm end-to-end on a simulated asynchronous system.

    Args:
        registry: process cast, inputs and fault set.
        epsilon: the epsilon-agreement parameter.
        adversary_mutators: mutator per faulty process id (missing ids behave honestly).
        scheduler: message-delivery scheduler (defaults to a seeded random one).
        value_bounds: the a-priori bounds ``(nu, U)``; defaults to the bounds of
            the honest inputs, matching the paper's assumption that they are
            known in advance.
        max_rounds_override: run exactly this many rounds instead of the static
            threshold (used by convergence-rate experiments).
        traffic_observer: optional callback that sees every routed message
            (the coordinated adversary's full-information tap).
    """
    value_lower, value_upper = value_bounds if value_bounds is not None else registry.value_bounds()
    core = partial(
        ApproxBVCProcess,
        epsilon=epsilon,
        value_lower=value_lower,
        value_upper=value_upper,
        max_rounds_override=max_rounds_override,
    )
    return run_protocol(
        registry, core, adversary_mutators, scheduler=scheduler, traffic_observer=traffic_observer
    )
