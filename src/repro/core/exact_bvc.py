"""Exact Byzantine vector consensus in synchronous systems (paper Section 2.2).

The algorithm is two steps:

1. every process Byzantine-broadcasts its input vector (the paper broadcasts
   each of the ``d`` coordinates with a scalar Byzantine broadcast; this
   implementation supports both that literal per-coordinate mode and a
   whole-vector mode, which is equivalent because the broadcast guarantees are
   value-agnostic).  After the broadcasts every non-faulty process holds the
   *same* multiset ``S`` of ``n`` vectors, in which the entry of every
   non-faulty process is its true input.
2. every process picks, with the same deterministic rule, a point of the safe
   area ``Gamma(S)`` as its decision.  ``Gamma(S)`` is non-empty because
   ``n >= (d + 1) f + 1`` (Lemma 1), and it is contained in the hull of the
   honest inputs because some ``(n - f)``-subset of ``S`` is all-honest.

:class:`ExactBVCProcess` is a :class:`~repro.processes.process.SyncProcess`
that runs ``n`` (or ``n * d``) concurrent EIG broadcasts from one
:class:`~repro.consensus.eig.EigTable` over ``f + 1`` synchronous rounds, and
decides only when its decision is first asked for; :func:`run_exact_bvc` is
the one-call driver used by examples, tests and benchmarks.
"""

from __future__ import annotations

import math
from typing import Callable, Literal, Sequence

import numpy as np

from repro.byzantine.adversary import MessageMutator
from repro.consensus.eig import EigTable, eig_round_count
from repro.core.conditions import SystemConfiguration, check_exact_sync
from repro.core.driver import ProtocolOutcome, run_protocol
from repro.core.safe_area import SafeAreaCalculator
from repro.exceptions import ProtocolError
from repro.geometry.points import as_cloud
from repro.network.message import Message
from repro.processes.process import SyncProcess
from repro.processes.registry import ProcessRegistry

__all__ = ["BroadcastMode", "ExactBVCProcess", "run_exact_bvc"]

BroadcastMode = Literal["per_coordinate", "whole_vector"]


def _finite_float(x: object) -> bool:
    return type(x) is float and math.isfinite(x)


class ExactBVCProcess(SyncProcess):
    """One process of the Exact BVC algorithm.

    Args:
        process_id: this process's id.
        configuration: the (n, d, f) system configuration.
        input_vector: this process's input (a point in ``R^d``).
        broadcast_mode: ``"per_coordinate"`` runs one scalar EIG broadcast per
            (originator, coordinate) pair — the literal algorithm in the paper;
            ``"whole_vector"`` runs one EIG broadcast per originator carrying
            the full vector, which exchanges fewer, larger messages.
        allow_insufficient: skip the resilience check (the coordinate-wise
            baseline needs only ``n >= 3f + 1``).
    """

    PROTOCOL = "exact_bvc"

    def __init__(
        self,
        process_id: int,
        configuration: SystemConfiguration,
        input_vector: np.ndarray,
        broadcast_mode: BroadcastMode = "whole_vector",
        allow_insufficient: bool = False,
    ) -> None:
        super().__init__(process_id)
        check_exact_sync(configuration, allow_insufficient=allow_insufficient)
        self.configuration = configuration
        self.input_vector = np.asarray(input_vector, dtype=float)
        if self.input_vector.shape != (configuration.dimension,):
            raise ProtocolError(
                f"input vector has shape {self.input_vector.shape}, expected ({configuration.dimension},)"
            )
        self.broadcast_mode: BroadcastMode = broadcast_mode
        #: Number of synchronous rounds the algorithm needs (``f + 1``).
        self.total_rounds = eig_round_count(configuration.fault_bound)
        self._chooser = SafeAreaCalculator(fault_bound=configuration.fault_bound)
        self._decided = False
        self._decision: np.ndarray | None = None
        self._received_multiset: np.ndarray | None = None
        process_ids = tuple(range(configuration.process_count))
        self._table = EigTable(process_id, process_ids, configuration.fault_bound)
        own = self.input_vector.tolist()
        if broadcast_mode == "per_coordinate":
            for originator in process_ids:
                for coordinate in range(configuration.dimension):
                    value = own[coordinate] if originator == process_id else None
                    self._table.add((originator, coordinate), originator, value, default=0.0)
        else:
            zero = (0.0,) * configuration.dimension
            for originator in process_ids:
                value = tuple(own) if originator == process_id else None
                self._table.add(originator, originator, value, default=zero)

    # -- synchronous process interface ------------------------------------------------

    def outgoing(self, round_index: int) -> list[Message]:
        bundle = self._table.relay(round_index)
        if not bundle:
            return []
        return [
            Message(
                sender=self.process_id,
                recipient=recipient,
                protocol=self.PROTOCOL,
                kind="EIG",
                payload=bundle,
                round_index=round_index,
            )
            for recipient in range(self.configuration.process_count)
            if recipient != self.process_id
        ]

    def deliver(self, round_index: int, inbox: list[Message]) -> None:
        if round_index > self.total_rounds:
            return
        table = self._table
        for message in inbox:
            if message.protocol != self.PROTOCOL or not isinstance(message.payload, dict):
                continue
            table.receive(round_index, message.sender, message.payload)
        table.finish_round(round_index)
        if round_index == self.total_rounds:
            # Only mark the decision: Step 1's resolution and Step 2 run when
            # the decision is first asked for, so a faulty core never runs them.
            self._decided = True

    def _agreed_cloud(self) -> np.ndarray:
        """Step 1's agreed multiset ``S`` as an ``(n, d)`` array, one row per originator."""
        resolve = self._table.resolve
        originators = range(self.configuration.process_count)
        if self.broadcast_mode == "per_coordinate":
            coordinates = range(self.configuration.dimension)
            rows = [[self._coerce_scalar(resolve((o, c))) for c in coordinates] for o in originators]
        else:
            rows = [self._coerce_vector(resolve(originator)) for originator in originators]
        return np.array(rows, dtype=float)

    def _step_two(self, agreed: np.ndarray) -> np.ndarray:
        """The decision rule applied to ``S``: the deterministic ``Gamma`` point."""
        return self._chooser.choose(agreed)

    def _coerce_scalar(self, value: object) -> float:
        try:
            scalar = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return 0.0
        if not np.isfinite(scalar):
            return 0.0
        return scalar

    def _coerce_vector(self, value: object) -> Sequence[float]:
        dimension = self.configuration.dimension
        if type(value) is tuple and len(value) == dimension and all(map(_finite_float, value)):
            return value
        try:
            vector = np.asarray(value, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            return np.zeros(dimension)
        if vector.shape != (dimension,) or not np.all(np.isfinite(vector)):
            return np.zeros(dimension)
        return vector

    def has_decided(self) -> bool:
        return self._decided

    def decision(self) -> np.ndarray:
        if not self._decided:
            raise ProtocolError(f"process {self.process_id} has not decided")
        if self._decision is None:
            self._decision = self._step_two(self.agreed_multiset)
        return self._decision

    @property
    def agreed_multiset(self) -> np.ndarray | None:
        """The multiset ``S`` this process reconstructed in Step 1 (after deciding).

        A read-only ``(n, d)`` cloud, row ``j`` the value agreed for process ``j``.
        """
        if self._received_multiset is None and self._decided:
            self._received_multiset = as_cloud(self._agreed_cloud())
        return self._received_multiset


def run_exact_bvc(
    registry: ProcessRegistry,
    adversary_mutators: dict[int, MessageMutator] | None = None,
    max_rounds: int | None = None,
    traffic_observer: "Callable[[Message], None] | None" = None,
) -> ProtocolOutcome:
    """Run the Exact BVC algorithm end-to-end on a simulated synchronous system.

    Args:
        registry: process cast, inputs and fault set.
        adversary_mutators: mutator per faulty process id; faulty ids without a
            mutator behave honestly (the adversary may choose not to attack).
        max_rounds: optional override of the runtime's round budget (``f + 2``).
        traffic_observer: optional callback that sees every routed message
            (the coordinated adversary's full-information tap).
    """
    return run_protocol(
        registry, ExactBVCProcess, adversary_mutators, max_rounds=max_rounds, traffic_observer=traffic_observer
    )
