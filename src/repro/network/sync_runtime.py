"""Lock-step synchronous runtime.

The synchronous model of the paper's Section 2: computation proceeds in
numbered rounds; in each round every process sends messages, and every message
sent in round ``t`` is received by its destination before round ``t + 1``
begins.  Byzantine processes may send arbitrary messages (or none) — they are
ordinary :class:`~repro.processes.process.SyncProcess` objects, typically
produced by an adversary strategy.

The runtime is a thin round-delivery strategy over
:class:`~repro.network.runtime_core.RuntimeCore`, which owns the process
table, the network and all decision/traffic bookkeeping.  It stops when every
*honest* process reports a decision, or when the round budget is exhausted
(which the verification layer reports as a termination failure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.exceptions import TerminationError
from repro.network.message import Message
from repro.network.network import TrafficStats
from repro.network.runtime_core import RuntimeCore
from repro.processes.process import SyncProcess

__all__ = ["SyncRunResult", "SynchronousRuntime"]


@dataclass(frozen=True)
class SyncRunResult:
    """Outcome of a synchronous execution.

    Attributes:
        rounds_executed: how many rounds ran before every honest process decided.
        decisions: decision value per process id (honest processes only).
        traffic: network traffic counters for the whole run, including the
            count of undeliverable (dropped) messages.
    """

    rounds_executed: int
    decisions: dict[int, object]
    traffic: TrafficStats


class SynchronousRuntime:
    """Drive a set of :class:`SyncProcess` objects in lock-step rounds."""

    def __init__(
        self,
        processes: Mapping[int, SyncProcess],
        honest_ids: tuple[int, ...] | None = None,
        max_rounds: int = 10_000,
        traffic_observer: Callable[[Message], None] | None = None,
    ) -> None:
        self._core = RuntimeCore(
            processes, honest_ids=honest_ids, kind="synchronous", observer=traffic_observer
        )
        self._max_rounds = max_rounds

    @property
    def network(self):
        """The underlying complete-graph network (exposed for inspection)."""
        return self._core.network

    # -- execution -----------------------------------------------------------------

    def run(self) -> SyncRunResult:
        """Execute rounds until every honest process has decided.

        Raises :class:`TerminationError` when the round budget runs out, which
        signals a liveness failure of the protocol under test (or an
        impossibility scenario doing its job).
        """
        core = self._core
        round_index = 0
        try:
            while core.undecided_honest():
                round_index += 1
                if round_index > self._max_rounds:
                    raise TerminationError(
                        f"synchronous run exceeded the {self._max_rounds}-round budget"
                    )
                self._execute_round(round_index)
        finally:
            core.publish_traffic()
        return SyncRunResult(
            rounds_executed=round_index,
            decisions=core.collect_decisions(),
            traffic=core.traffic(),
        )

    def _execute_round(self, round_index: int) -> None:
        core = self._core
        # Collect phase: every process hands over the messages it sends this
        # round; undeliverable ones are counted as dropped by the core.
        for process in core.processes.values():
            for message in process.outgoing(round_index):
                core.route(message)
        # Delivery phase: each process receives everything addressed to it.
        delivered = core.network.drain_all()
        for process_id, inbox in delivered.items():
            # Deterministic delivery order within the round: by sender, then sequence.
            inbox.sort(key=lambda message: (message.sender, message.sequence))
            core.processes[process_id].deliver(round_index, inbox)
