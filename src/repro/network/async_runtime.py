"""Event-driven asynchronous runtime.

The asynchronous model of the paper's Section 3: processes take steps at
arbitrary relative speeds and messages suffer arbitrary finite delays, subject
to reliable FIFO channels.  The runtime models this as a delivery loop: as
long as some honest process has not decided and some channel has a message in
flight, a :class:`~repro.network.scheduler.DeliveryScheduler` picks a channel
and its oldest message is handed to the recipient, which may react by sending
further messages.

The runtime is a thin scheduler-driven delivery strategy over
:class:`~repro.network.runtime_core.RuntimeCore`, which owns the process
table, the network and all decision/traffic bookkeeping.

Because the scheduler may only reorder (never drop) messages, every execution
the runtime can produce is an admissible asynchronous execution; conversely,
adversarial schedulers (e.g. :class:`~repro.network.scheduler.LaggingScheduler`)
produce exactly the "slow process" executions the lower-bound arguments use.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.exceptions import SchedulerError, TerminationError
from repro.network.message import Message
from repro.network.network import TrafficStats
from repro.network.runtime_core import RuntimeCore
from repro.network.scheduler import DeliveryScheduler, RandomScheduler
from repro.processes.process import AsyncProcess

__all__ = ["AsyncRunResult", "AsynchronousRuntime"]


@dataclass(frozen=True)
class AsyncRunResult:
    """Outcome of an asynchronous execution.

    Attributes:
        deliveries: how many messages were delivered in total.
        decisions: decision value per honest process id.
        traffic: network traffic counters, including the count of
            undeliverable (dropped) messages.
        undelivered: messages still in flight when the run stopped (honest
            processes had all decided; the remaining traffic is irrelevant to
            correctness but reported for completeness).
    """

    deliveries: int
    decisions: dict[int, object]
    traffic: TrafficStats
    undelivered: int


class AsynchronousRuntime:
    """Drive a set of :class:`AsyncProcess` objects with scheduler-chosen delays."""

    def __init__(
        self,
        processes: Mapping[int, AsyncProcess],
        honest_ids: tuple[int, ...] | None = None,
        scheduler: DeliveryScheduler | None = None,
        max_deliveries: int = 2_000_000,
        traffic_observer: Callable[[Message], None] | None = None,
    ) -> None:
        self._core = RuntimeCore(
            processes, honest_ids=honest_ids, kind="asynchronous", observer=traffic_observer
        )
        self._scheduler = scheduler if scheduler is not None else RandomScheduler(0)
        self._max_deliveries = max_deliveries
        self._started = False

    @property
    def network(self):
        """The underlying complete-graph network (exposed for inspection)."""
        return self._core.network

    # -- execution -----------------------------------------------------------------

    def run(self) -> AsyncRunResult:
        """Deliver messages until every honest process has decided.

        Raises :class:`TerminationError` if the delivery budget is exhausted or
        if the system goes quiescent (no message in flight) while some honest
        process is still undecided — both are liveness failures of the protocol
        under test.
        """
        core = self._core
        self._start_processes()
        processes = core.processes
        network = core.network
        # Live: busy is read, and drawn against, once per delivery.
        channels, busy, rank_of = network.busy_index()
        choose = self._scheduler.choose
        budget = self._max_deliveries
        # A process changes state only in its own on_start/on_message, so after
        # this poll only the process that just took a step is asked again.
        undecided = set(core.undecided_honest())
        deliveries = 0
        try:
            while undecided:
                if not busy:
                    raise TerminationError(
                        "asynchronous run went quiescent with undecided honest processes "
                        f"{core.undecided_honest()}"
                    )
                if deliveries >= budget:
                    raise TerminationError(
                        f"asynchronous run exceeded the {budget}-delivery budget"
                    )
                key = choose(busy)
                channel = channels.get(key)
                if channel is None or not channel._queue:
                    network.channel(*key)  # raises: no such channel
                    raise SchedulerError(f"channel {key[0]} -> {key[1]} has no message in flight")
                # Pop the oldest message; unmark the channel when that empties it (see BusyIndex).
                queue = channel._queue
                message = queue.popleft()
                if not queue:
                    del busy[bisect_left(busy, rank_of(key), key=rank_of)]
                channel.delivered_count += 1
                network.messages_delivered += 1
                deliveries += 1
                recipient = key[1]
                process = processes[recipient]
                process.on_message(message)
                if recipient in undecided and process.has_decided():
                    undecided.remove(recipient)
        finally:
            core.publish_traffic()
        return AsyncRunResult(
            deliveries=deliveries,
            decisions=core.collect_decisions(),
            traffic=core.traffic(),
            undelivered=network.in_flight_count(),
        )

    def _start_processes(self) -> None:
        if self._started:
            return
        self._started = True
        for process in self._core.processes.values():
            process.bind_transport(self._core.route)
        for process in self._core.processes.values():
            process.on_start()
