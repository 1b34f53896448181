"""Shared core of the synchronous and asynchronous runtimes.

Both runtimes drive a set of processes over a complete-graph FIFO network and
differ only in their *delivery strategy* (lock-step rounds versus
scheduler-chosen single deliveries).  Everything else — process validation,
honest-id bookkeeping, outgoing-message routing, decision collection and
traffic/termination accounting — lives here, so the two runtimes stay thin
and cannot drift apart.

The core also owns the drop accounting: a message whose recipient is the
sender itself, or is not a registered process, is never put on the network.
Honest protocol code does not emit such messages, but Byzantine mutators may;
rather than silently vanishing, every such message is counted and reported as
``TrafficStats.messages_dropped`` in the run result.

An optional ``observer`` callback sees every message handed to ``route``
(before the drop check).  This is the tap the coordinated adversary layer
(:mod:`repro.byzantine.coordinator`) uses to watch the whole execution's
traffic — the paper's full-information adversary — without the runtimes or
the protocols knowing anything about it.

Routing lives on a :class:`_Router` that holds the network, the registered
ids and the observer but no process, so binding every process to
``RuntimeCore.route`` points one way: a finished run's objects are freed
by reference counting (``docs/ARCHITECTURE.md``, "The asynchronous delivery
loop").  ``route`` is one frame per message and the network's only enqueue:
it puts the message on its channel and marks the busy index itself.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Mapping

from repro.exceptions import ConfigurationError
from repro.network.message import Message
from repro.network.network import CompleteGraphNetwork, TrafficStats
from repro.obs.registry import get_registry

__all__ = ["RuntimeCore"]

# Object-runtime telemetry (docs/OBSERVABILITY.md); ``model`` is the runtime's ``kind``.
_DELIVERIES = get_registry().counter(
    "repro_runtime_deliveries_total",
    "Messages the object runtimes handed to a process, by timing model.",
    labelnames=("model",),
)
_MESSAGES = get_registry().counter(
    "repro_runtime_messages_total",
    "Messages processes handed to the object runtimes, by timing model and fate (sent/dropped).",
    labelnames=("model", "fate"),
)


class _Router:
    """``RuntimeCore.route`` in one frame: tap, drop check, enqueue, busy-index mark."""

    __slots__ = ("network", "channels", "busy", "rank_of", "recipients", "observer", "dropped")

    def __init__(
        self,
        network: CompleteGraphNetwork,
        recipients: frozenset[int],
        observer: Callable[[Message], None] | None,
    ) -> None:
        self.network = network
        self.channels, self.busy, self.rank_of = network.busy_index()
        self.recipients = recipients
        self.observer = observer
        self.dropped = 0

    def route(self, message: Message) -> bool:
        if self.observer is not None:
            self.observer(message)
        key = (message.sender, message.recipient)
        channel = self.channels.get(key)
        if channel is None:
            if key[1] == key[0] or key[1] not in self.recipients:
                self.dropped += 1
                return False
            self.network.channel(*key)  # raises: the sender is not registered
        # Enqueue, marking a channel that was empty busy (see BusyIndex).
        queue = channel._queue
        if not queue:
            insort(self.busy, key, key=self.rank_of)
        queue.append(message)
        self.network.messages_sent += 1
        return True


class RuntimeCore:
    """Process table, network and bookkeeping shared by both runtimes.

    Args:
        processes: process object per id; each must report the id it is
            registered under.
        honest_ids: ids whose decisions terminate the run (defaults to all).
        kind: human-readable model name used in error messages
            (``"synchronous"`` / ``"asynchronous"``).
        observer: optional callback invoked with every message handed to
            ``route``, including messages the core refuses to deliver.
    """

    def __init__(
        self,
        processes: Mapping[int, object],
        honest_ids: tuple[int, ...] | None = None,
        kind: str = "simulation",
        observer: Callable[[Message], None] | None = None,
    ) -> None:
        if len(processes) < 2:
            raise ConfigurationError(f"a {kind} run needs at least two processes")
        for process_id, process in processes.items():
            if process.process_id != process_id:
                raise ConfigurationError(
                    f"process registered under id {process_id} reports id {process.process_id}"
                )
        self.processes = dict(processes)
        self.honest_ids = (
            tuple(honest_ids) if honest_ids is not None else tuple(sorted(self.processes))
        )
        unknown = set(self.honest_ids) - set(self.processes)
        if unknown:
            raise ConfigurationError(f"honest ids {sorted(unknown)} have no registered process")
        self.network = CompleteGraphNetwork(sorted(self.processes))
        self._router = _Router(self.network, frozenset(self.processes), observer)
        #: Put a message in flight, or count it as dropped if undeliverable;
        #: True when the message was accepted onto the network.
        self.route: Callable[[Message], bool] = self._router.route
        self._kind = kind
        self._published = (0, 0, 0)

    @property
    def messages_dropped(self) -> int:
        """Messages ``route`` refused (self-addressed or to an unknown id)."""
        return self._router.dropped

    # -- decision bookkeeping -------------------------------------------------

    def undecided_honest(self) -> list[int]:
        """The honest ids still lacking a decision (for liveness diagnostics)."""
        return [pid for pid in self.honest_ids if not self.processes[pid].has_decided()]

    def collect_decisions(self) -> dict[int, object]:
        """Decision value per honest process id."""
        return {pid: self.processes[pid].decision() for pid in self.honest_ids}

    # -- accounting -----------------------------------------------------------

    def traffic(self) -> TrafficStats:
        """Network counters plus the runtime-level drop count."""
        stats = self.network.stats()
        return TrafficStats(
            messages_sent=stats.messages_sent,
            messages_delivered=stats.messages_delivered,
            messages_in_flight=stats.messages_in_flight,
            messages_dropped=self.messages_dropped,
        )

    def publish_traffic(self) -> None:
        """Add the traffic since the previous call to the process metrics (once per ``run()``)."""
        network = self.network
        totals = (network.messages_delivered, network.messages_sent, self.messages_dropped)
        children = (
            _DELIVERIES.labels(model=self._kind),
            _MESSAGES.labels(model=self._kind, fate="sent"),
            _MESSAGES.labels(model=self._kind, fate="dropped"),
        )
        for child, total, previous in zip(children, totals, self._published):
            child.inc(total - previous)
        self._published = totals
