"""Bracha-style asynchronous reliable broadcast.

The asynchronous Approximate BVC algorithm relies on AAD Component #1, whose
first ingredient is a way for a process to disseminate a value such that

* (consistency) no two non-faulty processes deliver different values for the
  same broadcast, and
* (validity) if the broadcaster is non-faulty every non-faulty process
  eventually delivers its value, and
* (totality) if any non-faulty process delivers a value, all non-faulty
  processes eventually do.

Bracha's classic echo/ready protocol provides exactly these properties for
``n >= 3f + 1``, which always holds in the regimes the paper needs
(``n >= (d + 2) f + 1`` with ``d >= 1``).  Like the EIG module, the protocol is
packaged as an embeddable state machine keyed by a *broadcast id* (the pair
``(broadcaster, tag)``), because the BVC process runs one instance per process
per asynchronous round.

Message flow for a single instance:

1. broadcaster sends ``INIT(value)`` to everyone;
2. on the first ``INIT`` from the broadcaster, a process sends ``ECHO(value)``
   to everyone;
3. on receiving more than ``(n + f) / 2`` ``ECHO`` messages for the same value,
   a process sends ``READY(value)`` (if it has not already);
4. on receiving ``f + 1`` ``READY`` messages for the same value, a process also
   sends ``READY(value)`` (amplification);
5. on receiving ``2f + 1`` ``READY`` messages for the same value, the process
   *delivers* the value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, NamedTuple

from repro.exceptions import ConfigurationError

__all__ = ["BroadcastId", "Delivery", "ReliableBroadcastEngine"]

BroadcastId = tuple[int, Hashable]
#: ``(broadcast id, value)``: what one call delivered, if it delivered anything.
Delivery = tuple[BroadcastId, Any]


def _value_key(value: Any) -> Hashable:
    """Return a hashable identity for a broadcast value (vectors become tuples).

    A hashable value — a tuple of floats, the protocol's own vector form,
    included — is its own key; only lists and unhashable leaves are walked.
    """
    try:
        hash(value)
        return value
    except TypeError:
        if isinstance(value, (list, tuple)):
            return tuple(_value_key(item) for item in value)
        return repr(value)


class _Tally(NamedTuple):
    """Who echoed and who readied one value of one broadcast."""

    value: Any  # the first object seen carrying this value: what gets delivered
    echo_senders: set[int]
    ready_senders: set[int]


@dataclass(slots=True)
class _InstanceState:
    """Per-broadcast bookkeeping at one process."""

    broadcast_id: BroadcastId
    echoed: bool = False
    readied: bool = False
    delivered: bool = False
    tallies: dict[Hashable, _Tally] = field(default_factory=dict)


class ReliableBroadcastEngine:
    """All reliable-broadcast instances of a single owning process.

    The owning process wires ``send_all`` (a callable that sends one protocol
    message to every other process) at construction time, then feeds every
    incoming reliable-broadcast message to :meth:`handle`.  A delivery is
    *returned* (by :meth:`handle` or :meth:`broadcast`), exactly once per
    broadcast id, rather than handed to a callback: the engine keeps no
    reference to its owner, so owner and engine form no reference cycle.

    An instance that has delivered, readied and echoed is *finished*: no
    later message can make it send or deliver anything, so :meth:`handle`
    drops such messages before any tally bookkeeping.
    """

    KIND_INIT = "RB_INIT"
    KIND_ECHO = "RB_ECHO"
    KIND_READY = "RB_READY"
    KINDS = (KIND_INIT, KIND_ECHO, KIND_READY)

    def __init__(
        self,
        owner_id: int,
        process_ids: tuple[int, ...],
        fault_bound: int,
        send_all: Callable[[str, dict[str, Any]], None],
    ) -> None:
        if owner_id not in process_ids:
            raise ConfigurationError(f"owner {owner_id} is not among the processes")
        if fault_bound < 0:
            raise ConfigurationError("fault bound must be non-negative")
        if len(process_ids) <= 3 * fault_bound:
            raise ConfigurationError(
                f"reliable broadcast requires n > 3f; got n={len(process_ids)}, f={fault_bound}"
            )
        self.owner_id = owner_id
        self.process_ids = tuple(process_ids)
        self.fault_bound = fault_bound
        self._send_all = send_all
        self._instances: dict[BroadcastId, _InstanceState] = {}
        # Echoes needed before sending READY: strictly more than (n + f) / 2.
        self._echo_threshold = (len(self.process_ids) + fault_bound) // 2 + 1
        self._ready_amplify_threshold = fault_bound + 1
        self._deliver_threshold = 2 * fault_bound + 1

    # -- API ---------------------------------------------------------------------

    def broadcast(self, tag: Hashable, value: Any) -> Delivery | None:
        """Start a reliable broadcast of ``value`` under ``(owner, tag)``.

        Returns the delivery this completes, if any (as :meth:`handle`).
        """
        broadcast_id: BroadcastId = (self.owner_id, tag)
        self._send_all(self.KIND_INIT, {"broadcaster": self.owner_id, "tag": tag, "value": value})
        # The broadcaster processes its own INIT locally.
        state = self._instances.get(broadcast_id)
        if state is None:
            state = self._instances[broadcast_id] = _InstanceState(broadcast_id)
        return self._on_init(state, value)

    def handle(self, sender: int, kind: str, payload: dict[str, Any]) -> Delivery | None:
        """Process one incoming reliable-broadcast message.

        Returns ``(broadcast_id, value)`` when the message completes that
        broadcast's delivery (at most one per call), else None.  An ECHO or
        READY that crosses no threshold takes this one frame.
        """
        if kind not in self.KINDS or not isinstance(payload, dict):
            return None
        broadcaster = payload.get("broadcaster")
        broadcast_id: BroadcastId = (broadcaster, payload.get("tag"))
        try:
            state = self._instances.get(broadcast_id)
        except TypeError:
            # An unhashable broadcaster or tag (Byzantine junk) names no broadcast.
            return None
        if kind == self.KIND_INIT and sender != broadcaster:
            # Only the broadcaster may initiate its own broadcast.
            return None
        if state is None:
            if broadcaster not in self.process_ids:
                return None
            state = self._instances[broadcast_id] = _InstanceState(broadcast_id)
        elif state.delivered and state.echoed:
            return None  # finished (delivering implies readied)
        value = payload.get("value")
        if kind == self.KIND_INIT:
            return self._on_init(state, value)
        try:
            tally = state.tallies.get(value)
            key = value
        except TypeError:
            key = _value_key(value)
            tally = state.tallies.get(key)
        if tally is None:
            tally = state.tallies[key] = _Tally(value, set(), set())
        if kind == self.KIND_ECHO:
            senders = tally.echo_senders
            if sender in senders:
                return None
            senders.add(sender)
            if state.readied or len(senders) < self._echo_threshold:
                return None
            state.readied = True
            return self._relay(state, self.KIND_READY, value)
        senders = tally.ready_senders
        if sender in senders:
            return None
        senders.add(sender)
        if not state.readied and len(senders) >= self._ready_amplify_threshold:
            state.readied = True
            # Our own READY may push the count over the delivery bar below.
            delivery = self._relay(state, self.KIND_READY, value)
            if delivery is not None:
                return delivery
        if not state.delivered and len(senders) >= self._deliver_threshold:
            state.delivered = True
            return broadcast_id, tally.value
        return None

    # -- state transitions ----------------------------------------------------------
    #
    # ``value`` is the object the current message carries and is what gets
    # relayed; ``tally.value`` is the first object seen with the same key and
    # is what gets delivered.  Each returns the delivery it completes, if any.

    def _relay(self, state: _InstanceState, kind: str, value: Any) -> Delivery | None:
        """Send ``kind`` to every peer, then hear our own copy (a process hears itself)."""
        broadcaster, tag = state.broadcast_id
        payload = {"broadcaster": broadcaster, "tag": tag, "value": value}
        self._send_all(kind, payload)
        return self.handle(self.owner_id, kind, payload)

    def _on_init(self, state: _InstanceState, value: Any) -> Delivery | None:
        if state.echoed:
            return None
        state.echoed = True
        return self._relay(state, self.KIND_ECHO, value)
