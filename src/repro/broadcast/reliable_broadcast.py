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

    def tally(self, value: Any) -> _Tally:
        """The tally of ``value``; the one place a message's value is keyed."""
        key = _value_key(value)
        tally = self.tallies.get(key)
        if tally is None:
            tally = self.tallies[key] = _Tally(value, set(), set())
        return tally


class ReliableBroadcastEngine:
    """All reliable-broadcast instances of a single owning process.

    The owning process wires ``send`` (a callable that sends a protocol message
    to one recipient) at construction time, then feeds every incoming
    reliable-broadcast message to :meth:`handle`.  A delivery is *returned*
    (by :meth:`handle` or :meth:`broadcast`), exactly once per broadcast id,
    rather than handed to a callback: the engine keeps no reference to its
    owner, so owner and engine form no reference cycle.
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
        send: Callable[[int, str, dict[str, Any]], None],
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
        self._send = send
        self._instances: dict[BroadcastId, _InstanceState] = {}
        self._recipients = tuple(pid for pid in self.process_ids if pid != owner_id)
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
        self._relay(broadcast_id, self.KIND_INIT, value)
        # The broadcaster processes its own INIT locally (a process always
        # "hears" itself immediately).
        state = self._instances.get(broadcast_id)
        if state is None:
            state = self._instances[broadcast_id] = _InstanceState(broadcast_id)
        return self._on_init(state, value)

    def handle(self, sender: int, kind: str, payload: dict[str, Any]) -> Delivery | None:
        """Process one incoming reliable-broadcast message.

        Returns ``(broadcast_id, value)`` when the message completes that
        broadcast's delivery (at most one per call), else None.
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
        value = payload.get("value")
        if kind == self.KIND_INIT:
            return self._on_init(state, value)
        if kind == self.KIND_ECHO:
            return self._on_echo(state, state.tally(value), sender, value)
        return self._on_ready(state, state.tally(value), sender, value)

    # -- state transitions ----------------------------------------------------------
    #
    # ``value`` is the object the current message carries and is what gets
    # relayed; ``tally.value`` is the first object seen with the same key and
    # is what gets delivered.  Each returns the delivery it completes, if any.

    def _relay(self, broadcast_id: BroadcastId, kind: str, value: Any) -> None:
        broadcaster, tag = broadcast_id
        payload = {"broadcaster": broadcaster, "tag": tag, "value": value}
        send = self._send
        for recipient in self._recipients:
            send(recipient, kind, payload)

    def _on_init(self, state: _InstanceState, value: Any) -> Delivery | None:
        if state.echoed:
            return None
        state.echoed = True
        self._relay(state.broadcast_id, self.KIND_ECHO, value)
        return self._on_echo(state, state.tally(value), self.owner_id, value)

    def _on_echo(
        self, state: _InstanceState, tally: _Tally, sender: int, value: Any
    ) -> Delivery | None:
        senders = tally.echo_senders
        if sender in senders:
            return None
        senders.add(sender)
        if not state.readied and len(senders) >= self._echo_threshold:
            state.readied = True
            self._relay(state.broadcast_id, self.KIND_READY, value)
            return self._on_ready(state, tally, self.owner_id, value)
        return None

    def _on_ready(
        self, state: _InstanceState, tally: _Tally, sender: int, value: Any
    ) -> Delivery | None:
        senders = tally.ready_senders
        if sender in senders:
            return None
        senders.add(sender)
        if not state.readied and len(senders) >= self._ready_amplify_threshold:
            state.readied = True
            self._relay(state.broadcast_id, self.KIND_READY, value)
            # Our own READY may push the count over the delivery bar below.
            delivery = self._on_ready(state, tally, self.owner_id, value)
            if delivery is not None:
                return delivery
        if not state.delivered and len(senders) >= self._deliver_threshold:
            state.delivered = True
            return state.broadcast_id, tally.value
        return None
