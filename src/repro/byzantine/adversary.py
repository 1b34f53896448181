"""Byzantine adversary: wrapping processes so they misbehave.

A Byzantine process "may behave arbitrarily" — but an adversary that sends
structurally random bytes is simply ignored by the honest message handlers and
is indistinguishable from a crashed process.  The interesting adversaries are
the ones that *follow the protocol's message structure while lying about the
values*: equivocating about their input, injecting vectors far outside the
honest hull, or going silent mid-protocol.

This module implements that through wrapping: a faulty process is an honest
protocol process whose *outgoing traffic* passes through a
:class:`MessageMutator` that may drop, alter, or replace each message —
per recipient, per round, with full knowledge of the system (a strong,
adaptive adversary).  Concrete mutators live in
:mod:`repro.byzantine.strategies`.
"""

from __future__ import annotations

import abc
import copy
from itertools import repeat
from typing import Any, Callable, Sequence

import numpy as np

from repro.network.message import Message, message_from_fields, next_message_sequence
from repro.processes.process import AsyncProcess, SyncProcess

__all__ = [
    "MessageMutator",
    "ByzantineSyncProcess",
    "ByzantineAsyncProcess",
    "is_float_like",
    "is_float_vector",
    "mutate_numeric_leaves",
    "replace_payload",
    "STRUCTURAL_KEYS",
]

# Payload dictionary keys that carry protocol structure rather than
# application values; value-corrupting mutators leave these untouched so the
# corrupted messages still parse (the most damaging kind of lie).
STRUCTURAL_KEYS = frozenset({"round", "members", "broadcaster", "tag"})


_ATOMIC_TYPES = frozenset({int, float, bool, str, bytes, type(None)})


def _detached(value: Any) -> Any:
    """``copy.deepcopy(value)``, minus the call where it would return ``value`` itself.

    That is the usual case: ids, round numbers, ``("state", r)`` tags.
    """
    kind = type(value)
    if kind in _ATOMIC_TYPES or (kind is tuple and _ATOMIC_TYPES.issuperset(map(type, value))):
        return value
    return copy.deepcopy(value)


_FLOAT_TYPES = (float, np.floating)


def is_float_like(value: Any) -> bool:
    """True for scalar float leaves (bools are ints in Python, so excluded)."""
    return isinstance(value, _FLOAT_TYPES)


def is_float_vector(value: Sequence[Any]) -> bool:
    """True for a non-empty list or tuple whose every item :func:`is_float_like` accepts."""
    return bool(value) and all(map(isinstance, value, repeat(_FLOAT_TYPES)))


def replace_payload(message: Message, payload: Any) -> Message:
    """Return a copy of ``message`` carrying a different payload.

    The shared reconstruction helper for every mutator: all envelope fields
    except the payload are preserved, so a corrupted message stays
    attributable to the same (sender, recipient, protocol, round).
    """
    return message_from_fields((
        message.sender,
        message.recipient,
        message.protocol,
        message.kind,
        payload,
        message.round_index,
        next_message_sequence(),
    ))


def mutate_numeric_leaves(
    payload: Any,
    corrupt_scalar: Callable[[float], float],
    corrupt_vector: Callable[[np.ndarray], np.ndarray],
) -> Any:
    """Return a deep copy of ``payload`` with numeric value leaves corrupted.

    * floats become ``corrupt_scalar(value)``;
    * numpy arrays, and lists/tuples consisting entirely of floats, are treated
      as vectors and become ``corrupt_vector(vector)`` (same length);
    * ints, bools, strings and anything under a structural key are preserved,
      so the message still passes the honest parsers.
    """
    return _walk(payload, corrupt_scalar, corrupt_vector)


def _walk(
    value: Any,
    corrupt_scalar: Callable[[float], float],
    corrupt_vector: Callable[[np.ndarray], np.ndarray],
) -> Any:
    # Module level, not nested in mutate_numeric_leaves: a nested function
    # that calls itself is a reference cycle per corrupted message.
    if isinstance(value, dict):
        walked = {}
        for key, item in value.items():
            if key in STRUCTURAL_KEYS:
                walked[key] = _detached(item)
            else:
                walked[key] = _walk(item, corrupt_scalar, corrupt_vector)
        return walked
    if isinstance(value, np.ndarray):
        return np.asarray(corrupt_vector(np.asarray(value, dtype=float)), dtype=float)
    if isinstance(value, (list, tuple)):
        if is_float_vector(value):
            # A float vector: one numpy round-trip, back to Python floats.
            corrupted = corrupt_vector(np.asarray(value, dtype=float))
            result = np.asarray(corrupted, dtype=float).tolist()
            return tuple(result) if isinstance(value, tuple) else result
        walked = [_walk(item, corrupt_scalar, corrupt_vector) for item in value]
        return tuple(walked) if isinstance(value, tuple) else walked
    if is_float_like(value):
        return float(corrupt_scalar(float(value)))
    return _detached(value)


class MessageMutator(abc.ABC):
    """Strategy interface: rewrite the outgoing traffic of a faulty process."""

    @abc.abstractmethod
    def mutate(self, message: Message) -> Sequence[Message]:
        """Return the messages actually sent in place of ``message``.

        Return an empty sequence to drop the message (crash/omission
        behaviour), a single-element sequence to alter it, or several messages
        to inject extra traffic.  Recipients other than the original are
        allowed (the adversary may talk to whoever it wants).
        """


class ByzantineSyncProcess(SyncProcess):
    """A synchronous faulty process: an honest core with corrupted output."""

    def __init__(self, inner: SyncProcess, mutator: MessageMutator) -> None:
        super().__init__(inner.process_id)
        self.inner = inner
        self.mutator = mutator

    def outgoing(self, round_index: int) -> list[Message]:
        corrupted: list[Message] = []
        for message in self.inner.outgoing(round_index):
            corrupted.extend(self.mutator.mutate(message))
        return corrupted

    def deliver(self, round_index: int, inbox: list[Message]) -> None:
        self.inner.deliver(round_index, inbox)

    def has_decided(self) -> bool:
        # A faulty process never holds up the run; the runtimes only wait on
        # honest processes, but returning True keeps stand-alone uses safe.
        return True

    def decision(self) -> Any:
        return self.inner.decision() if self.inner.has_decided() else None


class ByzantineAsyncProcess(AsyncProcess):
    """An asynchronous faulty process: an honest core with corrupted output."""

    def __init__(self, inner: AsyncProcess, mutator: MessageMutator) -> None:
        super().__init__(inner.process_id)
        self.inner = inner
        self.mutator = mutator
        # Deliveries go straight to the honest core: no forwarding frame.
        self.on_message = inner.on_message

    def bind_transport(self, send: Callable[[Message], None]) -> None:
        super().bind_transport(send)
        mutate = self.mutator.mutate  # not ``self``: the inner process must not point back here

        def corrupted_send(message: Message) -> None:
            for replacement in mutate(message):
                send(replacement)

        self.inner.bind_transport(corrupted_send)

    def on_start(self) -> None:
        self.inner.on_start()

    def on_message(self, message: Message) -> None:
        self.inner.on_message(message)

    def has_decided(self) -> bool:
        return True

    def decision(self) -> Any:
        return self.inner.decision() if self.inner.has_decided() else None
