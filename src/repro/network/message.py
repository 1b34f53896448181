"""Message types exchanged over the simulated network.

A message is an immutable envelope: ``sender -> recipient`` carrying an
arbitrary ``payload`` plus two routing tags the algorithms rely on:

* ``protocol`` — which protocol instance the message belongs to (e.g. the EIG
  broadcast with a given originator, the reliable-broadcast instance for a
  given (sender, round), or the top-level BVC round exchange);
* ``round_index`` — the paper tags every message of the asynchronous
  algorithms by the sender's round number so that a process can associate a
  message with the right asynchronous round despite arbitrary delays.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, NamedTuple

__all__ = ["Message", "message_from_fields", "next_message_sequence"]

#: Return a process-wide monotonically increasing message sequence number.
#: Used only to give every message a unique identity for logging and for
#: deterministic tie-breaking inside schedulers; it carries no protocol meaning.
next_message_sequence = itertools.count().__next__
_tuple_new = tuple.__new__


class _MessageFields(NamedTuple):
    sender: int
    recipient: int
    protocol: str
    kind: str
    payload: Any
    round_index: int | None
    sequence: int


class Message(_MessageFields):
    """A single point-to-point message.

    Tuple-backed, because the asynchronous algorithms build one per recipient
    of every echo and ready: fields are read-only, messages are equal when all
    their fields are, and ``sequence`` numbers grow in construction order.

    Attributes:
        sender: process id of the sender.
        recipient: process id of the recipient.
        protocol: name of the (sub-)protocol this message belongs to.
        kind: message type within the protocol (e.g. ``"ECHO"``, ``"READY"``).
        payload: arbitrary, treat-as-immutable content.
        round_index: the sender's round number, or ``None`` for round-free
            protocols (such as the one-shot EIG broadcast).
        sequence: unique id for logging / deterministic ordering; drawn from
            :func:`next_message_sequence` unless given.
    """

    __slots__ = ()

    def __new__(
        cls,
        sender: int,
        recipient: int,
        protocol: str,
        kind: str,
        payload: Any,
        round_index: int | None = None,
        sequence: int | None = None,
    ) -> "Message":
        if sequence is None:
            sequence = next_message_sequence()
        return _tuple_new(cls, (sender, recipient, protocol, kind, payload, round_index, sequence))

    def describe(self) -> str:
        """Return a compact human-readable description (for logs and errors)."""
        tag = f"@r{self.round_index}" if self.round_index is not None else ""
        return f"[{self.protocol}:{self.kind}{tag}] {self.sender} -> {self.recipient}"


#: Build a :class:`Message` from all seven fields, ``sequence`` included, in
#: one C call: the fan-out sends build one per recipient of every echo and
#: ready, and ``Message(...)`` costs a Python frame each.
message_from_fields = partial(_tuple_new, Message)
