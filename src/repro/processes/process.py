"""Process abstractions shared by the synchronous and asynchronous runtimes.

The algorithms in :mod:`repro.core` and the substrates in
:mod:`repro.consensus` / :mod:`repro.broadcast` are written as *process
classes* against these two small interfaces, so the same algorithm object can
be driven by either runtime and inspected by tests without any networking
involved.

Synchronous model (lock-step rounds):
    In round ``t`` the runtime first asks every process for its outgoing
    messages (:meth:`SyncProcess.outgoing`), then delivers to each process all
    the messages addressed to it that were sent in the same round
    (:meth:`SyncProcess.deliver`).  This is the classical synchronous
    message-passing model the paper's Section 2 assumes.

Asynchronous model (event driven):
    A process is started once (:meth:`AsyncProcess.on_start`) and is then
    driven purely by message deliveries (:meth:`AsyncProcess.on_message`), in
    whatever order the scheduler chooses, with per-channel FIFO preserved.
    Processes send by calling the ``send`` callable the runtime binds into
    them.  This matches the paper's Section 3 model: arbitrary relative speeds
    and arbitrary (finite) message delays.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import Any, Callable

from repro.exceptions import ProtocolError
from repro.network.message import Message

__all__ = ["SyncProcess", "AsyncProcess"]


class SyncProcess(abc.ABC):
    """A process driven by the lock-step synchronous runtime."""

    def __init__(self, process_id: int) -> None:
        self.process_id = process_id

    @abc.abstractmethod
    def outgoing(self, round_index: int) -> list[Message]:
        """Return the messages this process sends in round ``round_index``."""

    @abc.abstractmethod
    def deliver(self, round_index: int, inbox: list[Message]) -> None:
        """Receive every message addressed to this process in round ``round_index``."""

    @abc.abstractmethod
    def has_decided(self) -> bool:
        """Return True once the process has fixed its decision value."""

    @abc.abstractmethod
    def decision(self) -> Any:
        """Return the decision value; only meaningful once :meth:`has_decided` is True."""


def _refuse_unbound_send(process_id: int, message: Message) -> None:
    raise ProtocolError(f"process {process_id} is not bound to a runtime and cannot send")


class AsyncProcess(abc.ABC):
    """A process driven by the event-based asynchronous runtime."""

    def __init__(self, process_id: int) -> None:
        self.process_id = process_id
        # The transport itself; subclasses on a hot path may call it directly.
        # Not a bound method: a process must not refer to itself.
        self._send: Callable[[Message], None] = partial(_refuse_unbound_send, process_id)

    # -- wiring ----------------------------------------------------------------

    def bind_transport(self, send: Callable[[Message], None]) -> None:
        """Attach the runtime's send function.  Called once before :meth:`on_start`."""
        self._send = send

    def send(self, message: Message) -> None:
        """Send a message through the runtime (raises if the process is unbound)."""
        self._send(message)

    def send_to_all(self, recipients: list[int], build: Callable[[int], Message]) -> None:
        """Send one message per recipient, built by ``build(recipient)``.

        Self-addressed messages are skipped; algorithms that logically "send to
        themselves" handle their own value locally instead, which is the usual
        convention in message-passing pseudo-code.
        """
        for recipient in recipients:
            if recipient == self.process_id:
                continue
            self.send(build(recipient))

    # -- lifecycle ----------------------------------------------------------------

    @abc.abstractmethod
    def on_start(self) -> None:
        """Perform the initial sends.  Called exactly once, before any delivery."""

    @abc.abstractmethod
    def on_message(self, message: Message) -> None:
        """Handle one delivered message."""

    @abc.abstractmethod
    def has_decided(self) -> bool:
        """Return True once the process has fixed its decision value."""

    @abc.abstractmethod
    def decision(self) -> Any:
        """Return the decision value; only meaningful once :meth:`has_decided` is True."""
