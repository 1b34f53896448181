"""Reliable FIFO channels.

The paper's model assumes every pair of processes is connected by a reliable
FIFO (first-in-first-out) channel: messages are never lost, never duplicated,
never corrupted in transit, and are delivered in the order they were sent.
:class:`FifoChannel` models one *directed* channel; the complete-graph network
keeps one per ordered pair of processes.

Delivery *timing* is not the channel's business: the synchronous runtime
drains every channel once per round, while the asynchronous runtime lets a
scheduler decide which channel to pop next (always from the front, preserving
FIFO order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import SchedulerError
from repro.network.message import Message

__all__ = ["FifoChannel"]


@dataclass
class FifoChannel:
    """A reliable, directed, FIFO message channel between two processes."""

    sender: int
    recipient: int
    _queue: deque[Message] = field(default_factory=deque)
    delivered_count: int = 0

    def send(self, message: Message) -> None:
        """Enqueue a message; it will be delivered eventually, in order."""
        self._require_route(message)
        self._queue.append(message)

    def _require_route(self, message: Message) -> None:
        if message.sender != self.sender or message.recipient != self.recipient:
            raise SchedulerError(
                f"message {message.describe()} does not belong on channel "
                f"{self.sender} -> {self.recipient}"
            )

    def drain(self) -> list[Message]:
        """Remove and return every in-flight message, oldest first."""
        messages = list(self._queue)
        self._queue.clear()
        self.delivered_count += len(messages)
        return messages
