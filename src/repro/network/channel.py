"""Reliable FIFO channels.

The paper's model assumes every pair of processes is connected by a reliable
FIFO (first-in-first-out) channel: messages are never lost, never duplicated,
never corrupted in transit, and are delivered in the order they were sent.
:class:`FifoChannel` models one *directed* channel; the complete-graph network
keeps one per ordered pair of processes.

The channel is a queue and two counters and nothing else: the network's
``RuntimeCore.route`` is the only enqueue, and the synchronous runtime's
``drain_all`` and the asynchronous runtime's pop (always from the front,
preserving FIFO order) are the only ways out, so the network's busy index can
never miss a change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.network.message import Message

__all__ = ["FifoChannel"]


@dataclass
class FifoChannel:
    """A reliable, directed, FIFO message channel between two processes."""

    sender: int
    recipient: int
    _queue: deque[Message] = field(default_factory=deque)
    delivered_count: int = 0
