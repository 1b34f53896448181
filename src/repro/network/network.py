"""The complete-graph network: one FIFO channel per ordered process pair.

:class:`CompleteGraphNetwork` owns the channels and offers the two access
patterns the runtimes need:

* the synchronous runtime drains all channels between rounds;
* the asynchronous runtime asks which channels have messages in flight and
  delivers from one of them at a time, as chosen by a scheduler.

The network also keeps simple traffic counters (messages sent / delivered per
channel) that the benchmarks report as the message-complexity measurements.

The non-empty channels are kept listed in channel construction order (the
order a scan of the channel table gives; schedulers index into it, sort it and
filter it) and the list changes only when a channel turns non-empty or empty.
:class:`BusyIndex` states the format once; the two hot paths keep it in their
own frame (``RuntimeCore.route`` enqueues, ``AsynchronousRuntime.run`` pops).
The invariants are in ``docs/ARCHITECTURE.md``, "The asynchronous delivery loop".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from repro.exceptions import ConfigurationError, SchedulerError
from repro.network.channel import FifoChannel
from repro.network.message import Message

__all__ = ["BusyIndex", "CompleteGraphNetwork", "TrafficStats"]


@dataclass(frozen=True)
class TrafficStats:
    """Aggregate traffic counters for a finished run.

    ``messages_dropped`` counts messages a runtime refused to put on the
    network (self-addressed or to an unknown recipient — typically Byzantine
    output); the network itself never drops a message once sent.
    """

    messages_sent: int
    messages_delivered: int
    messages_in_flight: int
    messages_dropped: int = 0


class BusyIndex(NamedTuple):
    """A network's channel table and busy index, for the paths that update them inline.

    ``busy`` lists the keys of the non-empty ``channels``, sorted by
    ``rank_of`` (a key's position in ``channels``); it is the one live list
    schedulers choose from.  A path that turns a channel non-empty inserts its
    key with ``insort(busy, key, key=rank_of)`` (``RuntimeCore.route``, the
    only enqueue); one that empties it deletes the key at
    ``bisect_left(busy, rank_of(key), key=rank_of)`` (the asynchronous loop's
    pop) or clears ``busy`` with every queue (``drain_all``).  Each also
    counts the message in the network's and the channel's counters.
    """

    channels: dict[tuple[int, int], FifoChannel]
    busy: list[tuple[int, int]]
    rank_of: Callable[[tuple[int, int]], int]


class CompleteGraphNetwork:
    """All-to-all network of reliable FIFO channels over ``process_ids``."""

    def __init__(self, process_ids: Iterable[int]) -> None:
        ids = tuple(process_ids)
        if len(ids) < 2:
            raise ConfigurationError("a network needs at least two processes")
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate process ids: {ids}")
        self.process_ids = ids
        self.messages_sent = 0
        self.messages_delivered = 0
        self._channels: dict[tuple[int, int], FifoChannel] = {}
        for sender in ids:
            for recipient in ids:
                if sender != recipient:
                    self._channels[(sender, recipient)] = FifoChannel(sender, recipient)
        # The busy index: keys of the non-empty channels, by construction rank.
        self._rank_of = {key: rank for rank, key in enumerate(self._channels)}.__getitem__
        self._busy: list[tuple[int, int]] = []

    def busy_index(self) -> BusyIndex:
        """The live channel table and busy index (update them as :class:`BusyIndex` says)."""
        return BusyIndex(self._channels, self._busy, self._rank_of)

    def channel(self, sender: int, recipient: int) -> FifoChannel:
        """Return the directed channel ``sender -> recipient``."""
        try:
            return self._channels[(sender, recipient)]
        except KeyError as error:
            raise SchedulerError(f"no channel {sender} -> {recipient} in this network") from error

    # -- delivery -------------------------------------------------------------

    def _take_all(self, key: tuple[int, int]) -> list[Message]:
        channel = self._channels[key]
        messages = list(channel._queue)
        channel._queue.clear()
        channel.delivered_count += len(messages)
        self.messages_delivered += len(messages)
        return messages

    def drain_all(self) -> dict[int, list[Message]]:
        """Deliver every in-flight message, grouped by recipient (the synchronous round step)."""
        delivered: dict[int, list[Message]] = {recipient: [] for recipient in self.process_ids}
        # Only busy channels are visited; sender-major index order keeps each
        # recipient's senders in process order.  The index is cleared wholesale.
        for key in self._busy:
            delivered[key[1]].extend(self._take_all(key))
        self._busy.clear()
        return delivered

    def in_flight_count(self) -> int:
        """Return how many messages are currently queued anywhere in the network."""
        return sum(len(self._channels[key]._queue) for key in self._busy)

    def stats(self) -> TrafficStats:
        """Return aggregate traffic counters."""
        return TrafficStats(
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            messages_in_flight=self.in_flight_count(),
        )
