"""Delivery schedulers for the asynchronous runtime.

In the asynchronous model the adversary (together with the environment)
controls message delays, subject only to every message being delivered
eventually and per-channel FIFO order.  The runtime therefore delegates the
choice of *which channel delivers next* to a scheduler object.  Three
schedulers are provided:

* :class:`RandomScheduler` — picks a busy channel uniformly at random from a
  seeded stream.  This is the "benign but unpredictable" environment used
  by most experiments.
* :class:`LaggingScheduler` — starves a chosen set of processes: their
  incoming and outgoing messages are delivered only when no other channel has
  traffic.  This is the classical "slow process" adversary used in the
  Theorem 4 lower-bound scenario (a correct process that looks crashed).
* :class:`RoundRobinScheduler` — deterministic rotation over channels, useful
  for exactly reproducible unit tests.

All schedulers satisfy eventual delivery: they only ever *reorder* deliveries,
never drop them, and they always pick from the set of non-empty channels.

The two seeded schedulers draw through :class:`UniformDraws`: one bounded
draw per delivery, equal draw for draw to
``np.random.default_rng(seed).integers(0, k)``, without a numpy call per draw.
"""

from __future__ import annotations

import abc
import operator
from typing import Sequence

import numpy as np

from repro.exceptions import SchedulerError

__all__ = [
    "DeliveryScheduler",
    "RandomScheduler",
    "LaggingScheduler",
    "RoundRobinScheduler",
    "UniformDraws",
]

#: Raw 64-bit words pulled from the bit generator per refill.
_WORDS_PER_REFILL = 512
_LOW_HALF = 0xFFFFFFFF
_HALF_RANGE = 1 << 32


class UniformDraws:
    """``np.random.default_rng(seed).integers(0, k)``, draw for draw, from buffered raw words.

    numpy reduces a bound ``k <= 2**32`` with Lemire's method on 32-bit
    halves of PCG64's 64-bit outputs, low half first, and a ``k = 1`` draw
    consumes nothing.  This class applies the same rule to words it pulls
    in bulk with ``bit_generator.random_raw``, so the stream and every draw
    equal numpy's (``tests/network/test_scheduler.py`` pins it against the
    installed numpy).  The generator is private: drawing ahead is
    invisible, which is why the seed must be an ``int``.  A bound outside
    ``1..2**32`` is refused.
    """

    __slots__ = ("_raw", "_halves", "_next")

    def __init__(self, seed: int) -> None:
        self._raw = np.random.default_rng(operator.index(seed)).bit_generator.random_raw
        self._halves: list[int] = []
        self._next = 0

    def _refill(self) -> list[int]:
        words = self._raw(_WORDS_PER_REFILL)
        self._halves = np.stack((words & _LOW_HALF, words >> 32), axis=1).ravel().tolist()
        return self._halves

    def below(self, bound: int) -> int:
        """Return one draw uniform over ``range(bound)``."""
        if bound == 1:
            return 0
        if not 1 < bound <= _HALF_RANGE:
            raise ValueError(f"bound {bound} is outside 1..2**32")
        halves = self._halves
        index = self._next
        if index == len(halves):
            halves = self._refill()
            index = 0
        product = halves[index] * bound
        index += 1
        if product & _LOW_HALF < bound:
            # Lemire's rejection: redraw while the low half is below 2**32 mod bound.
            threshold = (_HALF_RANGE - bound) % bound
            while product & _LOW_HALF < threshold:
                if index == len(halves):
                    halves = self._refill()
                    index = 0
                product = halves[index] * bound
                index += 1
        self._next = index
        return product >> 32


class DeliveryScheduler(abc.ABC):
    """Strategy interface: choose which busy channel delivers its next message."""

    @abc.abstractmethod
    def choose(self, busy_channels: Sequence[tuple[int, int]]) -> tuple[int, int]:
        """Return the (sender, recipient) channel to deliver from next.

        ``busy_channels`` is non-empty and lists every channel with at least
        one in-flight message.
        """


class RandomScheduler(DeliveryScheduler):
    """Uniformly random choice among busy channels, from a seeded stream."""

    def __init__(self, seed: int = 0) -> None:
        self._below = UniformDraws(seed).below

    def choose(self, busy_channels: Sequence[tuple[int, int]]) -> tuple[int, int]:
        if not busy_channels:
            raise SchedulerError("no busy channel to choose from")
        return busy_channels[self._below(len(busy_channels))]


class LaggingScheduler(DeliveryScheduler):
    """Starve the channels touching ``slow_processes`` for as long as possible.

    Messages to or from a slow process are delivered only when every other
    channel is empty, which models a correct-but-arbitrarily-slow process: the
    rest of the system must make progress without it (this is exactly the
    situation the Theorem 4 necessity argument builds on).
    """

    def __init__(self, slow_processes: Sequence[int], seed: int = 0) -> None:
        self._slow = frozenset(int(process_id) for process_id in slow_processes)
        self._below = UniformDraws(seed).below

    def choose(self, busy_channels: Sequence[tuple[int, int]]) -> tuple[int, int]:
        if not busy_channels:
            raise SchedulerError("no busy channel to choose from")
        fast = [
            channel
            for channel in busy_channels
            if channel[0] not in self._slow and channel[1] not in self._slow
        ]
        candidates = fast if fast else busy_channels
        return candidates[self._below(len(candidates))]


class RoundRobinScheduler(DeliveryScheduler):
    """Deterministic rotation across channels (stable across runs)."""

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, busy_channels: Sequence[tuple[int, int]]) -> tuple[int, int]:
        if not busy_channels:
            raise SchedulerError("no busy channel to choose from")
        ordered = sorted(busy_channels)
        choice = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return choice
