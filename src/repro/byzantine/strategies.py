"""Concrete Byzantine strategies.

Each strategy is a :class:`~repro.byzantine.adversary.MessageMutator` factory
describing *how* a faulty process lies.  The library ships the attack families
the paper's proofs implicitly reason about:

* :class:`CrashStrategy` — the process stops sending (immediately or after a
  chosen round); this is the weakest Byzantine behaviour and the one the
  Theorem 4 necessity scenario combines with a slow correct process.
* :class:`EquivocationStrategy` — the process reports *different* values to
  different recipients, drawn from a caller-supplied pool (e.g. the honest
  inputs themselves, the hardest case for agreement).
* :class:`OutsideHullStrategy` — the process reports values far outside the
  convex hull of the honest inputs, stressing the validity condition.
* :class:`RandomNoiseStrategy` — the process reports independent random
  values inside a box each time it speaks, a "chaotic" fault.
* :class:`CoordinateAttackStrategy` — the process pushes one chosen
  coordinate to an extreme while leaving the others plausible, the attack
  that breaks coordinate-wise scalar consensus (intro counterexample).

All strategies are deterministic given their seed so that every experiment is
reproducible.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.byzantine.adversary import (
    MessageMutator,
    mutate_numeric_leaves,
    replace_payload,
)
from repro.exceptions import ByzantineBehaviorError, ConfigurationError
from repro.network.message import Message

__all__ = [
    "CrashStrategy",
    "EquivocationStrategy",
    "OutsideHullStrategy",
    "RandomNoiseStrategy",
    "CoordinateAttackStrategy",
]


class CrashStrategy(MessageMutator):
    """Stop sending messages from ``crash_round`` onwards (default: immediately).

    Messages whose ``round_index`` is ``None`` (round-free traffic) are dropped
    once the process has crashed, which happens the first time it suppresses a
    round-tagged message or immediately when ``crash_round <= 1``.
    """

    def __init__(self, crash_round: int = 1) -> None:
        self.crash_round = crash_round
        self._crashed = crash_round <= 1

    def mutate(self, message: Message) -> Sequence[Message]:
        round_index = message.round_index
        if round_index is not None and round_index >= self.crash_round:
            self._crashed = True
        if self._crashed:
            return []
        return [message]


class EquivocationStrategy(MessageMutator):
    """Tell different recipients different things.

    The strategy cycles deterministically through ``value_pool`` keyed by the
    recipient id, so recipient ``r`` consistently hears version ``r mod len(pool)``
    — the classic split-the-world attack.  Value leaves in the payload are
    replaced by the chosen pool vector (or its first coordinate for scalar
    leaves).  A vector leaf whose dimension differs from the pool vector is
    rejected with :class:`~repro.exceptions.ByzantineBehaviorError`: tiling
    the pool vector into a foreign shape would recycle coordinates and report
    a value nobody chose, silently weakening the attack.
    """

    def __init__(self, value_pool: Sequence[Sequence[float]]) -> None:
        if not value_pool:
            raise ValueError("equivocation needs a non-empty value pool")
        self._pool = [np.asarray(value, dtype=float) for value in value_pool]

    def mutate(self, message: Message) -> Sequence[Message]:
        chosen = self._pool[message.recipient % len(self._pool)]

        def corrupt_scalar(_: float) -> float:
            return float(chosen[0])

        def corrupt_vector(vector: np.ndarray) -> np.ndarray:
            if vector.shape != chosen.shape:
                raise ByzantineBehaviorError(
                    f"equivocation pool vector of shape {chosen.shape} cannot replace "
                    f"a value leaf of shape {vector.shape} in {message.describe()}"
                )
            return chosen.copy()

        payload = mutate_numeric_leaves(message.payload, corrupt_scalar, corrupt_vector)
        return [replace_payload(message, payload)]


class OutsideHullStrategy(MessageMutator):
    """Report values pushed far outside the honest hull.

    Every numeric leaf is shifted by ``offset`` and scaled by ``scale``, so the
    reported points sit well away from anything an honest process would hold.
    A correct BVC algorithm must keep such values out of its decision.
    """

    def __init__(self, offset: float = 100.0, scale: float = 10.0) -> None:
        self.offset = float(offset)
        self.scale = float(scale)

    def mutate(self, message: Message) -> Sequence[Message]:
        def corrupt_scalar(value: float) -> float:
            return value * self.scale + self.offset

        def corrupt_vector(vector: np.ndarray) -> np.ndarray:
            return vector * self.scale + self.offset

        payload = mutate_numeric_leaves(message.payload, corrupt_scalar, corrupt_vector)
        return [replace_payload(message, payload)]


class RandomNoiseStrategy(MessageMutator):
    """Report fresh uniform-random values in ``[low, high]`` on every message."""

    def __init__(self, low: float = -1.0, high: float = 1.0, seed: int = 0) -> None:
        if high < low:
            raise ValueError("high must be at least low")
        self.low = float(low)
        self.high = float(high)
        self._rng = np.random.default_rng(seed)

    def mutate(self, message: Message) -> Sequence[Message]:
        def corrupt_scalar(_: float) -> float:
            return float(self._rng.uniform(self.low, self.high))

        def corrupt_vector(vector: np.ndarray) -> np.ndarray:
            return self._rng.uniform(self.low, self.high, size=vector.shape)

        payload = mutate_numeric_leaves(message.payload, corrupt_scalar, corrupt_vector)
        return [replace_payload(message, payload)]


class CoordinateAttackStrategy(MessageMutator):
    """Drive one coordinate to a target value while leaving the rest untouched.

    This is the attack behind the paper's introductory counterexample: by
    proposing a per-coordinate plausible but globally infeasible vector, the
    adversary drags coordinate-wise scalar consensus outside the honest hull.
    Scalar leaves (coordinate-by-coordinate broadcasts) are always replaced by
    the target value.

    An out-of-range ``coordinate`` would make every vector-leaf corruption a
    silent no-op (the faulty process would pass honest values through), so the
    index is validated against ``dimension`` at construction when the caller
    knows it — the engine's factory always passes the registry dimension —
    and against the actual leaf shape at mutation time otherwise.
    """

    def __init__(self, coordinate: int, target: float, dimension: int | None = None) -> None:
        if coordinate < 0:
            raise ValueError("coordinate index must be non-negative")
        if dimension is not None and coordinate >= dimension:
            raise ConfigurationError(
                f"coordinate {coordinate} is out of range for dimension {dimension}; "
                "the attack would corrupt nothing"
            )
        self.coordinate = coordinate
        self.target = float(target)

    def mutate(self, message: Message) -> Sequence[Message]:
        def corrupt_scalar(_: float) -> float:
            return self.target

        def corrupt_vector(vector: np.ndarray) -> np.ndarray:
            if self.coordinate >= vector.shape[-1]:
                raise ByzantineBehaviorError(
                    f"coordinate {self.coordinate} is out of range for a value leaf "
                    f"of shape {vector.shape} in {message.describe()}"
                )
            corrupted = vector.copy()
            corrupted[..., self.coordinate] = self.target
            return corrupted

        payload = mutate_numeric_leaves(message.payload, corrupt_scalar, corrupt_vector)
        return [replace_payload(message, payload)]
