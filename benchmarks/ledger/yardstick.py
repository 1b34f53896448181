"""How fast the machine is right now, in laps of a fixed piece of work.

The box this ledger was written on is a 2-core virtual machine that changes
speed in steps: with no CPU time stolen at all, one fixed campaign took 1.35 s
for a minute, then 1.82 s for a minute, then 1.50 s (sixty back-to-back
repeats spread by 0.21, interquartile range over median).  No median over the
blocks of a 20 s run can absorb a plateau that outlasts the run.

A *lap* is a fixed mix of what the program spends its time on — small
``scipy`` LPs, ``numpy`` products, interpreter bytecode — that calls nothing
of the program, so no change to the program can move it.  The harness times a
few laps between timed blocks and states every block's wall clock at the pace
of a machine that runs one lap in :data:`REFERENCE_LAP_S`: on the sixty
repeats above that cut the spread from 0.21 to 0.04.  The record keeps every
block's raw wall clock and lap time beside the stated numbers.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

#: One lap takes this long at the pace every timing is stated at (about the
#: machine's middle plateau; the choice scales the numbers, not their spread).
REFERENCE_LAP_S = 0.016

_RNG = np.random.default_rng(20130722)
_CONSTRAINTS = _RNG.normal(size=(40, 12))
_LIMITS = _RNG.uniform(1.0, 2.0, size=40)
_COST = _RNG.normal(size=12)
_SQUARE = _RNG.normal(size=(120, 120))


def lap() -> float:
    """Seconds this machine takes for one lap, now."""
    start = time.perf_counter()
    for _ in range(6):
        linprog(_COST, A_ub=_CONSTRAINTS, b_ub=_LIMITS, bounds=(-1.0, 1.0), method="highs")
    for _ in range(20):
        (_SQUARE @ _SQUARE).sum()
    total = 0
    for value in range(60000):
        total += value * value
    return time.perf_counter() - start


class Pace:
    """Lap times taken between blocks; consecutive blocks share the reading between them."""

    LAPS = 3
    #: A reading this fresh serves the next block too.
    SHARE_WITHIN_S = 0.25

    def __init__(self) -> None:
        lap()  # first call pays scipy's lazy imports
        self._taken_at = float("-inf")
        self._lap_s = 0.0

    def read(self) -> float:
        """Fastest of :attr:`LAPS` laps (a stall that hits one lap is not the
        machine's speed), or the reading that has just been taken."""
        if time.perf_counter() - self._taken_at > self.SHARE_WITHIN_S:
            self._lap_s = min(lap() for _ in range(self.LAPS))
            self._taken_at = time.perf_counter()
        return self._lap_s

    def around(self) -> "Bracket":
        """``with pace.around() as bracket:`` — the lap time around a stretch of work."""
        return Bracket(self)


class Bracket:
    """Mean of a reading taken before the ``with`` body and one taken after it."""

    lap_s = 0.0

    def __init__(self, pace: Pace) -> None:
        self._pace = pace

    def __enter__(self) -> "Bracket":
        self._before = self._pace.read()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.lap_s = (self._before + self._pace.read()) / 2


def at_reference_pace(seconds: float, lap_s: float) -> float:
    """``seconds`` measured while a lap took ``lap_s``, stated at the reference pace."""
    return seconds * REFERENCE_LAP_S / lap_s
