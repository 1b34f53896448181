"""The three receive filters that turn a received vector payload into a point.

``WitnessExchange`` (asynchronous approximate BVC), the EIG table of
``ExactBVCProcess`` and ``round_ops.coerce_state`` (the restricted-round
``STATE`` messages) each guard a ``d``-vector payload, and they differ:

* the witness filter requires the shape ``(d,)`` and drops anything else,
  a nested ``[[x, y]]`` included;
* the EIG and ``STATE`` filters flatten first, so ``[[x, y]]`` passes;
* EIG substitutes the zero vector (the broadcast's default value) where the
  other two return ``None`` (nothing was received).

This test pins those differences so that merging the filters is a decision,
not an accident.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.broadcast.witness import WitnessExchange
from repro.core.conditions import SystemConfiguration
from repro.core.exact_bvc import ExactBVCProcess
from repro.core.round_ops import coerce_state

DIMENSION = 2
ZERO = [0.0, 0.0]
VALUE = [1.0, 2.0]


def witness_filter(payload: object) -> np.ndarray | None:
    """What process 0 records for process 1's round-0 tuple once it is RB-delivered."""
    exchange = WitnessExchange(
        owner_id=0,
        process_ids=(0, 1, 2, 3),
        fault_bound=1,
        dimension=DIMENSION,
        send_all=lambda kind, message: None,
    )
    message = {"broadcaster": 1, "tag": ("state", 0), "value": payload}
    # 2f + 1 = 3 READYs deliver the broadcast at n = 4, f = 1.
    for sender in (1, 2, 3):
        exchange.on_delivery(exchange.reliable_broadcast.handle(sender, "RB_READY", message))
    return exchange._rounds[0].delivered.get(1)


def eig_filter(payload: object) -> np.ndarray | None:
    process = ExactBVCProcess(0, SystemConfiguration(4, DIMENSION, 1), np.zeros(DIMENSION))
    return process._coerce_vector(payload)


def state_filter(payload: object) -> np.ndarray | None:
    return coerce_state(payload, DIMENSION)


@pytest.mark.parametrize(
    "payload, witness, eig, state",
    [
        pytest.param(VALUE, VALUE, VALUE, VALUE, id="well_formed"),
        pytest.param([[1.0, 2.0]], None, VALUE, VALUE, id="nested"),
        pytest.param([1.0, 2.0, 3.0], None, ZERO, None, id="wrong_length"),
        pytest.param([1.0, float("nan")], None, ZERO, None, id="nan"),
        pytest.param([float("inf"), 2.0], None, ZERO, None, id="inf"),
        pytest.param("1.0 2.0", None, ZERO, None, id="string"),
        pytest.param(None, None, ZERO, None, id="none"),
    ],
)
def test_receive_filters_differ_as_pinned(payload, witness, eig, state):
    for accept, expected in ((witness_filter, witness), (eig_filter, eig), (state_filter, state)):
        received = accept(payload)
        if expected is None:
            assert received is None, accept.__name__
        else:
            assert np.array_equal(np.asarray(received, dtype=float), expected), accept.__name__
