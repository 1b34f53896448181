"""Unit tests for repro.byzantine.adversary (payload mutation machinery)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.byzantine.adversary import (
    STRUCTURAL_KEYS,
    ByzantineAsyncProcess,
    ByzantineSyncProcess,
    is_float_like,
    mutate_numeric_leaves,
)
from repro.byzantine.strategies import (
    CoordinateAttackStrategy,
    CrashStrategy,
    EquivocationStrategy,
    OutsideHullStrategy,
    RandomNoiseStrategy,
)
from repro.network.message import Message
from repro.processes.process import AsyncProcess, SyncProcess


def double_scalar(value: float) -> float:
    return value * 2.0


def double_vector(vector: np.ndarray) -> np.ndarray:
    return vector * 2.0


class TestMutateNumericLeaves:
    def test_floats_are_mutated(self):
        assert mutate_numeric_leaves(1.5, double_scalar, double_vector) == 3.0

    def test_ints_and_bools_are_preserved(self):
        payload = {"count": 3, "flag": True}
        assert mutate_numeric_leaves(payload, double_scalar, double_vector) == payload

    def test_float_tuples_treated_as_vectors(self):
        result = mutate_numeric_leaves((1.0, 2.0), double_scalar, double_vector)
        assert result == (2.0, 4.0)
        assert isinstance(result, tuple)

    def test_numpy_arrays_treated_as_vectors(self):
        result = mutate_numeric_leaves(np.asarray([1.0, 2.0]), double_scalar, double_vector)
        assert np.allclose(result, [2.0, 4.0])

    def test_structural_keys_untouched(self):
        payload = {"round": 2.0, "members": [1, 2], "value": (1.0, 1.0)}
        result = mutate_numeric_leaves(payload, double_scalar, double_vector)
        assert result["round"] == 2.0
        assert result["members"] == [1, 2]
        assert result["value"] == (2.0, 2.0)

    def test_nested_dicts_and_lists(self):
        payload = {"a": {"b": [0.5, {"c": 1.0}]}}
        result = mutate_numeric_leaves(payload, double_scalar, double_vector)
        # [0.5, {...}] is a mixed list, so 0.5 is a scalar leaf.
        assert result["a"]["b"][0] == 1.0
        assert result["a"]["b"][1]["c"] == 2.0

    def test_original_payload_not_modified(self):
        payload = {"value": [1.0, 2.0]}
        mutate_numeric_leaves(payload, double_scalar, double_vector)
        assert payload["value"] == [1.0, 2.0]

    def test_strings_preserved(self):
        assert mutate_numeric_leaves({"kind": "ECHO"}, double_scalar, double_vector) == {"kind": "ECHO"}


def _deepcopying_mutate(payload, corrupt_scalar, corrupt_vector):
    """``mutate_numeric_leaves`` as it was: every preserved leaf through ``copy.deepcopy``."""

    def walk(value):
        if isinstance(value, dict):
            return {
                key: (copy.deepcopy(item) if key in STRUCTURAL_KEYS else walk(item))
                for key, item in value.items()
            }
        if isinstance(value, np.ndarray):
            return np.asarray(corrupt_vector(np.asarray(value, dtype=float)), dtype=float)
        if isinstance(value, (list, tuple)):
            if value and all(is_float_like(item) for item in value):
                corrupted = np.asarray(corrupt_vector(np.asarray(value, dtype=float)), dtype=float)
                result = [float(item) for item in corrupted]
                return tuple(result) if isinstance(value, tuple) else result
            walked = [walk(item) for item in value]
            return tuple(walked) if isinstance(value, tuple) else walked
        if is_float_like(value):
            return float(corrupt_scalar(float(value)))
        return copy.deepcopy(value)

    return walk(payload)


class _Tag:
    """A mutable structural leaf (no protocol sends one; a mutator might)."""

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, _Tag) and other.name == self.name


def _mutable_parts(value, path=()):
    """Every mutable container or object inside ``value``, by path."""
    if isinstance(value, dict):
        yield path, value
        for key, item in value.items():
            yield from _mutable_parts(item, path + (key,))
    elif isinstance(value, (list, tuple)):
        if isinstance(value, list):
            yield path, value
        for index, item in enumerate(value):
            yield from _mutable_parts(item, path + (index,))
    elif isinstance(value, (np.ndarray, _Tag)):
        yield path, value


# One payload per shape a protocol in this repository puts on the wire, plus
# structural leaves of every kind the preserved-leaf shortcut has to tell apart.
_PAYLOAD_SHAPES = {
    "rb_state": {"broadcaster": 3, "tag": ("state", 2), "value": (0.25, -1.5)},
    "witness_report": {"round": 4, "members": [0, 2, 3, 1]},
    "restricted_state": {"round": 1, "state": (0.5, 0.75)},
    "scalar_state": {"round": 2, "state": 0.125},
    "eig_relay": {(0,): (1.0, 2.0), (0, 1): (3.0, 4.0)},
    "exact_bundle": {0: {(0,): (1.0, 2.0)}, 1: {(1, 2): 0.5, (1, 3): None}},
    "array_leaf": {"value": np.asarray([1.0, 2.0]), "count": 3, "flag": True, "name": "x"},
    "mutable_structural": {"tag": ["state", [1, 2]], "members": ([1], [2]), "round": _Tag("r")},
    "nested_tag": {"tag": ("state", (1, ("deep", 2.5))), "broadcaster": None},
    "mixed_list": [1.0, "a", (2.0, 3.0), {"tag": (1, 2)}],
}


@pytest.mark.parametrize("shape", sorted(_PAYLOAD_SHAPES))
class TestPreservedLeaves:
    def test_equal_to_the_deepcopying_walk(self, shape):
        payload = _PAYLOAD_SHAPES[shape]
        result = mutate_numeric_leaves(payload, double_scalar, double_vector)
        expected = _deepcopying_mutate(payload, double_scalar, double_vector)
        for (path, ours), (expected_path, theirs) in zip(
            _mutable_parts(result), _mutable_parts(expected), strict=True
        ):
            assert path == expected_path and type(ours) is type(theirs)
        np.testing.assert_equal(result, expected)

    def test_shares_no_mutable_part_with_the_input(self, shape):
        payload = _PAYLOAD_SHAPES[shape]
        result = mutate_numeric_leaves(payload, double_scalar, double_vector)
        originals = {id(part) for _, part in _mutable_parts(payload)}
        assert originals, "every shape has at least its own dict or list"
        for path, part in _mutable_parts(result):
            assert id(part) not in originals, f"{shape}: {path} is shared with the input"

    def test_every_strategy_leaves_the_input_untouched(self, shape):
        payload = _PAYLOAD_SHAPES[shape]
        before = copy.deepcopy(payload)
        message = Message(sender=1, recipient=0, protocol="p", kind="K", payload=payload)
        for strategy in (
            OutsideHullStrategy(),
            RandomNoiseStrategy(seed=3),
            EquivocationStrategy([(9.0, 9.0)]),
            CoordinateAttackStrategy(coordinate=0, target=7.0),
        ):
            strategy.mutate(message)
            np.testing.assert_equal(payload, before)


class EchoSyncProcess(SyncProcess):
    def __init__(self, process_id=0):
        super().__init__(process_id)
        self.delivered = []

    def outgoing(self, round_index):
        return [Message(sender=self.process_id, recipient=1, protocol="p", kind="K",
                        payload={"value": (1.0, 2.0)}, round_index=round_index)]

    def deliver(self, round_index, inbox):
        self.delivered.extend(inbox)

    def has_decided(self):
        return True

    def decision(self):
        return "inner-decision"


class SenderAsyncProcess(AsyncProcess):
    def on_start(self):
        self.send(Message(sender=self.process_id, recipient=1, protocol="p", kind="K",
                          payload={"value": (1.0, 2.0)}, round_index=1))

    def on_message(self, message):
        pass

    def has_decided(self):
        return False

    def decision(self):
        return None


class TestByzantineSyncProcess:
    def test_outgoing_is_mutated(self):
        wrapped = ByzantineSyncProcess(EchoSyncProcess(), OutsideHullStrategy(offset=10.0, scale=1.0))
        messages = wrapped.outgoing(1)
        assert messages[0].payload["value"] == (11.0, 12.0)

    def test_crash_drops_everything(self):
        wrapped = ByzantineSyncProcess(EchoSyncProcess(), CrashStrategy())
        assert wrapped.outgoing(1) == []

    def test_deliver_passes_through(self):
        inner = EchoSyncProcess()
        wrapped = ByzantineSyncProcess(inner, CrashStrategy())
        message = Message(sender=1, recipient=0, protocol="p", kind="K", payload=None)
        wrapped.deliver(1, [message])
        assert inner.delivered == [message]

    def test_always_reports_decided(self):
        wrapped = ByzantineSyncProcess(EchoSyncProcess(), CrashStrategy())
        assert wrapped.has_decided()
        assert wrapped.decision() == "inner-decision"


class TestByzantineAsyncProcess:
    def test_sends_are_intercepted(self):
        sent = []
        wrapped = ByzantineAsyncProcess(SenderAsyncProcess(0), OutsideHullStrategy(offset=10.0, scale=1.0))
        wrapped.bind_transport(sent.append)
        wrapped.on_start()
        assert len(sent) == 1
        assert sent[0].payload["value"] == (11.0, 12.0)

    def test_crash_suppresses_sends(self):
        sent = []
        wrapped = ByzantineAsyncProcess(SenderAsyncProcess(0), CrashStrategy())
        wrapped.bind_transport(sent.append)
        wrapped.on_start()
        assert sent == []
