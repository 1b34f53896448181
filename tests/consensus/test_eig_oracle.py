"""The EIG table against its per-broadcast oracle.

:class:`~repro.consensus.eig.EigTable` runs every broadcast of one process
from shared label trees: a frozenset membership test accepts a relayed
label, the tree resolves bottom-up without recursion, and nothing resolves
before it is asked for.  The algorithm it replaced — one recursive object per
broadcast, five checks per relayed label — lives on here as
:class:`ReferenceEigInstance`, driven the way ``ExactBVCProcess`` drove it.
Fed the same payloads, the two must be indistinguishable: the same relay
payloads every round (labels, values, their types and their dict order, which
is on the wire), the same resolutions, the same exceptions.

The inputs are what a Byzantine relayer could send and more: ids typed as
floats, bools or numpy integers that compare equal to process ids, duplicate
ids, wrong levels, unknown ids and roots, non-tuple labels, labels holding
something unhashable, non-dict and ``None`` payloads, and list and tuple
values that share a majority key.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Hashable, Iterator, Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.eig import EigTable
from repro.exceptions import ConfigurationError

NodeLabel = tuple[int, ...]


# ---------------------------------------------------------------------------
# The oracle: one recursive EIG instance per broadcast
# ---------------------------------------------------------------------------

@dataclass
class ReferenceEigInstance:
    """One EIG broadcast, as every ``ExactBVCProcess`` held ``n`` of them."""

    owner_id: int
    sender_id: int
    process_ids: tuple[int, ...]
    fault_bound: int
    value: Any = None
    default: Any = 0.0

    def __post_init__(self) -> None:
        if self.owner_id not in self.process_ids:
            raise ConfigurationError(f"owner {self.owner_id} is not among the processes")
        if self.sender_id not in self.process_ids:
            raise ConfigurationError(f"sender {self.sender_id} is not among the processes")
        if self.fault_bound < 0:
            raise ConfigurationError("fault bound must be non-negative")
        if self.owner_id == self.sender_id and self.value is None:
            raise ConfigurationError("the sending process must provide a value to broadcast")
        self._value_at: dict[NodeLabel, Any] = {}
        self._resolved: Any = None
        self._is_resolved = False

    @property
    def total_rounds(self) -> int:
        return self.fault_bound + 1

    def payload_for_round(self, round_index: int) -> Mapping[NodeLabel, Any] | None:
        if round_index < 1 or round_index > self.total_rounds:
            return None
        if round_index == 1:
            if self.owner_id != self.sender_id:
                return None
            return {(self.sender_id,): self.value}
        level = round_index - 1
        relay = {
            label: value
            for label, value in self._value_at.items()
            if len(label) == level and self.owner_id not in label
        }
        return relay or None

    def receive_payload(self, round_index: int, from_id: int, payload: Any) -> None:
        if round_index < 1 or round_index > self.total_rounds:
            return
        if payload is None:
            return
        if round_index == 1:
            if from_id != self.sender_id:
                return
            value = payload.get((self.sender_id,), self.default) if isinstance(payload, Mapping) else self.default
            self._value_at[(self.sender_id,)] = value
            return
        if not isinstance(payload, Mapping):
            return
        expected_level = round_index - 1
        for label, value in payload.items():
            if not isinstance(label, tuple) or len(label) != expected_level:
                continue
            if label[0] != self.sender_id:
                continue
            if from_id in label:
                continue
            if len(set(label)) != len(label):
                continue
            if any(process_id not in self.process_ids for process_id in label):
                continue
            self._value_at[label + (from_id,)] = value

    def finish_round(self, round_index: int) -> None:
        if round_index == 1:
            if self.owner_id == self.sender_id:
                self._value_at[(self.sender_id,)] = self.value
            self._value_at.setdefault((self.sender_id,), self.default)
            return
        expected_level = round_index
        previous_level_labels = [
            label for label in list(self._value_at) if len(label) == round_index - 1
        ]
        for label in previous_level_labels:
            for process_id in self.process_ids:
                if process_id in label:
                    continue
                extended = label + (process_id,)
                if len(extended) != expected_level:
                    continue
                if process_id == self.owner_id:
                    self._value_at[extended] = self._value_at[label]
                else:
                    self._value_at.setdefault(extended, self.default)

    def resolve(self) -> Any:
        if self._is_resolved:
            return self._resolved
        root = (self.sender_id,)
        self._value_at.setdefault(root, self.default)
        self._resolved = self._resolve_node(root)
        self._is_resolved = True
        return self._resolved

    def _resolve_node(self, label: NodeLabel) -> Any:
        if len(label) >= self.total_rounds:
            return self._value_at.get(label, self.default)
        children = [
            self._resolve_node(label + (process_id,))
            for process_id in self.process_ids
            if process_id not in label
        ]
        if not children:
            return self._value_at.get(label, self.default)
        return self._strict_majority(children)

    def _strict_majority(self, values: list[Any]) -> Any:
        counts: dict[Hashable, tuple[int, Any]] = {}
        for value in values:
            key = self._hashable(value)
            count, _ = counts.get(key, (0, value))
            counts[key] = (count + 1, value)
        best_key, (best_count, best_value) = max(counts.items(), key=lambda item: item[1][0])
        if 2 * best_count > len(values):
            return best_value
        return self.default

    @staticmethod
    def _hashable(value: Any) -> Hashable:
        if isinstance(value, (list, tuple)):
            return tuple(ReferenceEigInstance._hashable(item) for item in value)
        try:
            hash(value)
            return value
        except TypeError:
            return repr(value)


class ReferenceProcess:
    """The instances of one process, driven as ``ExactBVCProcess`` drove them."""

    def __init__(self, owner_id, process_ids, fault_bound, broadcasts) -> None:
        self.instances = {
            key: ReferenceEigInstance(owner_id, sender, process_ids, fault_bound, value, default)
            for key, (sender, value, default) in broadcasts.items()
        }

    def relay(self, round_index):
        bundle = {}
        for key, instance in self.instances.items():
            payload = instance.payload_for_round(round_index)
            if payload is not None:
                bundle[key] = dict(payload)
        return bundle

    def receive(self, round_index, from_id, bundle):
        for key, payload in bundle.items():
            instance = self.instances.get(key)
            if instance is not None:
                instance.receive_payload(round_index, from_id, payload)

    def finish_round(self, round_index):
        for instance in self.instances.values():
            instance.finish_round(round_index)

    def resolve(self, key):
        return self.instances[key].resolve()


class PairsMapping(Mapping):
    """A non-dict mapping whose ``items()`` may repeat labels or hold unhashable ones."""

    def __init__(self, pairs: list[tuple[Any, Any]]) -> None:
        self._pairs = pairs

    def items(self):
        return list(self._pairs)

    def __getitem__(self, label: Any) -> Any:
        for candidate, value in reversed(self._pairs):
            if candidate == label:
                return value
        raise KeyError(label)

    def __iter__(self) -> Iterator[Any]:
        return iter(label for label, _ in self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

#: Values drawn with repeats, so majorities form; lists and tuples of the
#: same floats share a majority key, ``-0.0`` shares one with ``0.0``, and
#: ``1``, ``1.0`` and ``True`` share one too.
VALUES = (
    1.0, 1, True, 0.0, -0.0, 2.5, float("nan"), float("inf"), None, "x",
    (1.0, 2.0), [1.0, 2.0], (1.0, [2.0]), ((1.0, 2.0), 3.0), {"a": 1.0}, np.float64(2.5),
)

#: Values that share a majority key in pairs, drawn half the time.
SHARED = ((1.0, 2.0), [1.0, 2.0], 0.0, -0.0)

LABEL_KINDS = (
    "canonical", "canonical", "canonical", "canonical", "canonical", "canonical", "float", "bool", "numpy", "subclass",
    "short", "long", "duplicate", "unknown", "root", "string", "integer", "frozenset",
    "unhashable",
)


class LabelTuple(tuple):
    """A tuple subclass: passes ``isinstance(label, tuple)``, not ``type(label) is tuple``."""


def label_for(data, kind: str, sender: int, level: int, n: int) -> Any:
    others = data.draw(st.permutations([q for q in range(n) if q != sender]))
    label = (sender, *others[: level - 1])
    if kind == "float":
        return tuple(float(q) for q in label)
    if kind == "bool":
        return tuple(bool(q) if q in (0, 1) else q for q in label)
    if kind == "numpy":
        return tuple(np.int64(q) for q in label)
    if kind == "subclass":
        return LabelTuple(label)
    if kind == "short":
        return label[:-1]
    if kind == "long":
        return label + (others[-1],) if len(label) < n else label + (n + 3,)
    if kind == "duplicate":
        return label[:-1] + (label[0],) if len(label) > 1 else (sender, sender)
    if kind == "unknown":
        return label[:-1] + (n + 7,) if len(label) > 1 else (n + 7,)
    if kind == "root":
        return ((sender + 1) % n,) + label[1:]
    if kind == "string":
        return "junk"
    if kind == "integer":
        return sender
    if kind == "frozenset":
        return frozenset(label)
    if kind == "unhashable":
        return label[:-1] + ([label[-1]],)
    return label


def payload_for(data, round_index: int, sender: int, n: int) -> Any:
    shape = data.draw(st.sampled_from(("dict", "dict", "dict", "proxy", "pairs", "none", "list", "int")))
    if shape == "none":
        return None
    if shape == "list":
        return [(sender,), 1.0]
    if shape == "int":
        return 3
    level = max(round_index - 1, 1)
    entries = data.draw(st.integers(0, 6))
    pairs = []
    for _ in range(entries):
        kind = data.draw(st.sampled_from(LABEL_KINDS))
        if shape != "pairs" and kind == "unhashable":
            kind = "canonical"  # a dict key must hash
        value = data.draw(st.one_of(st.sampled_from(SHARED), st.sampled_from(VALUES)))
        pairs.append((label_for(data, kind, sender, level, n), value))
    if shape == "pairs":
        return PairsMapping(pairs)
    payload = dict(pairs)
    return MappingProxyType(payload) if shape == "proxy" else payload


def outcome(action):
    try:
        return ("ok", action())
    except Exception as error:  # noqa: BLE001 — both sides must fail alike
        return ("raised", type(error), str(error))


def typed(value: Any) -> str:
    """Equality that sees types, order and NaN: the representation."""
    return repr(value)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_matches_the_reference_instances(data):
    fault_bound = data.draw(st.integers(1, 3), label="f")
    n = data.draw(st.integers(fault_bound + 1, min(3 * fault_bound + 1, 7)), label="n")
    process_ids = tuple(range(n))
    owner = data.draw(st.sampled_from(process_ids), label="owner")
    count = data.draw(st.integers(1, 4), label="broadcasts")
    broadcasts = {}
    for key in range(count):
        sender = data.draw(st.sampled_from(process_ids))
        value = data.draw(st.sampled_from(VALUES[:-1])) if sender == owner else None
        if sender == owner and value is None:
            value = 0.5
        default = data.draw(st.sampled_from((0.0, (0.0, 0.0))))
        broadcasts[(key, "coordinate") if key % 2 else key] = (sender, value, default)

    reference = ReferenceProcess(owner, process_ids, fault_bound, broadcasts)
    table = EigTable(owner, process_ids, fault_bound)
    for key, (sender, value, default) in broadcasts.items():
        table.add(key, sender, value, default)

    keys = list(broadcasts) + ["unknown"]
    for round_index in range(1, fault_bound + 3):
        expected, actual = reference.relay(round_index), table.relay(round_index)
        assert typed(list(actual.items())) == typed(list(expected.items())), round_index
        deliveries = data.draw(st.integers(0, n + 1))
        for _ in range(deliveries):
            from_id = data.draw(st.sampled_from(process_ids + (n + 2,)))
            bundle = {}
            for key in data.draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
                sender = broadcasts[key][0] if key in broadcasts else 0
                bundle[key] = payload_for(data, round_index, sender, n)
            expected_outcome = outcome(lambda: reference.receive(round_index, from_id, bundle))
            actual_outcome = outcome(lambda: table.receive(round_index, from_id, bundle))
            assert actual_outcome == expected_outcome
            if expected_outcome[0] == "raised":
                return  # both refused the same malformed relay; nothing further to compare
        reference.finish_round(round_index)
        table.finish_round(round_index)
    for key in broadcasts:
        assert typed(outcome(lambda: table.resolve(key))) == typed(
            outcome(lambda: reference.resolve(key))
        ), key


def test_scenarios_reach_the_fallbacks():
    """The property above only bites if float-typed labels and unhashable ones arrive."""
    reference = ReferenceProcess(1, (0, 1, 2, 3), 1, {"b": (0, None, 0.0)})
    table = EigTable(1, (0, 1, 2, 3), 1)
    table.add("b", 0)
    for side in (reference, table):
        side.receive(1, 0, {"b": {(0.0,): (1.0, 2.0)}})
        side.finish_round(1)
        side.receive(2, 2, {"b": {(0.0,): [1.0, 2.0]}})
        side.receive(2, 3, {"b": {(True,): 9.0, (0,): [1.0, 2.0]}})
        side.finish_round(2)
    # All three children share a majority key; the last one seen wins.
    assert typed(table.resolve("b")) == typed(reference.resolve("b")) == "[1.0, 2.0]"

    reference = ReferenceProcess(1, tuple(range(7)), 2, {"b": (0, None, 0.0)})
    table = EigTable(1, tuple(range(7)), 2)
    table.add("b", 0)
    for side in (reference, table):
        side.receive(1, 0, {"b": {(0,): 1.0}})
        side.finish_round(1)
        side.receive(2, 9, {"b": {(0,): 2.0}})  # a relayer outside the processes
        side.finish_round(2)
    assert typed(list(table.relay(3).items())) == typed(list(reference.relay(3).items()))
    assert ((0, 9), 2.0) in table.relay(3)["b"].items()
    for side in (reference, table):
        with pytest.raises(TypeError, match="unhashable"):
            side.receive(3, 3, {"b": PairsMapping([((0, [2]), 1.0)])})
