"""Exponential-information-gathering (EIG) Byzantine broadcast.

Step 1 of the paper's Exact BVC algorithm requires "a scalar Byzantine
broadcast algorithm (such as [12, 6])": a designated sender distributes a
value so that (i) all non-faulty processes decide an identical value and
(ii) if the sender is non-faulty they decide the sender's value, assuming
``n >= 3f + 1`` in a synchronous complete graph.  The classical algorithm the
citations refer to is exponential information gathering over ``f + 1`` rounds
(Lamport-Shostak-Pease / Bar-Noy-Dolev, as presented in Lynch's textbook), and
that is what this module implements.

The Exact BVC process runs ``n`` concurrent broadcasts (one per originator;
``n * d`` coordinate by coordinate) in the same rounds, so the algorithm is
packaged as one table per process (:class:`EigTable`).

How the EIG tree works
----------------------
Tree nodes are labelled by sequences of *distinct* process ids starting with
the designated sender; the label ``(s, q1, ..., qk)`` stands for "``qk`` said
that ``q(k-1)`` said that ... ``q1`` said that the sender's value is ``v``".

* Round 1: the sender sends its value; every process stores it as
  ``value_at[(s,)]`` (a missing message yields the default value).
* Round ``k`` (``2 <= k <= f + 1``): every process relays all its level-
  ``k - 1`` values whose label does not contain it; receiving process ``p``
  stores the value relayed by ``q`` for label ``x`` as ``value_at[x + (q,)]``.
* After round ``f + 1`` each process resolves the tree bottom-up: a leaf
  resolves to its stored value, an internal node to the strict majority of its
  children (default value when there is no majority).  The decision is the
  resolved value of the root ``(s,)``.

Each sender's label tree depends only on ``(process_ids, f)``, so every table
of every trial shares one (:func:`_label_trees`).  A table keeps only values,
one insertion-ordered dict per broadcast and level: insertion order is relay
order, which is on the wire (a noise adversary corrupts values in that order).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Hashable, Mapping

from repro.exceptions import ConfigurationError

__all__ = ["EigTable", "eig_round_count"]

NodeLabel = tuple[int, ...]

_MISSING = object()


def eig_round_count(fault_bound: int) -> int:
    """Return the number of synchronous rounds EIG needs: ``f + 1``."""
    if fault_bound < 0:
        raise ConfigurationError("fault bound must be non-negative")
    return fault_bound + 1


class _LabelTree:
    """One sender's EIG tree shape: the labels per level and how each extends."""

    __slots__ = ("labels", "accepted", "extensions")

    def __init__(self, sender_id: int, process_ids: tuple[int, ...], rounds: int) -> None:
        #: labels[k]: the level-k labels (``k`` ids), parents before children.
        self.labels: list[tuple[NodeLabel, ...]] = [(), ((sender_id,),)]
        #: extensions[x]: the ids not in ``x``, in ``process_ids`` order.
        self.extensions: dict[NodeLabel, tuple[int, ...]] = {}
        for _ in range(1, rounds):
            level: list[NodeLabel] = []
            for label in self.labels[-1]:
                others = self.extensions[label] = tuple(q for q in process_ids if q not in label)
                level.extend(label + (q,) for q in others)
            self.labels.append(tuple(level))
        #: accepted[k]: the level-k labels, for one membership test per relayed label.
        self.accepted = [frozenset(level) for level in self.labels]


@lru_cache(maxsize=16)
def _label_trees(process_ids: tuple[int, ...], fault_bound: int) -> dict[int, _LabelTree]:
    """Every sender's label tree for ``(process_ids, f)``, built once per shape."""
    rounds = eig_round_count(fault_bound)
    return {sender: _LabelTree(sender, process_ids, rounds) for sender in process_ids}


class _Broadcast:
    """One broadcast's state inside a table: its values, level by level."""

    __slots__ = ("sender_id", "value", "default", "tree", "levels", "resolved")

    def __init__(self, sender_id: int, value: Any, default: Any, tree: _LabelTree, rounds: int) -> None:
        self.sender_id = sender_id
        self.value = value
        self.default = default
        self.tree = tree
        #: levels[k]: what the owner believes about each level-k label so far.
        self.levels: list[dict[NodeLabel, Any]] = [{} for _ in range(rounds + 1)]
        self.resolved: Any = _MISSING


class EigTable:
    """Every EIG broadcast one process takes part in.

    Once per round the owner sends :meth:`relay`'s bundle to every other
    process (honest behaviour), feeds each bundle it received to
    :meth:`receive`, and calls :meth:`finish_round`.  A bundle maps the keys
    given to :meth:`add` to payloads, which map node labels to values.  After
    ``f + 1`` rounds :meth:`resolve` gives a broadcast's decision; nothing is
    resolved before it is asked for.
    """

    def __init__(self, owner_id: int, process_ids: tuple[int, ...], fault_bound: int) -> None:
        process_ids = tuple(process_ids)
        if owner_id not in process_ids:
            raise ConfigurationError(f"owner {owner_id} is not among the processes")
        self.owner_id = owner_id
        self.process_ids = process_ids
        #: Number of rounds the broadcasts take (``f + 1``).
        self.total_rounds = eig_round_count(fault_bound)
        self._trees = _label_trees(process_ids, fault_bound)
        self._broadcasts: dict[Hashable, _Broadcast] = {}

    def add(self, key: Hashable, sender_id: int, value: Any = None, default: Any = 0.0) -> None:
        """Join the broadcast of ``sender_id`` under ``key``; the sender's owner provides ``value``."""
        if sender_id not in self.process_ids:
            raise ConfigurationError(f"sender {sender_id} is not among the processes")
        if self.owner_id == sender_id and value is None:
            raise ConfigurationError("the sending process must provide a value to broadcast")
        self._broadcasts[key] = _Broadcast(
            sender_id, value, default, self._trees[sender_id], self.total_rounds
        )

    # -- round driving -----------------------------------------------------------

    def relay(self, round_index: int) -> dict[Hashable, dict[NodeLabel, Any]]:
        """Return this process's relay payload per broadcast key for ``round_index``.

        Round 1: only the sender sends, ``{(sender,): value}``.  Round ``k >= 2``:
        every process relays its level ``k - 1`` values whose labels do not
        contain it.  Broadcasts with nothing to send are left out.
        """
        owner = self.owner_id
        if round_index == 1:
            return {
                key: {(broadcast.sender_id,): broadcast.value}
                for key, broadcast in self._broadcasts.items()
                if broadcast.sender_id == owner
            }
        bundle: dict[Hashable, dict[NodeLabel, Any]] = {}
        if 2 <= round_index <= self.total_rounds:
            for key, broadcast in self._broadcasts.items():
                payload = {
                    label: value
                    for label, value in broadcast.levels[round_index - 1].items()
                    if owner not in label
                }
                if payload:
                    bundle[key] = payload
        return bundle

    def receive(self, round_index: int, from_id: int, bundle: Mapping[Hashable, Any]) -> None:
        """Record the values ``from_id`` relayed in ``round_index``, per broadcast key.

        Malformed payloads (wrong label level, labels already containing the
        relayer, non-tuple labels) are ignored entry-by-entry: a Byzantine
        relayer cannot corrupt the tree structure, only the values at labels
        it legitimately owns — exactly the power the model gives it.  Keys
        naming no broadcast of this table are ignored.
        """
        if round_index < 1 or round_index > self.total_rounds:
            return
        broadcasts = self._broadcasts
        if round_index == 1:
            for key, payload in bundle.items():
                broadcast = broadcasts.get(key)
                if broadcast is None or payload is None or from_id != broadcast.sender_id:
                    continue
                root, value = (broadcast.sender_id,), broadcast.default
                if type(payload) is dict or isinstance(payload, Mapping):
                    value = payload.get(root, value)
                broadcast.levels[1][root] = value
            return
        level = round_index - 1
        for key, payload in bundle.items():
            broadcast = broadcasts.get(key)
            if broadcast is None or (type(payload) is not dict and not isinstance(payload, Mapping)):
                continue
            accepted = broadcast.tree.accepted[level]
            store = broadcast.levels[round_index]
            for label, value in payload.items():
                try:
                    canonical = type(label) is tuple and label in accepted
                except TypeError:  # a label holding something unhashable
                    canonical = False
                # A label off the tree goes through every check, in order.
                if (from_id not in label) if canonical else (
                    isinstance(label, tuple)
                    and len(label) == level
                    and label[0] == broadcast.sender_id
                    and from_id not in label
                    and len(set(label)) == len(label)
                    and all(process_id in self.process_ids for process_id in label)
                ):
                    store[label + (from_id,)] = value

    def finish_round(self, round_index: int) -> None:
        """Fill in defaults for labels that should exist after ``round_index`` but were not received.

        The classical algorithm assumes a missing or malformed message is read
        as the default value; making that explicit keeps the resolution step
        total.  The owner's own relayed values are stored here as well (a
        process trivially "receives" its own relay).
        """
        if round_index < 1 or round_index > self.total_rounds:
            return
        owner = self.owner_id
        if round_index == 1:
            for broadcast in self._broadcasts.values():
                root = (broadcast.sender_id,)
                if broadcast.sender_id == owner:
                    broadcast.levels[1][root] = broadcast.value
                broadcast.levels[1].setdefault(root, broadcast.default)
            return
        for broadcast in self._broadcasts.values():
            extensions = broadcast.tree.extensions
            default = broadcast.default
            store = broadcast.levels[round_index]
            for label, value in broadcast.levels[round_index - 1].items():
                # Children extend the stored label object, as received.
                others = extensions.get(label)
                if others is None:  # relayed by an id outside ``process_ids``
                    others = [q for q in self.process_ids if q not in label]
                for process_id in others:
                    child = label + (process_id,)
                    if process_id == owner:
                        store[child] = value
                    elif child not in store:
                        store[child] = default

    # -- resolution ----------------------------------------------------------------

    def resolve(self, key: Hashable) -> Any:
        """Resolve broadcast ``key``'s tree bottom-up and return its decision."""
        broadcast = self._broadcasts[key]
        if broadcast.resolved is not _MISSING:
            return broadcast.resolved
        tree, levels, default = broadcast.tree, broadcast.levels, broadcast.default
        root = (broadcast.sender_id,)
        levels[1].setdefault(root, default)
        below = levels[self.total_rounds]
        for level in range(self.total_rounds - 1, 0, -1):
            resolved = {}
            for label in tree.labels[level]:
                others = tree.extensions[label]
                resolved[label] = (
                    _strict_majority([below.get(label + (q,), default) for q in others], default)
                    if others
                    else levels[level].get(label, default)
                )
            below = resolved
        broadcast.resolved = below.get(root, default)
        return broadcast.resolved


def _strict_majority(values: list[Any], default: Any) -> Any:
    """The last value of the :func:`_hashable` key more than half of ``values`` share, else ``default``.

    A hashable tuple or float is its own key: it equals its ``_hashable`` form.
    """
    counts: dict[Hashable, int] = {}
    latest: dict[Hashable, Any] = {}
    half = len(values) // 2
    winner: Any = _MISSING
    for value in values:
        kind = type(value)
        if kind is float:
            key = value
        elif kind is tuple:
            try:
                hash(value)
                key = value
            except TypeError:
                key = _hashable(value)
        else:
            key = _hashable(value)
        count = counts[key] = counts.get(key, 0) + 1
        latest[key] = value
        if count > half:  # a strict majority: no other key can reach one
            winner = key
    return default if winner is _MISSING else latest[winner]


def _hashable(value: Any) -> Hashable:
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)
