"""The AAD exchange mechanism (Component #1) built on reliable broadcast.

In every asynchronous round ``t`` of the approximate BVC algorithm, each
non-faulty process ``p_i`` must obtain a set ``B_i[t]`` of at least ``n - f``
``(process, value, t)`` tuples satisfying the three properties the paper lists
in Section 3.2:

* Property 1 — any two non-faulty processes share at least ``n - f`` tuples;
* Property 2 — at most one tuple per process;
* Property 3 — a tuple attributed to a non-faulty process carries that
  process's true round-``(t-1)`` state.

The mechanism here follows the witness technique of Abraham, Amit and Dolev
(and the paper's Appendix F description):

1. each process reliably broadcasts its round-``t`` state (Bracha RB gives
   Properties 2 and 3 directly);
2. once a process has RB-delivered ``n - f`` tuples for round ``t`` it sends
   everyone a *report* listing the first ``n - f`` broadcaster ids it
   delivered, in delivery order;
3. a process accepts ``p_k`` as a *witness* for round ``t`` once it holds
   ``p_k``'s report **and** has itself delivered every tuple the report lists;
4. the round's exchange completes once ``n - f`` witnesses are accepted.

Any two non-faulty processes then share at least ``n - 2f >= f + 1`` witnesses,
hence at least one non-faulty witness, whose ``n - f`` reported tuples are in
both ``B`` sets — Property 1.  The ordered witness reports are also exactly
what the Appendix F optimisation needs: instead of enumerating all
``C(|B|, n-f)`` subsets in Step 2, the process may use one subset per witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import isfinite
from typing import Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.broadcast.reliable_broadcast import Delivery, ReliableBroadcastEngine

__all__ = ["RoundExchangeResult", "WitnessExchange"]

_STATE_TAG = "state"
_INTEGER_TYPES = (int, np.integer)


@dataclass(frozen=True)
class RoundExchangeResult:
    """What the exchange hands back to the algorithm when a round completes.

    Attributes:
        round_index: the asynchronous round this exchange belongs to.
        tuples: mapping ``process id -> state vector`` — the frozen ``B_i[t]``.
        arrival_order: broadcaster ids in the order their tuples were delivered.
        witness_reports: for each accepted witness, the ordered list of the
            first ``n - f`` broadcaster ids it reported (Appendix F subsets).
    """

    round_index: int
    tuples: dict[int, np.ndarray]
    arrival_order: tuple[int, ...]
    witness_reports: dict[int, tuple[int, ...]]


@dataclass
class _RoundState:
    """Per-round bookkeeping."""

    delivered: dict[int, Any] = field(default_factory=dict)
    arrival_order: list[int] = field(default_factory=list)
    reports: dict[int, tuple[int, ...]] = field(default_factory=dict)
    witnesses: set[int] = field(default_factory=set)
    report_sent: bool = False
    completed: bool = False


class WitnessExchange:
    """Run the per-round AAD exchange for one owning process.

    The owner wires ``send_all`` (kind, payload: one message to every other
    process) and starts each round with :meth:`start_round`.  It feeds
    reliable-broadcast traffic to :attr:`reliable_broadcast` and hands each
    delivery that returns to :meth:`on_delivery`, and feeds witness reports to
    :meth:`on_report`.  Those three return the :class:`RoundExchangeResult`
    of a round they complete (exactly once per round), else None: the
    exchange keeps no callback into its owner, so owner, exchange and
    broadcast engine form no reference cycle.  Once a round has completed,
    its late tuples and reports are dropped before any bookkeeping: they can
    no longer change what the round handed back.

    A reliably delivered value that is not a finite vector of length
    ``dimension`` is malformed.  Every non-faulty process rejects the same
    delivered value, so its tuple is in nobody's ``B`` set — as if the
    broadcaster had stayed silent, which up to ``f`` processes may.
    """

    KIND_REPORT = "WITNESS_REPORT"
    KINDS = ReliableBroadcastEngine.KINDS + (KIND_REPORT,)

    def __init__(
        self,
        owner_id: int,
        process_ids: tuple[int, ...],
        fault_bound: int,
        dimension: int,
        send_all: Callable[[str, dict[str, Any]], None],
    ) -> None:
        if owner_id not in process_ids:
            raise ConfigurationError(f"owner {owner_id} is not among the processes")
        self.owner_id = owner_id
        self.process_ids = tuple(process_ids)
        self.fault_bound = fault_bound
        #: ``n - f``: tuples needed before reporting, and witnesses needed to finish.
        self.quorum = len(self.process_ids) - fault_bound
        self._vector_shape = (dimension,)
        self._send_all = send_all
        self._rounds: dict[int, _RoundState] = {}
        self._awaited_round: int | None = None
        self.reliable_broadcast = ReliableBroadcastEngine(
            owner_id=owner_id,
            process_ids=self.process_ids,
            fault_bound=fault_bound,
            send_all=send_all,
        )

    # -- owner-facing API ------------------------------------------------------------

    def start_round(
        self, round_index: int, state_vector: np.ndarray
    ) -> RoundExchangeResult | None:
        """Begin the exchange for ``round_index`` by reliably broadcasting our state.

        Returns the round's result if early messages already complete it.
        """
        self._awaited_round = round_index
        value = tuple(np.asarray(state_vector, dtype=float).tolist())
        completed = self.on_delivery(
            self.reliable_broadcast.broadcast((_STATE_TAG, round_index), value)
        )
        # Early messages for this round may already satisfy the completion
        # condition (the broadcast above also self-delivers after enough local
        # bookkeeping, but re-check explicitly for robustness).
        advanced = self._advance(round_index, self._round(round_index))
        return completed if completed is not None else advanced

    def on_delivery(self, delivery: Delivery | None) -> RoundExchangeResult | None:
        """Record one reliable-broadcast delivery (None: nothing was delivered)."""
        if delivery is None:
            return None
        (broadcaster, tag), value = delivery
        if not isinstance(tag, tuple) or len(tag) != 2 or tag[0] != _STATE_TAG:
            return None
        round_index = tag[1]
        if not isinstance(round_index, int):
            return None
        state = self._round(round_index)
        if state.completed or broadcaster in state.delivered:
            return None
        vector = self._coerce_vector(value)
        if vector is None:
            # A Byzantine broadcaster managed to get a malformed value
            # RB-delivered; record nothing (its tuple simply never appears,
            # which the algorithm tolerates for up to f processes).
            return None
        state.delivered[broadcaster] = vector
        state.arrival_order.append(broadcaster)
        return self._advance(round_index, state)

    def _coerce_vector(self, value: Any) -> np.ndarray | None:
        try:
            vector = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            return None
        if vector.shape != self._vector_shape or not all(map(isfinite, vector.tolist())):
            return None
        return vector

    # -- reports and witnesses ------------------------------------------------------------
    #
    # Each step returns the result of the round it completes, if any.

    def _round(self, round_index: int) -> _RoundState:
        state = self._rounds.get(round_index)
        if state is None:
            state = self._rounds[round_index] = _RoundState()
        return state

    def _advance(self, round_index: int, state: _RoundState) -> RoundExchangeResult | None:
        """Re-check everything new information about ``round_index`` can unblock."""
        if not state.report_sent and len(state.delivered) >= self.quorum:
            state.report_sent = True
            members = tuple(state.arrival_order[: self.quorum])
            self._send_all(self.KIND_REPORT, {"round": round_index, "members": list(members)})
            # Record our own report: a process is trivially its own witness.
            state.reports[self.owner_id] = members
        self._reevaluate_witnesses(state)
        return self._maybe_complete(round_index, state)

    def on_report(self, sender: int, payload: dict[str, Any]) -> RoundExchangeResult | None:
        """Record one witness report from ``sender``."""
        if not isinstance(payload, dict):
            return None
        round_index = payload.get("round")
        members = payload.get("members")
        if not isinstance(round_index, int) or not isinstance(members, (list, tuple)):
            return None
        state = self._rounds.get(round_index)
        if state is not None and (state.completed or sender in state.reports):
            return None
        if not all(map(isinstance, members, repeat(_INTEGER_TYPES))):
            return None
        member_ids = tuple(map(int, members))
        if len(set(member_ids)) != len(member_ids) or len(member_ids) != self.quorum:
            return None
        if not all(map(self.process_ids.__contains__, member_ids)):
            return None
        if state is None:
            # Only a well-formed report opens a round's state.
            state = self._round(round_index)
        state.reports[sender] = member_ids
        self._reevaluate_witnesses(state)
        return self._maybe_complete(round_index, state)

    def _reevaluate_witnesses(self, state: _RoundState) -> None:
        delivered = state.delivered.__contains__
        for reporter, members in state.reports.items():
            if reporter not in state.witnesses and all(map(delivered, members)):
                state.witnesses.add(reporter)

    def _maybe_complete(self, round_index: int, state: _RoundState) -> RoundExchangeResult | None:
        if self._awaited_round != round_index or state.completed:
            return None
        if len(state.witnesses) < self.quorum or len(state.delivered) < self.quorum:
            return None
        state.completed = True
        self._awaited_round = None
        return RoundExchangeResult(
            round_index=round_index,
            tuples={pid: vector.copy() for pid, vector in state.delivered.items()},
            arrival_order=tuple(state.arrival_order),
            witness_reports={
                reporter: members
                for reporter, members in state.reports.items()
                if reporter in state.witnesses
            },
        )
