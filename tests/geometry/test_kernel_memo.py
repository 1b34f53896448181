"""The kernel's answer memo may only hand back what a cold solve returns.

``GammaKernel`` keeps a bounded, bitwise-keyed memo of solved queries (the
contract is on the class).  The reference throughout is a *cold* kernel: the
same class with its store step monkeypatched to a no-op, so it never
remembers anything and every query is a fresh solve — there is no switch in
the product to turn the memo off.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GeometryError
from repro.geometry import kernel as kernel_module
from repro.geometry.kernel import GammaKernel, default_kernel
from repro.obs.registry import get_registry


def cold_kernel() -> GammaKernel:
    """A kernel that never stores an answer: every query is a fresh solve."""
    kernel = GammaKernel()
    kernel._memo_store = lambda key, answer: None
    return kernel


def solves(events) -> int:
    """Queries computed rather than served from a memo, over ``events``' span."""
    return events.lp_solves + events.closed_form_answers


def outcome(query):
    """What a query does: its answer, or the type and message it raises."""
    try:
        return ("answer", query())
    except Exception as error:  # noqa: BLE001 — the failure is the datum
        return ("raises", type(error), str(error))


def same_answer(left, right) -> bool:
    """``np.array_equal`` lifted over ``None`` and lists of answers."""
    if isinstance(left, list) or isinstance(right, list):
        return (
            isinstance(left, list)
            and isinstance(right, list)
            and len(left) == len(right)
            and all(same_answer(a, b) for a, b in zip(left, right))
        )
    if left is None or right is None:
        return left is None and right is None
    return np.array_equal(left, right)


def assert_same_outcome(warm, cold) -> None:
    assert warm[0] == cold[0], (warm, cold)
    if warm[0] == "raises":
        assert warm[1:] == cold[1:]
    else:
        assert same_answer(warm[1], cold[1]), (warm[1], cold[1])


# ---------------------------------------------------------------------------
# Warm answers equal cold answers
# ---------------------------------------------------------------------------

coordinate = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def query_sets(draw):
    """``(clouds, f)``: a handful of same-shape clouds of one of three kinds.

    *random* clouds are in general position, *duplicate-heavy* ones repeat a
    few values (what collapsing states look like), *near-coincident* ones
    jitter a single point at the 1e-9 scale (the clusters that push HiGHS
    onto its retry ladder and the kernel onto the relaxed program).
    """
    dimension = draw(st.sampled_from([1, 2, 3]))
    fault_bound = draw(st.sampled_from([1, 2]))
    point_count = (dimension + 1) * fault_bound + 1 + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["random", "duplicate-heavy", "near-coincident"]))
    point = st.lists(coordinate, min_size=dimension, max_size=dimension)

    def cloud():
        if kind == "random":
            rows = draw(st.lists(point, min_size=point_count, max_size=point_count))
        elif kind == "duplicate-heavy":
            values = draw(st.lists(point, min_size=1, max_size=3))
            picks = draw(
                st.lists(
                    st.integers(0, len(values) - 1), min_size=point_count, max_size=point_count
                )
            )
            rows = [values[pick] for pick in picks]
        else:
            centre = np.asarray(draw(point))
            jitter = draw(
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=dimension, max_size=dimension),
                    min_size=point_count,
                    max_size=point_count,
                )
            )
            rows = centre[None, :] + 1e-9 * np.asarray(jitter, dtype=float)
        return np.asarray(rows, dtype=float).reshape(point_count, dimension)

    return [cloud() for _ in range(draw(st.integers(2, 4)))], fault_bound


def first_axis(dimension: int) -> np.ndarray:
    objective = np.zeros(dimension)
    objective[0] = 1.0
    return objective


@settings(max_examples=60, deadline=None)
@given(query_set=query_sets())
def test_point_answers_equal_a_cold_kernels(query_set, kernel_events):
    clouds, fault_bound = query_set
    objective = first_axis(clouds[0].shape[1])
    warm, cold = GammaKernel(), cold_kernel()
    queries = clouds + clouds + clouds[::-1]
    events = kernel_events()
    references = [
        outcome(lambda: cold.point(cloud, fault_bound, objective=objective)) for cloud in queries
    ]
    cold_solves = solves(events)
    assert events.memo_hits == 0 and cold.memo_size == 0
    events = kernel_events()
    for cloud, reference in zip(queries, references):
        assert_same_outcome(
            outcome(lambda: warm.point(cloud, fault_bound, objective=objective)), reference
        )
    assert solves(events) + events.memo_hits == cold_solves
    if not any(reference[0] == "raises" for reference in references):
        assert solves(events) == len({cloud.tobytes() for cloud in clouds})


def test_batch_answers_equal_a_cold_kernels(kernel_events):
    @settings(max_examples=40, deadline=None)
    @given(query_set=query_sets())
    def check(query_set):
        clouds, fault_bound = query_set
        objective = first_axis(clouds[0].shape[1])
        warm, cold = GammaKernel(), cold_kernel()
        # The full batch, a sub-batch, a reordering — then all of them again.
        batches = [clouds, clouds[:-1], clouds[::-1]] * 2
        events = kernel_events()
        references = [
            outcome(lambda: cold.points_batch(batch, fault_bound, objective=objective))
            for batch in batches
        ]
        cold_solves = solves(events)
        assert events.memo_hits == 0 and cold.memo_size == 0
        events = kernel_events()
        for batch, reference in zip(batches, references):
            assert_same_outcome(
                outcome(lambda: warm.points_batch(batch, fault_bound, objective=objective)),
                reference,
            )
        assert solves(events) <= cold_solves

    check()


def test_multi_answers_equal_a_cold_kernels(kernel_events):
    @settings(max_examples=40, deadline=None)
    @given(query_set=query_sets())
    def check(query_set):
        clouds, fault_bound = query_set
        objective = first_axis(clouds[0].shape[1])
        warm, cold = GammaKernel(), cold_kernel()
        # Duplicates inside one call, and a second, smaller shape beside them.
        round_queries = clouds + [clouds[0], clouds[-1][:-1]]
        rounds = [round_queries, round_queries, round_queries[::-1]]
        events = kernel_events()
        references = [
            outcome(lambda: cold.points_multi(queries, fault_bound, objective=objective))
            for queries in rounds
        ]
        cold_solves = solves(events)
        assert events.memo_hits == 0
        events = kernel_events()
        for queries, reference in zip(rounds, references):
            assert_same_outcome(
                outcome(lambda: warm.points_multi(queries, fault_bound, objective=objective)),
                reference,
            )
        assert solves(events) <= cold_solves

    check()


# ---------------------------------------------------------------------------
# Key separation: what differs in the query never shares an entry
# ---------------------------------------------------------------------------

@pytest.fixture
def cloud():
    return np.random.default_rng(18).uniform(-1.0, 1.0, size=(7, 2))


def test_every_key_field_separates_point_queries(cloud, kernel_events):
    kernel, events = GammaKernel(), kernel_events()
    negative_zero = cloud.copy()
    negative_zero[0, 0] = 0.0
    positive_zero = negative_zero.copy()
    negative_zero[0, 0] = -0.0
    assert np.array_equal(negative_zero, positive_zero)  # equal values, different bytes
    variants = [
        lambda: kernel.point(cloud, 1, objective=[1.0, 0.0]),
        lambda: kernel.point(cloud, 2, objective=[1.0, 0.0]),
        lambda: kernel.point(cloud, 1, objective=[0.0, 1.0]),
        lambda: kernel.point(cloud, 1, objective=[-0.0, 1.0]),
        lambda: kernel.point(cloud, 1),
        lambda: kernel.point(cloud[:-1], 1, objective=[1.0, 0.0]),
        lambda: kernel.point(positive_zero, 1, objective=[1.0, 0.0]),
        lambda: kernel.point(negative_zero, 1, objective=[1.0, 0.0]),
    ]
    for count, variant in enumerate(variants, start=1):
        variant()
        assert events.memo_hits == 0
        assert solves(events) == count
        assert kernel.memo_size == count
    for variant in variants:
        variant()
    assert events.memo_hits == len(variants)
    assert solves(events) == len(variants)


def test_one_cloud_two_shapes_do_not_collide(kernel_events):
    """The same bytes read as (6, 1) and as (3, 2) are different queries."""
    kernel, events = GammaKernel(), kernel_events()
    values = np.arange(6, dtype=float)
    on_the_line = kernel.point(values.reshape(6, 1), 1)
    in_the_plane = kernel.point(values.reshape(3, 2), 1)
    assert events.memo_hits == 0
    assert on_the_line.shape == (1,) and in_the_plane.shape == (2,)


def test_batches_share_the_per_query_entries(cloud, kernel_events):
    """A batch is its queries: each one is stored, and served, on its own key."""
    kernel, events = GammaKernel(), kernel_events()
    other = cloud[::-1].copy()
    kernel.point(cloud, 1)
    assert kernel.points_batch([cloud, other], 1)[0] is not None
    assert events.memo_hits == 1 and kernel.memo_size == 2
    kernel.points_batch([other, cloud, cloud], 1)
    assert events.memo_hits == 4 and kernel.memo_size == 2 and solves(events) == 2
    kernel.points_batch([cloud, other], 2)  # another f: other queries
    kernel.points_batch([cloud], 1, objective=[1.0, 0.0])  # another objective
    assert events.memo_hits == 4 and kernel.memo_size == 5 and solves(events) == 5


# ---------------------------------------------------------------------------
# Copies in, copies out
# ---------------------------------------------------------------------------

def test_mutating_a_returned_point_cannot_poison_later_answers(cloud, kernel_events):
    expected = cold_kernel().point(cloud, 2, objective=[1.0, 0.0])
    kernel, events = GammaKernel(), kernel_events()
    for _ in range(3):  # the cold answer first, then two answers from the memo
        answer = kernel.point(cloud, 2, objective=[1.0, 0.0])
        assert np.array_equal(answer, expected)
        answer[:] = 99.0
    assert solves(events) == 1 and events.memo_hits == 2


def test_mutating_a_returned_batch_cannot_poison_later_answers(cloud, kernel_events):
    batch = [cloud, cloud[::-1].copy(), cloud + 0.5]
    expected = cold_kernel().points_batch(batch, 1)
    kernel, events = GammaKernel(), kernel_events()
    for _ in range(3):
        answers = kernel.points_batch(batch, 1)
        assert same_answer(answers, expected)
        for answer in answers:
            answer[:] = 99.0
        answers.clear()
    assert events.memo_hits == 2 * len(batch)


def test_mutating_the_query_cloud_afterwards_asks_a_new_query(cloud, kernel_events):
    kernel, events = GammaKernel(), kernel_events()
    query = cloud.copy()
    kernel.point(query, 1)
    query[0] += 0.25
    moved = kernel.point(query, 1)
    assert events.memo_hits == 0
    assert np.array_equal(moved, cold_kernel().point(query, 1))
    assert np.array_equal(kernel.point(cloud, 1), cold_kernel().point(cloud, 1))
    assert events.memo_hits == 1


# ---------------------------------------------------------------------------
# Empty Gamma is an answer; an exception is not
# ---------------------------------------------------------------------------

TRIANGLE = np.asarray([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # Gamma empty at f = 1


def test_empty_gamma_is_memoised(kernel_events):
    kernel, events = GammaKernel(), kernel_events()
    assert kernel.point(TRIANGLE, 1) is None
    solved = (events.lp_solves, events.relaxed_solves)
    assert kernel.point(TRIANGLE, 1) is None
    assert events.memo_hits == 1
    assert (events.lp_solves, events.relaxed_solves) == solved

    batch = [TRIANGLE, TRIANGLE + 1.0]
    assert kernel.points_batch(batch, 1) == [None, None]
    assert events.memo_hits == 2  # the triangle, stored by the single query
    solved = (events.lp_solves, events.relaxed_solves)
    assert kernel.points_batch(batch, 1) == [None, None]
    assert events.memo_hits == 4
    assert (events.lp_solves, events.relaxed_solves) == solved


def test_a_raising_query_is_not_memoised_and_raises_the_same_again(cloud, kernel_events):
    kernel, events = GammaKernel(), kernel_events()
    poisoned = np.vstack([cloud, cloud])
    poisoned[3, 1] = np.nan
    queries = [
        lambda: kernel.point(poisoned, 2),
        lambda: kernel.points_batch([poisoned, poisoned], 2),
        lambda: kernel.points_multi([poisoned, cloud], 2),
    ]
    for query in queries:
        first, second = outcome(query), outcome(query)
        assert first[0] == "raises" and first[1] is ValueError
        assert second == first
    assert events.memo_hits == 0
    # Only the healthy cloud of the multi-query, solved before the loud one
    # could abort the call, may have been stored.
    assert kernel.memo_size <= 1

    with pytest.raises(GeometryError, match="objective must have length"):
        kernel.point(cloud, 1, objective=[1.0, 0.0, 0.0])
    kernel.point(cloud, 1, objective=[1.0, 0.0])
    with pytest.raises(GeometryError, match="objective must have length"):
        kernel.point(cloud, 1, objective=[1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Bound, clearing, concurrency, counters
# ---------------------------------------------------------------------------

def test_the_bound_holds_when_over_filled_and_answers_stay_correct(monkeypatch, kernel_events):
    monkeypatch.setattr(kernel_module, "_MEMO_LIMIT", 4)
    rng = np.random.default_rng(7)
    clouds = [rng.uniform(-1.0, 1.0, size=(5, 2)) for _ in range(11)]
    cold = cold_kernel()
    expected = [cold.point(cloud, 1) for cloud in clouds]
    kernel, events = GammaKernel(), kernel_events()
    for _ in range(2):
        for cloud, answer in zip(clouds, expected):
            assert np.array_equal(kernel.point(cloud, 1), answer)
            assert np.array_equal(kernel.point(cloud, 1), answer)  # an immediate repeat hits
            assert kernel.memo_size <= 4
    assert events.memo_evictions == 5  # 22 stores, flushed at every fifth
    assert events.memo_hits == 22
    assert solves(events) == 22


def test_clear_cache_empties_the_memo(cloud, kernel_events):
    kernel = GammaKernel()
    kernel.point(cloud, 1)
    kernel.points_batch([cloud, cloud + 1.0], 1)
    assert kernel.memo_size == 2
    kernel.clear_cache()
    assert kernel.memo_size == 0
    events = kernel_events()
    kernel.point(cloud, 1)
    assert solves(events) == 1 and events.memo_hits == 0


def test_threads_sharing_a_kernel_get_cold_answers(monkeypatch, kernel_events):
    """More threads than cores, a tiny table that flushes constantly."""
    limit, thread_count = 5, 6
    monkeypatch.setattr(kernel_module, "_MEMO_LIMIT", limit)
    rng = np.random.default_rng(11)
    clouds = [rng.uniform(-1.0, 1.0, size=(5, 2)) for _ in range(12)]
    cold = cold_kernel()
    expected = [cold.point(cloud, 1) for cloud in clouds]
    expected_batch = cold.points_batch(clouds[:3], 1)
    kernel, events = GammaKernel(), kernel_events()
    wrong: list[str] = []
    overshoot: list[int] = []

    def worker(seed: int) -> None:
        order = np.random.default_rng(seed).integers(0, len(clouds), size=80)
        for step, index in enumerate(order.tolist()):
            if not np.array_equal(kernel.point(clouds[index], 1), expected[index]):
                wrong.append(f"thread {seed}: cloud {index}")
            if step % 10 == 0 and not same_answer(
                kernel.points_batch(clouds[:3], 1), expected_batch
            ):
                wrong.append(f"thread {seed}: batch")
            overshoot.append(kernel.memo_size)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(overshoot) == thread_count * 80
    assert max(overshoot) <= limit + thread_count
    assert events.memo_evictions > 0


def test_counters_and_gauges_are_published():
    registry = get_registry()
    cloud = np.random.default_rng(3).uniform(size=(6, 2)) + 1800.0  # nobody else's query
    before = registry.snapshot()["repro_kernel_events_total"]["samples"].get(("memo_hits",), 0.0)
    default_kernel.point(cloud, 1)
    default_kernel.point(cloud, 1)
    snapshot = registry.snapshot()
    assert snapshot["repro_kernel_events_total"]["samples"][("memo_hits",)] == before + 1
    assert snapshot["repro_kernel_memo_size"]["samples"][()] == default_kernel.memo_size > 0
