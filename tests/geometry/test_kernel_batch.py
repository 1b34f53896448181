"""A round's Γ queries in one program: every answer is the query's own.

At ``d = 2`` the kernel answers the memo misses of one shape together, in
one fixed-shape program over the stack
(``geometry/kernel.py::_planar_gamma_points``), cut into chunks of at most
``_CHUNK_ELEMENTS`` member projections.  A single :meth:`GammaKernel.point`
is that program at ``Q = 1``.  An answer must never depend on its
batch-mates, bit for bit: the memo contract and the columnar engine's rows
equal to the object engine's both rest on it.  The properties below hold
that over the shapes where a batched program could go wrong — duplicates,
collinear, coincident and near-coincident members, ``n`` at Lemma 1's
bound, ``f`` from 1 to 4 — under zero, first-axis and random objectives,
in batches that straddle a chunk boundary; and they hold every answer in
``Gamma`` (depth at least ``f + 1``) and at the LP oracle's optimum, within
the certificate's tolerance.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safe_area import safe_area_point
from repro.geometry import kernel as kernel_module
from repro.geometry.kernel import GammaKernel, halfspace_depth, pruned_subset_family
from repro.obs.registry import get_registry
from test_kernel_literal_program import depth_margin

#: Tolerance of the oracle comparison, relative to ``max(1, max |y|)``.
TOLERANCE = 1e-9


def cold_kernel() -> GammaKernel:
    """A kernel that never stores an answer: every query is a fresh solve."""
    kernel = GammaKernel()
    kernel._memo_store = lambda key, answer: None
    return kernel


def same(left, right) -> bool:
    """Both empty, or bitwise the same point."""
    if left is None or right is None:
        return left is None and right is None
    return left.tobytes() == right.tobytes()


coordinate = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
KINDS = ("general", "duplicates", "collinear", "coincident", "cluster")


@st.composite
def batches(draw):
    """``(clouds, f)``: one to seven planar clouds of one shape and one kind."""
    fault_bound = draw(st.integers(1, 4))
    count = 3 * fault_bound + 1 + draw(st.sampled_from([0, 0, 1, 3]))  # at Lemma 1's bound, or above
    kind = draw(st.sampled_from(KINDS))
    point = st.tuples(coordinate, coordinate)

    def cloud() -> np.ndarray:
        if kind == "general":
            rows = draw(st.lists(point, min_size=count, max_size=count))
        elif kind == "duplicates":
            values = draw(st.lists(point, min_size=1, max_size=4))
            picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=count, max_size=count))
            rows = [values[pick] for pick in picks]
        elif kind == "collinear":
            origin, direction = np.asarray(draw(point)), np.asarray(draw(point))
            steps = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count))
            rows = origin + np.asarray(steps, dtype=float)[:, None] * direction
        elif kind == "coincident":
            rows = [draw(point)] * count
        else:  # a near-coincident cluster
            centre = np.asarray(draw(point))
            steps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
            jitter = draw(st.lists(steps, min_size=count, max_size=count))
            rows = centre + 1e-9 * np.asarray(jitter, dtype=float)
        return np.asarray(rows, dtype=float).reshape(count, 2)

    return [cloud() for _ in range(draw(st.integers(1, 7)))], fault_bound


objectives = st.one_of(
    st.just((0.0, 0.0)), st.just((1.0, 0.0)), st.tuples(coordinate, coordinate)
)


def test_every_answer_is_its_single_query_answer_and_its_memo_replay(monkeypatch):
    @settings(max_examples=150, deadline=None)
    @given(batch=batches(), objective=objectives, chunk=st.integers(1, 4))
    def check(batch, objective, chunk):
        clouds, fault_bound = batch
        point_count = clouds[0].shape[0]
        # Chunks of ``chunk`` queries: most batches straddle a boundary.
        work = (point_count * (point_count - 1) + 4) * point_count
        monkeypatch.setattr(kernel_module, "_CHUNK_ELEMENTS", chunk * work)
        together = cold_kernel().points_batch(clouds, fault_bound, objective=objective)
        for cloud, answer in zip(clouds, together):
            assert same(answer, cold_kernel().point(cloud, fault_bound, objective=objective))
        warm = GammaKernel()
        stored = warm.points_multi(clouds, fault_bound, objective=objective)
        served = warm.points_multi(clouds[::-1], fault_bound, objective=objective)[::-1]
        assert all(map(same, together, stored)) and all(map(same, together, served))

    check()


def test_a_round_longer_than_a_chunk_is_answered_query_by_query():
    clouds = np.random.default_rng(31).uniform(-1.0, 1.0, size=(150, 12, 2))
    assert kernel_module._CHUNK_ELEMENTS // ((12 * 11 + 4) * 12) < len(clouds)
    together = cold_kernel().points_multi(clouds, 1, objective=[1.0, 0.0])
    for cloud, answer in zip(clouds, together):
        assert same(answer, cold_kernel().point(cloud, 1, objective=[1.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(batch=batches(), objective=objectives)
def test_answers_are_deep_and_reach_the_oracle_optimum(batch, objective, kernel_events):
    clouds, fault_bound = batch
    target = np.asarray(objective) if any(objective) else np.asarray([1.0, 0.0])
    answers = cold_kernel().points_batch(clouds, fault_bound, objective=objective)
    for cloud, point in zip(clouds, answers):
        events = kernel_events()
        assert same(point, cold_kernel().point(cloud, fault_bound, objective=objective))
        assert events.lp_solves == 0
        assert point is not None  # Lemma 1: Gamma is non-empty at these sizes
        if events.relaxed_solves:
            continue  # the relaxed program minimises a slack, not the objective
        scale = max(1.0, float(np.abs(cloud).max()))
        assert depth_margin(cloud, fault_bound, point) >= -TOLERANCE * scale
        assert halfspace_depth(cloud, point) >= fault_bound + 1
        oracle = safe_area_point(
            cloud,
            fault_bound,
            subset_indices=pruned_subset_family(cloud, fault_bound),
            objective=target,
        )
        if oracle is not None and depth_margin(cloud, fault_bound, oracle) >= -1e-14 * scale:
            assert float(target @ point) <= float(target @ oracle) + TOLERANCE * scale


def _residuals_observed() -> int:
    family = get_registry().snapshot(collect=False)["repro_kernel_certificate_residual"]
    return family["samples"].get((), {"count": 0})["count"]


def test_one_program_per_shape_and_one_residual_per_certified_answer(kernel_events):
    rng = np.random.default_rng(33)
    planar = list(rng.uniform(-1.0, 1.0, size=(5, 7, 2)))
    line = list(rng.uniform(-1.0, 1.0, size=(3, 5, 1)))
    events, observed = kernel_events(), _residuals_observed()
    answers = GammaKernel().points_multi(planar + line + planar[:2], 2)
    assert all(answer is not None for answer in answers)
    assert (events.closed_form_answers, events.closed_form_batches) == (8, 2)
    assert events.multi_dedup_hits == 2 and events.relaxed_solves == 0
    assert _residuals_observed() == observed + 5  # the planar answers only


def test_a_long_round_holds_its_temporaries_to_a_few_megabytes():
    clouds = np.random.default_rng(34).uniform(-1.0, 1.0, size=(300, 12, 2))
    tracemalloc.start()
    try:
        cold_kernel().points_multi(clouds, 1, objective=[1.0, 0.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("fault_bound", [1, 2, 3])
def test_a_batch_of_one_is_the_point_query(fault_bound, kernel_events):
    cloud = np.random.default_rng(35 + fault_bound).normal(size=(3 * fault_bound + 2, 2))
    events = kernel_events()
    single = cold_kernel().point(cloud, fault_bound)
    assert (events.single_queries, events.closed_form_batches) == (1, 1)
    assert same(single, cold_kernel().points_batch([cloud], fault_bound)[0])
