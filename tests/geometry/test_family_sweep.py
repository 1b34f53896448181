"""The vectorised planar sweep against the per-direction loop it replaced.

``_family_2d`` sorts every sweep direction in one ``argsort`` (at ``f = 1``
one ``argmax``, whose first-maximum rule is the sort's tie-break) and tells
the distinct drop sets apart as a whole; the loop below is the former
implementation — one ``lexsort`` per direction with an explicit index
tie-break — kept here as the reference, as is the former
``np.unique(axis=0)`` labelling of the domination collapse.  New and old must
return the identical family tuple (same subsets, same order), because the
family fixes the LP's block order and with it the vertex HiGHS returns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.kernel import _family_2d, full_subset_family, pruned_subset_family


def reference_family_2d(cloud: np.ndarray, fault_bound: int) -> tuple[tuple[int, ...], ...]:
    """The pre-vectorisation sweep: one lexsort per direction, a set of tuples."""
    point_count = cloud.shape[0]
    upper_i, upper_j = np.triu_indices(point_count, k=1)
    differences = cloud[upper_j] - cloud[upper_i]
    nonzero = np.any(differences != 0.0, axis=1)
    differences = differences[nonzero]
    if differences.shape[0] == 0:
        directions = np.asarray([[1.0, 0.0]])
    else:
        events = np.mod(np.arctan2(differences[:, 1], differences[:, 0]) + 0.5 * np.pi, np.pi)
        events = np.unique(np.concatenate([events, events + np.pi]))
        midpoints = (events + np.roll(events, -1)) / 2.0
        midpoints[-1] = (events[-1] + events[0] + 2.0 * np.pi) / 2.0
        directions = np.column_stack([np.cos(midpoints), np.sin(midpoints)])
    projections = cloud @ directions.T
    tie_break = np.arange(point_count)
    families: set[tuple[int, ...]] = set()
    for column in projections.T:
        order = np.lexsort((tie_break, -column))
        families.add(tuple(sorted(order[fault_bound:].tolist())))
    return tuple(sorted(families))


def reference_dedupe_dominated(cloud, families):
    """The former domination collapse: member values labelled by ``np.unique(axis=0)``."""
    _, value_ids = np.unique(cloud, axis=0, return_inverse=True)
    value_ids = np.asarray(value_ids).ravel()
    if np.unique(value_ids).shape[0] == cloud.shape[0]:
        return tuple(families)
    value_sets = [frozenset(int(value_ids[index]) for index in family) for family in families]
    order = sorted(range(len(families)), key=lambda k: (len(value_sets[k]), families[k]))
    kept: list[int] = []
    kept_sets: list[frozenset[int]] = []
    for index in order:
        candidate = value_sets[index]
        if any(kept_set <= candidate for kept_set in kept_sets):
            continue
        kept.append(index)
        kept_sets.append(candidate)
    return tuple(families[index] for index in sorted(kept))


coordinate = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coordinate, coordinate)
# f = 1 takes the argmax route, f >= 2 the stable sort: draw both explicitly.
fault_bounds = st.sampled_from([1, 2, 3, 4])


@st.composite
def random_clouds(draw):
    return np.asarray(draw(st.lists(point, min_size=5, max_size=14)), dtype=float)


@st.composite
def duplicate_heavy_clouds(draw):
    """A few distinct values, each repeated: every projection has ties."""
    values = draw(st.lists(point, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=5, max_size=14))
    return np.asarray([values[pick] for pick in picks], dtype=float)


@st.composite
def collinear_clouds(draw):
    """Members on one line (repeats allowed): a single pair of event angles."""
    origin = np.asarray(draw(point))
    direction = np.asarray(draw(point))
    steps = draw(st.lists(st.integers(-4, 4), min_size=5, max_size=14))
    return origin[None, :] + np.asarray(steps, dtype=float)[:, None] * direction[None, :]


@st.composite
def coincident_clouds(draw):
    """Every member the same point: no event angle at all."""
    count = draw(st.integers(5, 14))
    return np.tile(np.asarray(draw(point), dtype=float), (count, 1))


@st.composite
def near_collinear_clouds(draw):
    """A line plus at most 1e-12 of jitter: event angles crowd around one pair."""
    line = draw(collinear_clouds())
    jitter = st.floats(min_value=-1e-12, max_value=1e-12, allow_nan=False)
    offsets = draw(st.lists(st.tuples(jitter, jitter), min_size=len(line), max_size=len(line)))
    return line + np.asarray(offsets, dtype=float)


@st.composite
def hull_vertex_copies_clouds(draw):
    """Copies of hull members inserted at lower and higher indices.

    The members extreme in ``±x`` and ``±y`` lie on the hull; their copies go
    anywhere, so the extreme member of many directions is tied and the
    index tie-break decides which copy is dropped.
    """
    cloud = draw(random_clouds())
    vertices = [
        cloud[np.argmax(cloud[:, 0])], cloud[np.argmin(cloud[:, 0])],
        cloud[np.argmax(cloud[:, 1])], cloud[np.argmin(cloud[:, 1])],
    ]
    members = list(cloud)
    for vertex in draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=6)):
        members.insert(draw(st.integers(0, len(members))), vertex)
    return np.asarray(members, dtype=float)


CLOUDS = [
    random_clouds(), duplicate_heavy_clouds(), collinear_clouds(), coincident_clouds(),
    near_collinear_clouds(), hull_vertex_copies_clouds(),
]
CLOUD_IDS = [
    "random", "duplicate-heavy", "collinear", "all-coincident",
    "near-collinear", "hull-vertex-copies",
]


@pytest.mark.parametrize("clouds", CLOUDS, ids=CLOUD_IDS)
def test_vectorised_sweep_matches_the_loop(clouds):
    @settings(max_examples=60, deadline=None)
    @given(cloud=clouds, fault_bound=fault_bounds)
    def check(cloud, fault_bound):
        assert _family_2d(cloud, fault_bound) == reference_family_2d(cloud, fault_bound)

    check()


@pytest.mark.parametrize("clouds", CLOUDS, ids=CLOUD_IDS)
def test_pruned_family_matches_the_reference_pipeline(clouds):
    """Sweep plus domination collapse, end to end, as the kernel consumes it."""

    @settings(max_examples=40, deadline=None)
    @given(cloud=clouds, fault_bound=fault_bounds)
    def check(cloud, fault_bound):
        expected = reference_dedupe_dominated(cloud, reference_family_2d(cloud, fault_bound))
        assert pruned_subset_family(cloud, fault_bound) == expected

    check()


def test_index_tie_break_drops_the_lowest_indexed_copy():
    # Three copies of the extreme point: whichever direction makes it
    # extreme, the copy dropped is the one with the lowest index — member 0
    # is dropped by some direction, members 1 and 2 by none.
    cloud = np.asarray([[2.0, 0.0], [2.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    family = _family_2d(cloud, 1)
    assert family == reference_family_2d(cloud, 1)
    dropped = {next(index for index in range(6) if index not in kept) for kept in family}
    assert 0 in dropped and not {1, 2} & dropped


def test_pruned_family_goes_through_the_sweep_in_the_plane():
    rng = np.random.default_rng(20130722)
    for point_count, fault_bound in ((9, 1), (13, 2), (17, 3)):
        cloud = rng.normal(size=(point_count, 2))
        assert pruned_subset_family(cloud, fault_bound) == reference_family_2d(cloud, fault_bound)


def test_domination_collapse_beyond_the_plane_matches_the_reference():
    rng = np.random.default_rng(1912)
    for point_count, fault_bound in ((6, 1), (8, 2), (9, 2)):
        values = rng.normal(size=(3, 3))
        cloud = values[rng.integers(0, 3, size=point_count)]
        expected = reference_dedupe_dominated(cloud, full_subset_family(point_count, fault_bound))
        assert pruned_subset_family(cloud, fault_bound) == expected
        assert len(expected) < len(full_subset_family(point_count, fault_bound))
