"""Equivalence tests for the batched safe-area kernel against the oracle LP.

The kernel (:mod:`repro.geometry.kernel`) must agree with the literal
Section 2.2 enumeration (:func:`repro.core.safe_area.safe_area_point`) on

* emptiness — ``Gamma`` is empty for the kernel iff it is for the oracle,
* the optimal objective value — pruning removes only redundant hulls, so
  the minimum of the tie-break objective over ``Gamma`` is unchanged,
* membership — every kernel answer lies in ``Gamma`` by the oracle's own
  exponential membership check,

across randomized ``(n, f, d)`` instances including degenerate (collinear,
duplicate-point, fully collapsed) multisets.  Batched answers must match the
corresponding single-query answers bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csc_matrix

import repro.geometry.linprog as linprog_module
from repro.core.safe_area import (
    SafeAreaCalculator,
    safe_area_contains,
    safe_area_is_empty,
    safe_area_point,
    safe_area_subset_count,
)
from repro.exceptions import EmptyIntersectionError, GeometryError
from repro.geometry.kernel import (
    GammaKernel,
    default_kernel,
    full_subset_family,
    halfspace_depth,
    pruned_subset_family,
    safe_area_interval_1d,
)
from test_kernel_literal_program import kernel_lp


def _random_instance(rng: np.random.Generator, trial: int) -> tuple[np.ndarray, int]:
    """A randomized (cloud, f) pair, degenerate every few trials."""
    dimension = int(rng.integers(1, 4))
    fault_bound = int(rng.integers(1, 3))
    point_count = (dimension + 1) * fault_bound + 1 + int(rng.integers(0, 3))
    cloud = rng.uniform(-3.0, 3.0, size=(point_count, dimension))
    if trial % 3 == 0:
        # Duplicate members (the paper works over multisets on purpose).
        cloud[1] = cloud[0]
        if point_count > 4:
            cloud[3] = cloud[2]
    if trial % 4 == 0 and dimension >= 2:
        # Collinear members: everything on one affine line.
        direction = rng.uniform(-1.0, 1.0, size=dimension)
        cloud = np.outer(cloud[:, 0], direction) + rng.uniform(-1.0, 1.0, size=dimension)
    return cloud, fault_bound


class TestSingleQueryEquivalence:
    def test_randomized_instances_match_oracle(self):
        rng = np.random.default_rng(2024)
        kernel = GammaKernel()
        for trial in range(40):
            cloud, fault_bound = _random_instance(rng, trial)
            objective = np.zeros(cloud.shape[1])
            objective[0] = 1.0
            oracle = safe_area_point(cloud, fault_bound, objective=objective)
            pruned = kernel.point(cloud, fault_bound, objective=objective)
            unpruned = kernel_lp(
                kernel, cloud, full_subset_family(len(cloud), fault_bound), objective
            )
            assert (oracle is None) == (pruned is None) == (unpruned is None), (
                f"emptiness mismatch on trial {trial}: {cloud.shape}, f={fault_bound}"
            )
            if oracle is None:
                continue
            # Same optimal objective value: pruning only removes redundant hulls.
            assert float(pruned[0]) == pytest.approx(float(oracle[0]), abs=1e-6)
            assert float(unpruned[0]) == pytest.approx(float(oracle[0]), abs=1e-6)
            # Every kernel answer lies in Gamma by the oracle's own membership LP.
            assert safe_area_contains(cloud, fault_bound, pruned, tolerance=1e-5)
            assert safe_area_contains(cloud, fault_bound, unpruned, tolerance=1e-5)

    def test_empty_gamma_matches_oracle(self):
        # Theorem 1's construction: d + 1 points in R^d, f = 1.
        for dimension in (1, 2, 3):
            cloud = np.vstack([np.eye(dimension), np.zeros((1, dimension))])
            assert default_kernel.point(cloud, 1) is None
            assert safe_area_point(cloud, 1) is None
            assert safe_area_is_empty(cloud, 1)

    def test_fully_collapsed_multiset(self):
        cloud = np.asarray([[2.0, -3.0]] * 5)
        point = default_kernel.point(cloud, 2)
        assert np.allclose(point, [2.0, -3.0], atol=1e-6)

    def test_near_coincident_cluster_survives_solver_degeneracy(self):
        # Scenario-fuzz regression: honest states late in a contraction form
        # a micro-cluster (spread ~5e-6) plus one outlier; HiGHS reports the
        # strict equality program "Unknown" in every configuration, so the
        # answer must come from the relaxed minimum-slack path instead of an
        # exception.  Gamma is non-empty (a cluster point lies in every
        # drop-one hull).
        cloud = np.asarray(
            [
                [7.96463103, 6.29389495],
                [7.16802536, 6.12459677],
                [7.16802605, 6.12460123],
                [7.16802070, 6.12460009],
            ]
        )
        for point in (default_kernel.point(cloud, 1), safe_area_point(cloud, 1)):
            assert point is not None
            assert safe_area_contains(cloud, 1, point, tolerance=1e-4)

    def test_zero_faults_returns_centroid(self):
        cloud = np.asarray([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(default_kernel.point(cloud, 0), cloud.mean(axis=0))

    def test_edge_cases_mirror_oracle(self):
        assert default_kernel.point(np.empty((0, 2)), 1) is None
        assert default_kernel.point(np.asarray([[0.0], [1.0]]), 3) is None
        with pytest.raises(GeometryError):
            default_kernel.point(np.asarray([[0.0], [1.0]]), -1)
        with pytest.raises(GeometryError):
            default_kernel.point(
                np.asarray([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]),
                1,
                objective=[1.0, 2.0, 3.0],
            )

    def test_explicit_subset_family_honoured(self):
        cloud = np.asarray([[0.0], [1.0], [2.0], [3.0], [4.0]])
        families = ((0, 1, 2, 3), (1, 2, 3, 4))
        kernel_point = kernel_lp(GammaKernel(), cloud, families, np.asarray([1.0]))
        oracle_point = safe_area_point(
            cloud, 1, subset_indices=families, objective=np.asarray([1.0])
        )
        assert float(kernel_point[0]) == pytest.approx(float(oracle_point[0]), abs=1e-8)

    def test_one_dimensional_interval_semantics(self):
        cloud = np.asarray([[0.0], [1.0], [2.0], [3.0], [4.0]])
        low = default_kernel.point(cloud, 1, objective=[1.0])
        high = default_kernel.point(cloud, 1, objective=[-1.0])
        assert float(low[0]) == pytest.approx(1.0, abs=1e-6)
        assert float(high[0]) == pytest.approx(3.0, abs=1e-6)


class TestPrunedFamilies:
    def test_full_family_enumeration(self):
        assert len(full_subset_family(5, 1)) == safe_area_subset_count(5, 1)
        assert full_subset_family(3, 4) == ()

    def test_one_dimensional_pruning_is_two_subsets(self):
        cloud = np.asarray([[4.0], [0.0], [2.0], [1.0], [3.0]])
        families = pruned_subset_family(cloud, 1)
        assert len(families) == 2
        # Drop the largest member (index 0) and the smallest (index 1).
        assert (1, 2, 3, 4) in families and (0, 2, 3, 4) in families

    def test_planar_pruning_is_quadratic_not_binomial(self):
        rng = np.random.default_rng(7)
        cloud = rng.uniform(0.0, 1.0, size=(13, 2))
        families = pruned_subset_family(cloud, 4)
        assert len(families) < 13 * 12  # O(n^2) sweep arcs
        assert safe_area_subset_count(13, 4) == 715  # versus the full family

    def test_interior_member_never_binds(self):
        # Triangle + strictly interior centroid: the drop-the-centroid subset
        # has the largest hull and must be pruned away.
        triangle = np.asarray([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        cloud = np.vstack([triangle, triangle.mean(axis=0, keepdims=True)])
        families = pruned_subset_family(cloud, 1)
        assert (0, 1, 2) not in families
        assert len(families) == 3

    def test_duplicate_collapse_in_higher_dimensions(self):
        cloud = np.asarray([[0.0, 0.0, 0.0]] * 6)
        families = pruned_subset_family(cloud, 1)
        assert len(families) == 1

    def test_pruned_intersection_equals_gamma(self):
        # The pruned family must define the same region: a point of the pruned
        # LP lies in full Gamma, and the pruned optimum equals the full one.
        rng = np.random.default_rng(99)
        kernel = GammaKernel()
        for trial in range(12):
            dimension = 2
            fault_bound = int(rng.integers(1, 4))
            point_count = 3 * fault_bound + 1 + int(rng.integers(0, 3))
            cloud = rng.uniform(-1.0, 1.0, size=(point_count, dimension))
            for objective in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.3, -0.7]):
                pruned = kernel.point(cloud, fault_bound, objective=objective)
                unpruned = kernel_lp(
                    kernel, cloud, full_subset_family(point_count, fault_bound), objective
                )
                assert pruned is not None and unpruned is not None
                value_pruned = float(np.dot(objective, pruned))
                value_full = float(np.dot(objective, unpruned))
                assert value_pruned == pytest.approx(value_full, abs=1e-6)
                assert safe_area_contains(cloud, fault_bound, pruned, tolerance=1e-5)


class TestHalfspaceDepth:
    def test_far_outside_point_has_zero_depth(self):
        cloud = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        assert halfspace_depth(cloud, [10.0, 10.0]) == 0

    def test_center_of_square_has_full_quadrant_depth(self):
        cloud = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        assert halfspace_depth(cloud, [0.5, 0.5]) >= 2

    def test_one_dimensional_depth_is_rank(self):
        cloud = [[0.0], [1.0], [2.0], [3.0], [4.0]]
        assert halfspace_depth(cloud, [2.0]) == 3
        assert halfspace_depth(cloud, [0.0]) == 1

    def test_vertex_has_depth_one(self):
        cloud = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]
        assert halfspace_depth(cloud, [0.0, 0.0]) == 1

    def test_duplicate_members_count_with_multiplicity(self):
        cloud = [[0.0], [0.0], [0.0], [1.0]]
        assert halfspace_depth(cloud, [0.0]) == 3
        assert halfspace_depth(cloud, [1.0]) == 1

    def test_point_off_a_collinear_cloud_has_zero_depth(self):
        cloud = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        assert halfspace_depth(cloud, [1.5, 1.5]) == 2
        assert halfspace_depth(cloud, [1.5, 1.6]) == 0

    def test_empty_cloud_raises(self):
        with pytest.raises(GeometryError):
            halfspace_depth(np.empty((0, 2)), [0.0, 0.0])

    def test_candidate_dimension_must_match_the_cloud(self):
        with pytest.raises(GeometryError):
            halfspace_depth([[0.0, 0.0], [1.0, 1.0]], [0.5])


class TestDepthOracle:
    """``Gamma(Y)`` with fault bound ``f`` is the Tukey-depth-``(f + 1)`` region of ``Y``."""

    @pytest.mark.parametrize("extra", range(5))
    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("fault_bound", [1, 2])
    def test_kernel_points_are_deep_and_points_outside_are_not(self, dimension, fault_bound, extra):
        point_count = (dimension + 1) * fault_bound + 1 + extra
        rng = np.random.default_rng(2013 + 100 * dimension + 10 * fault_bound + extra)
        kernel = GammaKernel()
        for sample in range(15):
            cloud = rng.uniform(-1.0, 1.0, size=(point_count, dimension))
            if sample % 5 == 0:
                cloud = np.round(cloud, 1)  # full of duplicate members
            label = f"n={point_count} #{sample}"
            point = kernel.point(cloud, fault_bound)
            assert point is not None, label
            assert halfspace_depth(cloud, point) >= fault_bound + 1, label
            outside = cloud[np.argmax(cloud[:, 0])].copy()
            outside[0] += 1e-3
            assert halfspace_depth(cloud, outside) <= fault_bound, label


class TestBatchedQueries:
    def test_batch_answers_are_the_single_answers(self, kernel_events):
        # Six points in the plane with f = 2 sit below Lemma 1's bound, so
        # some of these Gammas are empty; the spatial clouds take the LP.
        rng = np.random.default_rng(5)
        for shape in ((6, 2), (9, 2), (9, 3)):
            clouds = [rng.uniform(0.0, 1.0, size=shape) for _ in range(6)]
            objective = np.eye(shape[1])[0]
            singles = [GammaKernel().point(cloud, 2, objective=objective) for cloud in clouds]
            events = kernel_events()
            from_batch = GammaKernel().points_batch(clouds, 2, objective=objective)
            assert events.batch_queries == len(clouds) and events.single_queries == 0
            assert events.lp_solves == (len(clouds) if shape[1] == 3 else 0)
            for single, batched in zip(singles, from_batch):
                assert (single is None) == (batched is None)
                if single is not None:
                    assert np.array_equal(single, batched)
            if shape == (6, 2):
                assert any(single is None for single in singles)
                assert any(single is not None for single in singles)

    def test_an_answer_does_not_depend_on_its_batch_mates(self):
        rng = np.random.default_rng(6)
        clouds = [rng.uniform(0.0, 1.0, size=(9, 3)) for _ in range(4)]
        alone = GammaKernel().points_batch(clouds[:1], 2)[0]
        for mates, position in ((clouds, 0), (clouds[::-1], -1), (clouds[:1] * 2, 1)):
            assert np.array_equal(GammaKernel().points_batch(mates, 2)[position], alone)

    def test_batch_with_one_empty_gamma(self):
        # One query has empty Gamma (Theorem 1 construction) and gets None;
        # the good query is 3 collinear points, whose Gamma with f = 1 is the
        # single middle point.
        triangle = np.vstack([np.eye(2), np.zeros((1, 2))])  # d+1 points, f=1
        good = np.asarray([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        points = default_kernel.points_batch([good, triangle], 1)
        assert np.array_equal(points[0], [1.0, 1.0])
        assert points[1] is None

    def test_empty_batch_and_shape_validation(self):
        assert default_kernel.points_batch([], 1) == []
        rng = np.random.default_rng(9)
        with pytest.raises(GeometryError):
            default_kernel.points_batch(
                [rng.uniform(size=(5, 2)), rng.uniform(size=(6, 2))], 1
            )

    def test_batch_zero_faults_returns_centroids(self):
        rng = np.random.default_rng(10)
        clouds = [rng.uniform(size=(4, 2)) for _ in range(3)]
        points = default_kernel.points_batch(clouds, 0)
        for cloud, point in zip(clouds, points):
            assert np.allclose(point, cloud.mean(axis=0))


def reference_relaxed_inequalities(cloud: np.ndarray, families: np.ndarray) -> csc_matrix:
    """The relaxed program's inequality block as the former triple loop built it."""
    block_count, block_size = families.shape
    dimension = cloud.shape[1]
    variable_count = dimension + block_count * block_size + 1
    gathered = cloud[families].transpose(0, 2, 1)
    rows, cols, data = [], [], []
    row_index = 0
    for block in range(block_count):
        alpha_base = dimension + block * block_size
        for coordinate in range(dimension):
            for sign in (1.0, -1.0):
                rows.append(np.full(2 + block_size, row_index, dtype=np.int64))
                cols.append(
                    np.concatenate(
                        [[coordinate], np.arange(alpha_base, alpha_base + block_size), [variable_count - 1]]
                    ).astype(np.int64)
                )
                data.append(np.concatenate([[sign], -sign * gathered[block, coordinate], [-1.0]]))
                row_index += 1
    return csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row_index, variable_count),
    )


class TestRelaxedProgram:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_inequality_block_is_the_former_loop_bitwise(self, dimension, monkeypatch):
        captured = []
        solve = linprog_module.solve_linear_program

        def recorder(objective, **constraints):
            captured.append(constraints["inequality_matrix"])
            return solve(objective, **constraints)

        monkeypatch.setattr(linprog_module, "solve_linear_program", recorder)
        rng = np.random.default_rng(dimension)
        for point_count, fault_bound in ((4, 1), (7, 2), (9, 2)):
            cloud = rng.normal(size=(point_count, dimension))
            families = np.asarray(pruned_subset_family(cloud, fault_bound), dtype=np.int64)
            GammaKernel()._relaxed_point(cloud, families)
            built, expected = captured.pop(), reference_relaxed_inequalities(cloud, families)
            assert built.shape == expected.shape
            for part in ("data", "indices", "indptr"):
                assert getattr(built, part).tobytes() == getattr(expected, part).tobytes(), part


class TestCacheAndStats:
    def test_each_lp_counts_its_blocks(self, kernel_events):
        rng = np.random.default_rng(11)
        kernel, events = GammaKernel(), kernel_events()
        families = full_subset_family(7, 2)
        for _ in range(5):
            kernel_lp(kernel, rng.uniform(size=(7, 2)), families)
        assert events.lp_solves == 5
        assert events.blocks_assembled == 5 * len(families)
        # Pruned queries record the number of constraint blocks they avoided
        # assembling.
        kernel.point(np.repeat(rng.uniform(size=(4, 3)), 2, axis=0), 2)
        assert events.blocks_pruned_away > 0

    def test_clear_cache(self):
        rng = np.random.default_rng(13)
        kernel = GammaKernel()
        kernel.point(rng.uniform(size=(5, 3)), 1)
        assert kernel.memo_size == 1
        kernel.clear_cache()
        assert kernel.memo_size == 0

    def test_a_query_counts_into_the_registry_without_a_collect(self, kernel_events):
        events = kernel_events()
        GammaKernel().point(np.random.default_rng(14).uniform(size=(5, 2)), 1)
        assert events.single_queries == 1 and events.closed_form_answers == 1


class TestScalarInterval:
    def test_trimmed_interval(self):
        assert safe_area_interval_1d([0.0, 1.0, 2.0, 3.0, 4.0], 1) == (1.0, 3.0)
        assert safe_area_interval_1d([4.0, 0.0, 2.0, 1.0, 3.0], 2) == (2.0, 2.0)

    def test_zero_faults_full_range(self):
        assert safe_area_interval_1d([5.0, -1.0, 2.0], 0) == (-1.0, 5.0)

    def test_empty_cases(self):
        assert safe_area_interval_1d([], 1) is None
        assert safe_area_interval_1d([1.0, 2.0], 1) is None
        assert safe_area_interval_1d([1.0], 2) is None

    def test_invalid_fault_bound(self):
        with pytest.raises(GeometryError):
            safe_area_interval_1d([1.0, 2.0], -1)

    def test_matches_lp_route(self):
        values = np.asarray([[0.5], [1.5], [2.5], [3.5], [4.5], [5.5], [6.5]])
        interval = safe_area_interval_1d(values, 2)
        low = default_kernel.point(values, 2, objective=[1.0])
        high = default_kernel.point(values, 2, objective=[-1.0])
        assert float(low[0]) == pytest.approx(interval[0], abs=1e-6)
        assert float(high[0]) == pytest.approx(interval[1], abs=1e-6)


class TestCalculator:
    def test_choice_agrees_with_the_oracle_on_objective_value(self):
        rng = np.random.default_rng(14)
        cloud = rng.uniform(0.0, 1.0, size=(7, 2))
        kernel_choice = SafeAreaCalculator(fault_bound=2).choose(cloud)
        oracle_choice = safe_area_point(cloud, 2, objective=[1.0, 0.0])
        # Default objective minimises the first coordinate; the minimum over
        # Gamma is formulation independent.
        assert float(kernel_choice[0]) == pytest.approx(float(oracle_choice[0]), abs=1e-7)
        assert safe_area_contains(cloud, 2, kernel_choice, tolerance=1e-5)

    def test_choose_all_matches_choose(self):
        rng = np.random.default_rng(16)
        calculator = SafeAreaCalculator(fault_bound=1)
        clouds = [rng.uniform(0.0, 1.0, size=(5, 2)) for _ in range(4)]
        batched = calculator.choose_all(clouds)
        for cloud, from_batch in zip(clouds, batched):
            single = calculator.choose(cloud)
            assert np.allclose(single, from_batch, atol=1e-8)

    def test_choose_all_raises_on_empty_gamma(self):
        triangle = np.vstack([np.eye(2), np.zeros((1, 2))])
        with pytest.raises(EmptyIntersectionError):
            SafeAreaCalculator(fault_bound=1).choose_all([triangle])

    def test_choose_all_agrees_with_the_oracle(self):
        rng = np.random.default_rng(17)
        clouds = [rng.uniform(0.0, 1.0, size=(5, 2)) for _ in range(2)]
        batched = SafeAreaCalculator(fault_bound=1).choose_all(clouds)
        assert len(batched) == 2
        for cloud, point in zip(clouds, batched):
            oracle = safe_area_point(cloud, 1, objective=[1.0, 0.0])
            assert float(point[0]) == pytest.approx(float(oracle[0]), abs=1e-7)
            assert safe_area_contains(cloud, 1, point, tolerance=1e-5)

    def test_empty_choose_all(self):
        assert SafeAreaCalculator(fault_bound=1).choose_all([]) == []


class TestMultiInstanceQueries:
    """points_multi: the columnar engine's whole-round entry point."""

    def test_dedup_mode_is_bit_identical_to_single_queries(self, kernel_events):
        rng = np.random.default_rng(91)
        kernel, events = GammaKernel(), kernel_events()
        distinct = [rng.uniform(0.0, 1.0, size=(5, 2)) for _ in range(3)]
        # Duplicate clouds interleaved, as produced by identical receive views.
        clouds = [distinct[0], distinct[1], distinct[0], distinct[2], distinct[1]]
        answers = kernel.points_multi(clouds, 1)
        assert events.multi_queries == 5
        assert events.multi_dedup_hits == 2
        for cloud, answer in zip(clouds, answers):
            single = kernel.point(cloud, 1)
            assert np.array_equal(single, answer)
        # Duplicates share the exact same floats, not merely close ones.
        assert np.array_equal(answers[0], answers[2])
        assert np.array_equal(answers[1], answers[4])

    def test_heterogeneous_shapes_in_one_call(self):
        rng = np.random.default_rng(92)
        small = rng.uniform(0.0, 1.0, size=(4, 1))
        large = rng.uniform(0.0, 1.0, size=(6, 2))
        answers = default_kernel.points_multi([small, large], 1)
        assert np.array_equal(answers[0], default_kernel.point(small, 1))
        assert np.array_equal(answers[1], default_kernel.point(large, 1))

    def test_empty_gamma_maps_to_none_per_query(self):
        rng = np.random.default_rng(93)
        healthy = rng.uniform(0.0, 1.0, size=(5, 2))
        empty = np.vstack([np.eye(2), np.zeros((1, 2))])  # |Y|=3, f=1, d=2
        answers = default_kernel.points_multi([healthy, empty, healthy], 1)
        assert answers[0] is not None and answers[2] is not None
        assert answers[1] is None

    def test_answers_are_valid_gamma_points(self):
        rng = np.random.default_rng(94)
        clouds = [rng.uniform(0.0, 1.0, size=(5, 2)) for _ in range(4)]
        answers = default_kernel.points_multi(clouds, 1)
        for cloud, answer in zip(clouds, answers):
            assert answer is not None
            assert safe_area_contains(cloud, 1, answer, tolerance=1e-5)

    def test_empty_call_and_negative_faults(self):
        assert default_kernel.points_multi([], 1) == []
        with pytest.raises(GeometryError):
            default_kernel.points_multi([np.zeros((3, 2))], -1)


class TestCalculatorResolveMulti:
    def test_bitwise_parity_with_choose(self):
        rng = np.random.default_rng(95)
        calculator = SafeAreaCalculator(fault_bound=1)
        distinct = [rng.uniform(0.0, 1.0, size=(5, 2)) for _ in range(2)]
        clouds = [distinct[0], distinct[1], distinct[0]]
        answers = calculator.resolve_multi(clouds)
        for cloud, answer in zip(clouds, answers):
            assert np.array_equal(answer, calculator.choose(cloud))

    def test_empty_gamma_returns_none_instead_of_raising(self):
        healthy = np.random.default_rng(96).uniform(0.0, 1.0, size=(5, 2))
        empty = np.vstack([np.eye(2), np.zeros((1, 2))])
        answers = SafeAreaCalculator(fault_bound=1).resolve_multi([empty, healthy])
        assert answers[0] is None and answers[1] is not None

    def test_agrees_with_the_literal_program(self):
        rng = np.random.default_rng(97)
        clouds = [rng.uniform(0.0, 1.0, size=(5, 2)) for _ in range(2)]
        answers = SafeAreaCalculator(fault_bound=1).resolve_multi(clouds)
        for cloud, answer in zip(clouds, answers):
            oracle = safe_area_point(cloud, 1, objective=[1.0, 0.0])
            assert float(answer[0]) == pytest.approx(float(oracle[0]), abs=1e-7)
            assert safe_area_contains(cloud, 1, answer, tolerance=1e-5)

    def test_mixed_dimensions_rejected_and_empty_call(self):
        calculator = SafeAreaCalculator(fault_bound=1)
        assert calculator.resolve_multi([]) == []
        with pytest.raises(GeometryError):
            calculator.resolve_multi([np.zeros((4, 1)), np.zeros((4, 2))])
