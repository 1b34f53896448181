"""The direct HiGHS seam against ``scipy.optimize.linprog``, bit for bit.

``solve_linear_program`` hands its programs straight to the HiGHS binding
scipy vendors.  The contract is "same options, same vertex": on every
program the package builds, the status and the solution must be *bitwise*
the ones the ``linprog`` front end reports, and the retry ladder must take
the same rungs in the same order.  ``reference_solve`` below is the former
``linprog``-based implementation, kept here as the oracle.

The seam keeps one ``_Highs`` instance per thread; ``fresh_instance_solve``
below is the seam as it was before, one new instance per solve, kept as the
oracle the shared instance must equal bit for bit.
"""

from __future__ import annotations

import multiprocessing
import random
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array

import repro.geometry.convex_hull as convex_hull_module
import repro.geometry.linprog as linprog_module
from repro.exceptions import LinearProgramError
from repro.geometry.convex_hull import _hull_distance_program, hulls_intersection_point
from repro.geometry.kernel import GammaKernel, pruned_subset_family
from repro.geometry.linprog import solve_linear_program
from repro.obs.registry import get_registry
from test_kernel_literal_program import kernel_lp

RUNGS = ("no_presolve", "ipm", "loose_tolerance", "infeasible_confirm")

#: The ladder as the linprog-based implementation spelled it.
_REFERENCE_RETRIES = (
    ("no_presolve", {"method": "highs", "options": {"presolve": False}}),
    ("ipm", {"method": "highs-ipm"}),
    (
        "loose_tolerance",
        {
            "method": "highs",
            "options": {
                "primal_feasibility_tolerance": 1e-6,
                "dual_feasibility_tolerance": 1e-6,
            },
        },
    ),
)


def _scipy_bounds(bounds: Any) -> Any:
    """The pre-split ``(lower, upper)`` array form as the N x 2 array scipy takes."""
    if isinstance(bounds, tuple) and len(bounds) == 2 and isinstance(bounds[0], np.ndarray):
        return np.column_stack(bounds)
    return bounds


def reference_solve(
    program: dict[str, Any],
    rungs: list[str] | None = None,
    solver: Callable[..., Any] = linprog,
) -> tuple[int, np.ndarray | None, float | None]:
    """The former ``solve_linear_program`` body: five ``linprog`` call sites.

    Returns ``(status, solution, objective)``; appends the label of every
    rung taken beyond the first solve to ``rungs``.
    """
    rungs = [] if rungs is None else rungs
    blocks = dict(
        c=np.asarray(program["objective"], dtype=float),
        A_ub=program.get("inequality_matrix"),
        b_ub=program.get("inequality_rhs"),
        A_eq=program.get("equality_matrix"),
        b_eq=program.get("equality_rhs"),
        bounds=_scipy_bounds(program.get("bounds", (0, None))),
    )
    outcome = solver(**blocks, method="highs")
    presolve_free_verdict = False
    if outcome.status == 4:
        for rung, retry_kwargs in _REFERENCE_RETRIES:
            rungs.append(rung)
            outcome = solver(**blocks, **retry_kwargs)
            if outcome.status != 4:
                presolve_free_verdict = retry_kwargs.get("options", {}).get("presolve") is False
                break
    if outcome.status == 2 and not presolve_free_verdict:
        rungs.append("infeasible_confirm")
        confirm = solver(**blocks, method="highs", options={"presolve": False})
        if confirm.status == 0:
            outcome = confirm
    if outcome.status == 0:
        return 0, np.asarray(outcome.x, dtype=float), float(outcome.fun)
    return int(outcome.status), None, None


def seam_solve(program: dict[str, Any]) -> tuple[int, np.ndarray | None, float | None]:
    """``solve_linear_program`` flattened to the reference's return shape."""
    objective = program["objective"]
    constraints = {key: value for key, value in program.items() if key != "objective"}
    try:
        result = solve_linear_program(objective, **constraints)
    except LinearProgramError as error:
        assert error.status is not None, "solver failures carry their status"
        return error.status, None, None
    return result.status, result.solution, result.objective


def assert_bitwise_equal(program: dict[str, Any], label: str) -> list[str]:
    """Both implementations on one program; returns the rungs the reference took."""
    rungs: list[str] = []
    expected = reference_solve(program, rungs)
    status, solution, objective = seam_solve(program)
    assert status == expected[0], f"{label}: status {status} != {expected[0]}"
    if expected[1] is None:
        assert solution is None, label
    else:
        assert np.array_equal(solution, expected[1]), f"{label}: vertex moved"
        assert objective == expected[2], label
    return rungs


# ---------------------------------------------------------------------------
# Corpus: programs captured from the code that builds them
# ---------------------------------------------------------------------------

@contextmanager
def captured_programs() -> Iterator[list[dict[str, Any]]]:
    """Record every program handed to ``solve_linear_program`` while active."""
    programs: list[dict[str, Any]] = []
    original = linprog_module.solve_linear_program

    def recorder(objective: Any, **constraints: Any) -> Any:
        programs.append({"objective": objective, **constraints})
        return original(objective, **constraints)

    holders = (linprog_module, convex_hull_module)
    try:
        for holder in holders:
            holder.solve_linear_program = recorder
        yield programs
    finally:
        for holder in holders:
            holder.solve_linear_program = original


def kernel_programs(cloud: np.ndarray, fault_bound: int) -> list[dict[str, Any]]:
    """The strict program — and, when it fails, the relaxed one — of one query.

    Through the kernel's LP entry, a planar query takes the LP too.
    """
    with captured_programs() as programs:
        kernel_lp(GammaKernel(), cloud, pruned_subset_family(cloud, fault_bound))
    return programs


def gamma_clouds() -> Iterator[tuple[str, np.ndarray, int]]:
    rng = np.random.default_rng(20130722)
    for dimension in (2, 3):
        for point_count in (5, 9, 13, 17):
            for fault_bound in (1, 2):
                for sample in range(3):
                    yield (
                        f"general d={dimension} n={point_count} f={fault_bound} #{sample}",
                        rng.normal(size=(point_count, dimension)),
                        fault_bound,
                    )
    for point_count in (6, 9, 13):
        values = rng.normal(size=(3, 2))
        for sample in range(3):
            yield (
                f"duplicated n={point_count} #{sample}",
                values[rng.integers(0, 3, size=point_count)],
                1 + sample % 2,
            )
    # Near-coincident clusters: the shapes HiGHS classifies "Unknown".
    yield (
        "fuzz regression cluster",
        np.asarray(
            [
                [7.96463103, 6.29389495],
                [7.16802536, 6.12459677],
                [7.16802605, 6.12460123],
                [7.16802070, 6.12460009],
            ]
        ),
        1,
    )
    # Found by seeded search on scipy 1.17: a ~1e-9 cluster plus one outlier.
    # The first takes the no_presolve rung, the second has presolve's
    # "infeasible" overruled by the confirmation rung.
    yield (
        "cluster taking the no_presolve rung",
        np.asarray(
            [
                [9.128081220605296, -8.995652105561424],
                [8.042129006481874, -9.814214346565532],
                [8.042129004805357, -9.814214345388171],
                [8.042129007932338, -9.814214344710217],
                [8.042129006219298, -9.814214341291423],
                [8.042129005849569, -9.8142143428243],
                [8.042129004297575, -9.814214343393806],
                [8.042129006778922, -9.814214343718106],
                [8.042129005543552, -9.81421434626087],
            ]
        ),
        2,
    )
    yield (
        "cluster with an overruled infeasible verdict",
        np.asarray(
            [
                [6.613587252928246, 0.4891539172621657],
                [5.4269112338079, -0.8989261711832536],
                [5.426911234614585, -0.8989261703449981],
                [5.426911232255636, -0.898926172784644],
                [5.426911235360256, -0.8989261708610422],
                [5.426911234819858, -0.8989261704963541],
                [5.426911234621723, -0.898926171243918],
                [5.426911234921411, -0.898926169998361],
                [5.42691123517571, -0.8989261707225464],
                [5.426911233631391, -0.8989261704838203],
            ]
        ),
        2,
    )
    for point_count in (4, 5, 7):
        for spread in (1e-5, 1e-6, 1e-8):
            centre = rng.uniform(1.0, 9.0, size=2)
            cluster = centre + spread * rng.normal(size=(point_count - 1, 2))
            outlier = centre + rng.uniform(0.5, 1.5, size=(1, 2))
            yield (f"cluster n={point_count} spread={spread}", np.vstack([outlier, cluster]), 1)
    # Too few members for Lemma 1: the strict program is genuinely infeasible.
    for sample in range(4):
        yield (f"empty gamma #{sample}", rng.normal(size=(3, 2)), 1)


#: The box ``-1 <= x <= 1, -0.5 <= y <= 2`` as ``A @ (x, y) <= b``.
_BOX_MATRIX = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
_BOX_RHS = [1.0, 1.0, 2.0, 0.5]

#: Inequality-only programs over free variables: a feasible point of the box,
#: its largest inscribed ball (centre free, radius >= 0, every normal of
#: norm 1), and the box cut by ``x <= -3``, which is empty.
HALFSPACE_PROGRAMS = (
    {
        "objective": [0.0, 0.0],
        "inequality_matrix": _BOX_MATRIX,
        "inequality_rhs": _BOX_RHS,
        "bounds": (None, None),
    },
    {
        "objective": [0.0, 0.0, -1.0],
        "inequality_matrix": [row + [1.0] for row in _BOX_MATRIX],
        "inequality_rhs": _BOX_RHS,
        "bounds": [(None, None)] * 2 + [(0, None)],
    },
    {
        "objective": [0.0, 0.0],
        "inequality_matrix": _BOX_MATRIX + [[1.0, 0.0]],
        "inequality_rhs": _BOX_RHS + [-3.0],
        "bounds": (None, None),
    },
)

#: Programs in :func:`hull_and_halfspace_programs`: three per random cloud
#: (one distance, two memberships) over six clouds, the skewed membership,
#: two hull intersections and the three halfspace programs.  The planar
#: distances are the LP that ``distance_to_hull`` solves from three
#: dimensions on.
HULL_AND_HALFSPACE_PROGRAM_COUNT = 24


def membership_program(cloud: np.ndarray, target: np.ndarray) -> dict[str, Any]:
    """Hull membership as weight feasibility: ``sum(alpha) = 1``, ``Y^T alpha = target``."""
    return {
        "objective": np.zeros(cloud.shape[0]),
        "equality_matrix": np.vstack([np.ones((1, cloud.shape[0])), cloud.T]),
        "equality_rhs": np.concatenate([[1.0], target]),
        "bounds": (0, None),
    }


def hull_and_halfspace_programs() -> list[dict[str, Any]]:
    """Mixed inequality + equality programs, dense and sparse, with scalar and listed bounds."""
    rng = np.random.default_rng(7)
    memberships = []
    with captured_programs() as programs:
        for _ in range(6):
            cloud = rng.normal(size=(6, 2))
            convex_hull_module.solve_linear_program(
                **_hull_distance_program(cloud, rng.normal(size=2) * 2.0)
            )
            memberships.append(membership_program(cloud, cloud.mean(axis=0)))
            memberships.append(membership_program(cloud, np.asarray([9.0, 9.0])))
        # Ragged hulls that meet, and two that do not.
        hulls_intersection_point([cloud[:3], cloud[2:]])
        hulls_intersection_point([cloud, cloud + 20.0])
    # Duplicated points with coordinates spanning orders of magnitude:
    # presolve's false "infeasible", overruled by the confirmation rung.
    skewed = np.asarray([[0.0, 0.001953125], [0.0, 0.001953125], [1.0, 1e-09]])
    memberships.append(membership_program(skewed, skewed.mean(axis=0)))
    return programs + memberships + [dict(program) for program in HALFSPACE_PROGRAMS]


def bounds_form_programs() -> list[dict[str, Any]]:
    matrix = np.asarray([[1.0, 2.0, -1.0], [0.5, -1.0, 3.0]])
    rhs = np.asarray([4.0, 2.5])
    equality = dict(equality_matrix=[[1.0, 1.0, 1.0]], equality_rhs=[1.5])
    inequality = dict(inequality_matrix=matrix, inequality_rhs=rhs)
    objective = [1.0, -2.0, 0.5]
    return [
        {"objective": objective, **inequality, **equality},
        {"objective": objective, **inequality, **equality, "bounds": None},
        {"objective": objective, **inequality, **equality, "bounds": (-1.0, 1.0)},
        {"objective": objective, **inequality, "bounds": (None, 2.0)},
        {"objective": objective, **equality, "bounds": [(0, None), (None, 1.0), (-2.0, 2.0)]},
        {"objective": objective, **inequality, "bounds": [(None, None)] * 3},  # unbounded
        {"objective": [1.0], "inequality_matrix": [[1.0]], "inequality_rhs": [-1.0]},  # infeasible
        {"objective": [-1.0], "bounds": (0, None)},  # no rows at all, unbounded
    ]


def fallback_totals() -> Counter:
    samples = get_registry().snapshot(collect=False)["repro_kernel_lp_fallback_total"]["samples"]
    return Counter({rung: int(samples.get((rung,), 0)) for rung in RUNGS})


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestBackendResolution:
    """The seam resolves at a process's first solve (see ``tests/test_import_surface.py``)."""

    def test_the_vendored_binding_is_the_active_backend(self):
        linprog_module.resolve_seam()
        assert linprog_module.LP_BACKEND == "highs_core"
        assert linprog_module._run_highs is linprog_module._run_highs_core

    def test_backend_is_reported_as_a_gauge(self):
        linprog_module.resolve_seam()
        samples = get_registry().snapshot()["repro_kernel_lp_backend"]["samples"]
        assert samples == {("highs_core",): 1.0}

    def test_a_seam_bound_before_the_first_solve_is_kept(self, monkeypatch):
        calls = []

        def stand_in(*assembled: Any, **options: Any) -> tuple[int, Any, Any]:
            calls.append(options)
            return 0, np.zeros(1), 0.0

        monkeypatch.setattr(linprog_module, "LP_BACKEND", None)
        monkeypatch.setattr(linprog_module, "_run_highs", stand_in)
        assert solve_linear_program([1.0], bounds=(0.0, 1.0)).feasible
        assert calls == [{}]
        assert linprog_module.LP_BACKEND == "highs_core"
        assert linprog_module._run_highs is stand_in


class TestBitwiseOracle:
    def test_gamma_programs_and_their_fallback_counts(self):
        taken: Counter = Counter()
        before = fallback_totals()
        relaxed = 0
        for label, cloud, fault_bound in gamma_clouds():
            programs = kernel_programs(cloud, fault_bound)
            for position, program in enumerate(programs):
                rungs = assert_bitwise_equal(program, label)
                # Counted twice: once while capturing, once in the replay.
                taken.update(rungs + rungs)
                if position == 0:
                    strict_optimal = reference_solve(program)[0] == 0
            # The relaxed program is solved exactly when the strict one
            # does not come back optimal — as with the linprog front end.
            assert (len(programs) == 2) == (not strict_optimal), label
            relaxed += len(programs) - 1
        assert fallback_totals() - before == taken
        assert relaxed > 0 and taken["infeasible_confirm"] > 0

    def test_hull_and_halfspace_programs(self):
        programs = hull_and_halfspace_programs()
        assert len(programs) == HULL_AND_HALFSPACE_PROGRAM_COUNT
        assert any("inequality_matrix" in p and "equality_matrix" in p for p in programs)
        rungs = [rung for program in programs for rung in assert_bitwise_equal(program, "hull")]
        assert "infeasible_confirm" in rungs

    def test_every_bounds_form(self):
        for index, program in enumerate(bounds_form_programs()):
            assert_bitwise_equal(program, f"bounds form {index}")

    def test_dense_blocks_become_the_csc_scipy_builds(self):
        rng = np.random.default_rng(15)
        for shape in ((1, 1), (3, 7), (8, 5), (0, 3)):
            for _ in range(20):
                matrix = rng.normal(size=shape)
                matrix[rng.random(shape) < 0.4] = 0.0
                matrix[rng.random(shape) < 0.1] = -0.0  # dropped like any zero
                built, expected = linprog_module._dense_csc(matrix), csc_array(matrix)
                assert built.shape == expected.shape and built.has_canonical_format
                for part in ("data", "indices", "indptr"):
                    assert getattr(built, part).tobytes() == getattr(expected, part).tobytes()

    def test_pre_split_bounds_equal_listed_bounds(self):
        lower = np.asarray([-np.inf, 0.0, -2.0])
        upper = np.asarray([np.inf, 1.0, 2.0])
        listed = [(None, None), (0.0, 1.0), (-2.0, 2.0)]
        shared = dict(equality_matrix=[[1.0, 1.0, 1.0]], equality_rhs=[1.5])
        split = solve_linear_program([1.0, -2.0, 0.5], bounds=(lower, upper), **shared)
        plain = solve_linear_program([1.0, -2.0, 0.5], bounds=listed, **shared)
        assert np.array_equal(split.solution, plain.solution)
        with pytest.raises(LinearProgramError):
            solve_linear_program([1.0, -2.0, 0.5], bounds=(lower[:2], upper[:2]), **shared)

    @pytest.mark.parametrize(
        "options",
        [{}, {"presolve": False}, {"solver": "ipm"}, {"tolerances": 1e-6}],
        ids=["first", "no_presolve", "ipm", "loose_tolerance"],
    )
    def test_each_rung_matches_the_front_end_at_the_seam(self, options):
        # Every option set on every kernel program, whether or not the
        # ladder would have reached that rung on it.
        for label, cloud, fault_bound in gamma_clouds():
            if cloud.shape[0] > 13:
                continue
            for program in kernel_programs(cloud, fault_bound):
                assembled = assemble(program)
                direct = linprog_module._run_highs_core(*assembled, **options)
                front_end = linprog_module._run_scipy_front_end(*assembled, **options)
                assert direct[0] == front_end[0], label
                if direct[1] is None or front_end[1] is None:
                    assert direct[1] is None and front_end[1] is None, label
                else:
                    assert np.array_equal(direct[1], front_end[1]), label
                    assert direct[2] == front_end[2], label

    def test_out_of_tolerance_optimum_is_a_numerical_failure(self, monkeypatch):
        # linprog reclassifies an "optimal" point whose residuals exceed its
        # tolerance as status 4; the seam applies the same check.  With the
        # tolerance forced negative the (exact) optimum at the bound fails
        # it on every rung, so the ladder runs dry.
        program = dict(equality_matrix=[[1.0, 1.0]], equality_rhs=[1.0])
        assert solve_linear_program([1.0, 2.0], **program).feasible
        monkeypatch.setattr(linprog_module, "_RESIDUAL_TOLERANCE", -1.0)
        before = fallback_totals()
        with pytest.raises(LinearProgramError) as failure:
            solve_linear_program([1.0, 2.0], **program)
        assert failure.value.status == 4
        assert fallback_totals() - before == Counter(["no_presolve", "ipm", "loose_tolerance"])

    def test_non_finite_coefficients_stay_loud(self):
        with pytest.raises(ValueError):
            solve_linear_program([1.0, np.nan], equality_matrix=[[1.0, 1.0]], equality_rhs=[1.0])
        with pytest.raises(ValueError):
            solve_linear_program([1.0, 1.0], equality_matrix=[[1.0, np.inf]], equality_rhs=[1.0])
        with pytest.raises(ValueError):
            GammaKernel().point(np.asarray([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0], [1.0, 1.0]]), 1)


def assemble(program: dict[str, Any]) -> tuple[Any, ...]:
    """A captured program in the seam's argument order."""
    return linprog_module._assemble_program(
        program["objective"],
        program.get("inequality_matrix"),
        program.get("inequality_rhs"),
        program.get("equality_matrix"),
        program.get("equality_rhs"),
        program.get("bounds", (0, None)),
    )


# ---------------------------------------------------------------------------
# One instance per thread against one instance per solve
# ---------------------------------------------------------------------------

def fresh_instance_solve(
    cost: np.ndarray,
    csc: Any,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    *,
    presolve: bool = True,
    solver: str | None = None,
    tolerances: float | None = None,
) -> tuple[int, np.ndarray | None, float | None]:
    """The seam before instances were kept: a new ``_Highs`` for every solve."""
    highs_core = linprog_module._highs
    row_count, column_count = csc.shape
    program = highs_core.HighsLp()
    program.num_col_ = column_count
    program.num_row_ = row_count
    matrix = program.a_matrix_
    matrix.num_col_ = column_count
    matrix.num_row_ = row_count
    matrix.format_ = highs_core.MatrixFormat.kColwise
    matrix.start_ = csc.indptr.tolist()
    matrix.index_ = csc.indices.tolist()
    matrix.value_ = csc.data.tolist()
    program.col_cost_ = cost.tolist()
    program.col_lower_ = col_lower.tolist()
    program.col_upper_ = col_upper.tolist()
    program.row_lower_ = row_lower.tolist()
    program.row_upper_ = row_upper.tolist()

    highs = highs_core._Highs()
    error = highs_core.HighsStatus.kError
    statuses = linprog_module._SCIPY_STATUS
    if highs.passOptions(linprog_module._highs_options(presolve, solver, tolerances)) == error:
        return statuses.get(highs.getModelStatus().name, 4), None, None
    if highs.passModel(program) == error:
        return 2, None, None
    run_status = highs.run()
    model_status = highs.getModelStatus()
    if run_status == error or model_status != highs_core.HighsModelStatus.kOptimal:
        status = statuses.get(model_status.name, 4)
        return (4 if status == 0 else status), None, None

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    activity = np.array(solution.row_value)
    fun = highs.getInfo().objective_function_value
    tolerance = linprog_module._RESIDUAL_TOLERANCE
    within_tolerance = (
        not np.isnan(fun)
        and (x >= col_lower - tolerance).all()
        and (x <= col_upper + tolerance).all()
        and (row_upper - activity >= -tolerance).all()
        and (row_lower - activity <= tolerance).all()
    )
    return (0 if within_tolerance else 4), x, fun


def bits(answer: tuple[int, np.ndarray | None, float | None]) -> tuple[Any, ...]:
    """A seam answer as exactly comparable values: status, vertex bytes, optimum in hex."""
    status, x, fun = answer
    return status, None if x is None else x.tobytes(), None if fun is None else float(fun).hex()


#: Every option set the ladder sends to the seam: the first solve, then each rung's.
SEAM_OPTIONS = ({}, {"presolve": False}, {"solver": "ipm"}, {"tolerances": 1e-6})


@pytest.fixture(scope="module")
def reuse_corpus() -> list[tuple[int, tuple[Any, ...], dict[str, Any], tuple[Any, ...]]]:
    """``(program id, program, options, fresh-instance answer)`` in a seeded shuffled order.

    Γ programs (strict and relaxed), hull distances, memberships and
    intersections,
    halfspace programs, infeasible and unbounded programs — each under every
    option set, so a default solve often follows a retry rung's.
    """
    programs = [
        assemble(program)
        for _, cloud, fault_bound in gamma_clouds()
        if cloud.shape[0] <= 13
        for program in kernel_programs(cloud, fault_bound)
    ]
    programs += [assemble(program) for program in hull_and_halfspace_programs()]
    programs += [assemble(program) for program in bounds_form_programs()]
    calls = [(index, options) for index in range(len(programs)) for options in SEAM_OPTIONS]
    random.Random(27).shuffle(calls)
    return [
        (index, programs[index], options, bits(fresh_instance_solve(*programs[index], **options)))
        for index, options in calls
    ]


def solve_corpus(corpus, order: list[int]) -> dict[int, tuple[Any, ...]]:
    """Solve the corpus entries at ``order`` through the seam, in that order."""
    return {
        position: bits(linprog_module._run_highs_core(*corpus[position][1], **corpus[position][2]))
        for position in order
    }


class TestOneInstancePerThread:
    def test_shared_instance_equals_fresh_instances(self, reuse_corpus):
        expected = {position: entry[3] for position, entry in enumerate(reuse_corpus)}
        assert solve_corpus(reuse_corpus, list(expected)) == expected
        # The corpus can see a stale option set: presolve off moves vertices,
        # so an instance that kept a rung's options would fail above.
        by_program: dict[int, dict[Any, tuple[Any, ...]]] = {}
        for index, _, options, answer in reuse_corpus:
            by_program.setdefault(index, {})[tuple(options.items())] = answer
        moved = [
            index for index, answers in by_program.items()
            if answers[()] != answers[(("presolve", False),)]
        ]
        assert len(moved) >= 10, f"only {len(moved)} programs move with presolve off"
        assert {answer[0] for *_, answer in reuse_corpus} >= {0, 2, 3}

    def test_threads_at_once_each_keep_their_own_instance(self, reuse_corpus):
        expected = {position: entry[3] for position, entry in enumerate(reuse_corpus)}
        thread_count = 3
        barrier = threading.Barrier(thread_count)
        answers: dict[int, dict[int, tuple[Any, ...]]] = {}
        instances: dict[int, Any] = {}  # held, so no id is reused

        def solve_in_thread(name: int) -> None:
            order = list(expected)
            random.Random(name).shuffle(order)
            barrier.wait(timeout=30)
            answers[name] = solve_corpus(reuse_corpus, order)
            instances[name] = linprog_module._SOLVERS.highs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=solve_in_thread, args=(name,)) for name in range(thread_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(answers) == list(range(thread_count))
        for name in answers:
            assert answers[name] == expected, f"thread {name}"
        assert len({id(instance) for instance in instances.values()}) == thread_count

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_fork_child_builds_its_own_instance(self, reuse_corpus):
        expected = {position: entry[3] for position, entry in enumerate(reuse_corpus)}
        solve_corpus(reuse_corpus, [0])
        assert linprog_module._SOLVERS.highs is not None
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)

        def child() -> None:
            inherited = getattr(linprog_module._SOLVERS, "highs", None)
            sender.send((inherited is None, solve_corpus(reuse_corpus, list(expected))))

        process = context.Process(target=child)
        process.start()
        try:
            assert receiver.poll(timeout=300), "the fork child sent nothing"
            started_without_instance, answers = receiver.recv()
        finally:
            process.join(timeout=30)
        assert not process.is_alive() and process.exitcode == 0
        assert started_without_instance
        assert answers == expected
        # The parent's own instance is untouched by the child.
        first = list(expected)[:20]
        assert solve_corpus(reuse_corpus, first) == {position: expected[position] for position in first}

    def test_an_instance_that_reported_an_error_is_dropped(self):
        program = assemble(bounds_form_programs()[0])
        linprog_module._run_highs_core(*program)
        state = linprog_module._SOLVERS
        kept = state.highs

        class RejectsModels:
            """The thread's instance, except that every model is rejected."""

            def clearSolver(self) -> Any:
                return kept.clearSolver()

            def passModel(self, model: Any) -> Any:
                return linprog_module._highs.HighsStatus.kError

        state.highs = RejectsModels()
        assert linprog_module._run_highs_core(*program) == (2, None, None)
        assert state.highs is None
        assert bits(linprog_module._run_highs_core(*program)) == bits(fresh_instance_solve(*program))
        assert state.highs is not None and state.highs is not kept


# ---------------------------------------------------------------------------
# The ladder, rung by rung, driven by scripted statuses
# ---------------------------------------------------------------------------

class _Outcome:
    """What the reference reads off a ``linprog`` result."""

    def __init__(self, status: int) -> None:
        self.status = status
        self.x = np.zeros(2) if status == 0 else None
        self.fun = 0.0 if status == 0 else None


def _as_seam_options(method: str = "highs", options: dict[str, Any] | None = None) -> dict[str, Any]:
    """A ``linprog`` call's solver selection in the seam's keyword form."""
    options = options or {}
    seam: dict[str, Any] = {}
    if options.get("presolve") is False:
        seam["presolve"] = False
    if method == "highs-ipm":
        seam["solver"] = "ipm"
    if "primal_feasibility_tolerance" in options:
        assert options["dual_feasibility_tolerance"] == options["primal_feasibility_tolerance"]
        seam["tolerances"] = options["primal_feasibility_tolerance"]
    return seam


LADDER_SCRIPTS = {
    "first solve optimal": ([0], [{}]),
    "no_presolve recovers": ([4, 0], [{}, {"presolve": False}]),
    "ipm recovers": ([4, 4, 0], [{}, {"presolve": False}, {"solver": "ipm"}]),
    "loose tolerance recovers": (
        [4, 4, 4, 0],
        [{}, {"presolve": False}, {"solver": "ipm"}, {"tolerances": 1e-6}],
    ),
    "every rung fails": (
        [4, 4, 4, 4],
        [{}, {"presolve": False}, {"solver": "ipm"}, {"tolerances": 1e-6}],
    ),
    "infeasible confirmed": ([2, 2], [{}, {"presolve": False}]),
    "infeasible overruled": ([2, 0], [{}, {"presolve": False}]),
    "presolve-free infeasible is final": ([4, 2], [{}, {"presolve": False}]),
    "ipm infeasible is confirmed": (
        [4, 4, 2, 2],
        [{}, {"presolve": False}, {"solver": "ipm"}, {"presolve": False}],
    ),
    "loose-tolerance infeasible is overruled": (
        [4, 4, 4, 2, 0],
        [{}, {"presolve": False}, {"solver": "ipm"}, {"tolerances": 1e-6}, {"presolve": False}],
    ),
    "unbounded is not retried": ([3], [{}]),
}


@pytest.mark.parametrize("name", LADDER_SCRIPTS)
def test_ladder_takes_the_same_rungs_as_the_front_end(name, monkeypatch):
    statuses, expected_calls = LADDER_SCRIPTS[name]
    program = {"objective": [0.0, 0.0], "equality_matrix": [[1.0, 1.0]], "equality_rhs": [1.0]}

    reference_calls: list[dict[str, Any]] = []
    reference_script = iter(statuses)

    def scripted_linprog(**kwargs: Any) -> _Outcome:
        reference_calls.append(_as_seam_options(kwargs.get("method", "highs"), kwargs.get("options")))
        return _Outcome(next(reference_script))

    reference_rungs_taken: list[str] = []
    expected = reference_solve(program, reference_rungs_taken, solver=scripted_linprog)

    seam_calls: list[dict[str, Any]] = []
    seam_script = iter(statuses)

    def scripted_seam(*assembled: Any, **options: Any) -> tuple[int, Any, Any]:
        assert len(assembled) == 6
        seam_calls.append(options)
        status = next(seam_script)
        return (status, np.zeros(2), 0.0) if status == 0 else (status, None, None)

    monkeypatch.setattr(linprog_module, "_run_highs", scripted_seam)
    before = fallback_totals()
    status, solution, _ = seam_solve(program)

    assert seam_calls == reference_calls == expected_calls
    assert status == expected[0]
    assert (solution is None) == (expected[1] is None)
    assert fallback_totals() - before == Counter(reference_rungs_taken)
