"""Unit tests for repro.geometry.linprog."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import LinearProgramError
from repro.geometry.linprog import solve_linear_program


class TestSolveLinearProgram:
    def test_simple_minimisation(self):
        # minimise x + y subject to x + y >= 1, x, y >= 0.
        result = solve_linear_program(
            [1.0, 1.0],
            inequality_matrix=[[-1.0, -1.0]],
            inequality_rhs=[-1.0],
        )
        assert result.feasible
        assert result.objective == pytest.approx(1.0)

    def test_infeasible_program_is_reported_not_raised(self):
        # x >= 0 and x <= -1 simultaneously.
        result = solve_linear_program(
            [1.0],
            inequality_matrix=[[1.0]],
            inequality_rhs=[-1.0],
            bounds=(0, None),
        )
        assert not result.feasible
        assert result.solution is None

    def test_unbounded_program_raises(self):
        with pytest.raises(LinearProgramError):
            solve_linear_program([-1.0], bounds=(0, None))

    def test_equality_constraints(self):
        result = solve_linear_program(
            [0.0, 0.0],
            equality_matrix=[[1.0, 1.0]],
            equality_rhs=[2.0],
        )
        assert result.feasible
        assert result.solution is not None
        assert result.solution.sum() == pytest.approx(2.0)

    def test_matrix_without_rhs_raises(self):
        with pytest.raises(LinearProgramError):
            solve_linear_program([1.0], inequality_matrix=[[1.0]])

    def test_wrong_column_count_raises(self):
        with pytest.raises(LinearProgramError):
            solve_linear_program([1.0, 1.0], inequality_matrix=[[1.0]], inequality_rhs=[1.0])

    def test_non_vector_objective_raises(self):
        with pytest.raises(LinearProgramError):
            solve_linear_program(np.zeros((2, 2)))

    def test_free_variable_bounds(self):
        result = solve_linear_program(
            [1.0],
            inequality_matrix=[[-1.0]],
            inequality_rhs=[5.0],
            bounds=(None, None),
        )
        assert result.feasible
        assert result.objective == pytest.approx(-5.0)


class TestFeasibilityProgram:
    def test_feasible(self):
        result = solve_linear_program(
            np.zeros(2),
            equality_matrix=[[1.0, 1.0]],
            equality_rhs=[1.0],
        )
        assert result.feasible

    def test_infeasible(self):
        result = solve_linear_program(
            np.zeros(1),
            equality_matrix=[[1.0]],
            equality_rhs=[-2.0],
            bounds=(0, None),
        )
        assert not result.feasible

    def test_degenerate_duplicate_columns(self):
        # A degenerate system with duplicated columns used to trip the HiGHS
        # presolve; the wrapper must still answer feasible.
        column = np.asarray([1.0, -2.0])
        matrix = np.column_stack([column, column, column])
        result = solve_linear_program(
            np.zeros(3),
            equality_matrix=np.vstack([matrix, np.ones((1, 3))]),
            equality_rhs=np.asarray([1.0, -2.0, 1.0]),
        )
        assert result.feasible

    def test_presolve_false_infeasible_is_overruled(self):
        # Hypothesis-found regression: on this trivially feasible hull
        # membership program (duplicated points, coordinates spanning orders
        # of magnitude) HiGHS presolve reports "infeasible" while the
        # presolve-free solve finds the exact weights.  The wrapper must
        # confirm every infeasible verdict without presolve before trusting
        # it.
        cloud = np.asarray([[0.0, 0.001953125], [0.0, 0.001953125], [1.0, 1e-09]])
        target = cloud.mean(axis=0)
        result = solve_linear_program(
            np.zeros(3),
            equality_matrix=np.vstack([cloud.T, np.ones((1, 3))]),
            equality_rhs=np.concatenate([target, [1.0]]),
            bounds=(0, None),
        )
        assert result.feasible
        weights = result.solution
        assert np.allclose(weights @ cloud, target, atol=1e-7)
