"""Thin, diagnosable linear-program front end over HiGHS.

All of the geometry in this package (hull membership, hull-intersection
emptiness, the safe area ``Gamma``) reduces to small linear programs.  Rather
than scattering raw solver calls and status-code checks everywhere, the rest
of the package goes through :func:`solve_linear_program`, which

* normalises empty constraint blocks to the shapes HiGHS expects,
* distinguishes *infeasible* (a meaningful geometric answer) from genuine
  solver failure, and
* returns a small result object with the optimum and the argument vector.

Every solve goes through one private seam, :func:`_run_highs`, which hands
the assembled program (cost, CSC constraint matrix, row and column bounds)
straight to the HiGHS binding scipy vendors.  It passes exactly the options
``scipy.optimize.linprog`` passes for ``method="highs"`` and applies the same
post-solve residual check, so the status and the returned vertex are bitwise
the ones ``linprog`` reports — only its per-call Python front end (input
cleaning, block stacking, option round trips, dual extraction) is gone.  The
binding is a private scipy module; where it is missing (scipy < 1.15) the
same seam is implemented by ``linprog`` itself.  The choice is made once per
process, at its first solve (:func:`resolve_seam`), and published as
:data:`LP_BACKEND`; nothing selects it at run time.

This is the one module that imports scipy, and it does so in
:func:`resolve_seam`: a process that never builds a program (store reads,
``repro serve``, every ``d <= 2`` campaign, whose geometry is closed form)
never loads ``scipy.sparse`` or the HiGHS binding.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from repro.exceptions import LinearProgramError
from repro.obs.registry import get_registry

__all__ = [
    "LP_BACKEND",
    "LinearProgramResult",
    "solve_linear_program",
]

#: The accepted ``bounds`` forms (see :func:`_column_bounds`).
Bounds = (
    Sequence[tuple[float | None, float | None]]
    | tuple[float | None, float | None]
    | tuple[np.ndarray, np.ndarray]
    | None
)

_STATUS_OPTIMAL = 0
_STATUS_ITERATION_LIMIT = 1
_STATUS_INFEASIBLE = 2
_STATUS_UNBOUNDED = 3
_STATUS_NUMERICAL = 4

_STATUS_MESSAGES = {
    _STATUS_OPTIMAL: "Optimization terminated successfully.",
    _STATUS_ITERATION_LIMIT: "Iteration or time limit reached.",
    _STATUS_INFEASIBLE: "The problem is infeasible.",
    _STATUS_UNBOUNDED: "The problem is unbounded.",
    _STATUS_NUMERICAL: "HiGHS could not classify the problem (numerical difficulties).",
}

#: Largest bound or constraint residual an "optimal" solution may carry
#: before it is reclassified as a numerical failure — the check (and the
#: constant) ``linprog`` applies to every HiGHS result.
_RESIDUAL_TOLERANCE = np.sqrt(1e-9) * 10

#: The numerical-retry ladder, in order: (rung label, seam options).
#: Degenerate inputs (duplicated points, adversarial values orders of
#: magnitude larger than honest ones) occasionally trip the default HiGHS
#: presolve into an "Unknown" model status; retry without presolve, then with
#: the interior-point solver, then — last resort — with feasibility tolerances
#: loosened to 1e-6 (clusters of near-coincident points, e.g. honest states
#: late in a contraction, can make the feasible region smaller than the
#: default tolerances, and 1e-6 still sits at the package's geometric
#: tolerance).
_RETRY_RUNGS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("no_presolve", {"presolve": False}),
    ("ipm", {"solver": "ipm"}),
    ("loose_tolerance", {"tolerances": 1e-6}),
)
_CONFIRM_RUNG = "infeasible_confirm"


@dataclass(frozen=True)
class LinearProgramResult:
    """Outcome of a linear program.

    Attributes:
        feasible: True when the program has a feasible (and bounded) solution.
        objective: optimal objective value; ``None`` when infeasible.
        solution: optimal variable assignment; ``None`` when infeasible.
        status: scipy-convention status code (0 optimal, 2 infeasible, ...).
        message: status description, useful for diagnostics.
    """

    feasible: bool
    objective: float | None
    solution: np.ndarray | None
    status: int
    message: str


# ---------------------------------------------------------------------------
# The solver seam
# ---------------------------------------------------------------------------

#: HiGHS model status (by name) -> scipy status; anything else is numerical.
_SCIPY_STATUS = {
    "kOptimal": _STATUS_OPTIMAL,
    "kTimeLimit": _STATUS_ITERATION_LIMIT,
    "kIterationLimit": _STATUS_ITERATION_LIMIT,
    "kInfeasible": _STATUS_INFEASIBLE,
    "kModelError": _STATUS_INFEASIBLE,
    "kUnbounded": _STATUS_UNBOUNDED,
}


@lru_cache(maxsize=None)
def _highs_options(presolve: bool, solver: str | None, tolerances: float | None) -> Any:
    """The option set ``linprog`` builds for ``method="highs"`` (shared, never mutated)."""
    options = _highs.HighsOptions()
    options.presolve = "on" if presolve else "off"
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    if solver is not None:
        options.solver = solver
    if tolerances is not None:
        options.primal_feasibility_tolerance = tolerances
        options.dual_feasibility_tolerance = tolerances
    return options


#: Per thread: ``highs``, the ``_Highs`` instance it solves on, and
#: ``options_key``, the ``(presolve, solver, tolerances)`` it last passed.
_SOLVERS = threading.local()


def _forget_solvers() -> None:
    """Drop every thread's instance: a forked child builds its own."""
    global _SOLVERS
    _SOLVERS = threading.local()


if hasattr(os, "register_at_fork"):  # absent where the pool spawns instead of forking
    os.register_at_fork(after_in_child=_forget_solvers)


def _run_highs_core(
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
    """Minimise ``cost @ x`` s.t. ``row_lower <= csc @ x <= row_upper`` within column bounds.

    ``csc`` is a canonical (sorted, duplicate-free) CSC matrix; absent bounds
    are ``±inf``.  Returns ``(status, x, fun)`` in the scipy status
    convention; ``x`` and ``fun`` are ``None`` unless HiGHS found an optimum.

    Each thread solves on one ``_Highs`` instance of its own (building one
    costs about as much as a small solve).  The instance returns the vertex a
    fresh one would, because nothing a solve depends on survives the
    previous one: ``clearSolver`` discards the basis, scaling and solution
    before every model is passed, and the options are passed again whenever
    they differ from the last set the instance took — so the default solve
    after a retry rung runs with presolve back on.  An instance that reported
    ``kError`` is dropped, and a forked child never inherits one.
    """
    row_count, column_count = csc.shape
    program = _highs.HighsLp()
    program.num_col_ = column_count
    program.num_row_ = row_count
    matrix = program.a_matrix_
    matrix.num_col_ = column_count
    matrix.num_row_ = row_count
    matrix.format_ = _highs.MatrixFormat.kColwise
    # The binding copies element by element; plain lists convert about twice
    # as fast as numpy arrays (no per-element scalar boxing).
    matrix.start_ = csc.indptr.tolist()
    matrix.index_ = csc.indices.tolist()
    matrix.value_ = csc.data.tolist()
    program.col_cost_ = cost.tolist()
    program.col_lower_ = col_lower.tolist()
    program.col_upper_ = col_upper.tolist()
    program.row_lower_ = row_lower.tolist()
    program.row_upper_ = row_upper.tolist()

    solver_state = _SOLVERS
    highs = getattr(solver_state, "highs", None)
    if highs is None:
        highs = solver_state.highs = _highs._Highs()
        solver_state.options_key = None
    error = _highs.HighsStatus.kError
    options_key = (presolve, solver, tolerances)
    if solver_state.options_key != options_key:
        if highs.passOptions(_highs_options(*options_key)) == error:
            solver_state.highs = None
            return _STATUS_NUMERICAL, None, None  # a fresh instance's model status is kNotset
        solver_state.options_key = options_key
    highs.clearSolver()
    if highs.passModel(program) == error:
        solver_state.highs = None
        return _STATUS_INFEASIBLE, None, None  # linprog reads a rejected model as kModelError
    run_status = highs.run()
    model_status = highs.getModelStatus()
    if run_status == error:
        solver_state.highs = None
    if run_status == error or model_status != _highs.HighsModelStatus.kOptimal:
        status = _SCIPY_STATUS.get(model_status.name, _STATUS_NUMERICAL)
        # "Optimal" without a readable solution is a numerical failure.
        return (_STATUS_NUMERICAL if status == _STATUS_OPTIMAL else status), None, None

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    activity = np.array(solution.row_value)
    fun = highs.getInfo().objective_function_value
    # linprog's post-solve check, phrased positively so NaNs fail it too.
    within_tolerance = (
        not np.isnan(fun)
        and (x >= col_lower - _RESIDUAL_TOLERANCE).all()
        and (x <= col_upper + _RESIDUAL_TOLERANCE).all()
        and (row_upper - activity >= -_RESIDUAL_TOLERANCE).all()
        and (row_lower - activity <= _RESIDUAL_TOLERANCE).all()
    )
    return (_STATUS_OPTIMAL if within_tolerance else _STATUS_NUMERICAL), x, fun


def _run_scipy_front_end(
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
    """The seam's contract served by scipy's public ``linprog``.

    Stands in for :func:`_run_highs_core` where the vendored binding is
    absent, and is the oracle the direct seam is tested against.
    """
    from scipy.optimize import linprog

    equality = row_lower == row_upper
    rows = csc.tocsr()
    blocks: dict[str, Any] = {}
    if equality.any():
        blocks.update(A_eq=rows[equality], b_eq=row_upper[equality])
    if not equality.all():
        blocks.update(A_ub=rows[~equality], b_ub=row_upper[~equality])
    options: dict[str, Any] = {"presolve": presolve}
    if tolerances is not None:
        options["primal_feasibility_tolerance"] = tolerances
        options["dual_feasibility_tolerance"] = tolerances
    outcome = linprog(
        cost,
        bounds=np.column_stack((col_lower, col_upper)),
        method="highs-ipm" if solver == "ipm" else "highs",
        options=options,
        **blocks,
    )
    if outcome.x is None:
        return int(outcome.status), None, None
    return int(outcome.status), np.asarray(outcome.x, dtype=float), float(outcome.fun)


def _binding_is_usable() -> bool:
    """True when the vendored binding offers everything the direct seam touches.

    A scipy release that moves or reshapes the private module must resolve to
    the fallback here, before the first solve, instead of failing in one.
    """
    if _highs is None:
        return False
    try:
        _highs_options(False, "ipm", 1e-6)  # every option name the rungs set
        _highs.HighsLp().a_matrix_.format_ = _highs.MatrixFormat.kColwise
        _highs._Highs, _highs.HighsStatus.kError, _highs.HighsModelStatus.kOptimal
    except (AttributeError, TypeError):  # pragma: no cover — reshaped binding
        return False
    return True


#: ``scipy.sparse`` and the vendored binding (``None`` under scipy < 1.15),
#: imported by :func:`resolve_seam`.
_sparse: Any = None
_highs: Any = None
#: The seam and the name it is reported under (``repro_kernel_lp_backend``),
#: bound by :func:`resolve_seam`: ``None`` until the process's first solve.
LP_BACKEND: str | None = None
_run_highs: Callable[..., tuple[int, np.ndarray | None, float | None]] | None = None


def resolve_seam() -> None:
    """Import scipy and bind the seam, once per process (cheap afterwards).

    Every program assembly calls it, and the worker pool calls it before it
    forks, so each seat inherits the seam instead of importing scipy inside
    a timed unit.  A seam bound beforehand (a test's stand-in) is kept.
    """
    global _sparse, _highs, LP_BACKEND, _run_highs
    if LP_BACKEND is None:
        import scipy.sparse

        try:
            from scipy.optimize._highspy import _core as highs
        except ImportError:  # pragma: no cover — scipy < 1.15
            highs = None
        _sparse, _highs = scipy.sparse, highs
        LP_BACKEND = "highs_core" if _binding_is_usable() else "linprog"
    if _run_highs is None:
        _run_highs = _run_highs_core if LP_BACKEND == "highs_core" else _run_scipy_front_end


def csc_matrix(arg: Any, shape: tuple[int, int]) -> Any:
    """``scipy.sparse.csc_matrix(arg, shape=shape)``, the seam resolved first.

    The kernel builds its programs' matrices through this, so scipy is
    loaded by the first program a process builds, not by an import.
    """
    resolve_seam()
    return _sparse.csc_matrix(arg, shape=shape)


def _register_lp_metrics() -> dict[str, Any]:
    """Publish the resolved backend and hand back the per-rung fallback counters."""
    registry = get_registry()
    backend = registry.gauge(
        "repro_kernel_lp_backend",
        "LP solver seam resolved at the process's first solve: 1 for the active backend.",
        labelnames=("backend",),
    )

    def publish_backend() -> None:
        if LP_BACKEND is not None:
            backend.labels(backend=LP_BACKEND).set(1)

    # Set at collection time, so the sample survives a registry reset.
    registry.register_collector(publish_backend)
    fallbacks = registry.counter(
        "repro_kernel_lp_fallback_total",
        "LP solves beyond the first attempt, by rung of the retry ladder.",
        labelnames=("rung",),
    )
    rungs = [rung for rung, _ in _RETRY_RUNGS] + [_CONFIRM_RUNG]
    return {rung: fallbacks.labels(rung=rung) for rung in rungs}


_FALLBACKS = _register_lp_metrics()


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------

def _normalise_block(
    matrix: np.ndarray | Sequence[Sequence[float]] | None,
    vector: np.ndarray | Sequence[float] | None,
    variable_count: int,
    label: str,
) -> tuple[Any, np.ndarray | None]:
    """Validate one (matrix, rhs) constraint block, allowing it to be absent.

    Accepts dense array-likes and scipy sparse matrices alike; the batched
    safe-area kernel passes CSC matrices, which HiGHS consumes natively and
    which must not be densified here.
    """
    if matrix is None and vector is None:
        return None, None
    if matrix is None or vector is None:
        raise LinearProgramError(f"{label}: matrix and vector must be given together")
    if not _sparse.issparse(matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    vector = np.atleast_1d(np.asarray(vector, dtype=float))
    if matrix.shape[0] == 0:
        return None, None
    if matrix.shape[1] != variable_count:
        raise LinearProgramError(
            f"{label}: matrix has {matrix.shape[1]} columns, expected {variable_count}"
        )
    if matrix.shape[0] != vector.shape[0]:
        raise LinearProgramError(
            f"{label}: {matrix.shape[0]} rows but {vector.shape[0]} right-hand sides"
        )
    values = matrix.data if _sparse.issparse(matrix) else matrix
    if not (np.isfinite(values).all() and np.isfinite(vector).all()):
        raise ValueError(f"{label}: coefficients must not contain inf or nan")
    return matrix, vector


def _column_bounds(bounds: Bounds, variable_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Split ``bounds`` into ``(lower, upper)`` arrays with ``±inf`` for "none".

    Accepts the scipy forms — ``None`` (non-negative), one ``(lo, hi)`` pair
    for every variable, or one pair per variable — and, as the form that
    needs no conversion, a pair of length-``n`` float arrays
    ``(lower, upper)``.
    """
    if (
        isinstance(bounds, tuple)
        and len(bounds) == 2
        and isinstance(bounds[0], np.ndarray)
        and isinstance(bounds[1], np.ndarray)
    ):
        lower, upper = bounds
        if lower.shape != (variable_count,) or upper.shape != (variable_count,):
            raise LinearProgramError(
                f"bounds arrays must both have shape ({variable_count},), "
                f"got {lower.shape} and {upper.shape}"
            )
        return lower, upper
    if bounds is None:
        bounds = (0.0, None)
    try:
        pairs = np.atleast_2d(np.array(bounds, dtype=float))  # None -> nan
    except (TypeError, ValueError) as error:
        raise LinearProgramError(f"bounds are not (lower, upper) pairs: {error}") from error
    if pairs.shape == (variable_count, 2):
        lower, upper = pairs[:, 0].copy(), pairs[:, 1].copy()
    elif pairs.shape in ((1, 2), (2, 1)):
        low, high = pairs.ravel()
        lower, upper = np.full(variable_count, low), np.full(variable_count, high)
    else:
        raise LinearProgramError(
            f"bounds of shape {pairs.shape} fit neither one (lower, upper) pair "
            f"nor one pair per each of {variable_count} variables"
        )
    lower[np.isnan(lower)] = -np.inf
    upper[np.isnan(upper)] = np.inf
    return lower, upper


def _dense_csc(matrix: np.ndarray) -> Any:
    """``csc_array(matrix)`` built from the non-zeros directly: the same arrays at half the cost."""
    nonzero = matrix.T != 0.0
    indptr = np.zeros(matrix.shape[1] + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    indices = np.nonzero(nonzero)[1].astype(np.int32)
    return _sparse.csc_array((matrix.T[nonzero], indices, indptr), shape=matrix.shape)


def _constraint_rows(
    a_ub: Any, b_ub: np.ndarray | None, a_eq: Any, b_eq: np.ndarray | None, variable_count: int
) -> tuple[Any, np.ndarray, np.ndarray]:
    """Stack the blocks into HiGHS's row form: ``(csc, row_lower, row_upper)``.

    Inequality rows come first with a ``-inf`` lower side, equality rows
    follow with both sides equal — the layout ``linprog`` hands to HiGHS.
    """
    if (
        a_ub is None
        and _sparse.issparse(a_eq)
        and a_eq.format == "csc"
        and a_eq.has_canonical_format
    ):
        # The kernel's Section 2.2 systems arrive in exactly the form HiGHS takes.
        return a_eq, b_eq, b_eq
    blocks = [block for block in (a_ub, a_eq) if block is not None]
    if not blocks:
        matrix = _sparse.csc_array((0, variable_count), dtype=float)
    elif any(_sparse.issparse(block) for block in blocks):
        matrix = _sparse.csc_array(_sparse.vstack(blocks), dtype=float)
        matrix.sum_duplicates()
    else:
        matrix = _dense_csc(np.vstack(blocks))
    if b_ub is None:
        b_ub = np.empty(0)
    if b_eq is None:
        b_eq = np.empty(0)
    row_lower = np.concatenate((np.full(b_ub.shape[0], -np.inf), b_eq))
    return matrix, row_lower, np.concatenate((b_ub, b_eq))


def _assemble_program(
    objective: np.ndarray | Sequence[float],
    inequality_matrix: Any,
    inequality_rhs: Any,
    equality_matrix: Any,
    equality_rhs: Any,
    bounds: Bounds,
) -> tuple[np.ndarray, Any, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate the caller's blocks and return the seam's six positional arguments."""
    resolve_seam()
    objective = np.asarray(objective, dtype=float)
    if objective.ndim != 1:
        raise LinearProgramError(f"objective must be a vector, got shape {objective.shape}")
    variable_count = objective.shape[0]
    if not np.isfinite(objective).all():
        raise ValueError("objective must not contain inf or nan")
    a_ub, b_ub = _normalise_block(inequality_matrix, inequality_rhs, variable_count, "inequality block")
    a_eq, b_eq = _normalise_block(equality_matrix, equality_rhs, variable_count, "equality block")
    return (
        objective,
        *_constraint_rows(a_ub, b_ub, a_eq, b_eq, variable_count),
        *_column_bounds(bounds, variable_count),
    )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def solve_linear_program(
    objective: np.ndarray | Sequence[float],
    *,
    inequality_matrix: np.ndarray | Sequence[Sequence[float]] | None = None,
    inequality_rhs: np.ndarray | Sequence[float] | None = None,
    equality_matrix: np.ndarray | Sequence[Sequence[float]] | None = None,
    equality_rhs: np.ndarray | Sequence[float] | None = None,
    bounds: Bounds = (0, None),
) -> LinearProgramResult:
    """Minimise ``objective @ x`` subject to the given constraints.

    ``bounds`` follows the scipy convention (see :func:`_column_bounds` for
    the accepted forms); the default of ``(0, None)`` (non-negative
    variables) matches the convex-combination programs that dominate this
    package.  Infeasibility is reported through the result object; other
    abnormal terminations raise :class:`LinearProgramError`.
    """
    program = _assemble_program(
        objective, inequality_matrix, inequality_rhs, equality_matrix, equality_rhs, bounds
    )
    status, solution, value = _run_highs(*program)
    presolve_free_verdict = False
    if status == _STATUS_NUMERICAL:
        for rung, options in _RETRY_RUNGS:
            _FALLBACKS[rung].inc()
            status, solution, value = _run_highs(*program, **options)
            if status != _STATUS_NUMERICAL:
                presolve_free_verdict = options.get("presolve") is False
                break

    if status == _STATUS_INFEASIBLE and not presolve_free_verdict:
        # HiGHS presolve can misclassify degenerate-but-feasible programs as
        # infeasible (duplicated points with coordinates spanning orders of
        # magnitude).  Infeasibility is a meaningful geometric answer here
        # (hull membership, Gamma emptiness), so confirm it with a
        # presolve-free re-solve before reporting it; genuinely infeasible
        # programs stay infeasible either way (skipped when the verdict
        # already came from a presolve-free solve).
        _FALLBACKS[_CONFIRM_RUNG].inc()
        confirmed = _run_highs(*program, presolve=False)
        if confirmed[0] == _STATUS_OPTIMAL:
            status, solution, value = confirmed

    message = _STATUS_MESSAGES[status]
    if status == _STATUS_OPTIMAL:
        return LinearProgramResult(
            feasible=True,
            objective=float(value),
            solution=solution,
            status=status,
            message=message,
        )
    if status == _STATUS_INFEASIBLE:
        return LinearProgramResult(
            feasible=False,
            objective=None,
            solution=None,
            status=status,
            message=message,
        )
    raise LinearProgramError(
        f"linear program terminated abnormally (status {status}): {message}",
        status=status,
    )
