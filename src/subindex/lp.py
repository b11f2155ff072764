"""The LPs behind the criticality test and the polar-region classifier.

Each has n + 1 or m + 1 variables for m directions in R^n, and dense
constraints except the interior LP's sparse block for lambda_i >= s. Every
solve is deterministic for fixed input.

The models go to HiGHS (Huangfu & Hall 2018) through one call site,
:func:`_solve`, in HiGHS's native form lhs <= A x <= rhs, lb <= x <= ub, with
A in compressed-column form. They skip scipy.optimize's general LP front end
(its ``method="highs"``), which spends most of a small solve in Python around
HiGHS: option validation, input cleaning and ``scipy.sparse`` stacking. What
HiGHS receives is what that front end would pass: the <= rows first and the
equality rows after them, the matrix canonical (zeros dropped, rows ascending
in each column), and the front end's default options (presolve on, dual
simplex, no debug checks, no output). Its verdicts are kept too: optimal and
infeasible are answers, any other model status is a solver failure, and an
optimal solution must have no NaN and meet the bounds and rows within
sqrt(1e-9) * 10. So every margin, weight vector and exception is bit for bit
what the front end gives; the tests hold it to that.

Each thread keeps one HiGHS instance (:func:`_solver`) rather than building
one per solve, which cost more than a small LP's own solve. Every solve hands
it a new model, and loading a model clears the last one's solution, basis and
simplex state, so a result does not depend on the solves before it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading

import numpy as np

from .errors import InternalInconsistencyError

_HIGHS = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS bindings. The extension is loaded from its file under its own
    name, so ``scipy/optimize/__init__.py`` (half a second of imports) never runs
    and a later ``import scipy.optimize`` reuses it; else the normal import."""
    scipy = None if _HIGHS in sys.modules else importlib.util.find_spec("scipy")
    for root in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            spec = importlib.util.spec_from_file_location(_HIGHS, path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:
                continue  # no such file, or it does not load
            return sys.modules.setdefault(_HIGHS, module)
    try:
        return importlib.import_module(_HIGHS)
    except ImportError as exc:
        raise ImportError(
            "subindex needs scipy>=1.15, the first release that ships HiGHS as "
            "scipy.optimize._highspy._core"
        ) from exc


_core = _load_highs()
_Highs = _core._Highs  # the solver class; tests count its constructions through this name

# Margins below FEASIBILITY_MARGIN count as exactly zero; margins inside
# (FEASIBILITY_MARGIN, AMBIGUITY_BAND) are refused rather than guessed.
FEASIBILITY_MARGIN = 1e-9
AMBIGUITY_BAND = 1e-7

# The options the front end sets when given none.
_OPTIONS = _core.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False

# The front end's post-solve tolerance: sqrt(tol) * 10 at its default tol = 1e-9.
_CHECK_TOL = math.sqrt(1e-9) * 10

# Model statuses that the front end reports as infeasible (its status 2).
_INFEASIBLE = (_core.HighsModelStatus.kInfeasible, _core.HighsModelStatus.kModelError)


_THREAD = threading.local()


def _solver():
    """This thread's HiGHS instance, given the front end's options once. One
    instance is never shared between threads: HiGHS is not thread-safe."""
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = _Highs()
        highs.passOptions(_OPTIONS)
    return highs


def _dense_csc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical CSC arrays (start, index, value) of a dense matrix."""
    cols, rows = np.nonzero(a.T)
    start = np.zeros(a.shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=a.shape[1]), out=start[1:])
    return start, rows, a[rows, cols]


def _interior_csc(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical CSC arrays of the interior LP's rows [-I | 1], [U^T | 0], [1 | 0].

    Column j < m holds row j (-1), rows m + k where u[j, k] != 0, and row
    m + n (1); column m holds rows 0..m-1 (1).
    """
    m, n = u.shape
    # column j's candidate entries, row j of these arrays, before zeros are dropped
    value = np.empty((m, n + 2))
    value[:, 0] = -1.0
    value[:, 1:-1] = u
    value[:, -1] = 1.0
    index = np.empty((m, n + 2), dtype=np.intp)
    index[:, 0] = np.arange(m)
    index[:, 1:] = np.arange(m, m + n + 1)
    keep = value != 0.0
    start = np.zeros(m + 2, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=start[1:-1])
    start[-1] = start[-2] + m
    return start, np.concatenate([index[keep], np.arange(m)]), np.concatenate([value[keep], np.ones(m)])


def _solve(c, a, n_ub, rhs, lb, ub, what):
    """min c . x subject to (A x)_i <= rhs_i for i < n_ub, (A x)_i = rhs_i
    after, and lb <= x <= ub, with A given by its CSC arrays (start, index,
    value).

    Returns (objective, x) at an optimum and None when HiGHS finds the model
    infeasible; raises InternalInconsistencyError on any other outcome.
    """
    start, index, value = a
    lhs = rhs.copy()
    lhs[:n_ub] = -np.inf
    model = _core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = c.size
    model.num_row_ = model.a_matrix_.num_row_ = rhs.size
    model.a_matrix_.format_ = _core.MatrixFormat.kColwise
    model.col_cost_ = c
    model.col_lower_ = lb
    model.col_upper_ = ub
    model.row_lower_ = lhs
    model.row_upper_ = rhs
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = index
    model.a_matrix_.value_ = value
    highs = _solver()
    if highs.passModel(model) == _core.HighsStatus.kError:
        return None  # the front end reports a model it cannot load as infeasible
    ran = highs.run() != _core.HighsStatus.kError
    status = highs.getModelStatus()
    if status in _INFEASIBLE:
        return None
    if not ran or status != _core.HighsModelStatus.kOptimal:
        raise InternalInconsistencyError(
            f"LP solver failed on {what}: {highs.modelStatusToString(status)}"
        )
    fun = highs.getInfo().objective_function_value
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = rhs - solution.row_value
    if (
        np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
        or not np.all((x >= lb - _CHECK_TOL) & (x <= ub + _CHECK_TOL))
        or (slack[:n_ub] < -_CHECK_TOL).any()
        or (np.abs(slack[n_ub:]) > _CHECK_TOL).any()
    ):
        raise InternalInconsistencyError(
            f"LP solver failed on {what}: the solution misses the constraints "
            f"by more than {_CHECK_TOL:.2E}"
        )
    return fun, x


def _optimum(c, a, n_ub, rhs, lb, ub, what):
    """:func:`_solve` for an LP that is feasible by construction."""
    res = _solve(c, a, n_ub, rhs, lb, ub, what)
    if res is None:
        raise InternalInconsistencyError(f"{what} LP reported infeasible")
    return res


def separation_margin(directions: np.ndarray) -> float:
    """L1 distance from the origin to the convex hull of the rows.

    Computed as max s subject to u_i . v <= -s for all i and |v|_inf <= 1;
    the optimum is zero exactly when the origin lies in the hull, and is
    otherwise the hull's L1 distance s. The Euclidean distance d2 obeys
    d2 <= s <= sqrt(n) d2, and asin(d2) is the angular margin of the best
    separating direction.
    """
    u = np.asarray(directions, dtype=float)
    m, n = u.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    lb = np.full(n + 1, -1.0)
    ub = np.full(n + 1, 1.0)
    lb[-1], ub[-1] = -np.inf, np.inf
    a = _dense_csc(np.hstack([u, np.ones((m, 1))]))
    fun, _ = _optimum(c, a, m, np.zeros(m), lb, ub, "separation margin")
    return float(-fun)


def interior_weight_margin(directions: np.ndarray) -> float | None:
    """Largest s such that 0 = sum(lambda_i u_i) with sum(lambda) = 1, lambda_i >= s.

    Positive exactly when the origin is interior to the hull relative to the
    span of the rows. Returns None when the origin is not in the hull at all.

    The m rows lambda_i >= s form a sparse [-I | 1] block, so the LP costs
    O(m n) memory rather than a dense m x m matrix.
    """
    u = np.asarray(directions, dtype=float)
    m, n = u.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    rhs = np.zeros(m + n + 1)
    rhs[-1] = 1.0
    free = np.full(m + 1, np.inf)
    res = _solve(c, _interior_csc(u), m, rhs, -free, free, "interior weight margin")
    return None if res is None else float(-res[0])


def _simplex_rows(a_ub: np.ndarray):
    """CSC arrays of a_ub stacked over the row sum(lambda) = 1, and its rhs."""
    m, cols = a_ub.shape
    simplex = np.zeros((1, cols))
    simplex[0, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[-1] = 1.0
    return _dense_csc(np.vstack([a_ub, simplex])), rhs


def soul_margin_lp(directions: np.ndarray) -> tuple[float, np.ndarray]:
    """max s subject to G lambda >= s, lambda >= 0, sum lambda = 1 (G the Gram matrix).

    With w = -sum(lambda_i u_i) the constraints read w . u_j <= -s for all j.
    For a critical direction set the optimum is zero (pairing any convex
    representation of 0 with the constraints forces s <= 0), so the caller
    should expect to fall through to :func:`soul_feasibility_lp`.
    """
    u = np.asarray(directions, dtype=float)
    m = u.shape[0]
    g = u @ u.T
    c = np.zeros(m + 1)
    c[-1] = -1.0
    # s - (G lambda)_j <= 0
    a, rhs = _simplex_rows(np.hstack([-g, np.ones((m, 1))]))
    lb = np.zeros(m + 1)
    lb[-1] = -np.inf
    fun, x = _optimum(c, a, m, rhs, lb, np.full(m + 1, np.inf), "soul margin")
    return float(-fun), x[:m]


def soul_feasibility_lp(directions: np.ndarray) -> tuple[float, np.ndarray]:
    """max sum_j -(w . u_j) over w = -sum(lambda_i u_i), lambda in the simplex,
    w . u_j <= 0 for all j.

    The objective vanishes only at w = 0 (w lies in the span of the rows), so a
    positive optimum certifies a nonzero vector of the polar cone reachable as
    minus a convex combination of the directions.
    """
    u = np.asarray(directions, dtype=float)
    m = u.shape[0]
    g = u @ u.T
    c = -g.sum(axis=1)  # maximize 1^T G lambda
    a, rhs = _simplex_rows(-g)  # (G lambda)_j >= 0
    fun, x = _optimum(c, a, m, rhs, np.zeros(m), np.full(m, np.inf), "soul feasibility")
    return float(-fun), x
