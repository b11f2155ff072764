"""The LPs behind the criticality test and the polar-region classifier.

Each has n + 1 or m + 1 variables for m directions in R^n, and dense
constraints except the interior LP's sparse block for lambda_i >= s; all are
handed to HiGHS through scipy. Every solve is deterministic for fixed input.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from .errors import InternalInconsistencyError

# Margins below FEASIBILITY_MARGIN count as exactly zero; margins inside
# (FEASIBILITY_MARGIN, AMBIGUITY_BAND) are refused rather than guessed.
FEASIBILITY_MARGIN = 1e-9
AMBIGUITY_BAND = 1e-7


def _solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None, what=""):
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if res.status not in (0, 2):  # optimal or infeasible
        raise InternalInconsistencyError(f"LP solver failed on {what}: {res.message}")
    return res


def separation_margin(directions: np.ndarray) -> float:
    """L1 distance from the origin to the convex hull of the rows.

    Computed as max s subject to u_i . v <= -s for all i and |v|_inf <= 1;
    the optimum is zero exactly when the origin lies in the hull, and is
    otherwise the hull's L1 distance (so arcsin of it, up to the usual norm
    equivalence, is the angular margin of the best separating direction).
    """
    u = np.asarray(directions, dtype=float)
    m, n = u.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([u, np.ones((m, 1))])
    bounds = [(-1.0, 1.0)] * n + [(None, None)]
    res = _solve(c, A_ub=a_ub, b_ub=np.zeros(m), bounds=bounds, what="separation margin")
    if res.status != 0:
        raise InternalInconsistencyError("separation margin LP reported infeasible")
    return float(-res.fun)


def interior_weight_margin(directions: np.ndarray) -> float | None:
    """Largest s such that 0 = sum(lambda_i u_i) with sum(lambda) = 1, lambda_i >= s.

    Positive exactly when the origin is interior to the hull relative to the
    span of the rows. Returns None when the origin is not in the hull at all.

    The m rows lambda_i >= s are handed to the solver as a sparse [-I | 1]
    block, so the LP costs O(m n) memory rather than a dense m x m matrix.
    """
    u = np.asarray(directions, dtype=float)
    m, n = u.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    # lambda_i >= s  <=>  -lambda_i + s <= 0
    rows = np.tile(np.arange(m), 2)
    cols = np.concatenate([np.arange(m), np.full(m, m)])
    signs = np.repeat([-1.0, 1.0], m)
    a_ub = csc_array((signs, (rows, cols)), shape=(m, m + 1))
    a_eq = np.zeros((n + 1, m + 1))
    a_eq[:n, :m] = u.T
    a_eq[n, :m] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    bounds = [(None, None)] * (m + 1)
    res = _solve(
        c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        what="interior weight margin",
    )
    if res.status == 2:
        return None
    return float(-res.fun)


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
    a_ub = np.hstack([-g, np.ones((m, 1))])
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    bounds = [(0.0, None)] * m + [(None, None)]
    res = _solve(
        c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=np.ones(1), bounds=bounds,
        what="soul margin",
    )
    if res.status != 0:
        raise InternalInconsistencyError("soul margin LP reported infeasible")
    return float(-res.fun), np.asarray(res.x[:m], dtype=float)


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
    a_ub = -g  # (G lambda)_j >= 0
    a_eq = np.ones((1, m))
    bounds = [(0.0, None)] * m
    res = _solve(
        c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=np.ones(1), bounds=bounds,
        what="soul feasibility",
    )
    if res.status != 0:
        raise InternalInconsistencyError("soul feasibility LP reported infeasible")
    return float(-res.fun), np.asarray(res.x, dtype=float)
