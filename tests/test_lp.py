"""The small LPs behind the polar-region classifier."""

from __future__ import annotations

import importlib.util
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, nnls
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, HighsVarType, MatrixFormat, ObjSense
from scipy.sparse import csc_array, vstack

from subindex import lp
from subindex.convexity import classification_report
from subindex.directions import DirectionSet
from subindex.errors import InternalInconsistencyError
from subindex.torus import TorusDistanceField


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
    res = _linprog(
        c, "dense interior weight margin", A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=b_eq,
        bounds=[(None, None)] * (m + 1),
    )
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


# The four LPs as the package posed them to linprog(method="highs") before it
# handed them to HiGHS itself: the oracle for the direct call site.


def _linprog(c, what, **constraints):
    res = linprog(c, method="highs", **constraints)
    if res.status == 4:  # no verdict: solved once more without presolve, as _solve does
        res = linprog(c, method="highs", options={"presolve": False}, **constraints)
    if res.status not in (0, 2):
        raise InternalInconsistencyError(f"LP solver failed on {what}: {res.message}")
    return res


def _linprog_separation_margin(u):
    m, n = u.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = _linprog(
        c, "separation margin", A_ub=np.hstack([u, np.ones((m, 1))]), b_ub=np.zeros(m),
        bounds=[(-1.0, 1.0)] * n + [(None, None)],
    )
    if res.status != 0:
        raise InternalInconsistencyError("separation margin LP reported infeasible")
    return float(-res.fun)


def euclidean_hull_distance(u) -> float:
    """Euclidean distance d2 from the origin to the convex hull of the rows.

    Least-distance programming (Lawson & Hanson, ch. 23), an independent
    route to the separation LP: the shortest x with u_i . x <= -1 for every i
    has |x| = 1 / d2. With E = [-U^T; 1^T], f = e_{n+1}, mu = nnls(E, f) and
    r = E mu - f, that x is -r[:n] / r[n], and r = 0 exactly when the origin
    lies in the hull.
    """
    u = np.asarray(u, dtype=float)
    m, n = u.shape
    e = np.vstack([-u.T, np.ones((1, m))])
    f = np.zeros(n + 1)
    f[n] = 1.0
    mu, _ = nnls(e, f)
    r = e @ mu - f
    if np.linalg.norm(r) <= 1e-12:
        return 0.0
    return float(abs(r[n]) / np.linalg.norm(r[:n]))


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 6), m=st.integers(1, 10))
def test_separation_margin_lies_within_the_norm_bounds_of_the_euclidean_distance(seed: int, n: int, m: int):
    """The separation margin s is the L1 distance from the origin to the
    hull, so d2 <= s <= sqrt(n) d2 against the least-distance route's d2."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    s = lp.separation_margin(u)
    d2 = euclidean_hull_distance(u)
    assert d2 <= s + 1e-9
    assert s <= math.sqrt(n) * d2 + 1e-9


def _interior_blocks(u):
    """The interior LP's sparse [-I | 1] block and dense equality rows."""
    m, n = u.shape
    rows = np.tile(np.arange(m), 2)
    cols = np.concatenate([np.arange(m), np.full(m, m)])
    a_ub = csc_array((np.repeat([-1.0, 1.0], m), (rows, cols)), shape=(m, m + 1))
    a_eq = np.zeros((n + 1, m + 1))
    a_eq[:n, :m] = u.T
    a_eq[n, :m] = 1.0
    return a_ub, a_eq


def _linprog_interior_weight_margin(u):
    m, n = u.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub, a_eq = _interior_blocks(u)
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    res = _linprog(
        c, "interior weight margin", A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=b_eq,
        bounds=[(None, None)] * (m + 1),
    )
    return None if res.status == 2 else float(-res.fun)


def _linprog_soul_margin_lp(u):
    m = u.shape[0]
    g = u @ u.T
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    res = _linprog(
        c, "soul margin", A_ub=np.hstack([-g, np.ones((m, 1))]), b_ub=np.zeros(m),
        A_eq=a_eq, b_eq=np.ones(1), bounds=[(0.0, None)] * m + [(None, None)],
    )
    if res.status != 0:
        raise InternalInconsistencyError("soul margin LP reported infeasible")
    return float(-res.fun), np.asarray(res.x[:m], dtype=float)


def _linprog_soul_feasibility_lp(u):
    m = u.shape[0]
    g = u @ u.T
    res = _linprog(
        -g.sum(axis=1), "soul feasibility", A_ub=-g, b_ub=np.zeros(m),
        A_eq=np.ones((1, m)), b_eq=np.ones(1), bounds=[(0.0, None)] * m,
    )
    if res.status != 0:
        raise InternalInconsistencyError("soul feasibility LP reported infeasible")
    return float(-res.fun), np.asarray(res.x, dtype=float)


_ORACLES = [
    (lp.separation_margin, _linprog_separation_margin),
    (lp.interior_weight_margin, _linprog_interior_weight_margin),
    (lp.soul_margin_lp, _linprog_soul_margin_lp),
    (lp.soul_feasibility_lp, _linprog_soul_feasibility_lp),
]


def _outcome(f, u):
    """What f returns on u, as bytes, or the type of what it raises."""
    try:
        r = f(u)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    if r is None:
        return None
    if isinstance(r, tuple):
        return np.float64(r[0]).tobytes(), r[1].dtype, r[1].tobytes()
    return type(r), np.float64(r).tobytes()


def _assert_matches_linprog(u):
    for direct, oracle in _ORACLES:
        assert _outcome(direct, u) == _outcome(oracle, u), direct.__name__


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(["regular", "empty", "great_subsphere", "near_band", "boundary"]),
    n=st.integers(2, 6),
    near_copy=st.booleans(),
)
def test_lps_match_linprog_bit_for_bit(seed, kind, n, near_copy):
    """The direct HiGHS call site poses linprog's model with linprog's options
    and checks, so margins, weights, None and exception types are the same."""
    _assert_matches_linprog(_direction_rows(np.random.default_rng(seed), kind, n, near_copy))


@pytest.mark.parametrize("dim", range(1, 9))
def test_lps_match_linprog_at_the_torus_origin(dim):
    """The up-set at the origin: all 2^dim diagonals, the largest sets the
    torus enumeration solves."""
    _assert_matches_linprog(TorusDistanceField(dim).up_set(np.zeros(dim)).directions)


@settings(deadline=None, max_examples=100)
@given(
    entries=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=60),
    n=st.integers(1, 6),
)
def test_csc_builders_match_scipy_sparse(entries, n):
    """The hand-built CSC arrays are the canonical ones scipy.sparse gives
    linprog: exact zeros (signed ones too) dropped, rows ascending."""
    rows = np.resize(np.array(entries), (max(1, len(entries) // n), n))
    u = rows[np.abs(rows).sum(axis=1) > 0]
    if u.shape[0] == 0:
        u = np.eye(n)[:1]
    a_ub, a_eq = _interior_blocks(u)
    for built, expected in (
        (lp._interior_csc(u), csc_array(vstack((a_ub, a_eq)))),
        (lp._dense_csc(a_eq), csc_array(a_eq)),
    ):
        for got, want in zip(built, (expected.indptr, expected.indices, expected.data)):
            np.testing.assert_array_equal(got, want)


def test_interior_weight_margin_is_none_only_off_the_affine_hull():
    """The weights are free, so the margin is negative for a regular set
    whose rows hold the origin in their affine hull: these three rows have
    one affine representation of 0, and its least weight is the margin. e1
    and e2 have none, and only such a set gives None."""
    u = np.array([[1.0, 0.2], [0.8, -0.6], [0.9, 0.436]])
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    weights = np.linalg.solve(np.vstack([u.T, np.ones(3)]), [0.0, 0.0, 1.0])
    assert lp.separation_margin(u) == pytest.approx(0.858, abs=1e-3)  # not critical
    assert lp.interior_weight_margin(u) == pytest.approx(weights.min(), rel=1e-9)
    assert weights.min() == pytest.approx(-8.27, abs=5e-3)
    assert lp.interior_weight_margin(np.eye(2)) is None


def _insert_interior_csc(u):
    """The interior LP's CSC arrays as the package built them before: the
    transposed [U | 1] block's arrays with each column's -1 entry inserted,
    with the int32 indices HiGHS takes."""
    m = u.shape[0]
    start, index, value = lp._dense_csc(np.hstack([u, np.ones((m, 1))]).T)
    index = np.concatenate([np.insert(index + m, start[:-1], np.arange(m)), np.arange(m)])
    value = np.concatenate([np.insert(value, start[:-1], -1.0), np.ones(m)])
    start = np.append(start + np.arange(m + 1), start[-1] + 2 * m)
    return start.astype(np.int32), index.astype(np.int32), value


@settings(deadline=None, max_examples=200)
@given(
    entries=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=60),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
    signed_zeros=st.booleans(),
)
def test_interior_csc_matches_the_inserting_construction(entries, n, seed, signed_zeros):
    """The masked build gives the old construction's arrays byte for byte,
    dtypes included, with exact and signed zeros or random entries."""
    if signed_zeros:
        u = np.resize(np.array(entries), (max(1, len(entries) // n), n))
    else:
        u = np.random.default_rng(seed).standard_normal((len(entries) % 24 + 1, n))
    for got, want in zip(lp._interior_csc(u), _insert_interior_csc(u)):
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


def test_old_scipy_fails_at_import_with_the_floor():
    """Without HiGHS's bindings (scipy < 1.15) the module names the floor."""
    spec = importlib.util.spec_from_file_location("subindex._lp_without_highs", lp.__file__)
    with mock.patch.dict(sys.modules, {"scipy.optimize._highspy._core": None}):
        with pytest.raises(ImportError, match=re.escape("scipy>=1.15")):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _fresh_python(fragments: list[str], *args: str) -> str:
    """stdout of the code fragments, each dedented, run in a new interpreter
    that imports this checkout."""
    env = dict(os.environ)
    root = str(pathlib.Path(lp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    code = "".join(map(textwrap.dedent, fragments))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# One seeded set's two LP margins, printed bit for bit.
_SEEDED_MARGINS = """
    import numpy as np
    from subindex import lp
    u = np.random.default_rng(7).standard_normal((9, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    print(float.hex(lp.separation_margin(u)), float.hex(lp.interior_weight_margin(u)))
"""

# Makes the by-file lookup find no loadable file: ``find_spec("scipy")`` names
# the directory argv[2], which for argv[1] == "unloadable" holds an empty file
# where the extension should be.
_NO_HIGHS_FILE = """
    import importlib.machinery, importlib.util, os, sys
    root = sys.argv[2]
    if sys.argv[1] == "unloadable":
        os.makedirs(os.path.join(root, "optimize", "_highspy"))
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        open(os.path.join(root, "optimize", "_highspy", "_core" + suffix), "w").close()
    find_spec = importlib.util.find_spec

    def no_highs_file(name, *args):
        if name != "scipy":
            return find_spec(name, *args)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [root]
        return spec

    importlib.util.find_spec = no_highs_file
"""


def _in_process_margins() -> str:
    u = np.random.default_rng(7).standard_normal((9, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return f"{float.hex(lp.separation_margin(u))} {float.hex(lp.interior_weight_margin(u))}\n"


def test_both_import_orders_share_one_highs_module_and_give_the_same_bits():
    """Imported first, subindex loads HiGHS from its file and scipy.optimize
    then reuses that module; imported second, it takes scipy's. Either way
    the front end and ``lp`` run one module, and the margins agree bit for bit."""
    shared = """
        import sys
        from scipy.optimize import linprog
        core = sys.modules["scipy.optimize._highspy._core"]
        assert core is lp._core and lp._Highs is core._Highs
        assert sys.modules["scipy.optimize._highspy._highs_wrapper"]._h is core
        assert linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs").fun == 1.0
    """
    cli_first = _fresh_python(
        ["""
        import sys
        import subindex.cli
        assert "scipy.optimize" not in sys.modules
        import scipy.optimize
        """, _SEEDED_MARGINS, shared]
    )
    scipy_first = _fresh_python(["import scipy.optimize\nimport subindex.cli\n", _SEEDED_MARGINS, shared])
    assert cli_first == scipy_first == _in_process_margins()


@pytest.mark.parametrize("layout", ["missing", "unloadable"])
def test_without_a_loadable_highs_file_the_normal_import_is_used(layout, tmp_path):
    out = _fresh_python(
        [_NO_HIGHS_FILE, _SEEDED_MARGINS, """
        assert "scipy.optimize" in sys.modules
        assert lp._core is sys.modules["scipy.optimize._highspy._core"]
        """],
        layout,
        str(tmp_path),
    )
    assert out == _in_process_margins()


def test_old_scipy_without_a_highs_file_fails_at_import_with_the_floor(tmp_path):
    """No extension file and no importable module, as in scipy < 1.15."""
    out = _fresh_python(
        [_NO_HIGHS_FILE, """
        class NoHighs:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy.optimize._highspy._core":
                    raise ModuleNotFoundError(name)

        sys.meta_path.insert(0, NoHighs())
        try:
            import subindex.lp
        except ImportError as exc:
            print(exc)
        """],
        "missing",
        str(tmp_path),
    )
    assert "scipy>=1.15" in out


class _ReportingHighs:
    """Stands in for HiGHS and reports a fixed status and solution; counts the
    models passed, as arrays, and keeps the options set."""

    def __init__(self, status, x, row_value):
        self.status, self.x, self.row_value = status, x, row_value
        self.passes, self.options = 0, {}

    def passModel(self, num_col, num_row, num_nz, a_format, sense, offset, *arrays):
        assert (num_col, num_row, num_nz, a_format, sense, offset) == (1, 2, 2, 1, 1, 0.0)
        assert len(arrays) == 9 and arrays[-1].tolist() == [0]  # ..., value, integrality
        self.passes += 1
        return HighsStatus.kOk

    def setOptionValue(self, name, value):
        self.options[name] = value
        return HighsStatus.kOk

    def run(self):
        return HighsStatus.kOk

    def getModelStatus(self):
        return self.status

    def modelStatusToString(self, status):
        return str(status)

    def getObjectiveValue(self):
        return float(self.x[0])

    def getSolution(self):
        return SimpleNamespace(col_value=list(self.x), row_value=np.array(self.row_value))


# One variable in [-1, 1] and the rows x <= 0.5, x = 1, as _solve takes them.
_ONE_VARIABLE = (
    np.ones(1), (np.array([0, 2]), np.array([0, 1]), np.ones(2)), 1,
    np.array([0.5, 1.0]), np.full(1, -1.0), np.full(1, 1.0), "a test model",
)


@pytest.mark.parametrize(
    "status, x, row_value, expected",
    [
        (HighsModelStatus.kOptimal, [0.5], [0.5, 1.0], "solution"),
        (HighsModelStatus.kOptimal, [0.5], [1e-3 + 0.5, 1.0], InternalInconsistencyError),
        (HighsModelStatus.kOptimal, [0.5], [0.5, 1.001], InternalInconsistencyError),
        (HighsModelStatus.kOptimal, [0.5], [np.nan, 1.0], InternalInconsistencyError),
        (HighsModelStatus.kOptimal, [1.001], [0.5, 1.0], InternalInconsistencyError),
        (HighsModelStatus.kInfeasible, [], [], None),
        (HighsModelStatus.kUnbounded, [], [], InternalInconsistencyError),
        (HighsModelStatus.kIterationLimit, [], [], InternalInconsistencyError),
    ],
)
def test_solve_keeps_the_front_ends_verdicts(monkeypatch, status, x, row_value, expected):
    """One variable in [-1, 1] and the rows x <= 0.5, x = 1, answered by a
    stand-in solver: an optimal answer must meet bounds and rows within
    sqrt(1e-9) * 10, infeasible is None, and any other status is a failure
    once the model, passed again, gives it with presolve off too."""
    highs = _ReportingHighs(status, x, row_value)
    monkeypatch.setattr(lp, "_solver", lambda: highs)
    if isinstance(expected, type):
        with pytest.raises(expected):
            lp._solve(*_ONE_VARIABLE)
    elif expected is None:
        assert lp._solve(*_ONE_VARIABLE) is None
    else:
        fun, solution = lp._solve(*_ONE_VARIABLE)
        assert (fun, solution.tolist()) == (0.5, [0.5])
    verdict = status in (HighsModelStatus.kOptimal, HighsModelStatus.kInfeasible)
    assert highs.passes == (1 if verdict else 2)
    assert highs.options == ({} if verdict else {"presolve": "on"})


@pytest.mark.parametrize("fun, x", [(math.nan, [0.5]), (0.5, [math.nan])])
def test_solve_refuses_a_nan_objective_or_value(monkeypatch, fun, x):
    """A NaN fails every comparison of the post-solve check, so an optimal
    status with a NaN objective or variable value is a solver failure."""
    highs = _ReportingHighs(HighsModelStatus.kOptimal, x, [0.5, 1.0])
    highs.getObjectiveValue = lambda: fun
    monkeypatch.setattr(lp, "_solver", lambda: highs)
    with pytest.raises(InternalInconsistencyError, match="misses the constraints"):
        lp._solve(*_ONE_VARIABLE)


# A reused solver against a fresh one. ``lp._solver`` keeps one HiGHS instance
# per thread; the reference builds a new instance for every solve, as the
# package did before.


def _fresh_highs():
    highs = lp._Highs()
    highs.passOptions(lp._OPTIONS)
    return highs


_LP_FUNCTIONS = (lp.separation_margin, lp.interior_weight_margin, lp.soul_margin_lp, lp.soul_feasibility_lp)

# min -x subject to -x <= 0 with x free: unbounded, so _solve raises
_UNBOUNDED = (
    np.array([-1.0]), (np.array([0, 1]), np.array([0]), np.array([-1.0])), 1,
    np.zeros(1), np.full(1, -np.inf), np.full(1, np.inf), "an unbounded model",
)
# a NaN bound: HiGHS refuses to load the model, and _solve returns None
_UNLOADABLE = _UNBOUNDED[:4] + (np.full(1, np.nan),) + _UNBOUNDED[5:]


def _lp_models(u, functions=_LP_FUNCTIONS):
    """The models the given LP functions hand to ``_solve`` for the rows u."""
    models = []
    solve = lp._solve

    def record(*model):
        models.append(model)
        return solve(*model)

    with mock.patch.object(lp, "_solve", record):
        for f in functions:
            try:
                f(u)
            except InternalInconsistencyError:
                pass
    return models


def _solve_outcome(model):
    """``_solve``'s (fun, x) as float.hex strings, None, or the exception type."""
    try:
        res = lp._solve(*model)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return None if res is None else (float.hex(res[0]), [float.hex(v) for v in res[1]])


@settings(deadline=None, max_examples=40)
@given(
    sets=st.lists(
        st.tuples(
            st.integers(0, 2**31 - 1),
            st.sampled_from(["regular", "empty", "great_subsphere", "near_band", "boundary"]),
            st.integers(2, 6),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_a_reused_solver_gives_the_bits_of_a_fresh_one(sets):
    """Every model gives what a fresh instance gives, whatever was solved
    before it on this thread: an infeasible interior LP, a solve that raises
    and a model HiGHS refuses to load follow each set's four LPs."""
    models = []
    for seed, kind, n, near_copy in sets:
        rng = np.random.default_rng(seed)
        models += _lp_models(_direction_rows(rng, kind, n, near_copy))
        # one row off the origin: no weights sum it to zero
        models += _lp_models(_direction_rows(rng, "regular", n, False)[:1], [lp.interior_weight_margin])
        models += [_UNBOUNDED, _UNLOADABLE]
    reused = [_solve_outcome(model) for model in models]
    with mock.patch.object(lp, "_solver", _fresh_highs):
        fresh = [_solve_outcome(model) for model in models]
    assert reused == fresh
    assert None in reused and InternalInconsistencyError in reused


def _as_loaded(model, small):
    """The LP that ``_solve`` hands HiGHS for a recorded model, as HiGHS keeps
    it: -inf below the <= rows, and without the matrix entries of magnitude at
    most ``small_matrix_value`` (Gram entries of orthogonal rows, say), which
    HiGHS drops when it loads any model."""
    c, (start, index, value), n_ub, rhs, lb, ub, _ = model
    lhs = rhs.copy()
    lhs[:n_ub] = -np.inf
    keep = np.abs(value) > small
    return c, lb, ub, lhs, rhs, np.concatenate([[0], np.cumsum(keep)])[start], index[keep], value[keep]


_LOADED = ("cost", "col lower", "col upper", "row lower", "row upper", "start", "index", "value")


def _assert_each_lp_loads_what_it_built(u):
    """After each LP function the thread's solver holds that function's model:
    its arrays, colwise, minimised, no offset and every column continuous."""
    highs = lp._solver()
    small = highs.getOptionValue("small_matrix_value")[1]
    for f in _LP_FUNCTIONS:
        (model,) = _lp_models(u, [f])
        c, a, rhs = model[0], model[1], model[3]
        assert [v.dtype for v in a] == [np.int32, np.int32, np.float64], f.__name__
        got = highs.getLp()
        assert (got.num_col_, got.num_row_, got.a_matrix_.format_, got.sense_, got.offset_) == (
            c.size, rhs.size, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0
        )
        assert list(got.integrality_) == [HighsVarType.kContinuous] * c.size
        loaded = (
            got.col_cost_, got.col_lower_, got.col_upper_, got.row_lower_, got.row_upper_,
            got.a_matrix_.start_, got.a_matrix_.index_, got.a_matrix_.value_,
        )
        for name, have, want in zip(_LOADED, loaded, _as_loaded(model, small)):
            np.testing.assert_array_equal(np.asarray(have), want, err_msg=f"{f.__name__}: {name}")


@pytest.mark.parametrize("near_copy", [False, True])
@pytest.mark.parametrize("kind", ["regular", "empty", "great_subsphere", "near_band", "boundary"])
def test_each_lp_function_loads_the_model_it_built(kind, near_copy):
    """Read back with ``getLp``, the loaded model is the built one, over
    twelve seeded sets of each polar shape in dims 2-6."""
    rng = np.random.default_rng([len(kind), int(near_copy)])
    for i in range(12):
        _assert_each_lp_loads_what_it_built(_direction_rows(rng, kind, 2 + i % 5, near_copy))


@pytest.mark.parametrize("dim", range(1, 9))
def test_each_lp_function_loads_the_model_it_built_at_the_torus_origin(dim):
    _assert_each_lp_loads_what_it_built(TorusDistanceField(dim).up_set(np.zeros(dim)).directions)


@pytest.mark.parametrize("seed, n", [(2773, 5), (1902, 6)])
def test_a_set_presolve_leaves_without_a_verdict_is_classified(seed, n):
    """With presolve on, HiGHS (scipy 1.17) ends the interior LP of these
    great-subsphere near copies with "Not Set" (seed 2773) and "Unknown"
    (seed 1902, where a rerun of the loaded model stays "Unknown"); solved
    again without presolve, each reads as a great subsphere."""
    u = _direction_rows(np.random.default_rng(seed), "great_subsphere", n, True)
    report = classification_report(DirectionSet.from_vectors(u))
    assert (report["variant"], report["span_dim"]) == ("great_subsphere", 1)


class _OptionRecorder:
    """The thread's HiGHS instance, with every option it is set recorded."""

    def __init__(self, highs, options):
        self.highs, self.options = highs, options

    def __getattr__(self, name):
        return getattr(self.highs, name)

    def setOptionValue(self, name, value):
        self.options.append((name, value))
        return self.highs.setOptionValue(name, value)


def test_a_solve_after_a_retried_one_gives_the_bits_of_a_fresh_solver():
    """The retry turns presolve off for one solve: after the unbounded model,
    which has no verdict either way, and seed 1902's interior LP, every model
    gives the bits of a fresh instance, and presolve is on again."""
    retried = [_UNBOUNDED] + _lp_models(
        _direction_rows(np.random.default_rng(1902), "great_subsphere", 6, True), [lp.interior_weight_margin]
    )
    models = retried + [model for u in _threaded_sets()[:20] for model in _lp_models(u)]
    highs, options = lp._solver(), []
    with mock.patch.object(lp, "_solver", lambda: _OptionRecorder(highs, options)):
        reused = [_solve_outcome(model) for model in models]
    with mock.patch.object(lp, "_solver", _fresh_highs):
        fresh = [_solve_outcome(model) for model in models]
    assert reused == fresh
    assert options[:2] == [("presolve", "off"), ("presolve", "on")]
    assert highs.getOptionValue("presolve")[1] == "on"


def _threaded_sets():
    """50 sets that classify without ambiguity, of the four polar shapes."""
    rng = np.random.default_rng(11)
    kinds = ["regular", "empty", "great_subsphere", "boundary"]
    return [_direction_rows(rng, kinds[i % 4], 2 + i % 5, False) for i in range(50)]


def _run_threads(target, count):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)


def test_threads_solving_at_once_get_the_serial_bits():
    """Each thread solves on its own instance, so threads that switch often
    mid-sequence each get the serial run's results."""
    sets = _threaded_sets()

    def outcomes():
        return [_outcome(f, u) for u in sets for f in _LP_FUNCTIONS]

    serial = outcomes()
    results = [None] * 4
    start = threading.Barrier(len(results))

    def work(i):
        start.wait()
        results[i] = outcomes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(work, len(results))
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * len(results)


def test_each_thread_builds_one_solver(monkeypatch):
    """50 classification reports build one HiGHS instance per thread, not
    one per solve."""
    built = []

    def counting_highs():
        built.append(threading.get_ident())
        return lp._core._Highs()

    monkeypatch.setattr(lp, "_Highs", counting_highs)
    monkeypatch.setattr(lp, "_THREAD", threading.local())
    sets = [DirectionSet.from_vectors(u) for u in _threaded_sets()]

    def reports(_=None):
        for dirset in sets:
            classification_report(dirset)

    reports()
    _run_threads(reports, 1)
    assert len(built) == 2 and built[0] == threading.get_ident() != built[1]
