"""Flat-torus distance fields: exact values, critical points, connectivity."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import first_order_residual
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from subindex import lp
from subindex import torus as torus_module
from subindex.convexity import CERTIFIED_MARGIN, criticality_margin
from subindex.directions import DirectionSet
from subindex.errors import (
    AmbiguousClassificationError,
    InternalInconsistencyError,
    UnsupportedConfigurationError,
)
from subindex.torus import TorusDistanceField, reduce_point


def _coordinate_distance_oracle(x: np.ndarray) -> float:
    """Independent closed form for the centered single-point base.

    Per coordinate the nearest representative of 1/2 sits at distance
    min(|x - 1/2|, 1 - |x - 1/2|); the torus metric is the l2 norm of these.
    """
    d = np.abs(np.mod(x, 1.0) - 0.5)
    per_axis = np.minimum(d, 1.0 - d)
    return float(np.linalg.norm(per_axis))


def test_distance_at_corner():
    torus = TorusDistanceField(dim=2)
    assert torus.distance([0.0, 0.0]) == pytest.approx(math.sqrt(2) / 2)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 4))
def test_distance_matches_coordinate_oracle(seed: int, n: int):
    rng = np.random.default_rng(seed)
    torus = TorusDistanceField(dim=n)
    pts = rng.random((8, n)) * 3.0 - 1.0
    for x in pts:
        assert torus.distance(x) == pytest.approx(_coordinate_distance_oracle(x), abs=1e-12)


def test_distance_many_agrees_with_scalar():
    torus = TorusDistanceField(dim=3)
    rng = np.random.default_rng(5)
    pts = rng.random((50, 3))
    many = torus.distance_many(pts)
    singles = np.array([torus.distance(p) for p in pts])
    np.testing.assert_allclose(many, singles, atol=1e-14)


def test_up_set_at_edge_center_is_antipodal_pair():
    torus = TorusDistanceField(dim=2)
    ds = torus.up_set([0.5, 0.0])
    got = {tuple(np.round(d, 12)) for d in ds.directions}
    assert got == {(0.0, 1.0), (0.0, -1.0)}


def test_up_set_at_corner_has_four_diagonals():
    torus = TorusDistanceField(dim=2)
    ds = torus.up_set([0.0, 0.0])
    assert len(ds) == 4
    expected = {(s, t) for s in (-1, 1) for t in (-1, 1)}
    got = {tuple(np.sign(np.round(d, 12))) for d in ds.directions}
    assert got == expected


def test_up_set_rejects_base_point():
    torus = TorusDistanceField(dim=2)
    with pytest.raises(ValueError):
        torus.up_set([0.5, 0.5])


def test_classify_point_regular_returns_none():
    torus = TorusDistanceField(dim=2)
    assert torus.classify_point([0.3, 0.1]) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subcube_centers_have_expected_sub_index(n: int):
    """A candidate with j coordinates at 1/2 carries sub-index n - j."""
    torus = TorusDistanceField(dim=n)
    records = torus.enumerate_critical_points()
    assert len(records) == 2**n - 1
    for rec in records:
        half_coords = int(np.sum(np.isclose(rec.point, 0.5)))
        assert rec.sub_index == n - half_coords
        assert math.isfinite(rec.sub_index)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_betti_table_counts_are_binomial(n: int):
    table = TorusDistanceField(dim=n).betti_table()
    assert table == {lam: math.comb(n, lam) for lam in range(1, n + 1)}


def test_regularity_scan_passes_on_default_grid():
    # the scan refuses a tie tolerance at which its windows meet
    TorusDistanceField(dim=2).enumerate_critical_points()


def test_enumeration_requires_centered_base():
    torus = TorusDistanceField(dim=2, base=np.array([[0.25, 0.25]]))
    with pytest.raises(UnsupportedConfigurationError):
        torus.enumerate_critical_points()


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3))
def test_translation_invariance(seed: int, n: int):
    """Shifting base and query by the same vector changes nothing."""
    rng = np.random.default_rng(seed)
    shift = rng.random(n)
    x = rng.random(n)
    centered = TorusDistanceField(dim=n)
    shifted = TorusDistanceField(dim=n, base=reduce_point(0.5 + shift)[None, :])
    assert shifted.distance(x + shift) == pytest.approx(centered.distance(x), abs=1e-12)


def test_multi_point_base_takes_minimum():
    base = np.array([[0.25, 0.25], [0.75, 0.75]])
    torus = TorusDistanceField(dim=2, base=base)
    assert torus.distance([0.25, 0.25]) == 0.0
    assert torus.distance([0.25, 0.75]) == pytest.approx(0.5)


def test_first_order_residual_is_small_at_edge_center():
    torus = TorusDistanceField(dim=2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        res = first_order_residual(torus, [0.5, 0.0], v, t_min=1e-3, t_max=1e-1)
        assert res <= 2.0


def test_connectivity_guard_rejects_tiny_eps():
    torus = TorusDistanceField(dim=2)
    with pytest.raises(ValueError):
        torus.sublevel_connectivity(level=0.3, eps=0.001, grid=50)


def test_connectivity_at_regular_level_preserves_counts():
    torus = TorusDistanceField(dim=2)
    report = torus.sublevel_connectivity(level=0.3, eps=0.05, grid=120)
    assert report["counts_equal"]
    assert report["all_outer_meet_inner"]


def test_connectivity_near_maximum_level():
    # just below the top level sqrt(2)/2 the outer set is the whole torus
    torus = TorusDistanceField(dim=2)
    report = torus.sublevel_connectivity(level=math.sqrt(2) / 2, eps=0.05, grid=120)
    assert report["outer_components"] == 1
    assert report["all_outer_meet_inner"]


def test_scan_flags_planted_inconsistency():
    """A base off the lattice of symmetry must not silently pass the
    centered-only enumeration; the guard raises before scanning."""
    torus = TorusDistanceField(dim=1, base=np.array([[0.4]]))
    with pytest.raises(UnsupportedConfigurationError):
        torus.betti_table()


def test_enumeration_refuses_a_tie_tolerance_wider_than_the_gap(monkeypatch):
    """Were ``TIE_TOL`` 1 or more, the offsets -1 and 0 would tie at every
    coordinate up to 1/2, so the scan's window of ties would meet its window
    around 1/2: its invariant fails before any LP, and the candidates'
    undecided ties (margin 1 at (0, 1/2) for a tolerance of 1) are never
    reached."""
    monkeypatch.setattr(lp, "_solve", _no_solve)
    for n, tie_tol in ((2, 1.0), (3, 30.0)):
        monkeypatch.setattr(torus_module, "TIE_TOL", tie_tol)
        message = re.escape(f"at the tie tolerance {tie_tol} the scan's windows around 0 ({(tie_tol + 1e-12) / 2})")
        with pytest.raises(InternalInconsistencyError, match=message):
            TorusDistanceField(dim=n).betti_table()


def _no_solve(*args, **kwargs):
    raise AssertionError("an LP was solved")


def _meeting_tol(n: int) -> float:
    """The tie tolerance t at which the scan's windows meet, from
    (t + 1e-12) / 2 + CERTIFIED_MARGIN * sqrt(n/4 + t) = 1/2, a quadratic in
    u = sqrt(n/4 + t)."""
    u = math.sqrt(CERTIFIED_MARGIN**2 + 1.0 + n / 4 - 1e-12) - CERTIFIED_MARGIN
    return u * u - n / 4


@pytest.mark.parametrize("n", range(1, 6))
def test_betti_table_is_binomial_or_refused_before_any_lp(n: int, monkeypatch):
    """Across tie tolerances up to and around the one at which the scan's
    windows meet (about 1 - 2e-6 * sqrt(n/4 + 1)), the table is C(n, lambda)
    below it, and above it the scan's invariant fails before the first LP; no
    tolerance ends in a wrong table or an undecided tie."""
    solve = lp._solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "_solve", counted)
    meet = _meeting_tol(n)
    for tie_tol in [0.0, 1e-9, 1e-3, 0.05, 0.1, 0.3, 0.9, meet - 1e-9, meet + 1e-9, 1.0, 30.0]:
        monkeypatch.setattr(torus_module, "TIE_TOL", tie_tol)
        calls.clear()
        try:
            table = TorusDistanceField(dim=n).betti_table()
        except InternalInconsistencyError:
            assert not calls and tie_tol > meet, tie_tol
        else:
            assert tie_tol < meet, tie_tol
            assert table == {lam: math.comb(n, lam) for lam in range(1, n + 1)}, tie_tol


def test_one_point_blocks_give_identical_results(monkeypatch):
    rng = np.random.default_rng(17)
    fields = {n: TorusDistanceField(dim=n) for n in (1, 2, 3, 4)}
    points = {n: rng.random((37, n)) * 3.0 - 1.0 for n in fields}
    special = [(n, np.array(p)) for n in (2, 3) for p in ([0.5] * (n - 1) + [0.0], [0.0] * n)]

    def results():
        return (
            [fields[n].distance_many(points[n]) for n in fields],
            [fields[n].up_set(x).directions for n, x in special],
        )

    expected = results()
    monkeypatch.setattr(torus_module, "_BLOCK_ENTRIES", 1)
    for want, got in zip(expected, results()):
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)


def test_up_set_ceiling_admits_the_dim13_origin_and_refuses_dim14():
    # the origin has 2**dim tied translates; the ceiling is 2**13
    assert len(TorusDistanceField(dim=13).up_set(np.zeros(13))) == 2**13
    with pytest.raises(UnsupportedConfigurationError, match="16384 candidate translates"):
        TorusDistanceField(dim=14).up_set(np.zeros(14))


def test_up_set_members_are_unit_and_minimizing():
    torus = TorusDistanceField(dim=3)
    x = np.array([0.5, 0.5, 0.0])
    ds = torus.up_set(x)
    level = torus.distance(x)
    for d in ds.directions:
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
        # stepping toward the base along d reduces the distance linearly
        assert torus.distance(x + 1e-4 * d) == pytest.approx(level - 1e-4, abs=1e-6)


def test_internal_consistency_error_is_exposed():
    assert issubclass(InternalInconsistencyError, Exception)


def _reference_translates(field: TorusDistanceField, pts: np.ndarray):
    """Test-only copy of the full translate computation the product kernel
    replaced: ``diff[i, j]`` is translate j of {-1, 0, 1}^n (base-major,
    offsets in ``itertools.product`` order) minus point i, ``sq`` its squared
    norm."""
    offsets = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=field.dim)))
    targets = (field.base[:, None, :] + offsets[None, :, :]).reshape(-1, field.dim)
    diff = targets[None, :, :] - pts[:, None, :]
    return diff, (diff * diff).sum(axis=2)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 6),
    bases=st.integers(1, 3),
)
def test_product_kernel_matches_full_translates(seed: int, n: int, bases: int):
    """Distances bit for bit and up-set rows in order, against every translate;
    a gap to the excluded translates of at most TIE_TOL must be refused."""
    tie_tol = torus_module.TIE_TOL
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        base = rng.integers(0, 4, (bases, n)) / 4.0
    else:
        base = rng.random((bases, n))
    field = TorusDistanceField(dim=n, base=base)
    # random, quarter- and half-lattice points, and points within TIE_TOL of
    # a tie between translates of the first base point
    near_tie = base[0] + 0.5 * rng.integers(0, 2, (6, n)) + tie_tol * rng.uniform(-1.0, 1.0, (6, n))
    points = np.concatenate(
        [
            rng.random((6, n)) * 3.0 - 1.0,
            rng.integers(0, 4, (6, n)) / 4.0,
            rng.integers(0, 2, (6, n)) / 2.0,
            near_tie,
        ]
    )
    diff, sq = _reference_translates(field, reduce_point(points))
    np.testing.assert_array_equal(field.distance_many(points), np.sqrt(sq.min(axis=1)))
    for x, d, s in zip(points, diff, sq):
        ties = s <= s.min() + tie_tol
        gap = s[~ties].min(initial=np.inf) - s[ties].max()
        if s.min() < 1e-24:
            with pytest.raises(ValueError):
                field.up_set(x)
        elif gap <= tie_tol + 1e-12:
            with pytest.raises(AmbiguousClassificationError):
                field.up_set(x)
        else:
            rows = d[ties]
            want = DirectionSet(n, rows / np.linalg.norm(rows, axis=1)[:, None]).directions
            np.testing.assert_array_equal(field.up_set(x).directions, want)


def _whole_grid_scan(field: TorusDistanceField, grid: int):
    """The whole-grid regularity scan, as the oracle of the per-axis one. Yields ``(x, rows, summed, separated)`` for every
    grid point x off the candidates, in ``itertools.product`` order, with more
    than one tied translate: its tied rows from ``_reference_translates``,
    whether the summed direction certifies it regular, and whether one axis
    separates its tied directions with one strict sign by CERTIFIED_MARGIN."""
    axes = np.arange(grid) / grid
    points = np.array(list(itertools.product(axes, repeat=field.dim)))
    points = points[~np.all((points == 0.0) | (points == 0.5), axis=1)]
    for lo in range(0, len(points), 1000):
        block = points[lo : lo + 1000]
        diff, sq = _reference_translates(field, block)
        ties = sq <= (sq.min(axis=1) + torus_module.TIE_TOL)[:, None]
        point, row = np.nonzero(ties)
        dirs = diff[point, row] / np.sqrt(sq[point, row])[:, None]
        count = ties.sum(axis=1)
        start = np.cumsum(count) - count
        w = np.add.reduceat(dirs, start)
        scale = np.abs(w).max(axis=1)
        dots = np.einsum("kn,kn->k", dirs, w[point])
        summed = (scale > 0.0) & (np.minimum.reduceat(dots, start) >= CERTIFIED_MARGIN * scale)
        one_sign = np.logical_and.reduceat(dirs >= CERTIFIED_MARGIN, start) | np.logical_and.reduceat(
            dirs <= -CERTIFIED_MARGIN, start
        )
        separated = one_sign.any(axis=1)
        for i in np.flatnonzero(count > 1):
            yield block[i], diff[i][ties[i]], bool(summed[i]), bool(separated[i])


def _outside_the_windows(x: np.ndarray, tie: float, clear: float) -> np.ndarray:
    """Which coordinates of x lie outside both of the scan's windows."""
    return (np.minimum(x, 1.0 - x) > tie) & (np.abs(x - 0.5) >= clear)


def _candidate_gaps(x: np.ndarray):
    """The least and greatest candidate gap of each coordinate of x, as the
    grid scan formed them: the gaps (1/2 + k) - x to the offsets k within
    TIE_TOL (plus the prefilter's slack) of the axis minimum. The per-axis
    certificate holds where both have one sign and clear
    CERTIFIED_MARGIN * sqrt(n/4 + TIE_TOL)."""
    gaps = (0.5 + np.array([-1.0, 0.0, 1.0])) - x[:, None]
    terms = gaps * gaps
    cand = terms <= terms.min(axis=1, keepdims=True) + (torus_module.TIE_TOL + 1e-12)
    return np.where(cand, gaps, np.inf).min(axis=1), np.where(cand, gaps, -np.inf).max(axis=1)


@pytest.mark.parametrize("tie_tol", [0.0, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.9])
def test_scan_windows_are_where_the_per_axis_certificate_fails(tie_tol: float, monkeypatch):
    """In dims 1-8, on 200,000 uniform coordinates and 20,000 each within 1e-6
    of 0 and within 3e-6 of 1/2, a coordinate is certified exactly when it
    lies outside both windows that ``_scan`` returns, away from 1e-14 of
    their edges."""
    monkeypatch.setattr(torus_module, "TIE_TOL", tie_tol)
    rng = np.random.default_rng(0)
    x = np.concatenate(
        [rng.random(200_000), np.mod(rng.uniform(-1e-6, 1e-6, 20_000), 1.0), 0.5 + rng.uniform(-3e-6, 3e-6, 20_000)]
    )
    to_tie = np.abs(np.minimum(x, 1.0 - x) - (tie_tol + 1e-12) / 2)
    lo, hi = _candidate_gaps(x)
    for n in range(1, 9):
        tie, clear = TorusDistanceField(dim=n)._scan()
        far = np.minimum(to_tie, np.abs(np.abs(x - 0.5) - clear)) > 1e-14
        bound = CERTIFIED_MARGIN * math.sqrt(n / 4 + tie_tol)
        certified = ((lo >= bound) | (hi <= -bound))[far]
        outside = _outside_the_windows(x, tie, clear)[far]
        assert np.array_equal(outside, certified), (n, x[far][outside != certified][:3])


@pytest.mark.parametrize(
    "n, tie_tol", [*itertools.product(range(1, 6), (0.0, 1e-9, 1e-3)), (1, 1.0), (2, 1.0), (3, 1.0)]
)
def test_per_axis_scan_agrees_with_the_whole_grid_scan(n: int, tie_tol: float, monkeypatch):
    """On grids 3-9, where the scan's windows are disjoint, every grid point
    with a coordinate outside them is regular: one axis separates its tied
    directions, and the summed certificate or the LP gives it a margin of at
    least CERTIFIED_MARGIN. At TIE_TOL 1, where the windows meet, the scan
    refuses with no LP solved (translates that are not minimizing tie there),
    and the whole-grid scan finds a critical point off the candidates."""
    monkeypatch.setattr(torus_module, "TIE_TOL", tie_tol)
    solve, calls = lp._solve, []
    monkeypatch.setattr(lp, "_solve", lambda *args: calls.append(None) or solve(*args))
    field = TorusDistanceField(dim=n)
    try:
        windows = field._scan()
    except InternalInconsistencyError:
        windows = None
    assert not calls and (windows is None) == (tie_tol == 1.0)
    for grid in range(3, 10):
        critical = False
        for x, rows, summed, separated in _whole_grid_scan(field, grid):
            margin = None
            if not summed:
                margin = criticality_margin(DirectionSet(n, rows / np.linalg.norm(rows, axis=1)[:, None]))
                assert not lp.FEASIBILITY_MARGIN < margin < lp.AMBIGUITY_BAND
                critical |= margin <= lp.FEASIBILITY_MARGIN
            if windows is not None and _outside_the_windows(x, *windows).any():
                assert separated, (grid, x)
                assert summed or margin >= CERTIFIED_MARGIN, (grid, x, margin)
        assert windows is not None or critical, grid


@pytest.mark.parametrize("n", range(1, 13))
def test_grid_distances_equal_distance_many_bit_for_bit(n: int):
    """Past dim 7 numpy's ``.sum(-1)`` is pairwise, so only a gathered sum of
    the axis minima keeps ``distance_many``'s values."""
    bases = (None, np.random.default_rng(n).random((3, n)))
    for grid in [g for g in (2, 3, 7) if g**n <= 60_000]:
        points = np.array(list(itertools.product(np.arange(grid) / grid, repeat=n)))
        for field in (TorusDistanceField(dim=n, base=base) for base in bases):
            got = field._grid_distances(grid)
            assert got.shape == (grid,) * n
            assert np.array_equal(got.ravel(), field.distance_many(points))


def _reference_connectivity(field: TorusDistanceField, level: float, eps: float, grid: int) -> dict:
    """Test-only copy of the graph labelling the product route replaced: every
    grid node, with an edge to its wrapped successor on each axis when both
    ends lie in the sublevel."""
    axes = np.arange(grid) / grid
    mesh = np.meshgrid(*([axes] * field.dim), indexing="ij")
    dist = field.distance_many(np.stack([m.ravel() for m in mesh], axis=1))
    outer, inner = dist < level + eps, dist < level - eps
    idx = np.arange(dist.size).reshape((grid,) * field.dim)

    def labels(mask):
        src = np.concatenate([idx.ravel()] * field.dim)
        dst = np.concatenate([np.roll(idx, -1, axis=a).ravel() for a in range(field.dim)])
        keep = mask[src] & mask[dst]
        graph = coo_matrix((np.ones(keep.sum()), (src[keep], dst[keep])), shape=(dist.size, dist.size))
        return connected_components(graph, directed=False)[1]

    outer_labels = labels(outer)
    n_outer = np.unique(outer_labels[outer]).size
    n_inner = np.unique(labels(inner)[inner]).size
    meets = np.unique(outer_labels[inner]).size
    return {
        "level": float(level),
        "eps": float(eps),
        "grid": int(grid),
        "outer_components": int(n_outer),
        "inner_components": int(n_inner),
        "components_meeting_inner": int(meets),
        "all_outer_meet_inner": bool(meets == n_outer),
        "counts_equal": bool(n_outer == n_inner),
    }


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 4),
    bases=st.integers(1, 3),
    grid=st.integers(2, 30),
    level=st.floats(0.0, 1.1),
    past_guard=st.floats(1.0, 4.0, exclude_min=True),
)
def test_connectivity_matches_graph_labelling(seed, n, bases, grid, level, past_guard):
    field = TorusDistanceField(dim=n, base=np.random.default_rng(seed).random((bases, n)))
    guard = 2.0 * math.sqrt(n) / grid
    eps = past_guard * guard
    assume(eps > guard)
    assert field.sublevel_connectivity(level, eps, grid) == _reference_connectivity(field, level, eps, grid)


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(5, 8),
    bases=st.integers(1, 3),
    grid=st.integers(2, 4),
    inner_radius=st.floats(0.0, 1.5),
    past_guard=st.floats(1.0, 2.0, exclude_min=True),
)
def test_connectivity_past_four_axes_matches_graph_labelling(seed, n, bases, grid, inner_radius, past_guard):
    """Past four axes the labelled boxes are merged along the leading axes."""
    field = TorusDistanceField(dim=n, base=np.random.default_rng(seed).random((bases, n)))
    eps = past_guard * 2.0 * math.sqrt(n) / grid
    assume(eps > 2.0 * math.sqrt(n) / grid)
    level = inner_radius + eps
    assert field.sublevel_connectivity(level, eps, grid) == _reference_connectivity(field, level, eps, grid)


@pytest.mark.parametrize(
    "dim, base, level, eps, grid, counts",
    [
        # two balls of radius 0.15 whose centres are sqrt(1/2) apart
        (2, [[0.25, 0.25], [0.75, 0.75]], 0.1, 0.05, 100, (2, 2, 2)),
        # a ball cut by the seam x = 0: one component only once the wrap
        # faces are merged
        (2, [[0.02, 0.5]], 0.1, 0.05, 100, (1, 1, 1)),
        # two nodes, each the other's neighbour both ways; only 1/2 is inner
        (1, None, 1.2, 1.1, 2, (1, 1, 1)),
        (1, None, 0.0, 1.5, 2, (1, 0, 0)),
    ],
)
def test_connectivity_known_answers(dim, base, level, eps, grid, counts):
    field = TorusDistanceField(dim=dim, base=None if base is None else np.array(base))
    report = field.sublevel_connectivity(level, eps, grid)
    got = (report["outer_components"], report["inner_components"], report["components_meeting_inner"])
    assert got == counts
    assert report == _reference_connectivity(field, level, eps, grid)


@pytest.mark.parametrize("dim, grid, level, eps", [(18, 2, 5.1, 4.3), (11, 3, 2.75, 2.3), (9, 4, 1.9, 1.6)])
def test_connectivity_at_the_highest_admitted_dims(dim, grid, level, eps):
    """The ceiling admits grid 2 up to dim 18; labelling the full n-dim box
    would need a 3**dim structure and a 3**(dim-1) scan per line there. The
    inner sublevel is three balls, one around each base point."""
    field = TorusDistanceField(dim=dim, base=np.random.default_rng(dim).random((3, dim)))
    tracemalloc.start()
    try:
        report = field.sublevel_connectivity(level, eps, grid)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 256.0
    assert report["inner_components"] == 3
    assert report == _reference_connectivity(field, level, eps, grid)
