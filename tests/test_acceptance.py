"""End-to-end acceptance suite.

One test per contracted criterion; each emits a single PASS/FAIL line (visible
with -s, and mirrored by pytest's own per-test verdict under -v). Tolerances
and sample counts are stated inline and are not to be loosened.
"""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
from oracles import (
    first_order_residual,
    gradient_like_check,
    join_right_triangle_residuals,
    right_triangle_residuals,
    sampling_oracle_classify,
)
from test_lp import euclidean_hull_distance

from subindex.convexity import (
    PolarVariant,
    classify_polar_region,
    is_critical,
)
from subindex.directions import DirectionSet, min_angles_to_set
from subindex.errors import AmbiguousClassificationError
from subindex.flows import (
    arrival_bounds_many,
    cutoff_linear_flow,
    drift_length,
    terminal_cap_angle_bound,
)
from subindex.jacobi import (
    JacobiField,
    ModelGeodesic,
    PiecewiseJacobi,
    index_divergence,
    index_form_boundary,
    index_form_quadrature,
    lagrange_wronskian,
)
from subindex.sampling import circle_samples, covering_bound
from subindex.torus import TorusDistanceField


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_torus_ground_truth():
    """Counts by sub-index match binomial coefficients for n = 1..5."""
    start = time.perf_counter()
    all_ok = True
    for n in range(1, 6):
        torus = TorusDistanceField(dim=n)
        table = torus.betti_table()
        expected = {lam: math.comb(n, lam) for lam in range(1, n + 1)}
        all_ok &= table == expected
        for rec in torus.enumerate_critical_points():
            half = int(np.sum(np.isclose(rec.point, 0.5)))
            all_ok &= rec.sub_index == n - half
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 5.0
    assert _verdict(
        "criterion 1 torus ground truth",
        ok,
        f"n=1..5 counts binomial, sub-index n-k at k-subcube centers, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_classifier_oracle_agreement():
    """LP verdicts match the 10^4-sample oracle outside the resolution band."""
    rng = np.random.default_rng(424242)
    total, ambiguous, band_excused, hard_disagreements = 0, 0, 0, 0
    while total < 500:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 9))
        if n == 1:
            raw = rng.choice([-1.0, 1.0], size=(m, 1))
        else:
            raw = rng.standard_normal((m, n))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        ds = DirectionSet.from_vectors(raw)
        total += 1
        try:
            lp_says = is_critical(ds)
        except AmbiguousClassificationError:
            ambiguous += 1
            continue
        oracle_says, _ = sampling_oracle_classify(ds, samples=10_000, margin=1e-2, seed=0)
        if lp_says == oracle_says:
            continue
        # the only excusable split: oracle failed to find a separating
        # witness whose angular margin, asin of the Euclidean distance to the
        # hull (which the LP's L1 margin only bounds from above), is below
        # its resolution
        band = 1e-2 + covering_bound(n, 10_000)
        separation = math.asin(min(1.0, euclidean_hull_distance(ds.directions)))
        if (not lp_says) and oracle_says and separation <= band:
            band_excused += 1
        else:
            hard_disagreements += 1
    ok = hard_disagreements == 0 and total >= 500
    assert _verdict(
        "criterion 2 classifier vs oracle",
        ok,
        f"{total} sets, {ambiguous} ambiguous-band, {band_excused} inside sampling band, "
        f"{hard_disagreements} hard disagreements",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_arrival_inequalities():
    """cos angle, path, and exit bounds hold with slack >= -1e-12 at 10^4 points."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = math.inf
    count = 0
    for n in (2, 3, 5):
        raw = rng.standard_normal((10_000, n))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        ys = raw * (rng.random((10_000, 1)) ** (1.0 / n)) * 0.9999
        ys = ys[np.linalg.norm(ys, axis=1) > 1e-9]
        count += len(ys)
        _, _, _, s_cos, s_path, s_exit = arrival_bounds_many(ys, 1.0)
        worst = min(worst, float(s_cos.min()), float(s_path.min()), float(s_exit.min()))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and elapsed < 1.0
    assert _verdict(
        "criterion 3 arrival bounds",
        ok,
        f"{count} points over n=2,3,5, worst slack {worst:.2e}, {elapsed:.3f}s",
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_cutoff_flow_suite():
    """Identity outside support, exit bound, and certified terminal angles."""
    rng = np.random.default_rng(13)
    radius = 1.0
    drift = drift_length(radius)

    outside = rng.standard_normal((200, 3))
    outside /= np.linalg.norm(outside, axis=1, keepdims=True)
    outside *= 2.0 * radius + rng.random((200, 1))
    identity_exact = all(
        np.array_equal(cutoff_linear_flow(y, 1.0, radius), y) for y in outside
    )

    raw = rng.standard_normal((1000, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    ys = raw * (rng.random((1000, 1)) ** (1 / 3)) * 0.9999
    arrivals = np.array([cutoff_linear_flow(y, 1.0, radius) for y in ys])
    norms = np.linalg.norm(arrivals, axis=1)
    exit_ok = bool(np.all(norms >= drift - 1e-8))

    bound = terminal_cap_angle_bound(
        DirectionSet.from_vectors(
            np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 1.0, 0.0]])
        )
    )
    angles = min_angles_to_set(arrivals / norms[:, None], bound.aligned)
    angle_ok = bool(np.all(angles <= bound.value + 1e-9))

    ok = identity_exact and exit_ok and angle_ok
    assert _verdict(
        "criterion 4 cutoff flow",
        ok,
        f"identity exact={identity_exact}, min |arrival|={norms.min():.6f} vs {drift:.6f}, "
        f"max angle {angles.max():.4f} <= certified {bound.value:.4f}",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_right_triangles_and_hinges():
    """Spherical right-triangle identity to 1e-10; hinge angles acute."""
    res_join = join_right_triangle_residuals(p=1, q=1, count=5000, seed=2)
    res_generic = right_triangle_residuals(dim=4, count=5000, seed=3)
    residual_ok = float(res_join.max()) < 1e-10 and float(res_generic.max()) < 1e-10

    net = DirectionSet.from_vectors(circle_samples(24))
    worst_hinge = gradient_like_check(net, p=1, q=1, alpha=0.3, samples=2000, seed=1)
    hinge_ok = worst_hinge < math.pi / 2

    ok = residual_ok and hinge_ok
    assert _verdict(
        "criterion 5 right triangles",
        ok,
        f"max residual {max(res_join.max(), res_generic.max()):.2e}, "
        f"worst hinge {worst_hinge:.4f} < pi/2",
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_index_divergence():
    """Cutoff-field index values match the closed form and diverge."""
    geo = ModelGeodesic(curvature=1.0, length=math.pi, frame_dim=1)
    eps = 0.1
    oracle = (
        -math.cos(eps) / math.sin(eps)
        - math.sin(eps)
        + math.tan(eps / 2) * (math.cos(eps) - 1.0)
    )
    got = float(index_divergence(geo, [1.0], [eps])[0])
    oracle_ok = abs(got - oracle) < 1e-6

    seq = index_divergence(geo, [1.0], [2.0**-k for k in range(3, 13)])
    monotone_ok = bool(np.all(np.diff(seq) < 0)) and seq[-1] < -1e3

    ok = oracle_ok and monotone_ok
    assert _verdict(
        "criterion 6 index divergence",
        ok,
        f"I(0.1)={got:.7f} vs {oracle:.7f}, strictly decreasing to {seq[-1]:.1f}",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_index_form_cross_check():
    """Quadrature and boundary-term routes agree to 1e-8; Lagrange to 1e-10."""
    rng = np.random.default_rng(31)
    worst_gap = 0.0
    for kappa in (-1.0, 0.0, 1.0):
        geo = ModelGeodesic(curvature=kappa, length=2.0, frame_dim=2)
        for _ in range(100):
            fields = []
            for _ in range(2):
                brk = float(rng.uniform(0.3, 1.7))
                f0 = JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
                f1 = JacobiField.from_two_point(
                    kappa, brk, f0.value(brk), 2.0, rng.standard_normal(2)
                )
                fields.append(
                    PiecewiseJacobi(breaks=np.array([0.0, brk, 2.0]), fields=(f0, f1))
                )
            v, w = fields
            gap = abs(index_form_quadrature(geo, v, v) - index_form_boundary(v, v))
            worst_gap = max(worst_gap, gap)

    worst_spread = 0.0
    for kappa in (-1.0, 0.0, 1.0):
        for _ in range(30):
            p = JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
            n = JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
            spread = float(np.ptp(lagrange_wronskian(p, n, np.linspace(0, 2, 9))))
            worst_spread = max(worst_spread, spread)

    ok = worst_gap < 1e-8 and worst_spread < 1e-10
    assert _verdict(
        "criterion 7 index-form cross-check",
        ok,
        f"max route gap {worst_gap:.2e} (<1e-8), max wronskian spread {worst_spread:.2e} (<1e-10)",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_sublevel_connectivity():
    """Components of the outer sublevel all meet the inner one at critical
    levels; counts match across the gap at a regular level."""
    torus = TorusDistanceField(dim=2)
    start = time.perf_counter()
    critical_ok = True
    for level in (0.5, math.sqrt(2) / 2):
        report = torus.sublevel_connectivity(level=level, eps=0.05, grid=400)
        critical_ok &= report["all_outer_meet_inner"]
    regular = torus.sublevel_connectivity(level=0.3, eps=0.05, grid=400)
    regular_ok = bool(regular["counts_equal"])
    elapsed = time.perf_counter() - start
    ok = critical_ok and regular_ok and elapsed < 2.0
    assert _verdict(
        "criterion 8 sublevel connectivity",
        ok,
        f"critical levels bridge the gap={critical_ok}, regular level counts equal={regular_ok}, "
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_first_order_law():
    """|dist - linear model| / t^2 <= 2 on t in [1e-3, 1e-1] at all critical
    points of T^2 and T^3, 100 random directions each."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for n in (2, 3):
        torus = TorusDistanceField(dim=n)
        for rec in torus.enumerate_critical_points():
            for _ in range(100):
                v = rng.standard_normal(n)
                v /= np.linalg.norm(v)
                res = first_order_residual(
                    torus, rec.point, v, t_min=1e-3, t_max=1e-1, steps=24
                )
                worst = max(worst, res)
    ok = worst <= 2.0
    assert _verdict(
        "criterion 9 first-order law",
        ok,
        f"max normalized residual {worst:.4f} <= 2 over all critical points of T^2, T^3",
    )


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_direction_set_build_time():
    """A DirectionSet of 2000 random rows in R^8 builds in under 1 s."""
    rng = np.random.default_rng(2000)
    raw = rng.standard_normal((2000, 8))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    start = time.perf_counter()
    ds = DirectionSet.from_vectors(raw)
    elapsed = time.perf_counter() - start
    ok = len(ds) == 2000 and elapsed < 1.0
    assert _verdict(
        "criterion 10 direction set build time",
        ok,
        f"m=2000 rows in R^8, {len(ds)} kept, built in {elapsed:.3f}s < 1s",
    )


# ---------------------------------------------------------------- criterion 11


def test_criterion_11_regularity_scan_memory():
    """The default dim-6 enumeration, regularity scan included, peaks below
    256 MB of traced allocations."""
    tracemalloc.start()
    try:
        records = TorusDistanceField(dim=6).enumerate_critical_points()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    ok = len(records) == 2**6 - 1 and peak < 256.0
    assert _verdict(
        "criterion 11 regularity scan memory",
        ok,
        f"dim 6, {len(records)} critical points, traced peak {peak:.0f} MB < 256 MB",
    )


# --------------------------------------------------------------- criterion 12


def test_criterion_12_torus_dim7_table():
    """The dim-7 table, regularity scan included, is C(7, lambda) in under 5 s."""
    start = time.perf_counter()
    table = TorusDistanceField(dim=7).betti_table()
    elapsed = time.perf_counter() - start
    ok = table == {lam: math.comb(7, lam) for lam in range(1, 8)} and elapsed < 5.0
    assert _verdict(
        "criterion 12 torus dim-7 table",
        ok,
        f"counts {table}, {elapsed:.2f}s < 5 s",
    )


# --------------------------------------------------------------- criterion 13


def test_criterion_13_polar_region_memory_at_the_dim12_origin():
    """Classifying the 4096 directions at the dim-12 torus origin peaks below
    32 MB of traced allocations (the interior LP's dense m x m block alone
    was 128 MB)."""
    dirset = TorusDistanceField(dim=12).up_set(np.zeros(12))
    tracemalloc.start()
    try:
        region = classify_polar_region(dirset)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    ok = len(dirset) == 2**12 and region.variant is PolarVariant.EMPTY and peak < 32.0
    assert _verdict(
        "criterion 13 polar region memory",
        ok,
        f"dim 12 origin, {len(dirset)} directions, {region.variant.value}, traced peak {peak:.1f} MB < 32 MB",
    )


# --------------------------------------------------------------- criterion 14


def test_criterion_14_default_dim8_table_memory():
    """The default dim-8 table is C(8, lambda) and peaks below 8 MB of traced
    allocations: the regularity scan decides each axis on the 1-D grid, where
    the 390,624 points of the 5**8 grid alone would take 25 MB."""
    tracemalloc.start()
    try:
        table = TorusDistanceField(dim=8).betti_table()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    ok = table == {lam: math.comb(8, lam) for lam in range(1, 9)} and peak < 8.0
    assert _verdict(
        "criterion 14 default dim-8 table memory",
        ok,
        f"counts {table}, traced peak {peak:.1f} MB < 8 MB",
    )
