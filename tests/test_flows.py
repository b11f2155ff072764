"""Flows: join-coordinate gradient, linear drift, and the cutoff flow."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subindex.directions import DirectionSet, angle, min_angle_to_set
from subindex.errors import SingularSplitError, UnsupportedConfigurationError
from subindex.flows import (
    BumpProfile,
    SphereSplit,
    align_soul,
    arrival_bounds,
    arrival_bounds_many,
    bump_flow,
    bump_flow_trajectory,
    cutoff_linear_flow,
    drift_length,
    flow_verify,
    gradient_like_check,
    hinge_angle,
    join_angle_and_gradient,
    join_right_triangle_residuals,
    linear_flow,
    linear_flow_rates,
    perp_time,
    right_triangle_residuals,
    terminal_cap_angle_bound,
)
from subindex.sampling import circle_samples, covering_bound, fibonacci_sphere

CANONICAL = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_drift_length_values():
    assert drift_length(1.0) == pytest.approx(1 / math.sqrt(10))
    assert drift_length(4.0) == pytest.approx(4 / math.sqrt(10))


def test_sphere_split_roundtrip():
    point = np.array([0.6, 0.0, 0.8, 0.0])
    split = SphereSplit.from_point(point, p=1)
    np.testing.assert_allclose(split.point(), point, atol=1e-15)
    assert split.theta == pytest.approx(math.atan2(0.6, 0.8))


def test_sphere_split_rejects_singular_blocks():
    with pytest.raises(SingularSplitError):
        SphereSplit.from_point(np.array([1.0, 0.0, 0.0, 0.0]), p=1)


def _geodesic_step(point: np.ndarray, tangent: np.ndarray, h: float) -> np.ndarray:
    # tangent is unit and orthogonal to point, so this stays on the sphere
    return point * math.cos(h) + tangent * math.sin(h)


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**31 - 1),
    p=st.integers(1, 2),
    q=st.integers(0, 2),
)
def test_join_gradient_grows_the_split_angle_at_unit_rate(seed: int, p: int, q: int):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(p + 1)
    y = rng.standard_normal(q + 1)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    theta = rng.uniform(0.2, math.pi / 2 - 0.2)
    split = SphereSplit(p=p, q=q, x=x, y=y, theta=theta)
    point = split.point()
    got_theta, grad = join_angle_and_gradient(split)
    assert got_theta == pytest.approx(theta)
    assert abs(grad @ point) < 1e-12
    assert np.linalg.norm(grad) == pytest.approx(1.0)

    h = 1e-6
    moved = SphereSplit.from_point(_geodesic_step(point, grad, h), p=p)
    assert (moved.theta - theta) / h == pytest.approx(1.0, abs=1e-5)
    # distance to the first-block sphere is pi/2 - theta: unit decrease
    dist_before = math.pi / 2 - theta
    dist_after = math.pi / 2 - moved.theta
    assert (dist_after - dist_before) / h == pytest.approx(-1.0, abs=1e-5)


def test_join_gradient_reverses_along_negative_direction():
    split = SphereSplit(
        p=1, q=1, x=np.array([1.0, 0.0]), y=np.array([0.0, 1.0]), theta=0.7
    )
    theta, grad = join_angle_and_gradient(split)
    h = 1e-6
    moved = SphereSplit.from_point(_geodesic_step(split.point(), -grad, h), p=1)
    assert (moved.theta - theta) / h == pytest.approx(-1.0, abs=1e-5)


def test_distance_to_target_decreases_at_hinge_rate():
    """Moving along the gradient closes on first-block targets at cos(hinge)."""
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        gamma4 = np.zeros(4)
        gamma4[:2] = rng.standard_normal(2)
        gamma4[:2] /= np.linalg.norm(gamma4[:2])
        split = SphereSplit(
            p=1,
            q=1,
            x=x,
            y=np.array([0.0, 1.0]),
            theta=rng.uniform(0.3, 1.2),
        )
        point = split.point()
        _, grad = join_angle_and_gradient(split)
        hinge = hinge_angle(point, gamma4, _geodesic_step(point, grad, 1e-7))
        h = 1e-6
        moved = _geodesic_step(point, grad, h)
        d0 = angle(point, gamma4)
        d1 = angle(moved / np.linalg.norm(moved), gamma4)
        assert (d1 - d0) / h == pytest.approx(-math.cos(hinge), abs=1e-4)


def test_right_triangle_residuals_are_tiny():
    res = join_right_triangle_residuals(p=1, q=1, count=500, seed=2)
    assert res.max() < 1e-10
    res = right_triangle_residuals(dim=4, count=500, seed=3)
    assert res.max() < 1e-10


def test_gradient_like_check_fine_circle_net():
    # the net lives on the first factor sphere S^1 (covering radius pi/24)
    net = DirectionSet.from_vectors(circle_samples(24))
    worst = gradient_like_check(net, p=1, q=1, alpha=0.3, samples=400, seed=1)
    assert worst < math.pi / 2


def test_gradient_like_check_rejects_sparse_net():
    from subindex.errors import NetHypothesisError

    sparse = DirectionSet.from_vectors(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(NetHypothesisError):
        gradient_like_check(sparse, p=1, q=0, alpha=0.1, samples=100, seed=1)


def test_linear_flow_moves_only_first_coordinate():
    y = np.array([0.4, -0.2, 0.1])
    out = linear_flow(y, 0.25)
    np.testing.assert_allclose(out, [0.15, -0.2, 0.1], atol=1e-15)
    assert perp_time(y) == pytest.approx(0.4)
    assert perp_time(np.array([-0.4, 0.2, 0.0])) == 0.0


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5))
def test_linear_flow_rates_match_finite_differences(seed: int, n: int):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    if np.linalg.norm(y) < 0.3:
        y = y + 0.5
    d_norm, d_cos = linear_flow_rates(y)
    h = 1e-6
    before, after = linear_flow(y, -h), linear_flow(y, h)
    fd_norm = (np.linalg.norm(after) - np.linalg.norm(before)) / (2 * h)
    cos_angle = lambda z: z[0] / np.linalg.norm(z)
    fd_cos = (cos_angle(after) - cos_angle(before)) / (2 * h)
    assert d_norm == pytest.approx(fd_norm, abs=1e-6)
    assert d_cos == pytest.approx(fd_cos, abs=1e-6)


def test_linear_flow_rates_reject_origin():
    with pytest.raises(ValueError):
        linear_flow_rates(np.zeros(3))


def test_arrival_bounds_on_seeded_ball():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        raw = rng.standard_normal((200, n))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        ys = raw * (rng.random((200, 1)) ** (1 / n))
        ys = ys[np.linalg.norm(ys, axis=1) > 1e-9] * 0.999
        _, _, _, s_cos, s_path, s_exit = arrival_bounds_many(ys, 1.0)
        assert s_cos.min() >= -1e-12
        assert s_path.min() >= -1e-12
        assert s_exit.min() >= -1e-12


def test_arrival_bounds_single_matches_batch():
    y = np.array([0.3, -0.1, 0.2])
    single = arrival_bounds(y, 1.0)
    batch = arrival_bounds_many(y[None, :], 1.0)
    assert single.cos_final == pytest.approx(float(batch[0][0]), abs=1e-14)
    assert single.slack_exit == pytest.approx(float(batch[5][0]), abs=1e-14)


def test_arrival_bounds_reject_outside_ball():
    with pytest.raises(ValueError):
        arrival_bounds(np.array([2.0, 0.0]), 1.0)


def test_bump_profile_exact_plateaus():
    prof = BumpProfile.for_radius(1.0)
    assert prof(np.array([0.0, 0.5, 1.5]))[2] == 1.0
    assert np.all(prof(np.array([0.0, 1.49, 1.5])) == 1.0)
    assert np.all(prof(np.array([2.0, 2.5, 10.0])) == 0.0)
    mid = prof(np.array([1.6, 1.7, 1.8, 1.9]))
    assert np.all((0 < mid) & (mid < 1))
    assert np.all(np.diff(mid) < 0)


def test_bump_profile_smooth_at_edges():
    prof = BumpProfile.for_radius(1.0)
    h = 1e-4
    for edge in (1.5, 2.0):
        left = (prof(edge) - prof(edge - h)) / h
        right = (prof(edge + h) - prof(edge)) / h
        assert abs(left) < 1e-3 and abs(right) < 1e-3


def _two_mollifier_profile(prof: BumpProfile, r: np.ndarray) -> np.ndarray:
    """The profile as the masked quotient of two mollifiers exp(-1/s), s > 0."""

    def mollifier(s):
        out = np.zeros_like(s)
        with np.errstate(over="ignore"):
            out[s > 0] = np.exp(-1.0 / s[s > 0])
        return out

    num = mollifier(prof.outer - r)
    den = num + mollifier(r - prof.inner)
    vals = np.zeros_like(r)
    vals[den > 0] = num[den > 0] / den[den > 0]
    vals[r <= prof.inner] = 1.0
    vals[r >= prof.outer] = 0.0
    return vals


@pytest.mark.parametrize("radius", [1e-4, 1e-2, 1.0, 50.0])
def test_bump_profile_matches_the_two_mollifier_reference_bit_for_bit(radius: float):
    prof = BumpProfile.for_radius(radius)
    edges = np.array([prof.inner, prof.outer])
    special = np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [0.0, -radius, np.nan, np.inf, -np.inf]]
    )
    r = np.concatenate([np.random.default_rng(0).uniform(0.0, 2.5 * radius, 50_000), special])
    want = _two_mollifier_profile(prof, r)
    assert np.array_equal(prof(r).view(np.uint64), want.view(np.uint64))
    for x, w in zip(special, want[-special.size :]):
        got = prof(float(x))
        assert type(got) is float and np.float64(got).view(np.uint64) == w.view(np.uint64)


def test_bump_flow_identity_outside_support_is_exact():
    y = np.array([2.5, 0.3, -0.1])
    out = bump_flow(y, duration=5.0, radius=1.0)
    assert np.array_equal(out, y)


def test_bump_flow_closed_form_in_core():
    y = np.array([0.2, 0.1])
    out = bump_flow(y, duration=0.3, radius=1.0)
    np.testing.assert_allclose(out, [-0.1, 0.1], atol=1e-12)


def test_bump_flow_composition_in_transition_region():
    """Autonomous field: flowing d1 then d2 equals flowing d1 + d2."""
    y = np.array([1.7, 0.4, 0.2])
    one = bump_flow(y, duration=0.5, radius=1.0)
    two = bump_flow(one, duration=0.3, radius=1.0)
    direct = bump_flow(y, duration=0.8, radius=1.0)
    np.testing.assert_allclose(two, direct, atol=1e-8)


def test_bump_flow_only_moves_first_coordinate():
    y = np.array([1.7, 0.4, 0.2])
    out = bump_flow(y, duration=0.6, radius=1.0)
    np.testing.assert_allclose(out[1:], y[1:], atol=1e-12)
    assert out[0] < y[0]


def test_bump_flow_trajectory_shapes():
    ts, pts = bump_flow_trajectory(np.array([1.7, 0.0]), 0.5, 1.0, steps=12)
    assert ts.shape == (12,)
    assert pts.shape == (12, 2)
    assert np.all(np.diff(pts[:, 0]) <= 1e-15)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 5),
    radius=st.floats(0.5, 2.0),
    scale=st.floats(1.5, 1.8),
)
def test_shell_flow_matches_quadrature_oracle(seed: int, n: int, radius: float, scale: float):
    """Second route for the ODE path in the cutoff shell 1.5R <= |y| < 2R.

    x0 falls at rate f(sqrt(x0^2 + rho^2)), so the time to reach x0(t) from
    y0 is the integral of 1/f(sqrt(s^2 + rho^2)) over [x0(t), y0].
    """
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    y[0] = abs(y[0])
    y *= scale * radius / np.linalg.norm(y)
    ts, pts = bump_flow_trajectory(y, drift_length(radius) + y[0], radius, steps=25)
    assert np.array_equal(pts[:, 1:], np.tile(y[1:], (ts.size, 1)))
    assert np.all(np.diff(pts[:, 0]) <= 0)
    profile = BumpProfile.for_radius(radius)
    rho = float(np.linalg.norm(y[1:]))
    for t, x0 in zip(ts, pts[:, 0]):
        elapsed, _ = quad(
            lambda s: 1.0 / profile(math.hypot(s, rho)), x0, y[0], epsabs=0.0, epsrel=1e-10, limit=200
        )
        assert elapsed == pytest.approx(t, rel=1e-6)


def test_cutoff_flow_time_zero_is_identity():
    y = np.array([0.3, 0.2])
    np.testing.assert_allclose(cutoff_linear_flow(y, 0.0, 1.0), y, atol=1e-15)


def test_cutoff_flow_reaches_drifted_endpoint():
    y = np.array([0.3, 0.2])
    expected = y - (perp_time(y) + drift_length(1.0)) * np.array([1.0, 0.0])
    np.testing.assert_allclose(cutoff_linear_flow(y, 1.0, 1.0), expected, atol=1e-12)


_REGIMES = {"core": (0.0, 1.5), "shell": (1.5, 2.0), "outside": (2.0, 3.0)}


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 6),
    radius=st.floats(0.5, 2.0),
    t=st.floats(0.0, 1.0),
    regimes=st.lists(st.sampled_from(sorted(_REGIMES)), min_size=1, max_size=6),
)
def test_stacked_cutoff_flow_matches_per_row_calls(seed, n, radius, t, regimes):
    """A (k, dim) stack flows bit for bit like its rows one at a time.

    Rows are drawn in the f == 1 core, in the 1.5R-2R shell (the ODE rows)
    and outside 2R; the per-point definition through ``bump_flow`` is a
    second reference.
    """
    rng = np.random.default_rng(seed)
    ys = rng.standard_normal((len(regimes), n))
    scales = [rng.uniform(*_REGIMES[r]) * radius for r in regimes]
    ys *= np.array(scales)[:, None] / np.linalg.norm(ys, axis=1, keepdims=True)
    stacked = cutoff_linear_flow(ys, t, radius)
    assert stacked.shape == ys.shape
    per_row = np.array([cutoff_linear_flow(y, t, radius) for y in ys])
    by_definition = np.array(
        [bump_flow(y, (perp_time(y) + drift_length(radius)) * t, radius) for y in ys]
    )
    np.testing.assert_array_equal(stacked, per_row)
    np.testing.assert_array_equal(stacked, by_definition)
    one_row = cutoff_linear_flow(ys[:1], t, radius)
    assert one_row.shape == (1, n)
    np.testing.assert_array_equal(one_row[0], cutoff_linear_flow(ys[0], t, radius))


def test_cutoff_flow_rejects_deeper_stacks():
    with pytest.raises(ValueError):
        cutoff_linear_flow(np.zeros((2, 2, 2)), 1.0, 1.0)


def test_align_soul_canonical_set():
    ds = DirectionSet.from_vectors(CANONICAL)
    q, aligned = align_soul(ds)
    np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-12)
    soul_col = q @ np.array([0.0, -1.0, 0.0])
    np.testing.assert_allclose(soul_col, [1.0, 0.0, 0.0], atol=1e-9)
    assert len(aligned) == 3


def test_align_soul_rejects_boundaryless_sets():
    ds = DirectionSet.from_vectors(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    with pytest.raises(UnsupportedConfigurationError):
        align_soul(ds)


def test_terminal_cap_bound_brackets_analytic_value():
    """For the aligned canonical set the exact cap maximum is known."""
    _, aligned = align_soul(DirectionSet.from_vectors(CANONICAL))
    bound = terminal_cap_angle_bound(aligned)
    alpha_true = math.acos(math.sqrt(1 / 11))
    assert alpha_true == pytest.approx(1.2645189576, abs=1e-9)
    assert bound.value >= alpha_true - 1e-12
    assert bound.value <= alpha_true + 2 * bound.mesh_slack + 1e-6
    assert bound.value < math.pi / 2


def test_terminal_cap_bound_2d():
    """On the circle the aligned set {-e1, +-e2} splits the cap into arcs;
    the farthest cap point from the set sits midway between -e1 and -e2."""
    canonical_2d = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    _, aligned = align_soul(DirectionSet.from_vectors(canonical_2d))
    bound = terminal_cap_angle_bound(aligned)
    alpha_true = math.pi / 4
    assert alpha_true - 1e-12 <= bound.value <= alpha_true + 2 * bound.mesh_slack + 1e-9


def test_terminal_cap_bound_unsupported_dimension():
    canonical_5d = np.zeros((3, 5))
    canonical_5d[0, 0] = 1.0
    canonical_5d[1, 0] = -1.0
    canonical_5d[2, 1] = 1.0
    _, aligned = align_soul(DirectionSet.from_vectors(canonical_5d))
    with pytest.raises(UnsupportedConfigurationError):
        terminal_cap_angle_bound(aligned)


def test_arrivals_stay_within_certified_cap_angle():
    _, aligned = align_soul(DirectionSet.from_vectors(CANONICAL))
    bound = terminal_cap_angle_bound(aligned)
    rng = np.random.default_rng(21)
    raw = rng.standard_normal((300, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    ys = raw * 0.999 * (rng.random((300, 1)) ** (1 / 3))
    for y in ys:
        z = cutoff_linear_flow(y, 1.0, 1.0)
        assert min_angle_to_set(z / np.linalg.norm(z), aligned) <= bound.value + 1e-9


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31 - 1))
def test_fibonacci_covering_bound_is_honest(seed: int):
    """Random sphere points sit within the declared covering radius of the mesh."""
    rng = np.random.default_rng(seed)
    mesh = fibonacci_sphere(4000)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    nearest = float(np.arccos(np.clip(mesh @ v, -1.0, 1.0)).min())
    assert nearest <= covering_bound(3, 4000)


@pytest.mark.parametrize(
    "dim, radius, samples, tol",
    [(1, 1.0, 5, 0.0), (2, 0.0, 5, 0.0), (2, math.nan, 5, 0.0), (2, math.inf, 5, 0.0),
     (2, 1.0, 0, 0.0), (2, 1.0, 5, -1.0), (2, 1.0, 5, math.nan), (2, 1.0, 5, math.inf)],
)
def test_flow_verify_refuses_arguments_out_of_domain(dim, radius, samples, tol):
    with pytest.raises(ValueError):
        flow_verify(dim, radius, samples, seed=0, tol=tol, trajectories=False)


def test_flow_verify_returns_trajectories_only_when_asked():
    report, text = flow_verify(3, 1.0, 50, seed=4, tol=1e-12, trajectories=False)
    assert text is None and report["passed"] is True
    again, text = flow_verify(3, 1.0, 50, seed=4, tol=1e-12, trajectories=True)
    assert again == report
    lines = text.splitlines()
    assert lines[0] == "t,x1,x2,x3" and len(lines) == 1 + 10 * 40
