"""Flows: join-coordinate gradient, linear drift, and the cutoff flow."""

from __future__ import annotations

import contextlib
import math
import signal
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    SphereSplit,
    circle_samples,
    covering_bound,
    fibonacci_sphere,
    gradient_like_check,
    hinge_angle,
    join_angle_and_gradient,
    join_right_triangle_residuals,
    mesh_cap_bounds,
    min_angles_per_row,
    right_triangle_residuals,
    sphere_samples,
)
from scipy.integrate import IntegrationWarning, quad, solve_ivp
from scipy.spatial import cKDTree

from subindex import flows, lp
from subindex.directions import DirectionSet, min_angles_to_set, row_norms
from subindex.errors import (
    AmbiguousClassificationError,
    InternalInconsistencyError,
    NotCriticalError,
    UnsupportedConfigurationError,
)
from subindex.flows import (
    CAP_ALLOWANCE,
    COS_TERMINAL,
    BumpProfile,
    _cap_candidates,
    _flow_x0,
    align_soul,
    arrival_bounds_many,
    cutoff_linear_flow,
    drift_length,
    flow_verify,
    perp_time,
    terminal_cap_angle_bound,
)

CANONICAL = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def bump_trajectory(y, times: np.ndarray, radius: float) -> np.ndarray:
    """Points of the flow of -f(|x|) e1 from y at the given times, one row each."""
    y = np.asarray(y, dtype=float)
    points = np.tile(y, (times.size, 1))
    points[:, 0] = _flow_x0(y[None, :], times[None, :], radius)[0]
    return points


def bump_flow(y, duration: float, radius: float) -> np.ndarray:
    """The flow of -f(|x|) e1 from y for the given time."""
    return bump_trajectory(y, np.array([duration]), radius)[0]


def test_drift_length_values():
    assert drift_length(1.0) == pytest.approx(1 / math.sqrt(10))
    assert drift_length(4.0) == pytest.approx(4 / math.sqrt(10))


def test_sphere_split_roundtrip():
    point = np.array([0.6, 0.0, 0.8, 0.0])
    split = SphereSplit.from_point(point, p=1)
    np.testing.assert_allclose(split.point(), point, atol=1e-15)
    assert split.theta == pytest.approx(math.atan2(0.6, 0.8))


def test_sphere_split_rejects_singular_blocks():
    with pytest.raises(ValueError, match="factor sphere"):
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
        gamma_set = DirectionSet.from_vectors(gamma4)
        d0 = min_angles_to_set(point[None], gamma_set)[0]
        d1 = min_angles_to_set((moved / np.linalg.norm(moved))[None], gamma_set)[0]
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
    from oracles import NetHypothesisError

    sparse = DirectionSet.from_vectors(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(NetHypothesisError):
        gradient_like_check(sparse, p=1, q=0, alpha=0.1, samples=100, seed=1)


def _per_point_hinge_max(net: DirectionSet, p: int, q: int, samples: int, seed: int) -> float:
    """gradient_like_check's scan as a loop over sample points, with SphereSplit."""
    n = p + q + 2
    embedded = np.zeros((len(net), n))
    embedded[:, : p + 1] = net.directions
    max_hinge = 0.0
    for pt in sphere_samples(n, samples, seed=seed):
        try:
            split = SphereSplit.from_point(pt, p)
        except ValueError:  # on a factor sphere
            continue
        _, g = join_angle_and_gradient(split)
        dots = embedded @ pt
        for gamma in embedded[dots >= dots.max() - 1e-12]:
            rest = gamma - float(np.clip(pt @ gamma, -1.0, 1.0)) * pt
            tangent = rest / np.linalg.norm(rest)
            max_hinge = max(max_hinge, float(np.arccos(np.clip(g @ tangent, -1.0, 1.0))))
    return max_hinge


@pytest.mark.parametrize("p, q", [(1, 1), (1, 0), (2, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("seed", [0, 3])
def test_gradient_like_check_matches_the_per_point_loop(p: int, q: int, seed: int):
    net, alpha = {
        0: (DirectionSet.from_vectors(np.array([[1.0], [-1.0]])), 0.3),
        1: (DirectionSet.from_vectors(circle_samples(24)), 0.3),
        2: (DirectionSet.from_vectors(fibonacci_sphere(400)), 0.4),
    }[p]
    got = gradient_like_check(net, p, q, alpha, samples=1500, seed=seed)
    assert got == pytest.approx(_per_point_hinge_max(net, p, q, 1500, seed), abs=1e-12)


def test_linear_flow_moves_only_first_coordinate():
    y = np.array([0.4, -0.2, 0.1])
    out = bump_flow(y, 0.25, 1.0)  # the core of the bump flow, where it is linear
    np.testing.assert_allclose(out, [0.15, -0.2, 0.1], atol=1e-15)
    assert perp_time(y) == pytest.approx(0.4)
    assert perp_time(np.array([-0.4, 0.2, 0.0])) == 0.0


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


def _sampled_path_max(ys: np.ndarray, radius: float) -> np.ndarray:
    """The path bound as it was once computed: the largest |y| over 64 points
    of the flown segment [t_y, t_y + drift]."""
    t_y = np.maximum(0.0, ys[:, 0])
    ts = np.linspace(0.0, drift_length(radius), 64)
    first = ys[:, 0, None] - (t_y[:, None] + ts[None, :])
    rest_sq = (ys[:, 1:] ** 2).sum(axis=1)
    return np.sqrt(first**2 + rest_sq[:, None]).max(axis=1)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 8),
    log_radius=st.floats(-3.0, 3.0),
)
def test_path_bound_at_the_segment_end_equals_the_sampled_maximum(seed: int, n: int, log_radius: float):
    """The first coordinate starts at min(y0, 0) <= 0 and only falls, so the
    sampled maximum is the last sample, bit for bit; y0 = +0.0, -0.0 and
    negative rows are forced in."""
    radius = 10.0**log_radius
    rng = np.random.default_rng(seed)
    ys = rng.standard_normal((300, n))
    ys *= (radius * rng.random((300, 1)) ** (1 / n)) / np.linalg.norm(ys, axis=1, keepdims=True)
    ys[:20, 0] = 0.0
    ys[20:40, 0] = -0.0
    ys[40:60, 0] = -np.abs(ys[40:60, 0])
    norm_path_max = arrival_bounds_many(ys, radius)[1]
    np.testing.assert_array_equal(norm_path_max, _sampled_path_max(ys, radius))
    np.testing.assert_array_equal(perp_time(ys), [perp_time(y) for y in ys])


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
    """Bit for bit at the plateau edges, their neighbours and the far points,
    where the true values are exact, and a float for a float. Inside the shell
    the reference is a quotient of two mollifiers that underflow at small
    radii, so it is held to rtol 1e-13 only where it is normal, at R >= 1."""
    prof = BumpProfile.for_radius(radius)
    edges = np.array([prof.inner, prof.outer])
    special = np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [0.0, -radius, np.nan, np.inf, -np.inf]]
    )
    want = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, np.nan, 0.0, 1.0])
    assert np.array_equal(prof(special).view(np.uint64), want.view(np.uint64))
    for x, w in zip(special, want):
        got = prof(float(x))
        assert type(got) is float and np.float64(got).view(np.uint64) == w.view(np.uint64)
    if radius >= 1.0:
        r = np.random.default_rng(0).uniform(0.0, 2.5 * radius, 50_000)
        ref = _two_mollifier_profile(prof, r)
        normal = ref >= 1e-290
        np.testing.assert_allclose(prof(r[normal]), ref[normal], rtol=1e-13, atol=0.0)


def test_bump_profile_is_one_near_the_core_at_small_radii():
    """Where both mollifiers underflow, f is still the true value: the
    reciprocal of 1 + exp(1/(2R - r) - 1/(r - 1.5R)), not 0."""
    assert BumpProfile.for_radius(1e-3)(1.6e-3) == 1.0


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


def _inverse_rate(r: float, radius: float) -> float:
    """1/f(r) for the bump profile of the given radius, as the exponent
    difference of its two mollifiers, which stays finite where f underflows."""
    with np.errstate(divide="ignore", over="ignore"):
        return float(1.0 + np.exp(1.0 / np.maximum(2.0 * radius - r, 0.0) - 1.0 / np.maximum(r - 1.5 * radius, 0.0)))


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 5),
    radius=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    scale=st.floats(1.5, 1.99),
)
# a shell-to-core segment on which DOP853 at rtol 1e-9, atol 1e-10 is 1.33e-6 off in time
@example(seed=2991, n=2, radius=1.6968599341166142, scale=1.6266230908465225)
# near 2R x0 moves 2 ulps in the time 0.054, where quad warned and its value went unchecked
@example(seed=1108358225, n=4, radius=0.13631573368487418, scale=1.8607545698142527)
# at R 1e-3 the start sits on the layer where 1/f climbs from 1 to 2, which quad missed
@example(seed=0, n=2, radius=0.001, scale=1.75)
def test_shell_flow_matches_quadrature_oracle(seed: int, n: int, radius: float, scale: float):
    """Second route for the flow in the cutoff shell 1.5R <= |y| < 2R.

    x0 falls at rate f(sqrt(x0^2 + rho^2)), so the time to reach x0(t) from
    y0 is the integral of 1/f(sqrt(s^2 + rho^2)) over [x0(t), y0]. x0 itself
    is exact only to a few ulps of R, which is worth 1/f(x0) times as much
    time: near 2R, where f underflows, the flow cannot move x0 at all.

    quad is split where the segment crosses the core sphere, as a shell piece
    can be far shorter than the segment, and the spheres on which the exponent
    1/(2R - r) - 1/(r - 1.5R) of 1/f - 1 is 0, +-2, ..., +-32. That exponent
    scales as 1/R, so at small R 1/f climbs from 1 to 2 in a layer near
    r = 1.75R, which quad missed at an end of the segment (at seed 0, n 2,
    R 1e-3, scale 1.75 it came out 4.5e-8 short, with no warning). quad
    cannot split a segment only a few hundred floats long either, and warns
    there (seen up to 240 eps R), so a warning fails the test, no split falls
    within 4096 eps R of an end, and a shorter segment takes the trapezoid of
    its end values: on segments 16 times as long that met quad within 5e-13.
    """
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    y[0] = abs(y[0])
    y *= scale * radius / np.linalg.norm(y)
    ts = np.linspace(0.0, drift_length(radius) + y[0], 25)
    pts = bump_trajectory(y, ts, radius)
    assert np.array_equal(pts[:, 1:], np.tile(y[1:], (ts.size, 1)))
    assert np.all(np.diff(pts[:, 0]) <= 0)
    rho = float(np.linalg.norm(y[1:]))
    levels = [0.0] + [sign * 2.0**j for j in range(1, 6) for sign in (1.0, -1.0)]
    # the exponent is k at r = 1.75R + k R^2 / (4 (4 + sqrt(16 + k^2 R^2))), a root of a quadratic
    radii = [1.5 * radius]
    radii += [1.75 * radius + k * radius**2 / (4.0 * (4.0 + math.hypot(4.0, k * radius))) for k in levels]
    cuts = [c for r in radii if r > rho for c in (-math.sqrt(r * r - rho * rho), math.sqrt(r * r - rho * rho))]
    tiny = 4096 * np.finfo(float).eps * radius

    def rate(s: float) -> float:
        return _inverse_rate(math.hypot(s, rho), radius)

    for t, x0 in zip(ts, pts[:, 0]):
        if y[0] - x0 < tiny:
            elapsed = 0.5 * (y[0] - x0) * (rate(x0) + rate(y[0])) if y[0] > x0 else 0.0
        else:
            splits = sorted(c for c in cuts if x0 + tiny < c < y[0] - tiny) or None
            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                elapsed, _ = quad(rate, x0, y[0], epsabs=0.0, epsrel=1e-10, limit=200, points=splits)
        rounding = 4.0 * np.finfo(float).eps * radius * rate(x0)
        assert elapsed == pytest.approx(t, rel=1e-6, abs=rounding)


def _dop853_x0(y: np.ndarray, times: np.ndarray, radius: float) -> np.ndarray:
    """x0 along the flow by DOP853 at rtol 3e-14 on x0' = -f(hypot(x0, rho))."""
    profile = BumpProfile.for_radius(radius)
    rho = float(np.linalg.norm(y[1:]))
    sol = solve_ivp(
        lambda _t, x: -profile(np.hypot(x, rho)), (0.0, times[-1]), y[:1], method="DOP853",
        t_eval=times, rtol=3e-14, atol=1e-15 * radius,
    )
    assert sol.success, sol.message
    return sol.y[0]


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 5),
    radius=st.floats(0.5, 2.0),
    scale=st.floats(1.5, 1.95),
)
def test_shell_flow_matches_the_dop853_oracle(seed: int, n: int, radius: float, scale: float):
    """Third route: a tight adaptive ODE solve of the same flow, on rows of
    both signs of y0 and a flow time past the perpendicular foot."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    y *= scale * radius / np.linalg.norm(y)
    ts = np.linspace(0.0, drift_length(radius) + perp_time(y), 40)
    pts = bump_trajectory(y, ts, radius)
    np.testing.assert_allclose(pts[:, 0], _dop853_x0(y, ts, radius), rtol=0.0, atol=1e-11 * radius)


@pytest.mark.parametrize(("radius", "angle"), [(100.0, 1.2), (1e4, 0.6), (1e6, 0.0)])
def test_flow_towards_the_support_edge_converges(radius: float, angle: float):
    """A row at |y| = 1.992R flown outwards ends a few 1e-8 R from the edge,
    where 1/f explodes; plain Newton, bisecting only when it leaves the
    bracket, does not converge in 100 steps on these rows."""
    y = 1.992 * radius * np.array([-math.cos(angle), math.sin(angle)])
    ts = np.linspace(0.0, drift_length(radius), 40)
    pts = bump_trajectory(y, ts, radius)
    assert np.all(np.diff(pts[:, 0]) <= 0)
    assert pts[-1, 0] < y[0] - 0.005 * radius
    np.testing.assert_allclose(pts[:, 0], _dop853_x0(y, ts, radius), rtol=0.0, atol=1e-11 * radius)


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

    Rows are drawn in the f == 1 core, in the 1.5R-2R shell (the solved rows)
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


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in the main thread after ``seconds``, so a hang fails."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


_SHELL_POINT = np.array([1.7, 0.2])


@pytest.mark.parametrize(
    "call",
    [
        lambda: bump_flow(_SHELL_POINT, math.nan, 1.0),
        lambda: bump_flow(_SHELL_POINT, math.inf, 1.0),
        lambda: cutoff_linear_flow([[math.inf, 0.1]], 1.0, 1.0),
        lambda: cutoff_linear_flow([[math.inf, 0.1]], 0.0, 1.0),
        lambda: _flow_x0(_SHELL_POINT[None], np.array([[0.0, 0.5, math.inf]]), 1.0),
    ],
    ids=["nan-duration", "inf-duration", "inf-point", "inf-point-at-time-zero", "inf-trajectory"],
)
def test_flow_entry_points_refuse_non_finite_input_and_empty_trajectories(call):
    with _deadline(10.0), pytest.raises(ValueError):
        call()


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
    """For the canonical set, once aligned, the exact cap maximum is known."""
    bound = terminal_cap_angle_bound(DirectionSet.from_vectors(CANONICAL))
    alpha_true = math.acos(math.sqrt(1 / 11))
    assert alpha_true == pytest.approx(1.2645189576, abs=1e-9)
    assert alpha_true <= bound.value <= alpha_true + 2 * CAP_ALLOWANCE
    assert bound.value < math.pi / 2


def test_terminal_cap_bound_2d():
    """On the circle the aligned set {-e1, +-e2} splits the cap into arcs;
    the farthest cap point from the set sits midway between -e1 and -e2."""
    canonical_2d = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    bound = terminal_cap_angle_bound(DirectionSet.from_vectors(canonical_2d))
    alpha_true = math.pi / 4
    assert alpha_true <= bound.value <= alpha_true + 2 * CAP_ALLOWANCE


# the aligned polar region of +-e2, +-e3 and -e1 is {e1}; the cap maximum
# sits where -e1, +-e2 and +-e3 are equidistant, at the circumcentres (-1, +-1, +-1)/sqrt(3)
CIRCUMCENTRE_SET = [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]]


@pytest.mark.parametrize(
    ("vectors", "value"),
    [
        (CANONICAL[:, :2], math.pi / 4),
        (CANONICAL, math.acos(math.sqrt(1 / 11))),
        (CIRCUMCENTRE_SET, math.acos(math.sqrt(1 / 3))),
    ],
    ids=["canonical_2d", "canonical_3d", "circumcentre"],
)
def test_terminal_cap_bound_aligns_its_input(vectors, value: float):
    """The bound is the closed-form cap maximum within the allowance, and the
    aligned copy it returns is align_soul's."""
    dirset = DirectionSet.from_vectors(np.array(vectors))
    bound = terminal_cap_angle_bound(dirset)
    assert value <= bound.value <= value + 2 * CAP_ALLOWANCE
    np.testing.assert_array_equal(bound.aligned.directions, align_soul(dirset)[1].directions)


# rows in cap coordinates (the cap is z . e1 <= -sqrt(1/11)) and the largest
# smallest-angle over the cap; each comment names the candidate that attains it
RIM_ANGLE = math.acos(math.sqrt(1 / 11))  # from -e1 to the rim
CAP_CLOSED_FORMS = {
    # the antipode (-0.6, -0.8) is in the cap
    "antipode_2d": ([[0.6, 0.8]], math.pi),
    "antipode_3d": ([[0.6, 0.0, 0.8]], math.pi),
    # rows 120 degrees apart: the far point of their bisector, -e1 in dim 2
    "pair_2d": ([[0.5, 0.75**0.5], [0.5, -(0.75**0.5)]], 2 * math.pi / 3),
    # and (-0.6, 0.8, 0) in dim 3, the far midpoint
    "far_midpoint": ([[0.3, -0.4, 0.75**0.5], [0.3, -0.4, -(0.75**0.5)]], 2 * math.pi / 3),
    # the antipode -e2 is outside the cap: the rim point farthest from e2
    "rim_farthest_2d": ([[0.0, 1.0]], math.pi / 2 + RIM_ANGLE),
    "rim_farthest_3d": ([[0.0, 0.6, 0.8]], math.pi / 2 + RIM_ANGLE),
    # a row on the cap axis: the whole rim is at one angle from it
    "axis_row": ([[-1.0, 0.0, 0.0]], RIM_ANGLE),
    # an antipodal pair: pi/2 on their bisector, which meets the rim
    "antipodal_pair": ([[0.0, 0.6, 0.8], [0.0, -0.6, -0.8]], math.pi / 2),
    # -e1 and +-e2 aligned: the rim arc at RIM_ANGLE from -e1, ended by bisectors
    "canonical": ([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]], RIM_ANGLE),
    "circumcentre": (CIRCUMCENTRE_SET, math.acos(math.sqrt(1 / 3))),
}


@pytest.mark.parametrize("name", CAP_CLOSED_FORMS)
def test_cap_candidates_hold_the_closed_form_maximum(name: str):
    """Each candidate family, and both ends of an axis where the angle is
    constant, holds the largest smallest-angle over the cap for some rows."""
    rows, value = CAP_CLOSED_FORMS[name]
    dirset = DirectionSet.from_vectors(np.array(rows))
    points = _cap_candidates(dirset.directions)
    assert (points[:, 0] <= COS_TERMINAL + CAP_ALLOWANCE).all()
    np.testing.assert_allclose(row_norms(points), 1.0, rtol=0, atol=CAP_ALLOWANCE)
    assert float(min_angles_to_set(points, dirset).max()) == pytest.approx(value, rel=0, abs=CAP_ALLOWANCE)


def _boundary_rows(rng: np.random.Generator, dim: int) -> np.ndarray:
    """3-15 rows of a boundary-variant set in R^dim: a regular simplex about 0
    in a random proper subspace, rows on one side of a hyperplane through it,
    and up to two copies turned 1e-8 to 1e-6 rad off rows of either kind."""
    frame = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    k = int(rng.integers(1, dim))
    turns = 2.0 * math.pi * np.arange(k + 1) / (k + 1)
    simplex = frame[:, 0] * np.cos(turns)[:, None] + (frame[:, 1] * np.sin(turns)[:, None] if k == 2 else 0.0)
    side = rng.standard_normal((int(rng.integers(1, 13 - k)), dim))
    side -= np.outer(side @ frame[:, k], frame[:, k])
    side /= row_norms(side)[:, None]
    cos = rng.uniform(0.2, 1.0, (side.shape[0], 1))
    rows = np.vstack([simplex, cos * frame[:, k] + np.sqrt(1.0 - cos * cos) * side])
    for i in rng.integers(rows.shape[0], size=int(rng.integers(0, 3))):
        # turned inside the simplex's plane, or anywhere for a side row
        turn = frame[:, :k] @ rng.standard_normal(k) if i <= k else rng.standard_normal(dim)
        turn -= (turn @ rows[i]) * rows[i]
        if np.linalg.norm(turn) > 1e-3:
            angle = rng.uniform(1.01e-8, 1e-6)
            rows = np.vstack([rows, math.cos(angle) * rows[i] + math.sin(angle) * turn / np.linalg.norm(turn)])
    return rows


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]))
@example(seed=3194, dim=3)
def test_terminal_cap_bound_lies_between_the_mesh_bounds(seed: int, dim: int):
    """On boundary-variant sets, near-copies among them, the exact cap maximum
    is at least the largest angle over the mesh points of the cap and at most
    the bound from the cap dilated by the mesh's covering radius. The only
    other outcome is the documented refusal: seed 3194 in dim 3 leaves the
    soul 1.871e-9 outside the polar cone, inside the ambiguity band."""
    try:
        bound = terminal_cap_angle_bound(DirectionSet.from_vectors(_boundary_rows(np.random.default_rng(seed), dim)))
    except AmbiguousClassificationError:
        return
    lower, upper = mesh_cap_bounds(bound.aligned)
    # the dilated bound is exact when a maximiser sits midway between mesh
    # points; the exact maximum and the value's allowance each round by one allowance
    assert lower <= bound.value <= upper + 2 * CAP_ALLOWANCE


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]), count=st.integers(1, 8))
def test_cap_candidates_lie_between_the_mesh_bounds_for_any_rows(seed: int, dim: int, count: int):
    """For any rows, not only aligned ones, the largest angle over the
    candidates lies between the mesh bounds."""
    rows = np.random.default_rng(seed).standard_normal((count, dim))
    dirset = DirectionSet.from_vectors(rows / row_norms(rows)[:, None])
    exact = float(min_angles_to_set(_cap_candidates(dirset.directions), dirset).max())
    lower, upper = mesh_cap_bounds(dirset)
    assert lower <= exact + CAP_ALLOWANCE and exact <= upper + CAP_ALLOWANCE


@pytest.mark.parametrize(
    ("vectors", "error"),
    [
        ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
         UnsupportedConfigurationError),
        ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], UnsupportedConfigurationError),
        ([[1.0, 0.0], [0.0, 1.0]], NotCriticalError),
    ],
    ids=["empty", "great_subsphere", "regular"],
)
def test_terminal_cap_bound_refuses_sets_without_a_boundary(vectors, error):
    with pytest.raises(error):
        terminal_cap_angle_bound(DirectionSet.from_vectors(np.array(vectors)))


def test_terminal_cap_bound_unsupported_dimension():
    canonical_5d = np.zeros((3, 5))
    canonical_5d[0, 0] = 1.0
    canonical_5d[1, 0] = -1.0
    canonical_5d[2, 1] = 1.0
    with pytest.raises(UnsupportedConfigurationError):
        terminal_cap_angle_bound(DirectionSet.from_vectors(canonical_5d))


@pytest.mark.parametrize("largest, refused", [(math.pi / 2 - 2 * CAP_ALLOWANCE, False), (math.pi / 2, True)])
def test_terminal_cap_bound_at_pi_over_two_is_an_internal_inconsistency(monkeypatch, largest: float, refused: bool):
    """The aligned polar region lies in z . e1 >= -1e-9 and the cap maximum is
    exact, so no set reaches pi/2 (the largest value over the 597 bounded
    validation sets was 1.5399). A candidate maximum moved up to pi/2 is a
    broken invariant; one just below it still gives a bound."""
    monkeypatch.setattr(flows, "min_angles_to_set", lambda points, dirset: np.full(len(points), largest))
    dirset = DirectionSet.from_vectors(CANONICAL)
    if refused:
        with pytest.raises(InternalInconsistencyError, match="not below pi/2"):
            terminal_cap_angle_bound(dirset)
    else:
        assert terminal_cap_angle_bound(dirset).value == largest + CAP_ALLOWANCE


def test_arrivals_stay_within_certified_cap_angle():
    bound = terminal_cap_angle_bound(DirectionSet.from_vectors(CANONICAL))
    rng = np.random.default_rng(21)
    raw = rng.standard_normal((300, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    ys = raw * 0.999 * (rng.random((300, 1)) ** (1 / 3))
    for y in ys:
        z = cutoff_linear_flow(y, 1.0, 1.0)
        assert min_angles_to_set((z / np.linalg.norm(z))[None], bound.aligned)[0] <= bound.value + 1e-9


@pytest.mark.parametrize(("dim", "solves"), [(2, 4), (3, 4), (4, 0), (5, 0)])
def test_flow_verify_classifies_the_cap_set_once(monkeypatch, dim: int, solves: int):
    """One classification decides the cap certificate: one LP of each kind in
    dimensions 2 and 3, and none where the certificate is skipped."""
    kinds = Counter()
    solve = lp._solve

    def counting(*args):
        kinds[args[-1]] += 1
        return solve(*args)

    monkeypatch.setattr(lp, "_solve", counting)
    flow_verify(dim, 1.0, 50, seed=0, trajectories=False)
    assert sum(kinds.values()) == solves
    assert set(kinds.values()) <= {1}


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


def test_fibonacci_covering_bound_holds_at_the_cap_count():
    """The dim-3 mesh bounds on the cap sample 100,000 points; 200,000 random
    probes sit within the declared covering radius of that mesh."""
    mesh = sphere_samples(3, 100_000)
    probes = np.random.default_rng(0).standard_normal((200_000, 3))
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    chord = float(cKDTree(mesh).query(probes)[0].max())
    assert 2.0 * math.asin(min(1.0, chord / 2.0)) <= covering_bound(3, 100_000)


def test_terminal_cap_bound_refuses_dim_4_before_classifying(monkeypatch):
    """Outside dims 2 and 3 the cap bound is refused before any LP."""
    solved = []
    monkeypatch.setattr(lp, "_solve", lambda *args: solved.append(args))
    canonical_4d = np.zeros((3, 4))
    canonical_4d[:2, 0] = 1.0, -1.0
    canonical_4d[2, 1] = 1.0
    with pytest.raises(UnsupportedConfigurationError):
        terminal_cap_angle_bound(DirectionSet.from_vectors(canonical_4d))
    assert solved == []


def test_terminal_cap_bound_refuses_rows_past_its_ceiling(monkeypatch):
    """A set past the row ceiling is refused before any LP, and one at the
    ceiling is bounded."""
    turns = np.linspace(0.0, math.pi, flows._MAX_CAP_ROWS - 1)
    arc = np.column_stack([-np.sin(turns), np.cos(turns), np.zeros_like(turns)])  # e2 through -e1 to -e2
    at_ceiling = DirectionSet.from_vectors(np.vstack([arc, [[-0.5, 0.0, -(0.75**0.5)]]]))
    assert len(at_ceiling) == flows._MAX_CAP_ROWS
    assert terminal_cap_angle_bound(at_ceiling).value < math.pi / 2
    solved = []
    monkeypatch.setattr(lp, "_solve", lambda *args: solved.append(args))
    with pytest.raises(UnsupportedConfigurationError, match="limit"):
        terminal_cap_angle_bound(DirectionSet.from_vectors(np.vstack([at_ceiling.directions, [[0.0, 0.0, -1.0]]])))
    assert solved == []


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("radius", [1e-3, 1.0, 1e100])
@pytest.mark.parametrize("seed", range(4))
def test_angle_kernel_matches_its_references_on_flow_verify_traffic(monkeypatch, dim, radius, seed):
    """On the cap candidates and on flow_verify's arrivals the angle kernel
    equals the product per row and the gemm it replaced, bit for bit, and the
    report's cap bound and worst angle slack follow from the reference."""
    calls = []
    kernel = flows.min_angles_to_set

    def recording(vs, dirset):
        calls.append((vs, dirset))
        return kernel(vs, dirset)

    monkeypatch.setattr(flows, "min_angles_to_set", recording)
    report, _ = flow_verify(dim, radius, 1000, seed=seed, trajectories=False)
    (cap, aligned), (arrivals, arrival_set) = calls
    assert arrival_set is aligned and cap.shape[0] > 0 and arrivals.shape == (1000, dim)
    for vs in (cap, arrivals):
        np.testing.assert_array_equal(kernel(vs, aligned), min_angles_per_row(vs, aligned))
    gemm = np.arccos(np.clip(cap @ aligned.directions.T, -1.0, 1.0)).min(axis=1)
    np.testing.assert_array_equal(kernel(cap, aligned), gemm)
    cap_bound = float(min_angles_per_row(cap, aligned).max()) + CAP_ALLOWANCE
    assert report["angle_certificate"]["cap_bound"] == cap_bound
    slack = float((cap_bound - min_angles_per_row(arrivals, aligned) + 1e-9).min())
    assert report["suites"]["omega_angle"]["worst_slack"] == slack


@pytest.mark.parametrize(
    "dim, radius, samples",
    [(1, 1.0, 5), (2, 0.0, 5), (2, math.nan, 5), (2, math.inf, 5), (2, 1.0, 0)],
)
def test_flow_verify_refuses_arguments_out_of_domain(dim, radius, samples):
    with pytest.raises(ValueError):
        flow_verify(dim, radius, samples, seed=0, trajectories=False)


def test_arrival_suites_allow_the_rounding_at_large_radii(monkeypatch):
    """On 200,000 points of the axis of B(0, 1e50) the exit slack rounds to
    about -5e33 on 84,586 points, all of which an absolute 1e-12 counted as
    violations; the allowance of a few ulps of R + R/sqrt(10) counts none."""
    radius = 1e50
    ys = np.zeros((200_000, 2))
    ys[:, 0] = np.random.default_rng(0).uniform(-radius, radius, ys.shape[0])
    slack_exit = arrival_bounds_many(ys, radius)[5]
    assert np.count_nonzero(slack_exit < -1e-12) == 84_586 and slack_exit.min() < -5e33
    draws = [ys, flows._ball_samples]  # the arrival suites draw first, on the axis

    def on_axis_first(*args):
        return draws.pop(0) if len(draws) > 1 else draws[0](*args)

    monkeypatch.setattr(flows, "_ball_samples", on_axis_first)
    report, _ = flow_verify(2, radius, ys.shape[0], seed=0, trajectories=False)
    suites = report["suites"]
    assert suites["arrive_exit"]["worst_slack"] == slack_exit.min()
    assert [suites[name]["violations"] for name in ("arrive_cos", "arrive_path", "arrive_exit")] == [0, 0, 0]


@pytest.mark.parametrize("slack, counted", [(-1e-16, False), (-1e-12, True)])
def test_arrival_allowance_at_unit_radius_is_no_looser_than_1e_12(slack, counted, monkeypatch):
    """At R = 1 rounding is allowed, but a slack of -1e-12, the edge of the
    old absolute tolerance, is a violation in each arrival suite."""
    def slacks(ys, radius):
        values = np.full(ys.shape[0], slack)
        return (values,) * 6

    monkeypatch.setattr(flows, "arrival_bounds_many", slacks)
    report, _ = flow_verify(2, 1.0, 50, seed=0, trajectories=False)
    counts = [report["suites"][name]["violations"] for name in ("arrive_cos", "arrive_path", "arrive_exit")]
    assert counts == [50 * counted] * 3


@pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
def test_flow_verify_trajectories_match_per_row_flows(radius: float):
    """The CSV equals, bit for bit, each trajectory flown on its own: 40
    times from 0 to its perpendicular-foot time plus the drift, one
    ``_flow_x0`` row each, every value written with repr."""
    _, text = flow_verify(3, radius, 50, seed=2, trajectories=True)
    lines = text.splitlines()
    want = [lines[0]]
    for start in range(1, len(lines), 40):
        y = np.array([float(v) for v in lines[start].split(",")[1:]])
        ts = np.linspace(0.0, drift_length(radius) + perp_time(y), 40)
        x0 = _flow_x0(y[None], ts[None], radius)[0]
        want += [",".join([repr(float(t)), repr(float(x))] + [repr(float(v)) for v in y[1:]]) for t, x in zip(ts, x0)]
    assert lines == want


def test_flow_verify_returns_trajectories_only_when_asked():
    report, text = flow_verify(3, 1.0, 50, seed=4, trajectories=False)
    assert text is None and report["passed"] is True
    again, text = flow_verify(3, 1.0, 50, seed=4, trajectories=True)
    assert again == report
    lines = text.splitlines()
    assert lines[0] == "t,x1,x2,x3" and len(lines) == 1 + 10 * 40
