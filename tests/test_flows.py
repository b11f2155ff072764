"""Flows: join-coordinate gradient, linear drift, and the cutoff flow."""

from __future__ import annotations

import contextlib
import math
import signal
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    SphereSplit,
    gradient_like_check,
    hinge_angle,
    join_angle_and_gradient,
    join_right_triangle_residuals,
    right_triangle_residuals,
)
from scipy.integrate import quad, solve_ivp

from subindex import flows, lp
from subindex.directions import DirectionSet, min_angles_to_set
from subindex.errors import NotCriticalError, UnsupportedConfigurationError
from subindex.flows import (
    BumpProfile,
    _flow_x0,
    align_soul,
    arrival_bounds_many,
    cutoff_linear_flow,
    drift_length,
    flow_verify,
    perp_time,
    terminal_cap_angle_bound,
)
from subindex.sampling import circle_samples, covering_bound, fibonacci_sphere, sphere_samples

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
        d0 = min_angles_to_set(point[None], gamma4)[0]
        d1 = min_angles_to_set((moved / np.linalg.norm(moved))[None], gamma4)[0]
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
def test_shell_flow_matches_quadrature_oracle(seed: int, n: int, radius: float, scale: float):
    """Second route for the flow in the cutoff shell 1.5R <= |y| < 2R.

    x0 falls at rate f(sqrt(x0^2 + rho^2)), so the time to reach x0(t) from
    y0 is the integral of 1/f(sqrt(s^2 + rho^2)) over [x0(t), y0]; it is split
    where the segment crosses the core sphere, as a shell piece can be far
    shorter than the segment. x0 itself is exact only to a few ulps of R,
    which is worth 1/f(x0) times as much time: near 2R, where f underflows,
    the flow cannot move x0 at all.
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
    core = math.sqrt(max((1.5 * radius) ** 2 - rho**2, 0.0))
    for t, x0 in zip(ts, pts[:, 0]):
        crossings = [c for c in (-core, core) if x0 < c < y[0]] or None
        elapsed, _ = quad(
            lambda s: _inverse_rate(math.hypot(s, rho), radius), x0, y[0],
            epsabs=0.0, epsrel=1e-10, limit=200, points=crossings,
        )
        rounding = 4.0 * np.finfo(float).eps * radius * _inverse_rate(math.hypot(x0, rho), radius)
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
    assert bound.value >= alpha_true - 1e-12
    assert bound.value <= alpha_true + 2 * bound.mesh_slack + 1e-6
    assert bound.value < math.pi / 2


def test_terminal_cap_bound_2d():
    """On the circle the aligned set {-e1, +-e2} splits the cap into arcs;
    the farthest cap point from the set sits midway between -e1 and -e2."""
    canonical_2d = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    bound = terminal_cap_angle_bound(DirectionSet.from_vectors(canonical_2d))
    alpha_true = math.pi / 4
    assert alpha_true - 1e-12 <= bound.value <= alpha_true + 2 * bound.mesh_slack + 1e-9


@pytest.mark.parametrize(
    ("dim", "value"), [(2, float.fromhex("0x1.921fb54442d19p-1")), (3, float.fromhex("0x1.4f27c415f071ep+0"))]
)
def test_terminal_cap_bound_aligns_its_input(dim: int, value: float):
    """The unaligned canonical set gives, bit for bit, the bound that an
    aligned copy gave when the caller had to align it, and returns that copy."""
    canonical = np.zeros((3, dim))
    canonical[0, 0], canonical[1, 0], canonical[2, 1] = 1.0, -1.0, 1.0
    dirset = DirectionSet(dim=dim, directions=canonical)
    bound = terminal_cap_angle_bound(dirset)
    assert bound.value == value
    np.testing.assert_array_equal(bound.aligned.directions, align_soul(dirset)[1].directions)


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
