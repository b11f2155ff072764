"""Sphere-join geometry and the cut-off linear flow with its arrival bounds.

Two geometric devices live here. The first is join coordinates on a round
sphere split as S^p * S^q: every point off the two factor spheres is
P = (X sin t, Y cos t) with X in S^p, Y in S^q and split angle t in (0, pi/2).
The split angle grows at unit rate along g = (X cos t, -Y sin t), which is
also the direction of steepest descent for the distance to the first factor
sphere, and for any direction set U inside S^p the distance to U falls along
g at rate cos of the hinge angle at P between X and the nearest member of U.

The second device is the linear flow y -> y - t*e1 together with a smooth
radial cutoff, used to push a ball B(0, R) into the cone of directions making
angle >= some terminal bound with e1. All the quantitative bounds carry the
constants sqrt(1/11) (terminal cosine) and R/sqrt(10) (drift length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .convexity import PolarVariant, classify_polar_region
from .directions import DirectionSet, angle, min_angles_to_set, row_norms
from .errors import (
    IntegrationFailureError,
    InternalInconsistencyError,
    NetHypothesisError,
    SingularSplitError,
    UnsupportedConfigurationError,
)
from .sampling import covering_bound, sphere_samples

COS_TERMINAL = -math.sqrt(1.0 / 11.0)
BLOCK_TOL = 1e-6  # distance to a factor sphere below which splits are refused
ODE_ATOL = 1e-10  # tolerances of the scalar cutoff-flow ODE
ODE_RTOL = 1e-9
PATH_SAMPLES = 64  # points per trajectory at which the arrival path bound is sampled


def drift_length(radius: float) -> float:
    """Extra flow time past the perpendicular foot: R/sqrt(10)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return radius / math.sqrt(10.0)


# --------------------------------------------------------------------------
# join coordinates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereSplit:
    """Join coordinates of a sphere point relative to the block split
    R^n = R^(p+1) x R^(q+1)."""

    p: int
    q: int
    x: np.ndarray
    y: np.ndarray
    theta: float

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("factor dimensions must be nonnegative")
        if not 0.0 < self.theta < math.pi / 2:
            raise ValueError("split angle must lie strictly between 0 and pi/2")
        for v, d, name in ((self.x, self.p, "x"), (self.y, self.q, "y")):
            v = np.asarray(v, float)
            if v.shape != (d + 1,):
                raise ValueError(f"{name} must have shape ({d + 1},)")
            if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError(f"{name} must be a unit vector")

    @classmethod
    def from_point(cls, point, p: int) -> "SphereSplit":
        point = np.asarray(point, dtype=float)
        n = point.shape[0]
        q = n - p - 2
        if q < 0:
            raise ValueError("point dimension too small for the requested split")
        if abs(np.linalg.norm(point) - 1.0) > 1e-9:
            raise ValueError("point must lie on the unit sphere")
        first, second = point[: p + 1], point[p + 1 :]
        a, b = float(np.linalg.norm(first)), float(np.linalg.norm(second))
        if a < BLOCK_TOL or b < BLOCK_TOL:
            raise SingularSplitError(
                "point lies on a factor sphere; join coordinates are undefined"
            )
        return cls(p=p, q=q, x=first / a, y=second / b, theta=math.atan2(a, b))

    def point(self) -> np.ndarray:
        return np.concatenate(
            [self.x * math.sin(self.theta), self.y * math.cos(self.theta)]
        )


def join_angle_and_gradient(split: SphereSplit) -> tuple[float, np.ndarray]:
    """Split angle and the unit tangent direction along which it grows.

    The returned vector g = (X cos t, -Y sin t) is tangent to the sphere at
    the split's point; the split angle increases at unit rate along g, and
    the distance to the first factor sphere S^p decreases at unit rate.
    """
    g = np.concatenate(
        [split.x * math.cos(split.theta), -split.y * math.sin(split.theta)]
    )
    return split.theta, g


def _tangent_toward(origin: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Unit tangent at ``origin`` of the minimal great-circle arc to ``target``."""
    c = float(np.clip(origin @ target, -1.0, 1.0))
    rest = target - c * origin
    norm = float(np.linalg.norm(rest))
    if norm < 1e-14:
        raise ValueError("tangent direction undefined at coincident or antipodal points")
    return rest / norm


def hinge_angle(vertex: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Angle at ``vertex`` between the geodesics toward ``a`` and toward ``b``."""
    ta = _tangent_toward(vertex, a)
    tb = _tangent_toward(vertex, b)
    return float(np.arccos(np.clip(ta @ tb, -1.0, 1.0)))


def gradient_like_check(
    net: DirectionSet,
    p: int,
    q: int,
    alpha: float,
    samples: int = 2000,
    seed: int = 0,
) -> float:
    """Largest hinge angle between the split direction and the nearest net member.

    ``net`` must be an alpha-net of S^p (every point of S^p within angle alpha
    of the set); the check then scans sphere points off the factor spheres and
    returns the maximal angle at P between the tangent toward X and the tangent
    toward the nearest net member. The contract is that this stays strictly
    below pi/2, which makes the split direction gradient-like for the distance
    to the net.
    """
    if net.dim != p + 1:
        raise ValueError("net dimension must match the first factor sphere")
    if not 0 < alpha < math.pi / 2:
        raise ValueError("alpha must lie in (0, pi/2)")
    n = p + q + 2
    probe = sphere_samples(p + 1, 20_000)
    worst = float(min_angles_to_set(probe, net).max())
    slack = covering_bound(p + 1, probe.shape[0]) if p + 1 <= 3 else 0.0
    if worst + slack >= alpha:
        raise NetHypothesisError(
            f"net is not an alpha-net of the factor sphere "
            f"(sampled max {worst:.4f} + mesh {slack:.4f} >= alpha {alpha:.4f})"
        )
    embedded = np.zeros((len(net), n))  # the net, padded with zeros to R^n
    embedded[:, : p + 1] = net.directions
    points = sphere_samples(n, samples, seed=seed)
    max_hinge = 0.0
    for pt in points:
        try:
            split = SphereSplit.from_point(pt, p)
        except SingularSplitError:
            continue
        _, g = join_angle_and_gradient(split)
        dots = embedded @ pt
        best = float(dots.max())
        for idx in np.nonzero(dots >= best - 1e-12)[0]:
            gamma = embedded[idx]
            tangent = _tangent_toward(pt, gamma)
            h = float(np.arccos(np.clip(g @ tangent, -1.0, 1.0)))
            max_hinge = max(max_hinge, h)
    return max_hinge


def join_right_triangle_residuals(
    p: int, q: int, count: int, seed: int = 0
) -> np.ndarray:
    """|cos d(G,P) - cos d(G,X) cos d(X,P)| over random split points P and
    random vertices G on the first factor sphere.

    The hinge at X between the arc to G (inside S^p) and the meridian to P is
    right, so the spherical Pythagoras identity must hold to rounding error.
    """
    rng = np.random.default_rng(seed)
    n = p + q + 2
    xs = rng.standard_normal((count, p + 1))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    ys = rng.standard_normal((count, q + 1))
    ys /= np.linalg.norm(ys, axis=1)[:, None]
    thetas = rng.uniform(0.05, math.pi / 2 - 0.05, count)
    gammas = rng.standard_normal((count, p + 1))
    gammas /= np.linalg.norm(gammas, axis=1)[:, None]
    p_pts = np.concatenate(
        [xs * np.sin(thetas)[:, None], ys * np.cos(thetas)[:, None]], axis=1
    )
    g_pts = np.zeros((count, n))
    g_pts[:, : p + 1] = gammas
    x_pts = np.zeros((count, n))
    x_pts[:, : p + 1] = xs
    cos_gp = np.clip((g_pts * p_pts).sum(axis=1), -1, 1)
    cos_gx = np.clip((g_pts * x_pts).sum(axis=1), -1, 1)
    cos_xp = np.clip((x_pts * p_pts).sum(axis=1), -1, 1)
    return np.abs(cos_gp - cos_gx * cos_xp)


def right_triangle_residuals(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Same identity on generic right triangles built from orthonormal tangents."""
    if dim < 3:
        raise ValueError("need dim >= 3 for a nondegenerate spherical triangle")
    rng = np.random.default_rng(seed)
    out = np.empty(count)
    for i in range(count):
        c = rng.standard_normal(dim)
        c /= np.linalg.norm(c)
        t1 = rng.standard_normal(dim)
        t1 -= (t1 @ c) * c
        t1 /= np.linalg.norm(t1)
        t2 = rng.standard_normal(dim)
        t2 -= (t2 @ c) * c
        t2 -= (t2 @ t1) * t1
        t2 /= np.linalg.norm(t2)
        a, b = rng.uniform(0.1, 1.4, 2)
        pa = c * math.cos(a) + t1 * math.sin(a)
        pb = c * math.cos(b) + t2 * math.sin(b)
        out[i] = abs(float(np.clip(pa @ pb, -1, 1)) - math.cos(a) * math.cos(b))
    return out


# --------------------------------------------------------------------------
# the linear flow and its arrival bounds
# --------------------------------------------------------------------------


def linear_flow(y, t: float) -> np.ndarray:
    """Translation flow of the constant field -e1."""
    y = np.asarray(y, dtype=float)
    out = y.copy()
    out[..., 0] = out[..., 0] - t
    return out


def perp_time(y) -> float:
    """Flow time at which the trajectory passes the perpendicular foot of e1.

    Zero when the point already lies in the closed half-space e1 . y <= 0.
    """
    y = np.asarray(y, dtype=float)
    return float(max(0.0, y[0]))


def linear_flow_rates(y) -> tuple[float, float]:
    """(d/dt |psi_t(y)|, d/dt cos angle(psi_t(y), e1)) at t = 0.

    Closed forms -(y . e1)/|y| and -|y_perp|^2 / |y|^3.
    """
    y = np.asarray(y, dtype=float)
    norm = float(np.linalg.norm(y))
    if norm < 1e-12:
        raise ValueError("rates are undefined at the origin")
    perp_sq = norm * norm - y[0] * y[0]
    return -y[0] / norm, -perp_sq / norm**3


@dataclass(frozen=True)
class ArrivalBounds:
    """Slack triple for one trajectory of the linear flow.

    All three slacks are nonnegative up to rounding: the terminal direction
    satisfies cos angle(., e1) <= -sqrt(1/11), the path stays inside
    |y| + R/sqrt(10), and the terminal point stays outside R/sqrt(10).
    """

    cos_final: float
    norm_path_max: float
    norm_final: float
    slack_cos: float
    slack_path: float
    slack_exit: float


def arrival_bounds(y, radius: float) -> ArrivalBounds:
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y) >= radius:
        raise ValueError("y must lie in the open ball of the given radius")
    res = arrival_bounds_many(y[None, :], radius)
    out = ArrivalBounds(*(float(v[0]) for v in res))
    if min(out.slack_cos, out.slack_path, out.slack_exit) < -1e-12:
        raise InternalInconsistencyError(f"arrival bound violated: {out}")
    return out


def arrival_bounds_many(ys: np.ndarray, radius: float):
    """Vectorized arrival bounds; returns six arrays matching ArrivalBounds."""
    ys = np.asarray(ys, dtype=float)
    drift = drift_length(radius)
    t_y = np.maximum(0.0, ys[:, 0])
    finals = ys.copy()
    finals[:, 0] -= t_y + drift
    norm_final = np.linalg.norm(finals, axis=1)
    cos_final = finals[:, 0] / norm_final
    ts = np.linspace(0.0, drift, PATH_SAMPLES)
    first = ys[:, 0, None] - (t_y[:, None] + ts[None, :])
    rest_sq = (ys[:, 1:] ** 2).sum(axis=1)
    norms_path = np.sqrt(first**2 + rest_sq[:, None])
    norm_path_max = norms_path.max(axis=1)
    norm_y = np.linalg.norm(ys, axis=1)
    slack_cos = COS_TERMINAL - cos_final
    slack_path = (norm_y + drift) - norm_path_max
    slack_exit = norm_final - drift
    return cos_final, norm_path_max, norm_final, slack_cos, slack_path, slack_exit


# --------------------------------------------------------------------------
# soul alignment and the terminal-cap angle bound
# --------------------------------------------------------------------------


def align_soul(dirset: DirectionSet) -> tuple[np.ndarray, DirectionSet]:
    """Orthogonal map (a Householder reflection) taking the soul to e1,
    together with the transformed set."""
    region = classify_polar_region(dirset)
    if region.variant is not PolarVariant.WITH_BOUNDARY:
        raise UnsupportedConfigurationError(
            "soul alignment needs the boundary variant, got " + region.variant.value
        )
    n = dirset.dim
    e1 = np.zeros(n)
    e1[0] = 1.0
    v = region.soul - e1
    if np.linalg.norm(v) < 1e-12:
        q = np.eye(n)
    else:
        q = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    if not np.allclose(q @ region.soul, e1, atol=1e-9):
        raise InternalInconsistencyError("householder reflection failed to align soul")
    return q, dirset.transformed(q)


@dataclass(frozen=True)
class CapAngleBound:
    """Certified bound on angles from the terminal cap to a direction set."""

    value: float  # sampled_max + mesh_slack
    sampled_max: float
    mesh_slack: float
    samples_used: int


def terminal_cap_angle_bound(aligned: DirectionSet) -> CapAngleBound:
    """Largest angle from the cap {z . e1 <= -sqrt(1/11)} to the set, plus mesh slack.

    Requires an aligned boundary-variant set (soul at e1): then the polar
    region sits inside the closed half-space z . e1 >= 0, the cap misses it,
    and the bound is strictly below pi/2. The sample filter is dilated by the
    mesh covering radius so that Lipschitz-1 continuity of the angle function
    makes value an upper bound for the whole cap.
    """
    region = classify_polar_region(aligned)
    if region.variant is not PolarVariant.WITH_BOUNDARY:
        raise UnsupportedConfigurationError("cap bound needs the boundary variant")
    e1 = np.zeros(aligned.dim)
    e1[0] = 1.0
    if angle(region.soul, e1) > 1e-6:
        raise ValueError("direction set is not soul-aligned; call align_soul first")
    if aligned.dim not in (2, 3):
        raise UnsupportedConfigurationError(
            "certified cap sampling is implemented for dimensions 2 and 3"
        )
    mesh = sphere_samples(aligned.dim, 100_000 if aligned.dim == 3 else 20_000)
    slack = covering_bound(aligned.dim, mesh.shape[0])
    cap_radius = math.acos(-COS_TERMINAL)  # angular radius of the cap around -e1
    dilated = math.cos(min(math.pi, cap_radius + slack))
    cap = mesh[mesh[:, 0] <= -dilated]
    if cap.shape[0] == 0:
        raise InternalInconsistencyError("terminal cap sample is empty")
    dots = np.clip(cap @ aligned.directions.T, -1.0, 1.0)
    min_angles = np.arccos(dots).min(axis=1)
    sampled_max = float(min_angles.max())
    value = sampled_max + slack
    if value >= math.pi / 2:
        raise NetHypothesisError(
            f"cap angle bound {value:.4f} is not below pi/2; "
            "the set does not cover its quarter sphere tightly enough"
        )
    return CapAngleBound(
        value=value, sampled_max=sampled_max, mesh_slack=slack, samples_used=cap.shape[0]
    )


# --------------------------------------------------------------------------
# bump cutoff and the normalized flow
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BumpProfile:
    """Smooth radial profile: identically 1 on [0, inner], 0 on [outer, inf)."""

    inner: float
    outer: float

    def __post_init__(self):
        if not 0 < self.inner < self.outer:
            raise ValueError("need 0 < inner < outer")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        # exp(-1/s) for s > 0 and 0 for s <= 0, the mollifier smooth at 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            num = np.exp(-1.0 / np.maximum(self.outer - r, 0.0))
            den = num + np.exp(-1.0 / np.maximum(r - self.inner, 0.0))
            vals = np.where(den > 0, num / den, 0.0)
        vals = np.where(r <= self.inner, 1.0, vals)
        vals = np.where(r >= self.outer, 0.0, vals)
        return vals if vals.ndim else float(vals)

    @classmethod
    def for_radius(cls, radius: float) -> "BumpProfile":
        return cls(inner=1.5 * radius, outer=2.0 * radius)


def _regimes(ys: np.ndarray, durations: np.ndarray, radius: float):
    """Masks of the rows of ys that never move, and of those that stay in the core.

    A row on or outside the profile's support, or flown for zero time, never
    moves: the field vanishes there, exactly. |y - s*e1| is a convex parabola
    in s, so its max over the flown segment is at an endpoint; both ends
    inside the f == 1 core means the field is -e1 all along, and x0 = y0 - t.
    Every other row needs the scalar ODE.
    """
    profile = BumpProfile.for_radius(radius)
    norms = row_norms(ys)
    still = (norms >= profile.outer) | (durations == 0.0)
    ends = ys.copy()
    ends[:, 0] -= durations
    core = ~still & (np.maximum(norms, row_norms(ends)) <= profile.inner)
    return still, core


def _flow_x0(y: np.ndarray, times: np.ndarray, radius: float) -> np.ndarray:
    """First coordinate of the bump flow from y at the sorted times.

    The field -f(|x|) e1 never moves the perpendicular coordinates, so the
    flow is the scalar ODE x0' = -f(sqrt(x0^2 + rho^2)) with rho = |y_perp|
    fixed. It is integrated adaptively unless :func:`_regimes` finds the
    point still (x0 = y0) or in the core (x0 = y0 - t).
    """
    duration = float(times[-1])
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    still, core = _regimes(y[None, :], np.array([duration]), radius)
    if still[0]:
        return np.full(times.shape, y[0])
    if core[0]:
        return y[0] - times
    profile = BumpProfile.for_radius(radius)
    rho = float(np.linalg.norm(y[1:]))
    sol = solve_ivp(
        lambda _t, x: -profile(np.hypot(x, rho)),
        (0.0, duration),
        y[:1],
        method="DOP853",
        t_eval=times,
        atol=ODE_ATOL,
        rtol=ODE_RTOL,
    )
    if not sol.success:
        raise IntegrationFailureError(f"flow integration failed: {sol.message}")
    return sol.y[0]


def bump_flow(y, duration: float, radius: float) -> np.ndarray:
    """Flow of the field x -> -f(|x|) e1 for the given time."""
    out = np.array(y, dtype=float)
    out[0] = _flow_x0(out, np.array([float(duration)]), radius)[0]
    return out


def cutoff_linear_flow(y, t: float, radius: float) -> np.ndarray:
    """Unit-time normalization of the bump flow, for one point or a (k, dim) stack.

    The total flow time of a point at t = 1 is its perpendicular-foot time
    plus the drift length R/sqrt(10), so points of B(0, R) arrive in the
    terminal cone while everything outside the bump support never moves.
    Each row follows the per-point rules of :func:`_regimes`; only the rows
    that need the ODE go, one by one, through :func:`_flow_x0`.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"y must be a point or a (k, dim) stack, got shape {y.shape}")
    ys = np.atleast_2d(y)
    durations = (np.maximum(ys[:, 0], 0.0) + drift_length(radius)) * t
    still, core = _regimes(ys, durations, radius)
    out = ys.copy()
    out[core, 0] -= durations[core]
    for i in np.flatnonzero(~(still | core)):
        out[i, 0] = _flow_x0(ys[i], durations[i : i + 1], radius)[0]
    return out.reshape(y.shape)


def bump_flow_trajectory(
    y, duration: float, radius: float, steps: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """(times, points) along the bump flow, for reports and CSV emission."""
    y = np.asarray(y, dtype=float)
    times = np.linspace(0.0, duration, steps)
    points = np.tile(y, (steps, 1))
    points[:, 0] = _flow_x0(y, times, radius)
    return times, points


# --------------------------------------------------------------------------
# the flow-verify suite
# --------------------------------------------------------------------------

# Bound on the floats flow_verify holds: samples x (dim + PATH_SAMPLES) for the
# sample stack and the path of each arrival bound, plus 8 per value of the
# 10 x 40 x dim trajectory values written as text. At the bound peak RSS
# stays under 512 MB: 0.39 GB at most on 2 vCPUs with py3.11 and numpy 2.4.
_MAX_FLOW_ENTRIES = 8_000_000


def _ball_samples(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    raw = rng.standard_normal((count, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / dim)
    return raw / norms * radii[:, None]


def flow_verify(
    dim: int, radius: float, samples: int, seed: int, tol: float, trajectories: bool
) -> tuple[dict, str | None]:
    """Arrival and cutoff-flow inequality suites on seeded samples of B(0, radius).

    Returns the report, whose ``passed`` is true when no suite has a slack
    below its tolerance (``tol`` for the three arrival suites), and with
    ``trajectories`` the CSV text of ten sampled bump-flow trajectories.
    The cap-angle suite runs in dimensions 2 and 3 only.
    """
    if dim < 2:
        raise ValueError("flow verification needs dim >= 2")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    entries = samples * (dim + PATH_SAMPLES) + (8 * 400 * dim if trajectories else 0)
    if entries > _MAX_FLOW_ENTRIES:
        raise UnsupportedConfigurationError(
            f"flow verification holds {entries} floats for {samples} samples in dim {dim}; "
            f"the limit is {_MAX_FLOW_ENTRIES}"
        )
    rng = np.random.default_rng(seed)
    drift = drift_length(radius)
    suites: dict[str, dict] = {}

    def record(name: str, slacks: np.ndarray, limit: float):
        slacks = np.asarray(slacks, dtype=float)
        suites[name] = {
            "violations": int(np.count_nonzero(slacks < -limit)),
            "worst_slack": float(slacks.min()) if slacks.size else 0.0,
        }

    ys = _ball_samples(rng, samples, dim, radius)
    ys = ys[np.linalg.norm(ys, axis=1) > 1e-9]
    _, _, _, s_cos, s_path, s_exit = arrival_bounds_many(ys, radius)
    record("arrive_cos", s_cos, tol)
    record("arrive_path", s_path, tol)
    record("arrive_exit", s_exit, tol)

    # identity outside the bump support: the flow must return its input
    # byte-for-byte, so the slack here is a plain sup distance.
    outside = _ball_samples(rng, min(samples, 200), dim, radius)
    shell = 2.0 * radius + np.linalg.norm(outside, axis=1)
    outside = outside / np.linalg.norm(outside, axis=1, keepdims=True) * shell[:, None]
    moved = np.max(np.abs(cutoff_linear_flow(outside, 1.0, radius) - outside), axis=1)
    record("omega_identity", -moved, 0.0)

    inner = _ball_samples(rng, min(samples, 1000), dim, radius)
    inner = inner[np.linalg.norm(inner, axis=1) > 1e-9]
    arrivals = cutoff_linear_flow(inner, 1.0, radius)
    exit_slack = np.linalg.norm(arrivals, axis=1) - drift
    record("omega_exit", exit_slack + 1e-8, 0.0)

    if dim <= 3:
        canonical = np.zeros((3, dim))
        canonical[0, 0] = 1.0
        canonical[1, 0] = -1.0
        canonical[2, 1] = 1.0
        _, aligned = align_soul(DirectionSet(dim=dim, directions=canonical))
        bound = terminal_cap_angle_bound(aligned)
        norms = row_norms(arrivals)
        away = norms > 1e-9
        angles = min_angles_to_set(arrivals[away] / norms[away, None], aligned)
        record("omega_angle", bound.value - angles + 1e-9, 0.0)
        angle_note = {"cap_bound": float(bound.value), "mesh_slack": float(bound.mesh_slack)}
    else:
        angle_note = {"skipped": "cap-angle certification covers dimensions 2 and 3"}

    csv_text = None
    if trajectories:
        lines = [",".join(["t"] + [f"x{i + 1}" for i in range(dim)])]
        probe = _ball_samples(rng, 5, dim, radius)
        ring = probe / np.linalg.norm(probe, axis=1, keepdims=True) * (1.6 * radius)
        for y in np.vstack([probe, ring]):
            ts, points = bump_flow_trajectory(y, drift + max(0.0, y[0]), radius, steps=40)
            for t, x in zip(ts, points):
                lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in x]))
        csv_text = "\n".join(lines) + "\n"

    report = {
        "dim": dim,
        "radius": radius,
        "samples": samples,
        "seed": seed,
        "drift_length": float(drift),
        "suites": suites,
        "angle_certificate": angle_note,
        "passed": all(entry["violations"] == 0 for entry in suites.values()),
    }
    return report, csv_text
