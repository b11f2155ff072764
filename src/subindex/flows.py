"""The cut-off linear flow with its arrival bounds, and the flow-verify suite.

The linear flow y -> y - t*e1 together with a smooth radial cutoff pushes a
ball B(0, R) into the cone of directions making angle >= some terminal bound
with e1. All the quantitative bounds carry the constants sqrt(1/11)
(terminal cosine) and R/sqrt(10) (drift length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexity import PolarVariant, classify_polar_region
from .directions import DirectionSet, min_angles_to_set, row_norms
from .errors import (
    IntegrationFailureError,
    InternalInconsistencyError,
    NetHypothesisError,
    UnsupportedConfigurationError,
)
from .sampling import covering_bound, gauss_legendre, sphere_samples

COS_TERMINAL = -math.sqrt(1.0 / 11.0)
_SHELL_PANELS = 4  # Gauss-Legendre panels per shell piece of the flow time
_NEWTON_CAP = 100  # steps before the flow-time inversion is refused; bisection alone stops within 53


def drift_length(radius: float) -> float:
    """Extra flow time past the perpendicular foot: R/sqrt(10)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return radius / math.sqrt(10.0)


# --------------------------------------------------------------------------
# the linear flow and its arrival bounds
# --------------------------------------------------------------------------


def perp_time(y):
    """Flow time at which the trajectory passes the perpendicular foot of e1,
    for one point or for each row of a stack.

    Zero when the point already lies in the closed half-space e1 . y <= 0.
    """
    return np.maximum(np.asarray(y, dtype=float)[..., 0], 0.0)


def arrival_bounds_many(ys: np.ndarray, radius: float):
    """Arrival bounds for each row of a stack of points of B(0, radius).

    Returns six arrays: cos_final, norm_path_max, norm_final and the slacks
    slack_cos, slack_path, slack_exit. All three slacks are nonnegative up to
    rounding: the terminal direction satisfies cos angle(., e1) <= -sqrt(1/11),
    the path stays inside |y| + R/sqrt(10), and the terminal point stays
    outside R/sqrt(10).
    """
    ys = np.asarray(ys, dtype=float)
    drift = drift_length(radius)
    finals = ys.copy()
    finals[:, 0] -= perp_time(ys) + drift
    norm_final = np.linalg.norm(finals, axis=1)
    cos_final = finals[:, 0] / norm_final
    # e1 . y falls from min(y0, 0) <= 0 along the segment, so |y| peaks at its end
    norm_path_max = np.sqrt(finals[:, 0] ** 2 + (ys[:, 1:] ** 2).sum(axis=1))
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
    """Certified bound on angles from the terminal cap to a soul-aligned direction set."""

    value: float  # the largest sampled angle plus mesh_slack
    mesh_slack: float
    aligned: DirectionSet  # the input set after align_soul, soul at e1


def terminal_cap_angle_bound(dirset: DirectionSet) -> CapAngleBound:
    """Largest angle from the cap {z . e1 <= -sqrt(1/11)} to the aligned set, plus mesh slack.

    The set is aligned first (soul at e1); the one classification that does
    this also refuses sets without the boundary variant. The aligned polar
    region sits inside the closed half-space z . e1 >= 0, the cap misses it,
    and the bound is strictly below pi/2. The sample filter is dilated by the
    mesh covering radius so that Lipschitz-1 continuity of the angle function
    makes value an upper bound for the whole cap.
    """
    if dirset.dim not in (2, 3):
        raise UnsupportedConfigurationError(
            "certified cap sampling is implemented for dimensions 2 and 3"
        )
    _, aligned = align_soul(dirset)
    mesh = sphere_samples(aligned.dim, 100_000 if aligned.dim == 3 else 20_000)
    slack = covering_bound(aligned.dim, mesh.shape[0])
    cap_radius = math.acos(-COS_TERMINAL)  # angular radius of the cap around -e1
    dilated = math.cos(min(math.pi, cap_radius + slack))
    cap = mesh[mesh[:, 0] <= -dilated]
    if cap.shape[0] == 0:
        raise InternalInconsistencyError("terminal cap sample is empty")
    # one gemm, not min_angles_to_set's product per row: on 8052 / 35,988 cap
    # rows (dims 2 / 3) it took 0.76 / 4.6 ms against 1.51 / 6.4 ms
    dots = np.clip(cap @ aligned.directions.T, -1.0, 1.0)
    value = float(np.arccos(dots).min(axis=1).max()) + slack
    if value >= math.pi / 2:
        raise NetHypothesisError(
            f"cap angle bound {value:.4f} is not below pi/2; "
            "the set does not cover its quarter sphere tightly enough"
        )
    return CapAngleBound(value=value, mesh_slack=slack, aligned=aligned)


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
        """f(r), the reciprocal of :func:`_inverse_rate`: exactly 1 up to inner
        and 0 from outer on, and NaN at NaN."""
        vals = 1.0 / _inverse_rate(np.asarray(r, dtype=float), self)
        return vals if vals.ndim else float(vals)

    @classmethod
    def for_radius(cls, radius: float) -> "BumpProfile":
        return cls(inner=1.5 * radius, outer=2.0 * radius)


def _inverse_rate(r, profile: BumpProfile):
    """1/f(r) = 1 + exp(1/(outer - r) - 1/(r - inner)), the quotient of the
    mollifiers exp(-1/s) as one exponent: 1 on the core, infinite from the
    outer radius on, and finite inside the shell even where each mollifier
    underflows (radii below about 0.006)."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 + np.exp(1.0 / np.maximum(profile.outer - r, 0.0) - 1.0 / np.maximum(r - profile.inner, 0.0))


def _invert_flow_time(ys: np.ndarray, times: np.ndarray, radius: float) -> np.ndarray:
    """x0 at the given times (one row per point) for points in the cutoff shell.

    x0 falls at rate f(hypot(x0, rho)) > 0, so x0(t) solves tau(x) = t for
    tau(x) = int_x^y0 ds / f(hypot(s, rho)): the plain length on the core
    |s| <= c, Gauss-Legendre in u on each shell piece, crossed as
    u^3 (10 - 15u + 6u^2) to crowd the nodes at the piece ends, where 1/f
    leaves 1 and blows up towards the support edge e (equal panels miss those
    unit-wide features: 4.5e-7 R off at R = 1e4). Newton (tau' = -1/f)
    bisects the bracket [max(y0 - t, -e), y0] instead of a step that leaves
    it or exceeds half the last step, as plain Newton crawls near the edge.
    """
    profile = BumpProfile.for_radius(radius)
    y0, t = np.repeat(ys[:, 0], times.shape[1]), times.ravel()
    rho = np.repeat(row_norms(ys[:, 1:]), times.shape[1])
    core = np.sqrt(np.maximum((profile.inner - rho) * (profile.inner + rho), 0.0))
    edge = np.sqrt((profile.outer - rho) * (profile.outer + rho))
    gx, gw = gauss_legendre()
    u = ((np.arange(_SHELL_PANELS)[:, None] + 0.5 * (gx + 1.0)) / _SHELL_PANELS).ravel()
    nodes = u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
    weights = (np.tile(gw, _SHELL_PANELS) / (2 * _SHELL_PANELS) * 30.0 * (u * (1.0 - u)) ** 2)[:, None]

    def flow_time(x, i):
        """tau at x for the points i: the core length and both shell pieces."""
        c, y = core[i], y0[i]
        a = np.concatenate([np.maximum(x, c), np.minimum(x, -c)])
        span = np.concatenate([np.maximum(y, c), np.minimum(y, -c)]) - a
        k = np.flatnonzero(span)  # the shell pieces of positive length
        inverse = _inverse_rate(np.hypot(a[k, None] + span[k, None] * nodes, rho[i[k % x.size], None]), profile)
        # one dot product per piece, so a point's time does not depend on its neighbours
        span[k] *= np.matmul(inverse[:, None, :], weights)[:, 0, 0]
        return span[: x.size] + (np.clip(y, -c, c) - np.clip(x, -c, c)) + span[x.size :]

    lo, hi, x = np.maximum(y0 - t, -edge), y0.copy(), y0.copy()
    live, prev = np.arange(x.size), np.full(x.size, np.inf)
    g, slope = -t, -_inverse_rate(np.hypot(y0, rho), profile)  # tau(y0) - t and tau'(y0)
    tol = 4.0 * np.finfo(float).eps * radius  # a few ulps at any radius flow-verify takes
    for _ in range(_NEWTON_CAP):
        with np.errstate(invalid="ignore"):  # inf / inf where tau overflows near the edge
            newton = x[live] - g / slope
        take = (lo[live] <= newton) & (newton <= hi[live]) & (np.abs(newton - x[live]) <= 0.5 * np.abs(prev))
        new = np.where(take, newton, 0.5 * (lo[live] + hi[live]))
        step = new - x[live]
        x[live] = new
        moving = np.abs(step) > tol
        live, prev = live[moving], step[moving]
        if not live.size:
            return x.reshape(times.shape)
        g = flow_time(x[live], live) - t[live]
        slope = -_inverse_rate(np.hypot(x[live], rho[live]), profile)
        hi[live] = np.where(g < 0.0, x[live], hi[live])
        lo[live] = np.where(g > 0.0, x[live], lo[live])
    raise IntegrationFailureError(f"flow-time inversion did not converge in {_NEWTON_CAP} steps")


def _flow_x0(ys: np.ndarray, times: np.ndarray, radius: float) -> np.ndarray:
    """First coordinate of the bump flow from each row of ys at that row's times.

    The field -f(|x|) e1 never moves the perpendicular coordinates. A row on
    or outside the profile's support, or flown for zero time, never moves:
    the field vanishes there, exactly. |y - s*e1| is a convex parabola in s,
    so its max over the flown segment is at an endpoint; both ends inside the
    f == 1 core means the field is -e1 all along, and x0 = y0 - t. The other
    rows are in the shell, and all of them are solved in one call.
    """
    if not (np.isfinite(ys).all() and np.isfinite(times).all() and (times >= 0).all()):
        raise ValueError("points and durations must be finite, and durations nonnegative")
    profile = BumpProfile.for_radius(radius)
    norms, durations, ends = row_norms(ys), times.max(axis=1), ys.copy()
    ends[:, 0] -= durations
    still = (norms >= profile.outer) | (durations == 0.0)
    shell = ~still & (np.maximum(norms, row_norms(ends)) > profile.inner)
    out = ys[:, :1] - times
    out[still] = ys[still, :1]
    if shell.any():
        out[shell] = _invert_flow_time(ys[shell], times[shell], radius)
    return out


def cutoff_linear_flow(y, t: float, radius: float) -> np.ndarray:
    """Unit-time normalization of the bump flow, for one point or a (k, dim) stack.

    The total flow time of a point at t = 1 is its perpendicular-foot time
    plus the drift length R/sqrt(10), so points of B(0, R) arrive in the
    terminal cone while everything outside the bump support never moves.
    Each row follows the per-point rules of :func:`_flow_x0`, and the whole
    stack goes through one call of it.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"y must be a point or a (k, dim) stack, got shape {y.shape}")
    ys = np.atleast_2d(y)
    if not np.isfinite(ys).all():  # before inf * 0 can turn a duration into NaN
        raise ValueError("points must be finite")
    out = ys.copy()
    out[:, 0] = _flow_x0(ys, ((perp_time(ys) + drift_length(radius)) * t)[:, None], radius)[:, 0]
    return out.reshape(y.shape)


# --------------------------------------------------------------------------
# the flow-verify suite
# --------------------------------------------------------------------------

# Bound on the floats flow_verify holds: samples x (dim + 8) for the sample
# stack and the eight per-sample values of the arrival bounds, plus 8 per value
# of the 10 x 40 x dim trajectory values written as text. At the bound peak RSS
# stays under 512 MB: 0.29 GB at most on 2 vCPUs with py3.11 and numpy 2.4.
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
    # below 1e-3 the fixed 1e-8 / 1e-9 allowances outweigh the drift; far above 1e100 norms overflow
    if not 1e-3 <= radius <= 1e100:
        raise ValueError(f"radius must lie in [1e-3, 1e100], got {radius}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    entries = samples * (dim + 8) + (8 * 400 * dim if trajectories else 0)
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

    _, _, _, s_cos, s_path, s_exit = arrival_bounds_many(_ball_samples(rng, samples, dim, radius), radius)
    record("arrive_cos", s_cos, tol)
    record("arrive_path", s_path, tol)
    record("arrive_exit", s_exit, tol)

    # identity outside the bump support: the flow must return its input
    # byte-for-byte, so the slack here is a plain sup distance.
    outside = _ball_samples(rng, min(samples, 200), dim, radius)
    outside_norms = np.linalg.norm(outside, axis=1)
    outside = outside / outside_norms[:, None] * (2.0 * radius + outside_norms)[:, None]
    moved = np.max(np.abs(cutoff_linear_flow(outside, 1.0, radius) - outside), axis=1)
    record("omega_identity", -moved, 0.0)

    arrivals = cutoff_linear_flow(_ball_samples(rng, min(samples, 1000), dim, radius), 1.0, radius)
    exit_slack = np.linalg.norm(arrivals, axis=1) - drift
    record("omega_exit", exit_slack + 1e-8, 0.0)

    if dim <= 3:
        canonical = np.zeros((3, dim))
        canonical[0, 0] = 1.0
        canonical[1, 0] = -1.0
        canonical[2, 1] = 1.0
        bound = terminal_cap_angle_bound(DirectionSet(dim=dim, directions=canonical))
        norms = row_norms(arrivals)
        away = norms > 1e-9
        angles = min_angles_to_set(arrivals[away] / norms[away, None], bound.aligned)
        record("omega_angle", bound.value - angles + 1e-9, 0.0)
        angle_note = {"cap_bound": float(bound.value), "mesh_slack": float(bound.mesh_slack)}
    else:
        angle_note = {"skipped": "cap-angle certification covers dimensions 2 and 3"}

    csv_text = None
    if trajectories:
        lines = [",".join(["t"] + [f"x{i + 1}" for i in range(dim)])]
        probe = _ball_samples(rng, 5, dim, radius)
        ring = probe / np.linalg.norm(probe, axis=1, keepdims=True) * (1.6 * radius)
        ys = np.vstack([probe, ring])
        times = np.linspace(0.0, drift + perp_time(ys), 40, axis=1)
        points = np.repeat(ys, 40, axis=0)
        points[:, 0] = _flow_x0(ys, times, radius).ravel()
        lines += [",".join(map(repr, row)) for row in np.column_stack([times.ravel(), points]).tolist()]
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
