"""Reference routes and witnesses of paper steps that no report runs.

The tests compare the library against these. The LP's criticality verdict
has a sphere-scanning second route here, and the gradient-like property of
the join direction, the spherical right-triangle identity and the first-order
law of the torus distance are checked here, as no subcommand reports them.

Join coordinates on a round sphere split as S^p * S^q: every point off the
two factor spheres is P = (X sin t, Y cos t) with X in S^p, Y in S^q and split
angle t in (0, pi/2). The split angle grows at unit rate along
g = (X cos t, -Y sin t), which is also the direction of steepest descent for
the distance to the first factor sphere, and for any direction set U inside
S^p the distance to U falls along g at rate cos of the hinge angle at P
between X and the nearest member of U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from subindex.directions import DirectionSet, min_angles_to_set, row_norms
from subindex.errors import NetHypothesisError
from subindex.sampling import covering_bound, sphere_samples
from subindex.torus import TorusDistanceField, reduce_point

BLOCK_TOL = 1e-6  # distance to a factor sphere below which splits are refused


def sampling_oracle_classify(
    dirset: DirectionSet,
    samples: int = 10_000,
    margin: float = 1e-2,
    seed: int = 0,
) -> tuple[bool, np.ndarray]:
    """Sampling cross-check, independent of the LP path.

    Scans a sphere mesh for a direction making angle > pi/2 + margin with
    every member of the set; absence of such a witness is the sampled notion
    of criticality. Also returns the mesh points lying within margin of the
    polar region (min angle >= pi/2 - margin), for containment checks.
    """
    mesh = sphere_samples(dirset.dim, samples, seed=seed)
    min_angles = min_angles_to_set(mesh, dirset)
    critical = not bool(np.any(min_angles > np.pi / 2 + margin))
    near_polar = mesh[min_angles >= np.pi / 2 - margin]
    return critical, near_polar


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
            raise ValueError("point lies on a factor sphere; join coordinates are undefined")
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
    a, b = row_norms(points[:, : p + 1]), row_norms(points[:, p + 1 :])
    keep = (a >= BLOCK_TOL) & (b >= BLOCK_TOL)  # where SphereSplit.from_point succeeds
    points, a, b = points[keep], a[keep], b[keep]
    theta = np.arctan2(a, b)
    g = np.concatenate(
        [points[:, : p + 1] / a[:, None] * np.cos(theta)[:, None],
         -(points[:, p + 1 :] / b[:, None]) * np.sin(theta)[:, None]],
        axis=1,
    )
    dots = points @ embedded.T
    rows, cols = np.nonzero(dots >= dots.max(axis=1)[:, None] - 1e-12)
    # |gamma - (p.gamma) p|^2 = 1 - (p.gamma)^2 >= b^2 >= BLOCK_TOL^2: no zero tangent
    tangents = embedded[cols] - np.clip(dots[rows, cols], -1.0, 1.0)[:, None] * points[rows]
    tangents /= row_norms(tangents)[:, None]
    cos_h = np.matmul(g[rows, None, :], tangents[:, :, None])[:, 0, 0]
    return float(np.arccos(np.clip(cos_h, -1.0, 1.0)).max(initial=0.0))


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
    # orthonormal (c, t1, t2) per row: the columns of one stacked QR
    frames = np.linalg.qr(rng.standard_normal((count, dim, 3)))[0]
    c, t1, t2 = frames[..., 0], frames[..., 1], frames[..., 2]
    a, b = rng.uniform(0.1, 1.4, (2, count))
    pa = c * np.cos(a)[:, None] + t1 * np.sin(a)[:, None]
    pb = c * np.cos(b)[:, None] + t2 * np.sin(b)[:, None]
    return np.abs(np.clip((pa * pb).sum(axis=1), -1, 1) - np.cos(a) * np.cos(b))


# --------------------------------------------------------------------------
# the first-order law on the torus
# --------------------------------------------------------------------------


def first_order_residual(
    torus: TorusDistanceField, x, v, t_max: float = 0.1, steps: int = 32, t_min: float | None = None
) -> float:
    """max_t |dist(x + t v) - (c0 - t cos a)| / t^2 with a the smallest
    angle from v to the up-set at x.

    A bounded value as t -> 0 is the numerical form of first-order
    behavior of the distance along geodesics.
    """
    if not 0 < t_max <= 0.2:
        raise ValueError("t_max must lie in (0, 0.2]")
    x = reduce_point(x)
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("v must be a unit vector")
    dirs = torus.up_set(x)
    c0 = torus.distance(x)
    cos_a = float(np.max(np.clip(dirs.directions @ v, -1.0, 1.0)))
    lo = t_min if t_min is not None else t_max / steps
    ts = np.geomspace(lo, t_max, steps)
    points = x[None, :] + ts[:, None] * v[None, :]
    dists = torus.distance_many(points)
    model = c0 - ts * cos_a
    return float(np.max(np.abs(dists - model) / ts**2))
