"""Reference routes and witnesses of paper steps that no report runs.

The tests compare the library against these. The smallest-angle kernel has
a product-per-row reference here. The sphere meshes live here: equally
spaced points on S^1 and the golden-angle lattice on S^2, with known covering
radii, and above dimension 3 a seeded random sample with none. The terminal
cap bound has a sampled second route over them, and the LP's criticality
verdict a sphere-scanning one. The gradient-like property of the join
direction, the spherical right-triangle identity and the first-order law of
the torus distance are checked here, as no subcommand reports them, and so
is the Euler characteristic of a torus sublevel set, counted over the cubes
of a grid, against which the sub-index table is held. The index form has its
per-field routes here: quadrature and boundary terms one refined piece and
one JacobiField at a time, the continuity rule one break at a time, and the
divergence of the cutoff field one width at a time, against which the
library's stacked kernel is held bit for bit.

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
from subindex.errors import InternalInconsistencyError, NoSolutionError, SubindexError
from subindex.flows import COS_TERMINAL
from subindex.jacobi import ROUTE_ATOL, ROUTE_RTOL, JacobiField, ModelGeodesic, PiecewiseJacobi, sn
from subindex.sampling import gauss_legendre
from subindex.torus import TorusDistanceField, reduce_point


class NetHypothesisError(SubindexError):
    """A net does not cover its factor sphere, the hypothesis of the
    gradient-like check."""


BLOCK_TOL = 1e-6  # distance to a factor sphere below which splits are refused


GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def circle_samples(count: int) -> np.ndarray:
    """Equally spaced points on S^1, offset by half a step.

    Covering radius is exactly pi/count.
    """
    theta = 2.0 * math.pi * (np.arange(count) + 0.5) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


def fibonacci_sphere(count: int) -> np.ndarray:
    """Golden-angle lattice on S^2."""
    k = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = GOLDEN_ANGLE * k
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def covering_bound(dim: int, count: int) -> float:
    """Upper bound on the covering radius of ``sphere_samples(dim, count)``.

    Exact for dim 2. For dim 3 the Fibonacci lattice's covering radius is
    about 3.09/sqrt(count); the returned bound 2*sqrt(4*pi/count) is roughly
    2.3x that and is checked empirically in the test suite.
    """
    if dim == 2:
        return math.pi / count
    if dim == 3:
        return 2.0 * math.sqrt(4.0 * math.pi / count)
    raise ValueError(f"no covering bound available for dim {dim}")


def sphere_samples(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """``count`` points on S^(dim-1) as rows of a (count, dim) array.

    Dims 2 and 3 are the meshes above, and ``seed`` does nothing there; dim 1
    gives both points of S^0 whatever the count. Above dim 3 the rows of
    ``default_rng(seed).standard_normal``, normalised: fine for statistical
    oracles, but with no covering certificate.
    """
    if dim == 2:
        return circle_samples(count)
    if dim == 3:
        return fibonacci_sphere(count)
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    pts = np.random.default_rng(seed).standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def mesh_cap_bounds(dirset: DirectionSet) -> tuple[float, float]:
    """The largest smallest-angle from the terminal cap {z . e1 <= -sqrt(1/11)}
    to a set in dim 2 or 3, bracketed on the mesh.

    The largest over the mesh points of the cap is a lower bound. The largest
    over those of the cap dilated by the covering radius, plus that radius,
    is an upper bound, as the angle to the set is 1-Lipschitz.
    """
    mesh = sphere_samples(dirset.dim, 100_000 if dirset.dim == 3 else 20_000)
    slack = covering_bound(dirset.dim, mesh.shape[0])
    angles = min_angles_to_set(mesh, dirset)
    dilated = -math.cos(min(math.pi, math.acos(-COS_TERMINAL) + slack))
    lower = angles[mesh[:, 0] <= COS_TERMINAL].max()
    upper = angles[mesh[:, 0] <= dilated].max() + slack
    return float(lower), float(upper)


def min_angles_per_row(vs: np.ndarray, dirset: DirectionSet) -> np.ndarray:
    """Reference for ``min_angles_to_set``: one matrix-vector product per row."""
    dots = np.clip(np.matmul(dirset.directions, vs[:, :, None])[:, :, 0], -1.0, 1.0)
    return np.arccos(dots).min(axis=1)


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
    # S^0 is sampled exactly; above S^2 the sample carries no certificate
    slack = covering_bound(p + 1, probe.shape[0]) if p + 1 in (2, 3) else 0.0
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


def sublevel_euler(field: TorusDistanceField, level: float, grid: int) -> int:
    """Euler characteristic of the periodic cubical complex spanned by the
    grid vertices k / grid at distance below ``level``: the sum over k of
    (-1)^k times the number of k-cubes whose 2^k vertices all lie below it.
    The cube mask of an axis set S and a later axis a is
    cube_S & roll(cube_S, -1, a), and the axis sets are walked depth first,
    so at most dim + 1 masks are live at once."""
    below = field._grid_distances(grid) < level

    def alternating(cubes: np.ndarray, first: int, sign: int) -> int:
        total = sign * int(np.count_nonzero(cubes))
        for a in range(first, field.dim):
            total += alternating(cubes & np.roll(cubes, -1, axis=a), a + 1, -sign)
        return total

    return alternating(below, 0, 1)


# --------------------------------------------------------------------------
# the index form field by field and piece by piece
# --------------------------------------------------------------------------


def pieces_at(field: PiecewiseJacobi, ts) -> list:
    """The piece of ``field`` active at each parameter of ``ts`` as a
    JacobiField, the right one at a break."""
    index = np.clip(np.searchsorted(field.breaks, ts, side="right") - 1, 0, field.breaks.shape[0] - 2)
    return [JacobiField(field.kappa, field.a[i], field.b[i]) for i in index]


def continuity_per_break(breaks: np.ndarray, fields):
    """The continuity rule one break and one JacobiField at a time: the first
    break at which the two pieces lie more than 1e-9 apart is refused."""
    for t, left, right in zip(breaks[1:-1], fields, fields[1:]):
        if np.linalg.norm(left.value(t) - right.value(t)) > 1e-9:
            raise ValueError(f"field is discontinuous at breakpoint {t}")


def piecewise_per_break(kappa: float, breaks, fields) -> PiecewiseJacobi:
    """The field that is ``fields[i]`` between breaks[i] and breaks[i + 1],
    held to :func:`continuity_per_break` before it is built."""
    breaks = np.asarray(breaks, dtype=float)
    continuity_per_break(breaks, fields)
    return PiecewiseJacobi(kappa, breaks, np.array([f.a for f in fields]), np.array([f.b for f in fields]))


def aligned_pieces(v: PiecewiseJacobi, w: PiecewiseJacobi):
    """Common refinement of the two partitions, the union of their breaks,
    with the piece of each field active from each cut on."""
    if (
        abs(v.breaks[0] - w.breaks[0]) > 1e-12
        or abs(v.breaks[-1] - w.breaks[-1]) > 1e-12
    ):
        raise ValueError("fields must share their parameter interval")
    cuts = np.union1d(v.breaks, w.breaks)
    return zip(cuts[:-1], cuts[1:], pieces_at(v, cuts[:-1]), pieces_at(w, cuts[:-1]))


def index_form_quadrature_per_piece(geodesic: ModelGeodesic, v: PiecewiseJacobi, w: PiecewiseJacobi) -> float:
    """64-node Gauss-Legendre evaluation of int g(V', W') - kappa g(V, W) dt,
    one piece and one JacobiField at a time."""
    x, wq = gauss_legendre()
    kappa = geodesic.curvature
    total = []
    for t0, t1, fv, fw in aligned_pieces(v, w):
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        ts = mid + half * x
        integrand = (fv.derivative(ts) * fw.derivative(ts)).sum(axis=1) - kappa * (
            fv.value(ts) * fw.value(ts)
        ).sum(axis=1)
        total.extend((half * wq * integrand).tolist())
    return math.fsum(total)


def index_form_boundary_per_piece(v: PiecewiseJacobi, w: PiecewiseJacobi) -> float:
    """The boundary terms [g(V', W)] at the ends of each refined piece, one
    JacobiField at a time."""
    terms = []
    for t0, t1, fv, fw in aligned_pieces(v, w):
        terms.append(float(fv.derivative(t1) @ fw.value(t1)))
        terms.append(-float(fv.derivative(t0) @ fw.value(t0)))
    return math.fsum(terms)


def cutoff_field_per_width(geodesic: ModelGeodesic, w, eps: float) -> PiecewiseJacobi:
    """The cutoff field of one width, built from a JacobiField per piece:
    the kernel field w sn / sn(eps) on [eps, length] and the field that
    interpolates w at 0 and the kernel field's value at eps."""
    kappa, length = geodesic.curvature, geodesic.length
    if kappa <= 0 or abs(length - math.pi / math.sqrt(kappa)) > 1e-9 or not geodesic.endpoint_conjugate():
        raise NoSolutionError("cutoff construction needs the endpoint at the first conjugate time pi / sqrt(curvature)")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape[0] != geodesic.frame_dim:
        raise ValueError("w must have the frame dimension")
    if abs(np.linalg.norm(w) - 1.0) > 1e-6:
        raise ValueError("w must be a unit frame vector")
    if not 0 < eps < length / 2:
        raise ValueError("eps must lie in (0, length/2)")
    kernel_scaled = JacobiField(kappa=kappa, a=np.zeros_like(w), b=w / sn(kappa, eps))
    head = JacobiField.from_two_point(kappa, 0.0, w, eps, kernel_scaled.value(eps))
    return piecewise_per_break(kappa, [0.0, eps, length], [head, kernel_scaled])


def index_divergence_per_width(geodesic: ModelGeodesic, w, eps_values) -> np.ndarray:
    """I(V_eps, V_eps) width by width: build one cutoff field, evaluate both
    routes piece by piece, hold them to the ROUTE_ATOL / ROUTE_RTOL rule, and
    go on to the next width."""
    values = []
    for eps in eps_values:
        v = cutoff_field_per_width(geodesic, w, float(eps))
        quad = index_form_quadrature_per_piece(geodesic, v, v)
        bdry = index_form_boundary_per_piece(v, v)
        if abs(quad - bdry) > ROUTE_ATOL + ROUTE_RTOL * abs(bdry):
            raise InternalInconsistencyError(f"index form routes disagree: quadrature {quad!r} vs boundary {bdry!r}")
        values.append(bdry)
    return np.array(values)
