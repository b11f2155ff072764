"""Jacobi fields, index forms, and second-order distance models in constant
curvature.

Along a unit-speed geodesic in curvature kappa, normal Jacobi fields split
over a parallel orthonormal frame into scalar solutions of f'' + kappa f = 0,
spanned by cs(t) and sn(t) (cos/sin, 1/t, cosh/sinh as kappa is positive,
zero, negative). Everything here works with those closed forms; quadrature
enters only as an independent route for the index form, cross-checked against
the boundary-term evaluation that integration by parts gives for piecewise
Jacobi fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, NoSolutionError
from .sampling import gauss_legendre

CONJUGATE_TOL = 1e-12

# index_form's two routes agree when |quad - bdry| <= ROUTE_ATOL + ROUTE_RTOL |bdry|.
# Their gap, about 10 eps times the quadrature's summed |terms|, is below 1.1e-6 |bdry|
# on the cutoff field at every default width, for curvatures 1e-10 to 100.
ROUTE_ATOL = 1e-8
ROUTE_RTOL = 1e-5


def sn(kappa: float, t):
    """Normalized sine for curvature kappa: solution of f'' + kappa f = 0
    with f(0) = 0, f'(0) = 1."""
    t = np.asarray(t, dtype=float)
    if kappa > 0:
        rk = math.sqrt(kappa)
        out = np.sin(rk * t) / rk
    elif kappa == 0:
        out = t.copy()
    else:
        rk = math.sqrt(-kappa)
        out = np.sinh(rk * t) / rk
    return out if out.ndim else float(out)


def cs(kappa: float, t):
    """Normalized cosine: f'' + kappa f = 0 with f(0) = 1, f'(0) = 0."""
    t = np.asarray(t, dtype=float)
    if kappa > 0:
        out = np.cos(math.sqrt(kappa) * t)
    elif kappa == 0:
        out = np.ones_like(t)
    else:
        out = np.cosh(math.sqrt(-kappa) * t)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModelGeodesic:
    """A unit-speed model geodesic segment [0, length] in constant curvature,
    carrying a parallel orthonormal normal frame of the given dimension."""

    curvature: float
    length: float
    frame_dim: int = 1

    def __post_init__(self):
        if not math.isfinite(self.curvature):
            raise ValueError("curvature must be finite")
        if not 0 < self.length < math.inf:
            raise ValueError("length must be positive and finite")
        if self.frame_dim < 1:
            raise ValueError("frame_dim must be at least 1")

    def endpoint_conjugate(self) -> bool:
        """Whether the endpoint is a conjugate parameter (sn vanishes there).
        sin(sqrt(kappa) t) is tested, as sn scales as 1/sqrt(kappa), and only
        from sqrt(kappa) t = pi / 2 on: below that its one zero is t = 0."""
        angle = math.sqrt(max(self.curvature, 0.0)) * self.length
        return angle >= math.pi / 2 and abs(np.sin(angle)) < CONJUGATE_TOL


@dataclass(frozen=True)
class JacobiField:
    """Frame components of a normal Jacobi field: J(t) = a cs(t) + b sn(t)."""

    kappa: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("a and b must be vectors of the same length")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def frame_dim(self) -> int:
        return self.a.shape[0]

    def value(self, t):
        """J(t), with shape ``np.shape(t) + (frame_dim,)``."""
        return _combine(cs(self.kappa, t), sn(self.kappa, t), self.a, self.b)

    def derivative(self, t):
        """J'(t), with shape ``np.shape(t) + (frame_dim,)``."""
        return _combine(-self.kappa * sn(self.kappa, t), cs(self.kappa, t), self.a, self.b)

    @classmethod
    def from_two_point(cls, kappa: float, t0: float, v0, t1: float, v1) -> "JacobiField":
        """The Jacobi field with prescribed values at two parameters.

        Raises NoSolutionError when the parameters are conjugate to each other
        (the interpolation matrix is singular).
        """
        v0 = np.atleast_1d(np.asarray(v0, dtype=float))
        v1 = np.atleast_1d(np.asarray(v1, dtype=float))
        a, b, refusal = _two_point(kappa, np.array([t0], dtype=float), v0[None], np.array([t1], dtype=float), v1[None])
        if refusal is not None:
            raise refusal
        return cls(kappa=kappa, a=a[0], b=b[0])


def _combine(c, s, a, b):
    """c a + s b with the frame axis last: c and s carry the shape of the
    parameters, and a and b broadcast against it."""
    return np.asarray(c)[..., None] * a + np.asarray(s)[..., None] * b


def _dots(p, q):
    """g(p, q) over the last axis, row by row, through the matmul that ``p @ q``
    runs on one row; ``(p * q).sum(-1)`` rounds differently, as BLAS fuses
    the multiply-adds."""
    return np.matmul(p[..., None, :], q[..., :, None])[..., 0, 0]


def _first(flags: np.ndarray) -> int:
    """Index of the first true flag, or the number of flags when none is."""
    return int(flags.argmax()) if flags.any() else flags.shape[0]


def _two_point(kappa: float, t0: np.ndarray, v0: np.ndarray, t1: np.ndarray, v1: np.ndarray):
    """:meth:`JacobiField.from_two_point` over rows: t0 and t1 of shape (n,), v0
    and v1 of shape (n, frame_dim). Returns the coefficients a and b of the rows
    before the first conjugate one, and that row's NoSolutionError (None when
    no row is conjugate)."""
    c0, s0, c1, s1 = cs(kappa, t0), sn(kappa, t0), cs(kappa, t1), sn(kappa, t1)
    det = c0 * s1 - s0 * c1
    n = _first(np.abs(det) < 1e-12)
    refusal = None
    if n < det.shape[0]:
        refusal = NoSolutionError(f"parameters {t0[n]} and {t1[n]} are conjugate; no interpolating field")
    c0, s0, c1, s1, det = (x[:n, None] for x in (c0, s0, c1, s1, det))
    return (v0[:n] * s1 - v1[:n] * s0) / det, (c0 * v1[:n] - c1 * v0[:n]) / det, refusal


def _first_jump(kappa: float, at, a, b, target):
    """The continuity rule of a piecewise field, over rows: the fields
    a cs + b sn against ``target`` at the breaks ``at``. Returns the index of
    the first row that lies more than 1e-9 from its target, or a NaN away,
    and its error (the number of rows and None when every row joins)."""
    gap = _combine(cs(kappa, at), sn(kappa, at), a, b) - target
    k = _first(~(np.sqrt(_dots(gap, gap)) <= 1e-9))
    return k, ValueError(f"field is discontinuous at breakpoint {at[k]}") if k < at.shape[0] else None


def _joined(kappa: float, t0, v0, t1, v1, at, target):
    """:func:`_two_point`, then the continuity rule on each interpolant: its
    value at ``at`` against ``target``. Returns the coefficients of the rows
    before the first refused one, and that row's error (None when no row is
    refused)."""
    a, b, refusal = _two_point(kappa, t0, v0, t1, v1)
    n = a.shape[0]
    k, jump = _first_jump(kappa, at[:n], a, b, target[:n])
    return a[:k], b[:k], jump or refusal


def solve_boundary_jacobi(geodesic: ModelGeodesic, w) -> JacobiField:
    """The unique Jacobi field with J(0) = w and J(length) = 0.

    At a conjugate endpoint no such field exists for w != 0 (and for w = 0 the
    kernel makes it non-unique), so a NoSolutionError is raised.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape[0] != geodesic.frame_dim:
        raise ValueError("w must have the frame dimension")
    kappa, c0 = geodesic.curvature, geodesic.length
    s_end = sn(kappa, c0)
    if geodesic.endpoint_conjugate():
        raise NoSolutionError(
            "endpoint is conjugate; boundary fields with J(0) = w do not exist"
        )
    ratio = cs(kappa, c0) / s_end
    return JacobiField(kappa=kappa, a=w, b=-w * ratio)


@dataclass(frozen=True)
class PiecewiseJacobi:
    """A continuous field on [breaks[0], breaks[-1]] that is Jacobi on each
    piece: a[i] cs(t) + b[i] sn(t) between breaks[i] and breaks[i + 1], with a
    and b of shape (pieces, frame_dim)."""

    kappa: float
    breaks: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        breaks, a, b = (np.asarray(x, dtype=float) for x in (self.breaks, self.a, self.b))
        if breaks.ndim != 1 or a.ndim != 2 or a.shape != b.shape or breaks.shape[0] != a.shape[0] + 1:
            raise ValueError("need coefficients of shape (pieces, frame_dim) and pieces + 1 breakpoints")
        if not all(np.isfinite(x).all() for x in (breaks, a, b)):
            raise ValueError("breakpoints and coefficients must be finite")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        for name, x in (("breaks", breaks), ("a", a), ("b", b)):
            object.__setattr__(self, name, x)
        _, jump = _first_jump(self.kappa, breaks[1:-1], a[:-1], b[:-1], self.value(breaks[1:-1]))
        if jump is not None:
            raise jump

    def value(self, t):
        """V(t), with shape ``np.shape(t) + (frame_dim,)``; the right piece at a break."""
        i = _piece_index(self.breaks, t)
        return _combine(cs(self.kappa, t), sn(self.kappa, t), self.a[i], self.b[i])


def _piece_index(breaks: np.ndarray, ts):
    return np.clip(np.searchsorted(breaks, ts, side="right") - 1, 0, breaks.shape[0] - 2)


def _as_piecewise(v, geodesic: ModelGeodesic) -> PiecewiseJacobi:
    if isinstance(v, JacobiField):
        return PiecewiseJacobi(v.kappa, np.array([0.0, geodesic.length]), v.a[None], v.b[None])
    return v


def _pair_rows(geodesic: ModelGeodesic, v, w):
    """The arguments of :func:`_index_form_routes` for one pair of fields
    along the geodesic, a JacobiField being one piece on [0, length]: the
    union of the fields' breaks, with each field's ends held to 1e-12 * length."""
    v, w = _as_piecewise(v, geodesic), _as_piecewise(w, geodesic)
    for field in (v, w):
        if field.kappa != geodesic.curvature:
            raise ValueError("field curvature does not match the geodesic")
        if field.a.shape[1] != geodesic.frame_dim:
            raise ValueError("field frame dimension does not match the geodesic")
        if max(abs(field.breaks[0]), abs(field.breaks[-1] - geodesic.length)) > 1e-12 * geodesic.length:
            raise ValueError("fields must span the geodesic's parameter interval [0, length]")
    cuts = np.union1d(v.breaks, w.breaks)
    t0, t1 = cuts[:-1], cuts[1:]
    iv, iw = _piece_index(v.breaks, t0), _piece_index(w.breaks, t0)
    return (geodesic.curvature, t0, t1, v.a[iv], v.b[iv], w.a[iw], w.b[iw], [t0.shape[0]])


def _index_form_routes(kappa: float, t0, t1, av, bv, aw, bw, counts) -> tuple[list, list]:
    """Both routes of the index form I(V, W) for a stack of field pairs.

    Row r of t0 and t1 (shape (n,)) and of av, bv, aw, bw (shape
    (n, frame_dim)) is one interval of a pair's common refinement, with the
    coefficients of the pieces of V and W there; the pairs take ``counts``
    rows each, in turn. Returns each pair's quadrature value, one fsum over
    the 64 Gauss-Legendre terms of g(V', W') - kappa g(V, W) on each of its
    intervals, and its boundary value, one fsum over the terms g(V', W) at
    the two ends of each. Every value has the bits of a pair evaluated alone.
    """
    x, wq = gauss_legendre()
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    ts = mid[:, None] + half[:, None] * x
    c, s = cs(kappa, ts), sn(kappa, ts)
    ds = -kappa * s
    v, w = (av[:, None], bv[:, None]), (aw[:, None], bw[:, None])
    integrand = (_combine(ds, c, *v) * _combine(ds, c, *w)).sum(axis=-1) - kappa * (
        _combine(c, s, *v) * _combine(c, s, *w)
    ).sum(axis=-1)
    quad_terms = half[:, None] * wq * integrand
    ends = []
    for t in (t1, t0):
        c, s = cs(kappa, t), sn(kappa, t)
        ends.append(_dots(_combine(-kappa * s, c, av, bv), _combine(c, s, aw, bw)))
    bdry_terms = np.column_stack([ends[0], -ends[1]])
    cuts = np.cumsum([0, *counts]).tolist()
    spans = list(zip(cuts[:-1], cuts[1:]))
    return (
        [math.fsum(quad_terms[i:j].ravel().tolist()) for i, j in spans],
        [math.fsum(bdry_terms[i:j].ravel().tolist()) for i, j in spans],
    )


def _routes_agree(quad: float, bdry: float) -> float:
    """The boundary value, once the quadrature meets it by the ROUTE_ATOL /
    ROUTE_RTOL rule; disagreement raises, since it would mean either a broken
    piece solution or broken quadrature."""
    if abs(quad - bdry) > ROUTE_ATOL + ROUTE_RTOL * abs(bdry):
        raise InternalInconsistencyError(
            f"index form routes disagree: quadrature {quad!r} vs boundary {bdry!r}"
        )
    return bdry


def index_form(geodesic: ModelGeodesic, v, w) -> float:
    """Index form I(V, W), computed by quadrature and by boundary terms, which
    must agree by the ROUTE_ATOL / ROUTE_RTOL rule. Scaling t by a power of two
    lambda, and kappa by 1 / lambda^2, divides it by lambda exactly."""
    (quad,), (bdry,) = _index_form_routes(*_pair_rows(geodesic, v, w))
    return _routes_agree(quad, bdry)


def lagrange_wronskian(p: JacobiField, n: JacobiField, t) -> float | np.ndarray:
    """g(P, N') - g(P', N); constant in t for any two Jacobi fields."""
    if p.kappa != n.kappa:
        raise ValueError("fields must share one curvature")
    return _wronskian(p.kappa, p.a, p.b, n.a, n.b, t)


def _wronskian(kappa: float, ap, bp, an, bn, t):
    """:func:`lagrange_wronskian` on coefficients that broadcast against the
    shape of t, so a stack of pairs goes in one call."""
    c, s = cs(kappa, t), sn(kappa, t)
    ds = -kappa * s
    return (_combine(c, s, ap, bp) * _combine(ds, c, an, bn)).sum(axis=-1) - (
        _combine(ds, c, ap, bp) * _combine(c, s, an, bn)
    ).sum(axis=-1)


def vanishing_family(geodesic: ModelGeodesic) -> list[JacobiField]:
    """Frame basis of the fields vanishing at both ends (nonempty only at a
    conjugate endpoint)."""
    if not geodesic.endpoint_conjugate():
        return []
    dim = geodesic.frame_dim
    return [JacobiField(kappa=geodesic.curvature, a=np.zeros(dim), b=b) for b in np.eye(dim)]


def boundary_family(geodesic: ModelGeodesic) -> list[JacobiField]:
    """Frame basis of the fields vanishing at the far end whose derivative
    there is g-orthogonal to the derivatives of the vanishing family.

    At a conjugate endpoint this family is empty; otherwise the initial
    values span the whole frame.
    """
    if geodesic.endpoint_conjugate():
        return []
    return [solve_boundary_jacobi(geodesic, a) for a in np.eye(geodesic.frame_dim)]


# --------------------------------------------------------------------------
# the cutoff field and its diverging index values
# --------------------------------------------------------------------------


def _require_first_conjugate(geodesic: ModelGeodesic):
    kappa, length = geodesic.curvature, geodesic.length
    # the length is compared with pi / sqrt(kappa) before sn is evaluated:
    # far past it, sqrt(kappa) * length can overflow
    if kappa <= 0 or abs(length - math.pi / math.sqrt(kappa)) > 1e-9 or not geodesic.endpoint_conjugate():
        raise NoSolutionError(
            "cutoff construction needs the endpoint at the first conjugate time pi / sqrt(curvature)"
        )


def cutoff_field(geodesic: ModelGeodesic, w, eps: float) -> PiecewiseJacobi:
    """The two-piece comparison field used to exhibit divergence of the index
    form at a conjugate endpoint.

    On [eps, length] it is the kernel field J (J(0) = 0, J'(0) = w) scaled by
    1/|J(eps)|; on [0, eps] it is the Jacobi field interpolating w at 0 and
    J(eps)/|J(eps)| at eps. The junction is continuous by construction.
    """
    head_a, head_b, tail_b, refusal = _cutoff_stack(geodesic, w, [eps])
    if refusal is not None:
        raise refusal
    a = np.vstack([head_a, np.zeros_like(tail_b)])
    return PiecewiseJacobi(geodesic.curvature, np.array([0.0, eps, geodesic.length]), a, np.vstack([head_b, tail_b]))


def _cutoff_stack(geodesic: ModelGeodesic, w, eps):
    """The cutoff fields of the widths ``eps`` together: their head
    coefficients a and b and their tail coefficients b, up to the first width
    that :func:`cutoff_field` refuses, and that refusal (None when no width is
    refused)."""
    _require_first_conjugate(geodesic)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape[0] != geodesic.frame_dim:
        raise ValueError("w must have the frame dimension")
    if abs(np.linalg.norm(w) - 1.0) > 1e-6:
        raise ValueError("w must be a unit frame vector")
    kappa = geodesic.curvature
    eps = np.asarray(eps, dtype=float)
    n = _first(~((0 < eps) & (eps < geodesic.length / 2)))
    widths = eps[:n]
    s_eps = sn(kappa, widths)
    # only a width whose sn is below 1e-12 can overflow here, and the head's
    # interpolation refuses it as conjugate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tail_b = w / s_eps[:, None]
        junction = _combine(cs(kappa, widths), s_eps, np.zeros_like(w), tail_b)
    starts = np.broadcast_to(w, junction.shape)
    head_a, head_b, refusal = _joined(kappa, np.zeros(n), starts, widths, junction, widths, junction)
    if refusal is None and n < eps.shape[0]:
        refusal = ValueError("eps must lie in (0, length/2)")
    return head_a, head_b, tail_b[: head_a.shape[0]], refusal


def _two_piece_rows(brks: np.ndarray, length: float, *pieces):
    """The arguments after kappa of :func:`_index_form_routes` for pairs of
    fields on [0, length] that both break at brks[i] alone: ``pieces`` are the
    (head, tail) stacks of av, bv, aw and bw, one row per pair."""
    t0 = np.column_stack([np.zeros_like(brks), brks]).ravel()
    t1 = np.column_stack([brks, np.full_like(brks, length)]).ravel()
    rows = [np.stack(piece, axis=1).reshape(-1, piece[0].shape[1]) for piece in pieces]
    return (t0, t1, *rows, [2] * brks.shape[0])


def index_divergence(geodesic: ModelGeodesic, w, eps_values) -> np.ndarray:
    """I(V_eps, V_eps) for each eps; diverges to -infinity as eps -> 0.

    The cutoff fields of all widths are built together and evaluated in one
    kernel call. The routes are then held to the ROUTE_ATOL / ROUTE_RTOL rule
    width by width, so the error raised is that of the first width that
    :func:`cutoff_field` or :func:`index_form` refuses.
    """
    eps = [float(e) for e in eps_values]
    if not eps:  # no field is built, so neither the geodesic nor w is checked
        return np.array([])
    head_a, head_b, tail_b, refusal = _cutoff_stack(geodesic, w, eps)
    a, b = (head_a, np.zeros_like(tail_b)), (head_b, tail_b)
    rows = _two_piece_rows(np.array(eps[: head_a.shape[0]]), geodesic.length, a, b, a, b)
    quad, bdry = _index_form_routes(geodesic.curvature, *rows)
    values = [_routes_agree(q, v) for q, v in zip(quad, bdry)]
    if refusal is not None:
        raise refusal
    return np.array(values)


def boundary_norm_bound(geodesic: ModelGeodesic) -> float:
    """sup over eps in (0, top] and over frame-wise Jacobi fields with
    |J(0)| = |J(eps)| = 1 of the sup norm of J on [0, eps]; top is length / 2,
    capped at 0.99 pi / sqrt(kappa).

    The extremal one-component fields have J(0) = 1 and J(eps) = +-1. For
    kappa > 0 and a = sqrt(kappa) eps / 2 they are sin(a - sqrt(kappa) t) / sin a
    and cos(sqrt(kappa) t - a) / cos a, which peak at 1 and 1 / cos a; for
    kappa <= 0 they are affine or built from sinh and cosh, and stay within 1.
    """
    kappa, length = geodesic.curvature, geodesic.length
    if kappa <= 0:
        return 1.0
    top = min(length / 2, 0.99 * math.pi / math.sqrt(kappa))
    return 1.0 / math.cos(math.sqrt(kappa) * top / 2)


# --------------------------------------------------------------------------
# second-order distance models
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SecondOrderModel:
    """Upper Taylor model c0 - t cos(theta) + h t^2 / 2 for the distance along
    a unit-speed curve leaving at angle theta from the minimizing direction."""

    c0: float
    theta: float
    h: float

    def __call__(self, t):
        return self.c0 - np.asarray(t, dtype=float) * math.cos(self.theta) + 0.5 * self.h * np.asarray(t, dtype=float) ** 2


def model_distance(kappa: float, c0: float, theta: float, t):
    """Distance from the endpoint of a length-c0 geodesic to exp(t w) in the
    constant-curvature model, with theta the angle at the corner.

    Law of cosines in each curvature sign; exact, used as the oracle.
    """
    t = np.asarray(t, dtype=float)
    if kappa > 0:
        rk = math.sqrt(kappa)
        val = np.cos(rk * c0) * np.cos(rk * t) + np.sin(rk * c0) * np.sin(rk * t) * math.cos(theta)
        return np.arccos(np.clip(val, -1.0, 1.0)) / rk
    if kappa == 0:
        return np.sqrt(c0 * c0 - 2.0 * c0 * t * math.cos(theta) + t * t)
    rk = math.sqrt(-kappa)
    val = np.cosh(rk * c0) * np.cosh(rk * t) - np.sinh(rk * c0) * np.sinh(rk * t) * math.cos(theta)
    return np.arccosh(np.maximum(1.0, val)) / rk


def second_variation_check(kappa: float, c0: float, theta: float) -> tuple[SecondOrderModel, np.ndarray]:
    """Normalized excess (dist(exp(t w)) - model(t)) / t^2 at t = 2^-k, k = 4..12.

    The model's quadratic coefficient comes from the boundary Jacobi field of
    the normal component sin(theta) of the outgoing direction, via
    H = -g(J'(0), J(0)). Nonpositive limsup of the excess is the numerical
    form of the second-order upper bound. A conjugate endpoint has no boundary
    field, so :func:`solve_boundary_jacobi` raises NoSolutionError there.
    """
    geodesic = ModelGeodesic(curvature=kappa, length=c0, frame_dim=1)
    j = solve_boundary_jacobi(geodesic, [math.sin(theta)])
    h = -float(j.derivative(0.0) @ j.value(0.0))
    model = SecondOrderModel(c0=c0, theta=theta, h=h)
    ts = np.array([2.0**-k for k in range(4, 13)])
    excess = (model_distance(kappa, c0, theta, ts) - model(ts)) / ts**2
    return model, excess


# --------------------------------------------------------------------------
# the jacobi-verify suite
# --------------------------------------------------------------------------


def _random_pairs(kappa: float, brks: np.ndarray, draws: np.ndarray, length: float):
    """The arguments of :func:`_index_form_routes` for pairs (V, W) of
    two-piece fields on [0, length], both fields of pair i broken at brks[i].
    Each field takes six of its pair's twelve ``draws``: its head's a and b,
    then the value at ``length`` that its tail interpolates from the head's
    value at the break."""
    a, b, end = draws.reshape(-1, 3, 2).transpose(1, 0, 2)  # the rows alternate V and W
    at = np.repeat(brks, 2)
    joint = _combine(cs(kappa, at), sn(kappa, at), a, b)
    tail_a, tail_b, refusal = _joined(kappa, at, joint, np.full_like(at, length), end, at, joint)
    if refusal is not None:
        raise refusal
    pieces = ((head[k::2], tail[k::2]) for k in (0, 1) for head, tail in ((a, tail_a), (b, tail_b)))
    return _two_piece_rows(brks, length, *pieces)


def invariant_checks(seed: int) -> list[dict]:
    """Closed-form identities, oracles and refusals of this module, each as
    {"name", "passed", "detail"}; the random cases are drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    checks = []

    def add(name: str, passed: bool, detail: str):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    f = solve_boundary_jacobi(ModelGeodesic(0.0, 1.0, 1), [1.0])
    ts = np.linspace(0, 1, 9)
    err = float(np.max(np.abs(f.value(ts)[:, 0] - (1 - ts))))
    add("boundary_field_flat_line", err < 1e-12, f"max deviation from 1-t: {err:.3e}")

    fs = solve_boundary_jacobi(ModelGeodesic(1.0, math.pi / 2, 1), [1.0])
    err = float(np.max(np.abs(fs.value(ts)[:, 0] - np.cos(ts))))
    add("boundary_field_sphere_cosine", err < 1e-12, f"max deviation from cos t: {err:.3e}")

    try:
        solve_boundary_jacobi(ModelGeodesic(1.0, math.pi, 1), [1.0])
        add("conjugate_rejection", False, "no error at a conjugate endpoint")
    except NoSolutionError:
        add("conjugate_rejection", True, "NoSolutionError raised at the conjugate endpoint")

    ok = True
    for kappa in (-1.0, 0.0, 1.0):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        fld = JacobiField(kappa=kappa, a=a, b=b)
        deriv = JacobiField(kappa=kappa, a=b, b=-kappa * a)
        second = JacobiField(kappa=kappa, a=-kappa * a, b=-kappa * b)
        tprobe = rng.random(5) * 2
        ok &= bool(np.allclose(fld.derivative(tprobe), deriv.value(tprobe), atol=0))
        ok &= bool(np.allclose(second.value(tprobe), -kappa * fld.value(tprobe), atol=0))
    add("jacobi_equation_coefficients", ok, "J'' + kappa J = 0 at coefficient level")

    worst = 0.0
    for kappa in (-1.0, 0.0, 1.0):
        # 20 pairs (P, N), each drawn as P.a, P.b, N.a, N.b
        coefficients = rng.standard_normal((20, 4, 1, 2)).transpose(1, 0, 2, 3)
        vals = _wronskian(kappa, *coefficients, np.linspace(0, 2.5, 11))
        for spread in np.ptp(vals, axis=-1).tolist():
            worst = max(worst, spread)
    add("lagrange_identity_constant", worst < 1e-10, f"max wronskian spread: {worst:.3e}")

    conj = ModelGeodesic(1.0, math.pi, 3)
    kernel = vanishing_family(conj)
    dots = [float(np.abs(p.value(0.0) @ n.derivative(0.0)).max()) for p in kernel for n in kernel]
    add(
        "kernel_orthogonality",
        all(d == 0.0 for d in dots) and not boundary_family(conj),
        "fields vanishing at both ends start at the origin; boundary family empty",
    )

    worst = 0.0
    for kappa in (-1.0, 0.0, 1.0):
        brks, draws = np.empty(25), np.empty((25, 12))
        for i in range(25):
            brks[i] = rng.uniform(0.4, 1.6)
            draws[i] = rng.standard_normal(12)
        quad, bdry = _index_form_routes(kappa, *_random_pairs(kappa, brks, draws, 2.0))
        for q, b in zip(quad, bdry):
            worst = max(worst, abs(q - b))
    add("index_form_cross_check", worst < ROUTE_ATOL, f"max route disagreement: {worst:.3e}")

    geo_pi = ModelGeodesic(1.0, math.pi, 1)
    v = cutoff_field(geo_pi, [1.0], 0.1)
    head, tail = _combine(cs(v.kappa, 0.1), sn(v.kappa, 0.1), v.a, v.b)
    jump = float(np.linalg.norm(head - tail))
    start = float(np.linalg.norm(v.value(0.0) - np.array([1.0])))
    add("cutoff_continuity", jump == 0.0 and start < 1e-12, f"junction jump {jump:.1e}, start offset {start:.1e}")

    eps = 0.1
    oracle = -math.cos(eps) / math.sin(eps) - math.sin(eps) + math.tan(eps / 2) * (math.cos(eps) - 1)
    got = float(index_divergence(geo_pi, [1.0], [eps])[0])
    add("index_divergence_oracle", abs(got - oracle) < 1e-6, f"value {got:.9f} vs closed form {oracle:.9f}")

    seq = index_divergence(geo_pi, [1.0], [2.0**-k for k in range(3, 13)])
    add(
        "index_divergence_monotone",
        bool(np.all(np.diff(seq) < 0) and seq[-1] < -1e3),
        f"final value {seq[-1]:.1f}",
    )

    b_flat = boundary_norm_bound(ModelGeodesic(0.0, 2.0, 1))
    add("boundary_norm_flat", abs(b_flat - 1.0) < 1e-9, f"flat bound {b_flat:.6f} (affine fields peak at the ends)")

    b_sph = boundary_norm_bound(ModelGeodesic(1.0, math.pi, 1))
    add("boundary_norm_sphere", abs(b_sph - math.sqrt(2)) < 1e-12, f"bound {b_sph:.6f} vs pinned sqrt(2)")

    _, excess = second_variation_check(0.0, 1.0, 2 * math.pi / 3)
    add("second_variation_flat", bool(np.all(excess[-3:] <= 1e-6)), f"tail excess {excess[-1]:.3e}")
    model, _ = second_variation_check(0.0, 1.0, math.pi / 3)
    expect = math.sin(math.pi / 3) ** 2 / 1.0
    add("flat_quadratic_coefficient", abs(model.h - expect) < 1e-12, f"h {model.h:.12f} vs sin^2(theta)/c0")

    _, excess = second_variation_check(1.0, math.pi / 2, math.pi / 2)
    add("second_variation_sphere_perp", bool(np.all(np.abs(excess) <= 1e-6)), f"max |excess| {np.max(np.abs(excess)):.3e}")

    theta = 1.1
    tsmall = np.array([2.0**-k for k in range(6, 13)])
    lead = (model_distance(1.0, 1.2, theta, tsmall) - 1.2) / tsmall + math.cos(theta)
    add(
        "first_order_leading_term",
        bool(np.all(np.abs(lead) <= 2.0 * tsmall)),
        f"residual/t stays bounded: max ratio {np.max(np.abs(lead) / tsmall):.3f}",
    )

    try:
        second_variation_check(1.0, math.pi, 0.3)
        add("conjugate_model_rejection", False, "no error for the conjugate model")
    except NoSolutionError:
        add("conjugate_model_rejection", True, "conjugate model refers to the divergence path")

    return checks
