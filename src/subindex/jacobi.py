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
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.frame_dim < 1:
            raise ValueError("frame_dim must be at least 1")

    def endpoint_conjugate(self) -> bool:
        """Whether the endpoint is a conjugate parameter (sn vanishes there)."""
        return self.curvature > 0 and abs(sn(self.curvature, self.length)) < CONJUGATE_TOL


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
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def frame_dim(self) -> int:
        return self.a.shape[0]

    def value(self, t):
        """J(t), with shape ``np.shape(t) + (frame_dim,)``."""
        return np.multiply.outer(cs(self.kappa, t), self.a) + np.multiply.outer(sn(self.kappa, t), self.b)

    def derivative(self, t):
        """J'(t), with shape ``np.shape(t) + (frame_dim,)``."""
        return np.multiply.outer(-self.kappa * sn(self.kappa, t), self.a) + np.multiply.outer(cs(self.kappa, t), self.b)

    @classmethod
    def from_two_point(cls, kappa: float, t0: float, v0, t1: float, v1) -> "JacobiField":
        """The Jacobi field with prescribed values at two parameters.

        Raises NoSolutionError when the parameters are conjugate to each other
        (the interpolation matrix is singular).
        """
        v0 = np.atleast_1d(np.asarray(v0, dtype=float))
        v1 = np.atleast_1d(np.asarray(v1, dtype=float))
        c0, s0 = cs(kappa, t0), sn(kappa, t0)
        c1, s1 = cs(kappa, t1), sn(kappa, t1)
        det = c0 * s1 - s0 * c1
        if abs(det) < 1e-12:
            raise NoSolutionError(
                f"parameters {t0} and {t1} are conjugate; no interpolating field"
            )
        a = (v0 * s1 - v1 * s0) / det
        b = (c0 * v1 - c1 * v0) / det
        return cls(kappa=kappa, a=a, b=b)


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
    """A continuous field on [breaks[0], breaks[-1]], Jacobi on each piece."""

    breaks: np.ndarray
    fields: tuple

    def __post_init__(self):
        breaks = np.asarray(self.breaks, dtype=float)
        fields = tuple(self.fields)
        if breaks.ndim != 1 or breaks.shape[0] != len(fields) + 1:
            raise ValueError("need len(fields) + 1 breakpoints")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        kappas = {f.kappa for f in fields}
        if len(kappas) > 1:
            raise ValueError("all pieces must share one curvature")
        dims = {f.frame_dim for f in fields}
        if len(dims) > 1:
            raise ValueError("all pieces must share one frame dimension")
        for i in range(len(fields) - 1):
            left = fields[i].value(breaks[i + 1])
            right = fields[i + 1].value(breaks[i + 1])
            if np.linalg.norm(left - right) > 1e-9:
                raise ValueError(
                    f"field is discontinuous at breakpoint {breaks[i + 1]}"
                )
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "fields", fields)

    @property
    def kappa(self) -> float:
        return self.fields[0].kappa

    @property
    def frame_dim(self) -> int:
        return self.fields[0].frame_dim

    def pieces_at(self, ts) -> list:
        """The piece active at each parameter of ``ts``, the right one at a break."""
        idx = np.clip(np.searchsorted(self.breaks, ts, side="right") - 1, 0, len(self.fields) - 1)
        return [self.fields[i] for i in np.atleast_1d(idx)]

    def value(self, t: float) -> np.ndarray:
        return self.pieces_at(t)[0].value(t)


def _as_piecewise(v, geodesic: ModelGeodesic) -> PiecewiseJacobi:
    if isinstance(v, JacobiField):
        return PiecewiseJacobi(breaks=np.array([0.0, geodesic.length]), fields=(v,))
    return v


def _aligned_pieces(v: PiecewiseJacobi, w: PiecewiseJacobi):
    """Common refinement of the two partitions, with the active piece of each
    field per refined interval."""
    if (
        abs(v.breaks[0] - w.breaks[0]) > 1e-12
        or abs(v.breaks[-1] - w.breaks[-1]) > 1e-12
    ):
        raise ValueError("fields must share their parameter interval")
    cuts = np.union1d(v.breaks, w.breaks)
    merged = [float(cuts[0])]
    for c in cuts[1:]:
        if float(c) - merged[-1] > 1e-12:
            merged.append(float(c))
    mids = 0.5 * (np.array(merged[:-1]) + np.array(merged[1:]))
    return zip(merged[:-1], merged[1:], v.pieces_at(mids), w.pieces_at(mids))


def index_form_quadrature(geodesic: ModelGeodesic, v: PiecewiseJacobi, w: PiecewiseJacobi) -> float:
    """64-node Gauss-Legendre evaluation of int g(V', W') - kappa g(V, W) dt per piece."""
    x, wq = gauss_legendre()
    kappa = geodesic.curvature
    total = []
    for t0, t1, fv, fw in _aligned_pieces(v, w):
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        ts = mid + half * x
        integrand = (fv.derivative(ts) * fw.derivative(ts)).sum(axis=1) - kappa * (
            fv.value(ts) * fw.value(ts)
        ).sum(axis=1)
        total.extend((half * wq * integrand).tolist())
    return math.fsum(total)


def index_form_boundary(v: PiecewiseJacobi, w: PiecewiseJacobi) -> float:
    """Boundary-term evaluation sum over pieces of [g(V', W)] at the ends.

    Valid because V solves the Jacobi equation on each refined piece, so
    integrating g(V', W') - kappa g(V, W) by parts leaves only the endpoint
    terms.
    """
    terms = []
    for t0, t1, fv, fw in _aligned_pieces(v, w):
        terms.append(float(fv.derivative(t1) @ fw.value(t1)))
        terms.append(-float(fv.derivative(t0) @ fw.value(t0)))
    return math.fsum(terms)


def index_form(geodesic: ModelGeodesic, v, w, atol: float = 1e-8) -> float:
    """Index form I(V, W), computed by quadrature and by boundary terms.

    The two routes are cross-asserted within ``atol``; disagreement raises,
    since it would mean either a broken piece solution or broken quadrature.
    """
    v = _as_piecewise(v, geodesic)
    w = _as_piecewise(w, geodesic)
    if v.kappa != geodesic.curvature or w.kappa != geodesic.curvature:
        raise ValueError("field curvature does not match the geodesic")
    quad = index_form_quadrature(geodesic, v, w)
    bdry = index_form_boundary(v, w)
    if abs(quad - bdry) > atol:
        raise InternalInconsistencyError(
            f"index form routes disagree: quadrature {quad!r} vs boundary {bdry!r}"
        )
    return bdry


def lagrange_wronskian(p: JacobiField, n: JacobiField, t) -> float | np.ndarray:
    """g(P, N') - g(P', N); constant in t for any two Jacobi fields."""
    return (p.value(t) * n.derivative(t)).sum(axis=-1) - (p.derivative(t) * n.value(t)).sum(axis=-1)


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
    _require_first_conjugate(geodesic)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape[0] != geodesic.frame_dim:
        raise ValueError("w must have the frame dimension")
    if abs(np.linalg.norm(w) - 1.0) > 1e-6:
        raise ValueError("w must be a unit frame vector")
    if not 0 < eps < geodesic.length / 2:
        raise ValueError("eps must lie in (0, length/2)")
    kappa = geodesic.curvature
    s_eps = sn(kappa, eps)
    kernel_scaled = JacobiField(kappa=kappa, a=np.zeros_like(w), b=w / s_eps)
    junction = kernel_scaled.value(eps)  # equals w up to rounding
    head = JacobiField.from_two_point(kappa, 0.0, w, eps, junction)
    return PiecewiseJacobi(
        breaks=np.array([0.0, eps, geodesic.length]), fields=(head, kernel_scaled)
    )


def index_divergence(geodesic: ModelGeodesic, w, eps_values) -> np.ndarray:
    """I(V_eps, V_eps) for each eps; diverges to -infinity as eps -> 0."""
    fields = (cutoff_field(geodesic, w, float(eps)) for eps in eps_values)
    return np.array([index_form(geodesic, v, v, atol=1e-6) for v in fields])


def boundary_norm_bound(geodesic: ModelGeodesic) -> float:
    """sup over eps and over frame-wise Jacobi fields with |J(0)| = |J(eps)| = 1
    of the sup norm of J on [0, eps].

    For each eps the extremal one-component fields have J(0) = 1 and
    J(eps) = +-1, giving two closed-form candidates whose max is sampled.
    """
    kappa, length = geodesic.curvature, geodesic.length
    top = length / 2
    if kappa > 0:
        top = min(top, 0.99 * math.pi / math.sqrt(kappa))
    eps = np.linspace(top / 200, top, 200)
    s_e, c_e = sn(kappa, eps), cs(kappa, eps)
    if np.any(np.abs(s_e) < 1e-12):
        raise NoSolutionError("eps is conjugate to 0; bound undefined there")
    ts = np.linspace(0.0, eps, 512, axis=1)  # row i samples [0, eps[i]]
    s_t, c_t = sn(kappa, ts), cs(kappa, ts)
    best = max(float(np.abs(c_t + ((target - c_e) / s_e)[:, None] * s_t).max()) for target in (1.0, -1.0))
    if not math.isfinite(best):
        raise InternalInconsistencyError("boundary norm bound overflowed")
    return best


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
    form of the second-order upper bound.
    """
    geodesic = ModelGeodesic(curvature=kappa, length=c0, frame_dim=1)
    if geodesic.endpoint_conjugate():
        raise NoSolutionError(
            "conjugate endpoint: no boundary field; see the index divergence path"
        )
    j = solve_boundary_jacobi(geodesic, [math.sin(theta)])
    h = -float(j.derivative(0.0) @ j.value(0.0))
    model = SecondOrderModel(c0=c0, theta=theta, h=h)
    ts = np.array([2.0**-k for k in range(4, 13)])
    excess = (model_distance(kappa, c0, theta, ts) - model(ts)) / ts**2
    return model, excess


# --------------------------------------------------------------------------
# the jacobi-verify suite
# --------------------------------------------------------------------------


def _random_piecewise(rng: np.random.Generator, kappa: float, brk: float, length: float):
    f0 = JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
    f1 = JacobiField.from_two_point(kappa, brk, f0.value(brk), length, rng.standard_normal(2))
    return PiecewiseJacobi(breaks=np.array([0.0, brk, length]), fields=(f0, f1))


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
        for _ in range(20):
            p = JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
            n = JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
            vals = lagrange_wronskian(p, n, np.linspace(0, 2.5, 11))
            worst = max(worst, float(np.ptp(vals)))
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
        geo = ModelGeodesic(kappa, 2.0, 2)
        for _ in range(25):
            brk = float(rng.uniform(0.4, 1.6))
            v = _random_piecewise(rng, kappa, brk, 2.0)
            w = _random_piecewise(rng, kappa, brk, 2.0)
            quad = index_form_quadrature(geo, v, w)
            bdry = index_form_boundary(v, w)
            worst = max(worst, abs(quad - bdry))
    add("index_form_cross_check", worst < 1e-8, f"max route disagreement: {worst:.3e}")

    geo_pi = ModelGeodesic(1.0, math.pi, 1)
    v = cutoff_field(geo_pi, [1.0], 0.1)
    jump = float(np.linalg.norm(v.fields[0].value(0.1) - v.fields[1].value(0.1)))
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
    add("boundary_norm_sphere", abs(b_sph - math.sqrt(2)) < 1e-4, f"bound {b_sph:.6f} vs pinned sqrt(2)")

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
