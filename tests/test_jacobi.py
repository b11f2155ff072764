"""Jacobi fields, the dual-route index form, and second-order models."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subindex import jacobi
from subindex.cli import main
from subindex.errors import InternalInconsistencyError, NoSolutionError
from subindex.jacobi import (
    JacobiField,
    ModelGeodesic,
    PiecewiseJacobi,
    boundary_family,
    boundary_norm_bound,
    cs,
    cutoff_field,
    index_divergence,
    index_form,
    index_form_boundary,
    index_form_quadrature,
    lagrange_wronskian,
    model_distance,
    second_variation_check,
    sn,
    solve_boundary_jacobi,
    vanishing_family,
)

KAPPAS = (-1.0, 0.0, 1.0)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_sn_cs_solve_the_equation(kappa: float):
    ts = np.linspace(0.0, 2.0, 9)
    h = 1e-4
    for t in ts[1:]:
        second = (sn(kappa, t + h) - 2 * sn(kappa, t) + sn(kappa, t - h)) / h**2
        assert second == pytest.approx(-kappa * sn(kappa, t), abs=1e-5)
        second = (cs(kappa, t + h) - 2 * cs(kappa, t) + cs(kappa, t - h)) / h**2
        assert second == pytest.approx(-kappa * cs(kappa, t), abs=1e-5)
    assert sn(kappa, 0.0) == 0.0
    assert cs(kappa, 0.0) == 1.0


def test_boundary_field_flat_is_one_minus_t():
    field = solve_boundary_jacobi(ModelGeodesic(0.0, 1.0, 1), [1.0])
    ts = np.linspace(0, 1, 11)
    np.testing.assert_allclose(field.value(ts)[:, 0], 1 - ts, atol=1e-14)


def test_boundary_field_sphere_quarter_is_cosine():
    field = solve_boundary_jacobi(ModelGeodesic(1.0, math.pi / 2, 1), [1.0])
    ts = np.linspace(0, math.pi / 2, 11)
    np.testing.assert_allclose(field.value(ts)[:, 0], np.cos(ts), atol=1e-14)


def test_boundary_solve_rejects_conjugate_endpoint():
    with pytest.raises(NoSolutionError):
        solve_boundary_jacobi(ModelGeodesic(1.0, math.pi, 1), [1.0])


def test_two_point_interpolation_rejects_conjugate_parameters():
    with pytest.raises(NoSolutionError):
        JacobiField.from_two_point(1.0, 0.0, [1.0], math.pi, [1.0])


def test_conjugate_times_enumeration():
    geo = ModelGeodesic(4.0, 5.0, 1)  # conjugate spacing pi/2
    assert geo.conjugate_times() == pytest.approx([math.pi / 2, math.pi, 3 * math.pi / 2])
    assert ModelGeodesic(-1.0, 50.0, 1).conjugate_times() == []
    assert ModelGeodesic(0.0, 50.0, 1).conjugate_times() == []


def test_piecewise_rejects_discontinuity():
    f0 = JacobiField(kappa=0.0, a=[1.0], b=[0.0])
    f1 = JacobiField(kappa=0.0, a=[5.0], b=[0.0])
    with pytest.raises(ValueError):
        PiecewiseJacobi(breaks=np.array([0.0, 0.5, 1.0]), fields=(f0, f1))


def test_piecewise_rejects_mixed_curvature():
    f0 = JacobiField(kappa=0.0, a=[1.0], b=[0.0])
    f1 = JacobiField(kappa=1.0, a=[1.0], b=[0.0])
    with pytest.raises(ValueError):
        PiecewiseJacobi(breaks=np.array([0.0, 0.5, 1.0]), fields=(f0, f1))


def test_index_form_flat_linear_field():
    geo = ModelGeodesic(0.0, 1.0, 1)
    field = JacobiField(kappa=0.0, a=[0.0], b=[1.0])  # J(t) = t
    assert index_form(geo, field, field) == pytest.approx(1.0, abs=1e-12)


def test_index_form_sphere_kernel_field_vanishes():
    geo = ModelGeodesic(1.0, math.pi, 1)
    field = JacobiField(kappa=1.0, a=[0.0], b=[1.0])  # J(t) = sin t
    assert index_form(geo, field, field) == pytest.approx(0.0, abs=1e-12)


def test_index_form_requires_matching_curvature():
    geo = ModelGeodesic(1.0, 1.0, 1)
    field = JacobiField(kappa=0.0, a=[1.0], b=[0.0])
    with pytest.raises(ValueError):
        index_form(geo, field, field)


def test_index_form_detects_route_disagreement():
    # a deliberately wrong "piecewise Jacobi" built from mismatched pieces
    # cannot be constructed through the public type, so simulate by lowering
    # the cross-check tolerance below the honest numerical agreement
    geo = ModelGeodesic(1.0, math.pi, 1)
    v = cutoff_field(geo, [1.0], 2.0**-12)
    with pytest.raises(InternalInconsistencyError):
        index_form(geo, v, v, atol=1e-16)


def _random_piecewise(rng, kappa: float, length: float) -> PiecewiseJacobi:
    brk = float(rng.uniform(0.3, length - 0.3))
    f0 = JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
    f1 = JacobiField.from_two_point(
        kappa, brk, f0.value(brk), length, rng.standard_normal(2)
    )
    return PiecewiseJacobi(breaks=np.array([0.0, brk, length]), fields=(f0, f1))


@pytest.mark.parametrize("kappa", KAPPAS)
def test_index_form_routes_agree_on_random_fields(kappa: float):
    rng = np.random.default_rng(17)
    geo = ModelGeodesic(kappa, 2.0, 2)
    for _ in range(100):
        v = _random_piecewise(rng, kappa, 2.0)
        w = _random_piecewise(rng, kappa, 2.0)
        quad = index_form_quadrature(geo, v, w)
        bdry = index_form_boundary(v, w)
        assert abs(quad - bdry) < 1e-8


@pytest.mark.parametrize("nodes", [64, 65, 100])
def test_gauss_legendre_rule_is_exact_shared_and_read_only(nodes: int):
    x, wq = jacobi._gauss_legendre(nodes)
    want_x, want_w = np.polynomial.legendre.leggauss(nodes)
    np.testing.assert_array_equal(x, want_x)
    np.testing.assert_array_equal(wq, want_w)
    assert jacobi._gauss_legendre(nodes)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        wq[0] = 0.0


def test_jacobi_verify_builds_the_rule_once(monkeypatch, tmp_path):
    """A whole jacobi-verify run (86 quadratures) builds the 64-node rule once."""
    built = Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counting(nodes):
        built[nodes] += 1
        return leggauss(nodes)

    jacobi._gauss_legendre.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    try:
        assert main(["jacobi-verify", "--seed", "5", "--out", str(tmp_path / "r.json")]) == 0
    finally:
        jacobi._gauss_legendre.cache_clear()
    assert built == {64: 1}


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), kappa=st.sampled_from(KAPPAS))
def test_lagrange_identity_is_constant(seed: int, kappa: float):
    rng = np.random.default_rng(seed)
    p = JacobiField(kappa=kappa, a=rng.standard_normal(3), b=rng.standard_normal(3))
    n = JacobiField(kappa=kappa, a=rng.standard_normal(3), b=rng.standard_normal(3))
    vals = lagrange_wronskian(p, n, np.linspace(0.0, 2.5, 13))
    assert np.ptp(vals) < 1e-10
    # and the constant is the t = 0 value a_p . b_n - b_p . a_n
    assert vals[0] == pytest.approx(float(p.a @ n.b - p.b @ n.a), abs=1e-12)


def test_cutoff_field_matches_closed_form_head():
    geo = ModelGeodesic(1.0, math.pi, 1)
    v = cutoff_field(geo, [1.0], 0.1)
    ts = np.linspace(0.0, 0.1, 7)
    expected = np.cos(ts) + math.tan(0.05) * np.sin(ts)
    np.testing.assert_allclose(v.fields[0].value(ts)[:, 0], expected, atol=1e-12)
    # tail piece is the normalized kernel field sin(t)/sin(eps)
    ts_tail = np.linspace(0.1, math.pi, 7)
    np.testing.assert_allclose(
        v.fields[1].value(ts_tail)[:, 0], np.sin(ts_tail) / math.sin(0.1), atol=1e-12
    )


def test_cutoff_field_requires_first_conjugate_endpoint():
    with pytest.raises(NoSolutionError):
        cutoff_field(ModelGeodesic(1.0, 2 * math.pi, 1), [1.0], 0.1)
    with pytest.raises(NoSolutionError):
        cutoff_field(ModelGeodesic(0.0, 1.0, 1), [1.0], 0.1)


def test_index_divergence_matches_closed_form_oracle():
    geo = ModelGeodesic(1.0, math.pi, 1)
    for eps in (0.1, 0.05):
        oracle = (
            -math.cos(eps) / math.sin(eps)
            - math.sin(eps)
            + math.tan(eps / 2) * (math.cos(eps) - 1.0)
        )
        got = float(index_divergence(geo, [1.0], [eps])[0])
        assert got == pytest.approx(oracle, abs=1e-6)
    # spot values: about -10.067 and -20.03 at the two epsilons
    assert float(index_divergence(geo, [1.0], [0.1])[0]) == pytest.approx(
        -10.0667278400, abs=1e-6
    )


def test_index_divergence_strictly_decreasing_and_unbounded():
    geo = ModelGeodesic(1.0, math.pi, 1)
    eps = [2.0**-k for k in range(3, 13)]
    vals = index_divergence(geo, [1.0], eps)
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < -1e3


def test_boundary_norm_bound_flat_is_one():
    bound = boundary_norm_bound(ModelGeodesic(0.0, 2.0, 1))
    assert bound == pytest.approx(1.0, abs=1e-12)


def test_boundary_norm_bound_sphere_is_sqrt_two():
    bound = boundary_norm_bound(ModelGeodesic(1.0, math.pi, 1))
    assert bound == pytest.approx(math.sqrt(2.0), abs=1e-4)


def _boundary_norm_bound_loop(geodesic: ModelGeodesic) -> float:
    """The bound as a loop over eps and the two targets J(eps) = +-1."""
    kappa, length = geodesic.curvature, geodesic.length
    top = length / 2
    if kappa > 0:
        top = min(top, 0.99 * math.pi / math.sqrt(kappa))
    best = 0.0
    for eps in np.linspace(top / 200, top, 200):
        s_e, c_e = sn(kappa, eps), cs(kappa, eps)
        ts = np.linspace(0.0, eps, 512)
        for target in (1.0, -1.0):
            b = (target - c_e) / s_e
            best = max(best, float(np.abs(cs(kappa, ts) + b * sn(kappa, ts)).max()))
    return best


@pytest.mark.parametrize("kappa", [-1.0, 0.0, 0.3, 1.0, 4.0])
@pytest.mark.parametrize("length", [2.0, 12.0])
def test_boundary_norm_bound_equals_the_loop_over_eps(kappa: float, length: float):
    # length 12 puts every positive curvature's eps range at 0.99 pi / sqrt(kappa)
    geodesic = ModelGeodesic(kappa, length, 1)
    assert boundary_norm_bound(geodesic) == _boundary_norm_bound_loop(geodesic)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_scalar_t_gives_the_closed_form_bit_for_bit(kappa: float):
    rng = np.random.default_rng(5)
    f = JacobiField(kappa=kappa, a=rng.standard_normal(3), b=rng.standard_normal(3))
    for t in rng.random(10) * 3:
        c, s = cs(kappa, t), sn(kappa, t)
        assert np.array_equal(f.value(t), f.a * c + f.b * s)
        assert np.array_equal(f.derivative(t), -kappa * s * f.a + c * f.b)
        assert np.array_equal(f.value(t), f.value(np.array([t]))[0])


def test_vanishing_family_only_at_conjugate_endpoint():
    assert vanishing_family(ModelGeodesic(1.0, 1.0, 2)) == []
    fam = vanishing_family(ModelGeodesic(1.0, math.pi, 2))
    assert len(fam) == 2
    for f in fam:
        np.testing.assert_allclose(f.value(0.0), 0.0, atol=0)
        np.testing.assert_allclose(f.value(math.pi), 0.0, atol=1e-12)


def test_boundary_family_spans_the_frame_when_not_conjugate():
    geo = ModelGeodesic(1.0, 2.0, 3)
    fam = boundary_family(geo)
    starts = np.array([f.value(0.0) for f in fam])
    np.testing.assert_allclose(starts, np.eye(3), atol=1e-12)
    for f in fam:
        np.testing.assert_allclose(f.value(2.0), 0.0, atol=1e-12)
    assert boundary_family(ModelGeodesic(1.0, math.pi, 3)) == []


def test_families_are_wronskian_orthogonal_at_conjugate_model():
    """Kernel fields start at the origin, so every pairing degenerates."""
    geo = ModelGeodesic(1.0, math.pi, 2)
    for n_field in vanishing_family(geo):
        assert np.all(n_field.value(0.0) == 0.0)
        w = lagrange_wronskian(n_field, n_field, 0.0)
        assert w == 0.0


@pytest.mark.parametrize(
    "kappa,c0,theta",
    [(0.0, 1.0, math.pi / 3), (0.0, 0.7, 2.0), (1.0, 1.2, 0.8), (-1.0, 0.9, 1.3)],
)
def test_second_order_model_coefficient(kappa: float, c0: float, theta: float):
    model, _ = second_variation_check(kappa, c0, theta)
    expected = math.sin(theta) ** 2 * cs(kappa, c0) / sn(kappa, c0)
    assert model.h == pytest.approx(expected, abs=1e-12)


def test_flat_quadratic_coefficient_closed_form():
    model, excess = second_variation_check(0.0, 1.0, math.pi / 3)
    assert model.h == pytest.approx(math.sin(math.pi / 3) ** 2 / 1.0, abs=1e-15)
    # the exact flat distance has a positive cubic term here, so the
    # normalized excess decays linearly to zero from above
    assert np.all(np.diff(np.abs(excess)) < 0)
    assert abs(excess[-1]) < 1e-4


def test_second_variation_obtuse_flat_is_eventually_tiny():
    _, excess = second_variation_check(0.0, 1.0, 2 * math.pi / 3)
    assert np.all(excess[-4:] <= 1e-6)


def test_second_variation_sphere_perpendicular_is_exact():
    _, excess = second_variation_check(1.0, math.pi / 2, math.pi / 2)
    np.testing.assert_allclose(excess, 0.0, atol=1e-9)


def test_second_variation_rejects_conjugate_model():
    with pytest.raises(NoSolutionError):
        second_variation_check(1.0, math.pi, 0.5)


def test_model_distance_agrees_with_euclidean_law_of_cosines():
    rng = np.random.default_rng(4)
    for _ in range(20):
        c0, t = rng.uniform(0.2, 1.5, size=2)
        theta = rng.uniform(0.0, math.pi)
        expected = math.sqrt(c0**2 - 2 * c0 * t * math.cos(theta) + t**2)
        assert float(model_distance(0.0, c0, theta, t)) == pytest.approx(expected)


def test_model_distance_sphere_along_geodesic():
    # theta = 0 walks straight toward the base point
    ts = np.linspace(0.0, 0.4, 5)
    np.testing.assert_allclose(model_distance(1.0, 1.0, 0.0, ts), 1.0 - ts, atol=1e-12)


def test_model_distance_small_time_first_order():
    for kappa in KAPPAS:
        theta = 1.1
        ts = np.array([2.0**-k for k in range(6, 13)])
        lead = (model_distance(kappa, 1.2, theta, ts) - 1.2) / ts + math.cos(theta)
        assert np.all(np.abs(lead) <= 2.0 * ts)
