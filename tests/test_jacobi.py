"""Jacobi fields, the dual-route index form, and second-order models."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subindex.jacobi as jacobi_module
from oracles import (
    cutoff_field_per_width,
    index_divergence_per_width,
    index_form_boundary_per_piece,
    continuity_per_break,
    index_form_quadrature_per_piece,
    piecewise_per_break,
)
from subindex.cli import main
from subindex.errors import InternalInconsistencyError, NoSolutionError, SubindexError
from subindex.jacobi import (
    ROUTE_ATOL,
    ROUTE_RTOL,
    JacobiField,
    ModelGeodesic,
    PiecewiseJacobi,
    boundary_family,
    boundary_norm_bound,
    cs,
    cutoff_field,
    index_divergence,
    index_form,
    lagrange_wronskian,
    model_distance,
    second_variation_check,
    sn,
    solve_boundary_jacobi,
    vanishing_family,
)
from subindex.sampling import gauss_legendre

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


def test_piecewise_rejects_discontinuity():
    with pytest.raises(ValueError, match="discontinuous at breakpoint 0.5"):
        PiecewiseJacobi(0.0, [0.0, 0.5, 1.0], [[1.0], [5.0]], [[0.0], [0.0]])
    # a NaN break once made the gap NaN, which passed the 1e-9 test
    with pytest.raises(ValueError, match="must be finite"):
        PiecewiseJacobi(0.0, [0.0, math.nan, 1.0], [[1.0], [5.0]], [[0.0], [0.0]])


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


def test_index_form_requires_the_geodesic_interval():
    """J(t) = t on [0, 5] along a geodesic of length 1 is refused: it once
    gave the index form over [0, 5], 5.0."""
    geo = ModelGeodesic(0.0, 1.0, 1)
    line = PiecewiseJacobi(0.0, [0.0, 2.5, 5.0], [[0.0], [0.0]], [[1.0], [1.0]])
    with pytest.raises(ValueError, match=r"interval \[0, length\]"):
        index_form(geo, line, line)
    # the ends are held to 1e-12 times the length
    near = PiecewiseJacobi(0.0, [0.0, 0.5, 1.0 + 5e-13], [[0.0], [0.0]], [[1.0], [1.0]])
    assert index_form(geo, near, near) == pytest.approx(1.0, abs=1e-11)
    far = PiecewiseJacobi(0.0, [0.0, 0.5, 1.0 + 2e-12], [[0.0], [0.0]], [[1.0], [1.0]])
    with pytest.raises(ValueError, match="interval"):
        index_form(geo, near, far)


def test_index_form_integrates_pieces_shorter_than_1e_12():
    """Cuts closer than 1e-12 were once merged, which dropped whole pieces:
    J(t) = t along a geodesic of length 1e-13 gave 0.0, as did a field whose
    5e-13 head (V = 10^6 t, then constant) carries all of I(V, V) = 0.5. The
    ends were held to an absolute 1e-12, so a field ten times the length of
    that geodesic was accepted and gave 0.0; it is refused."""
    tiny = ModelGeodesic(0.0, 1e-13, 1)
    line = JacobiField(kappa=0.0, a=[0.0], b=[1.0])
    assert index_form(tiny, line, line) == pytest.approx(1e-13, rel=1e-12)
    ramp = PiecewiseJacobi(0.0, [0.0, 5e-13, 1.0], [[0.0], [5e-7]], [[1e6], [0.0]])
    assert index_form(ModelGeodesic(0.0, 1.0, 1), ramp, ramp) == pytest.approx(0.5, rel=1e-12)
    too_long = PiecewiseJacobi(0.0, [0.0, 1e-12], [[0.0]], [[1.0]])
    with pytest.raises(ValueError, match="interval"):
        index_form(tiny, too_long, too_long)


def test_index_divergence_keeps_a_head_of_width_1e_12():
    """At curvature 1e6 the cutoff field of width 1e-12 once lost its head to
    the merge and was refused; its value is the per-width loop's, near the
    closed form sqrt(kappa) (-cot(sqrt(kappa) eps) - 2 tan(sqrt(kappa) eps / 2))."""
    geo = ModelGeodesic(1e6, math.pi / 1e3, 1)
    got = index_divergence(geo, [1.0], [1e-12])
    assert np.array_equal(got, index_divergence_per_width(geo, [1.0], [1e-12]))
    assert got[0] == pytest.approx(1e3 * (-1.0 / math.tan(1e-9) - 2.0 * math.tan(5e-10)), rel=1e-6)


def test_index_form_requires_the_geodesic_frame():
    """A 3-frame field along a 1-frame geodesic is refused: J(t) = t in each
    of three frame directions once gave 3.0."""
    geo = ModelGeodesic(0.0, 1.0, 1)
    field = JacobiField(kappa=0.0, a=np.zeros(3), b=np.ones(3))
    with pytest.raises(ValueError, match="frame dimension"):
        index_form(geo, field, field)
    with pytest.raises(ValueError, match="frame dimension"):
        index_form(geo, JacobiField(kappa=0.0, a=[0.0], b=[1.0]), field)


_KERNEL = jacobi_module._index_form_routes


def _parted_routes(shifts: dict):
    """The index-form kernel with the quadrature value of pair i moved off the
    boundary value by shifts[i] times the ROUTE_ATOL / ROUTE_RTOL allowance."""

    def routes(*args):
        quad, bdry = _KERNEL(*args)
        for i, shift in shifts.items():
            quad[i] = bdry[i] + shift * (ROUTE_ATOL + ROUTE_RTOL * abs(bdry[i]))
        return quad, bdry

    return routes


def test_index_form_detects_route_disagreement(monkeypatch):
    """A quadrature route off by more than ROUTE_ATOL + ROUTE_RTOL |bdry| is
    refused; one off by a little less is accepted. index_divergence holds its
    stacked widths to the same rule, in order: the first width whose routes
    part is refused, with the message index_form gives, and before a later
    width that cutoff_field refuses."""
    geo = ModelGeodesic(1.0, math.pi, 1)
    v = cutoff_field(geo, [1.0], 2.0**-12)
    bdry = _KERNEL(*jacobi_module._pair_rows(geo, v, v))[1][0]
    monkeypatch.setattr(jacobi_module, "_index_form_routes", _parted_routes({0: 0.99}))
    assert index_form(geo, v, v) == bdry
    monkeypatch.setattr(jacobi_module, "_index_form_routes", _parted_routes({0: -1.01}))
    with pytest.raises(InternalInconsistencyError):
        index_form(geo, v, v)
    monkeypatch.undo()

    eps = [2.0**-k for k in range(3, 13)]
    values = index_divergence(geo, [1.0], eps)
    monkeypatch.setattr(jacobi_module, "_index_form_routes", _parted_routes({4: 0.99, 6: -0.99}))
    assert np.array_equal(index_divergence(geo, [1.0], eps), values)
    for shifts, first in (({4: -1.01}, 4), ({6: 1.01, 4: -1.01}, 4), ({9: 1.01}, 9)):
        monkeypatch.setattr(jacobi_module, "_index_form_routes", _parted_routes(shifts))
        bdry = float(values[first])
        quad = bdry + shifts[first] * (ROUTE_ATOL + ROUTE_RTOL * abs(bdry))
        message = f"index form routes disagree: quadrature {quad!r} vs boundary {bdry!r}"
        with pytest.raises(InternalInconsistencyError) as refused:
            index_divergence(geo, [1.0], eps + [4.0])  # the width 4 is past length / 2
        assert str(refused.value) == message
    monkeypatch.setattr(jacobi_module, "_index_form_routes", _parted_routes({}))
    with pytest.raises(ValueError, match="eps must lie"):
        index_divergence(geo, [1.0], eps + [4.0])


@pytest.mark.parametrize("a, b", [([0.0], [1e200]), ([1e154], [1e154])])
def test_index_form_refuses_routes_that_are_not_finite(a, b):
    """Fields whose squares overflow give a NaN quadrature and an infinite
    boundary term; the routes are refused, not returned as inf."""
    field = JacobiField(kappa=0.0, a=a, b=b)
    message = "index form routes are not finite: quadrature nan, boundary inf"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InternalInconsistencyError, match=message):
        index_form(ModelGeodesic(0.0, 1.0, 1), field, field)


def _random_piecewise(rng, kappa: float, length: float) -> PiecewiseJacobi:
    brk = float(rng.uniform(0.3, length - 0.3))
    f0 = JacobiField(kappa=kappa, a=rng.standard_normal(2), b=rng.standard_normal(2))
    f1 = JacobiField.from_two_point(
        kappa, brk, f0.value(brk), length, rng.standard_normal(2)
    )
    return PiecewiseJacobi(kappa, [0.0, brk, length], [f0.a, f1.a], [f0.b, f1.b])


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**31 - 1),
    kappa=st.sampled_from([-3.0, -1.0, 0.0, 0.7, 1.0, 2.0, 4.0]),
    k=st.integers(-250, 250),
)
def test_index_form_has_no_length_scale(seed: int, kappa: float, k: int):
    """A pair of fields scaled by lambda = 2^k (breaks times lambda, the same
    a, b / lambda, kappa / lambda^2) is V_lambda(lambda t) = V(t), and lambda
    I(V_lambda, W_lambda) is I(V, W) bit for bit, however short its pieces."""
    rng = np.random.default_rng(seed)
    v, w = _random_piecewise(rng, kappa, 2.0), _random_piecewise(rng, kappa, 2.0)
    lam = 2.0**k

    def scaled(field: PiecewiseJacobi) -> PiecewiseJacobi:
        return PiecewiseJacobi(kappa / lam**2, field.breaks * lam, field.a, field.b / lam)

    unscaled = index_form(ModelGeodesic(kappa, 2.0, 2), v, w)
    assert lam * index_form(ModelGeodesic(kappa / lam**2, 2.0 * lam, 2), scaled(v), scaled(w)) == unscaled


@pytest.mark.parametrize("kappa", KAPPAS)
def test_index_form_routes_agree_on_random_fields(kappa: float):
    rng = np.random.default_rng(17)
    geo = ModelGeodesic(kappa, 2.0, 2)
    for _ in range(100):
        v = _random_piecewise(rng, kappa, 2.0)
        w = _random_piecewise(rng, kappa, 2.0)
        (quad,), (bdry,) = _KERNEL(*jacobi_module._pair_rows(geo, v, w))
        assert abs(quad - bdry) < 1e-8


def _chained(rng, kappa: float, breaks: np.ndarray, dim: int) -> PiecewiseJacobi:
    """A continuous field on ``breaks``: a random first piece, then pieces that
    interpolate the last one's value at their left break and a random value
    at their right one."""
    fields = [JacobiField(kappa=kappa, a=rng.standard_normal(dim), b=rng.standard_normal(dim))]
    for t0, t1 in zip(breaks[1:-1], breaks[2:]):
        fields.append(JacobiField.from_two_point(kappa, t0, fields[-1].value(t0), t1, rng.standard_normal(dim)))
    return PiecewiseJacobi(kappa, breaks, [f.a for f in fields], [f.b for f in fields])


def _breaks(lengths: list, total: float) -> np.ndarray:
    breaks = total * np.cumsum([0.0, *lengths]) / sum(lengths)
    breaks[-1] = total
    return breaks


PIECES = st.lists(st.floats(0.15, 1.0), min_size=1, max_size=3)


def _refusal(build, *args):
    """The message of the ValueError that build(*args) raises, or None."""
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**31 - 1),
    kappa=st.sampled_from(KAPPAS),
    dim=st.integers(1, 3),
    lengths=st.lists(st.floats(0.15, 1.0), min_size=2, max_size=5),
    jumps=st.dictionaries(
        st.integers(0, 3),
        st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 2.0), st.sampled_from([0.0, 1e-3, 1e3])),
        max_size=3,
    ),
    poison=st.sampled_from([None, None, "breaks", "a", "b"]),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_piecewise_continuity_is_the_per_break_rule(seed, kappa, dim, lengths, jumps, poison, bad):
    """A chained field, with jumps of jumps[j] * 1e-9 injected at interior
    breaks: PiecewiseJacobi refuses it exactly when the per-break rule of
    tests/oracles.py does, naming the same first break. A jump is injected
    by adding one Jacobi field, of value the jump at the break, to every
    piece from the break on, so the later breaks stay joined. A non-finite
    break or coefficient is refused by PiecewiseJacobi, and a non-finite
    coefficient by JacobiField too; the per-break rule passes a NaN gap."""
    rng = np.random.default_rng(seed)
    field = _chained(rng, kappa, _breaks(lengths, 2.0), dim)
    breaks, a, b = field.breaks.copy(), field.a.copy(), field.b.copy()
    for j, size in jumps.items():
        k = 1 + j % (len(lengths) - 1)
        c, s = cs(kappa, breaks[k]), sn(kappa, breaks[k])
        g = rng.standard_normal(dim)
        g *= size * 1e-9 / np.linalg.norm(g)
        a[k:] += g * c / (c * c + s * s)
        b[k:] += g * s / (c * c + s * s)
    if poison is not None:
        target = {"breaks": breaks, "a": a, "b": b}[poison]
        target.flat[rng.integers(target.size)] = bad
        assert _refusal(PiecewiseJacobi, kappa, breaks, a, b) == "breakpoints and coefficients must be finite"
        if poison != "breaks":
            with pytest.raises(ValueError, match="coefficients must be finite"):
                [JacobiField(kappa, ai, bi) for ai, bi in zip(a, b)]
        return
    fields = [JacobiField(kappa, ai, bi) for ai, bi in zip(a, b)]
    assert _refusal(PiecewiseJacobi, kappa, breaks, a, b) == _refusal(continuity_per_break, breaks, fields)


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**31 - 1),
    kappa=st.sampled_from(KAPPAS),
    dim=st.integers(1, 3),
    pieces=st.lists(st.tuples(PIECES, PIECES), min_size=1, max_size=3),
)
def test_index_form_kernel_is_the_per_piece_routes_bit_for_bit(seed: int, kappa: float, dim: int, pieces: list):
    """The stacked kernel against the routes field by field and piece by
    piece (tests/oracles.py): pairs V, W with different break sets of 1-3
    pieces go through one kernel call, and each pair's quadrature and
    boundary values have the bits of its per-piece routes. The boundary
    terms take g(V', W) by matmul as ``@`` does on one row; an elementwise
    product summed over the frame rounds differently in dims 2 and 3."""
    rng = np.random.default_rng(seed)
    geo = ModelGeodesic(kappa, 2.0, dim)
    pairs = [tuple(_chained(rng, kappa, _breaks(lengths, 2.0), dim) for lengths in pair) for pair in pieces]
    rows = [jacobi_module._pair_rows(geo, v, w) for v, w in pairs]
    stacked = [np.concatenate(column) for column in zip(*(row[1:-1] for row in rows))]
    quad, bdry = _KERNEL(kappa, *stacked, [row[-1][0] for row in rows])
    for (v, w), row, q, b in zip(pairs, rows, quad, bdry):
        (alone_q,), (alone_b,) = _KERNEL(*row)
        assert q == index_form_quadrature_per_piece(geo, v, w) == alone_q
        assert b == index_form_boundary_per_piece(v, w) == alone_b


def _outcome(compute, *args):
    """What a call gives: its result's bytes, or the type and message it raised."""
    try:
        return np.asarray(compute(*args)).tobytes()
    except (ValueError, SubindexError) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=60)
@given(
    curvature=st.sampled_from([1e-8, 1e-4, 1.0, 100.0, 1e4]),
    dim=st.integers(1, 3),
    scaled=st.lists(
        st.one_of(
            st.floats(1e-14, 2.0),
            st.sampled_from([0.0, -0.1, 1e-13, 1e-12, 1e-11, 3.7e-10, 7.5e-10, 1.5, math.inf, math.nan]),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_index_divergence_gives_and_refuses_what_the_per_width_loop_does(curvature: float, dim: int, scaled: list):
    """The cutoff fields of all widths, built and evaluated together, against
    the loop that builds one cutoff field at a time from JacobiFields and
    holds its per-piece routes to the ROUTE_ATOL / ROUTE_RTOL rule before the
    next width: the same bits, or the same error from the same width. The
    widths are given in units of 1 / sqrt(curvature). Small ones reach the
    refusals: the head's interpolation is conjugate where sn(eps) is below
    1e-12, and at curvature 1 the routes part near 3.7e-10. Widths outside
    (0, pi / 2) are out of range."""
    root = math.sqrt(curvature)
    geo = ModelGeodesic(curvature, math.pi / root, dim)
    w = np.full(dim, 1.0 / math.sqrt(dim))
    eps = [x / root for x in scaled]
    assert _outcome(index_divergence, geo, w, eps) == _outcome(index_divergence_per_width, geo, w, eps)
    for e in eps:
        assert _outcome(_pieces, cutoff_field, geo, w, e) == _outcome(_pieces, cutoff_field_per_width, geo, w, e)


def _pieces(build, *args) -> np.ndarray:
    """The breaks and the piece coefficients of the field that build(*args) gives."""
    field = build(*args)
    return np.concatenate([[field.kappa], field.breaks, field.a.ravel(), field.b.ravel()])


def _random_pairs_per_field(kappa: float, brks: np.ndarray, draws: np.ndarray):
    """The pairs that jacobi-verify draws, built one JacobiField and one pair
    at a time, and their per-piece routes."""
    geo = ModelGeodesic(kappa, 2.0, 2)
    quad, bdry = [], []
    for brk, row in zip(brks.tolist(), draws):
        pair = []
        for a, b, end in row.reshape(2, 3, 2):  # V, then W
            head = JacobiField(kappa=kappa, a=a, b=b)
            tail = JacobiField.from_two_point(kappa, brk, head.value(brk), 2.0, end)
            pair.append(piecewise_per_break(kappa, [0.0, brk, 2.0], [head, tail]))
        quad.append(index_form_quadrature_per_piece(geo, *pair))
        bdry.append(index_form_boundary_per_piece(*pair))
    return quad, bdry


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    kappa=st.sampled_from(KAPPAS),
    brks=st.lists(
        st.one_of(st.floats(0.4, 1.6), st.sampled_from([2.0, 2.0 - 1e-12, 2.0 - 1e-10, 2.0 - 1e-8])),
        min_size=1,
        max_size=6,
    ),
)
def test_jacobi_verify_pairs_in_a_stack_are_the_pairs_one_at_a_time(seed: int, kappa: float, brks: list):
    """jacobi-verify's cross-check pairs drawn as a stack against the same
    draws built pair by pair: the same kernel bits, or the same error. A
    break at 2.0 is conjugate to the end, and a break a little below it
    makes the tail's interpolation jump at the break; the error names the
    first such field."""
    draws = np.random.default_rng(seed).standard_normal((len(brks), 12))
    brks = np.array(brks)

    def stacked():
        return jacobi_module._index_form_routes(kappa, *jacobi_module._random_pairs(kappa, brks, draws, 2.0))

    assert _outcome(stacked) == _outcome(_random_pairs_per_field, kappa, brks, draws)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_wronskian_of_a_stack_is_the_wronskian_of_each_pair(kappa: float):
    """jacobi-verify's 20 Wronskian pairs per curvature in one call, bit for
    bit the values lagrange_wronskian gives pair by pair."""
    coefficients = np.random.default_rng(11).standard_normal((20, 4, 1, 2))
    ts = np.linspace(0, 2.5, 11)
    stacked = jacobi_module._wronskian(kappa, *coefficients.transpose(1, 0, 2, 3), ts)
    for row, (pa, pb, na, nb) in zip(stacked, coefficients[:, :, 0]):
        p, n = JacobiField(kappa=kappa, a=pa, b=pb), JacobiField(kappa=kappa, a=na, b=nb)
        assert np.array_equal(row, lagrange_wronskian(p, n, ts))


@pytest.mark.parametrize("nodes", [64])
def test_gauss_legendre_rule_is_exact_shared_and_read_only(nodes: int):
    x, wq = gauss_legendre()
    want_x, want_w = np.polynomial.legendre.leggauss(nodes)
    np.testing.assert_array_equal(x, want_x)
    np.testing.assert_array_equal(wq, want_w)
    assert gauss_legendre()[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        wq[0] = 0.0


def test_jacobi_verify_builds_the_rule_once(monkeypatch, tmp_path):
    """A whole jacobi-verify run builds the 64-node rule once: it evaluates 86
    index forms (75 random pairs, then the cutoff field at 1 and at 10 widths)
    in five stacked kernel calls."""
    built = Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counting(nodes):
        built[nodes] += 1
        return leggauss(nodes)

    gauss_legendre.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    try:
        assert main(["jacobi-verify", "--seed", "5", "--out", str(tmp_path / "r.json")]) == 0
    finally:
        gauss_legendre.cache_clear()
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
    head, tail = (JacobiField(v.kappa, a, b) for a, b in zip(v.a, v.b))
    np.testing.assert_allclose(head.value(ts)[:, 0], expected, atol=1e-12)
    # tail piece is the normalized kernel field sin(t)/sin(eps)
    ts_tail = np.linspace(0.1, math.pi, 7)
    np.testing.assert_allclose(tail.value(ts_tail)[:, 0], np.sin(ts_tail) / math.sin(0.1), atol=1e-12)
    # the field takes the head before the break and the tail from it on
    np.testing.assert_array_equal(v.value(ts[:-1]), head.value(ts[:-1]))
    np.testing.assert_array_equal(v.value(ts_tail), tail.value(ts_tail))


def test_cutoff_field_requires_first_conjugate_endpoint():
    with pytest.raises(NoSolutionError):
        cutoff_field(ModelGeodesic(1.0, 2 * math.pi, 1), [1.0], 0.1)
    with pytest.raises(NoSolutionError):
        cutoff_field(ModelGeodesic(0.0, 1.0, 1), [1.0], 0.1)


def test_index_divergence_matches_closed_form_oracle():
    """A third route for the index value at the first conjugate point,
    sqrt(kappa) (-cot(sqrt(kappa) eps) - 2 tan(sqrt(kappa) eps / 2)), at
    curvatures 1e-8 to 1e4 and the widths jacobi-index takes by default,
    scaled to the curvature; the routes meet it within 8.3e-13 relative."""
    for curvature in (1e-8, 1e-4, 1.0, 100.0, 1e4):
        root = math.sqrt(curvature)
        eps = 0.2 / root * 0.5 ** np.arange(10)
        oracle = root * (-1.0 / np.tan(root * eps) - 2.0 * np.tan(root * eps / 2.0))
        got = index_divergence(ModelGeodesic(curvature, math.pi / root, 1), [1.0], eps)
        np.testing.assert_allclose(got, oracle, rtol=1e-11, atol=0.0, err_msg=f"curvature {curvature}")
    # spot value: about -10.067 at curvature 1 and eps = 0.1
    geo = ModelGeodesic(1.0, math.pi, 1)
    assert float(index_divergence(geo, [1.0], [0.1])[0]) == pytest.approx(-10.0667278400, abs=1e-6)


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
    assert bound == pytest.approx(math.sqrt(2.0), rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "tiny, unit, expected",
    [
        (ModelGeodesic(0.0, 1e-12, 1), ModelGeodesic(0.0, 2.0, 1), 1.0),
        (ModelGeodesic(1e30, math.pi * 1e-15, 1), ModelGeodesic(1.0, math.pi, 1), math.sqrt(2.0)),
    ],
)
def test_boundary_norm_bound_is_scale_free(tiny, unit, expected):
    """Widths far below 1e-12 are no conjugacy: the bound is the unit-scale
    one, the closed form 1 / cos(pi / 4) on the sphere, within 2 ulps."""
    for geodesic in (tiny, unit):
        assert abs(boundary_norm_bound(geodesic) - expected) <= 2 * math.ulp(expected)


@pytest.mark.parametrize(
    "curvature, length", [(math.inf, 1.0), (math.nan, 1.0), (-math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)]
)
def test_a_geodesic_needs_a_finite_curvature_and_length(curvature, length):
    # the closed-form bound would read nan or 1 at these rather than refuse
    with pytest.raises(ValueError, match="must be"):
        ModelGeodesic(curvature, length, 1)


def _boundary_norm_bound_loop(geodesic: ModelGeodesic) -> float:
    """The bound sampled: 512 points of [0, eps] for each of 200 eps up to
    top, and the two targets J(eps) = +-1."""
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
    """The closed form against the sampled route: for kappa > 0 the samples
    stay below the supremum, within 5e-6 of it relatively; for kappa <= 0
    both are 1 up to rounding."""
    # length 12 puts every positive curvature's eps range at 0.99 pi / sqrt(kappa)
    geodesic = ModelGeodesic(kappa, length, 1)
    bound, sampled = boundary_norm_bound(geodesic), _boundary_norm_bound_loop(geodesic)
    if kappa > 0:
        assert sampled <= bound <= sampled * (1 + 5e-6)
    else:
        assert abs(bound - sampled) <= 1e-13


@pytest.mark.parametrize("kappa", KAPPAS)
def test_scalar_t_gives_the_closed_form_bit_for_bit(kappa: float):
    rng = np.random.default_rng(5)
    f = JacobiField(kappa=kappa, a=rng.standard_normal(3), b=rng.standard_normal(3))
    for t in rng.random(10) * 3:
        c, s = cs(kappa, t), sn(kappa, t)
        assert np.array_equal(f.value(t), f.a * c + f.b * s)
        assert np.array_equal(f.derivative(t), -kappa * s * f.a + c * f.b)
        assert np.array_equal(f.value(t), f.value(np.array([t]))[0])


def test_no_conjugate_endpoint_before_the_first_zero_of_sin():
    """sin(sqrt(kappa) t) is below 1e-12 near t = 0 too: a geodesic of length
    1e-13 on the unit sphere was once called conjugate, so its boundary field
    was refused and its vanishing family held sin t, which does not vanish
    at 1e-13. The first conjugate point is at pi / sqrt(kappa)."""
    short = ModelGeodesic(1.0, 1e-13, 1)
    assert not short.endpoint_conjugate()
    assert vanishing_family(short) == []
    (field,) = boundary_family(short)
    assert field.value(0.0)[0] == 1.0 and abs(field.value(1e-13)[0]) <= 1e-12
    for kappa in (1.0, 4.0, 1e300, 1e-300):
        assert ModelGeodesic(kappa, math.pi / math.sqrt(kappa), 1).endpoint_conjugate()


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
