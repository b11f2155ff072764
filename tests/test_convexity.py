"""Criticality, polar-region classification, and the sub-index.

The LP route is cross-examined against a sampling oracle throughout; the two
must only be allowed to part ways inside the sampling resolution band.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import covering_bound, sampling_oracle_classify
from test_lp import _direction_rows, euclidean_hull_distance

from subindex import lp
from subindex.convexity import (
    CERTIFIED_MARGIN,
    PolarVariant,
    classification_report,
    classify_polar_region,
    criticality_margin,
    is_critical,
    sub_index,
    sub_index_of_region,
    sub_index_to_json,
)
from subindex.directions import DirectionSet
from subindex.errors import AmbiguousClassificationError, NotCriticalError, SubindexError


def _dirs(vectors) -> DirectionSet:
    arr = np.asarray(vectors, dtype=float)
    return DirectionSet.from_vectors(arr / np.linalg.norm(arr, axis=1, keepdims=True))


def test_single_direction_is_regular():
    ds = _dirs([[1.0, 0.0, 0.0]])
    assert not is_critical(ds)
    assert criticality_margin(ds) > 0.9


def test_antipodal_pair_r3_is_great_subsphere():
    ds = _dirs([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert is_critical(ds)
    region = classify_polar_region(ds)
    assert region.variant is PolarVariant.GREAT_SUBSPHERE
    assert region.span_dim == 2
    assert sub_index(ds) == 1


def test_antipodal_pair_plus_orthogonal_has_boundary():
    ds = _dirs([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    region = classify_polar_region(ds)
    assert region.variant is PolarVariant.WITH_BOUNDARY
    np.testing.assert_allclose(region.soul, [0.0, -1.0, 0.0], atol=1e-9)
    assert sub_index(ds) == math.inf


def test_soul_makes_right_or_obtuse_angles():
    ds = _dirs([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    region = classify_polar_region(ds)
    assert np.linalg.norm(region.soul) == pytest.approx(1.0, abs=1e-12)
    assert np.all(ds.directions @ region.soul <= 1e-9)


def test_four_diagonals_fill_the_plane():
    ds = _dirs([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    region = classify_polar_region(ds)
    assert region.variant is PolarVariant.EMPTY
    assert sub_index(ds) == 2


def test_dimension_one_antipodal_pair():
    # S^0 has no room for a great subsphere; the polar region is empty
    ds = _dirs([[1.0], [-1.0]])
    assert is_critical(ds)
    region = classify_polar_region(ds)
    assert region.variant is PolarVariant.EMPTY
    assert sub_index(ds) == 1


def test_dimension_one_single_direction_regular():
    ds = _dirs([[1.0]])
    assert not is_critical(ds)


def test_classify_regular_raises():
    with pytest.raises(NotCriticalError):
        classify_polar_region(_dirs([[1.0, 0.0]]))


def test_near_critical_band_raises_ambiguous():
    # hull of the two directions passes within ~5e-9 of the origin: inside
    # the declared (1e-9, 1e-7) band where neither verdict is trustworthy
    tilt = 1e-8
    second = np.array([-1.0, tilt]) / math.hypot(1.0, tilt)
    ds = DirectionSet.from_vectors(np.array([[1.0, 0.0], second]))
    with pytest.raises(AmbiguousClassificationError) as err:
        is_critical(ds)
    assert 1e-9 < err.value.margin < 1e-7


def test_band_is_refused_where_the_summed_direction_separates():
    # minus the summed direction, -e1, separates the pair, but only by 5e-8:
    # inside the band, so the certificate must leave the refusal to the LP
    ds = _dirs([[5e-8, 1.0], [5e-8, -1.0]])
    with pytest.raises(AmbiguousClassificationError) as err:
        is_critical(ds)
    assert 1e-9 < err.value.margin < 1e-7


def test_classification_report_regular_fields():
    report = classification_report(_dirs([[1.0, 0.0]]))
    assert report == {
        "critical": False,
        "variant": None,
        "span_dim": None,
        "soul": None,
        "sub_index": None,
    }


def test_classification_report_serializes_infinity():
    report = classification_report(_dirs([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    assert report["sub_index"] == "inf"
    assert report["variant"] == "with_boundary"


def test_sampling_oracle_on_known_sets():
    critical, near = sampling_oracle_classify(_dirs([[1.0, 0.0], [-1.0, 0.0]]))
    assert critical
    regular, _ = sampling_oracle_classify(_dirs([[1.0, 0.0]]))
    assert not regular
    # the near-polar samples of the antipodal pair hug the orthogonal axis
    assert near.shape[0] > 0
    assert np.all(np.abs(near[:, 0]) < math.sin(1e-2) + 1e-12)


def _random_direction_set(rng: np.random.Generator, n: int, m: int) -> DirectionSet:
    if n == 1:
        raw = rng.choice([-1.0, 1.0], size=(m, 1))
    else:
        raw = rng.standard_normal((m, n))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return DirectionSet.from_vectors(raw)


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3), m=st.integers(1, 8))
@example(seed=157246918, n=2, m=4)
@example(seed=95522, n=2, m=5)
def test_lp_agrees_with_sampling_oracle(seed: int, n: int, m: int):
    """LP criticality and the spherical scan only disagree inside the band.

    The scan can miss a separating direction whose witness margin is below
    its resolution, so LP-regular versus oracle-critical is excused exactly
    when the separation is that small; nothing else is. The scan resolves
    angles, so the separation is asin of the Euclidean distance d2 from the
    origin to the hull, not of the LP's L1 margin s >= d2: the two examples
    have asin(s) above the band and asin(d2) below it.
    """
    rng = np.random.default_rng(seed)
    ds = _random_direction_set(rng, n, m)
    try:
        lp_says = is_critical(ds)
    except AmbiguousClassificationError:
        return
    oracle_says, _ = sampling_oracle_classify(ds, samples=4000, margin=1e-2, seed=1)
    if lp_says == oracle_says:
        return
    assert not lp_says and oracle_says, "oracle found a witness the LP ruled out"
    band = 1e-2 + (covering_bound(n, 4000) if n > 1 else 0.0)  # S^0 is sampled exactly
    assert math.asin(min(1.0, euclidean_hull_distance(ds.directions))) <= band


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 3), m=st.integers(2, 8))
def test_classification_is_isometry_invariant(seed: int, n: int, m: int):
    rng = np.random.default_rng(seed)
    ds = _random_direction_set(rng, n, m)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    moved = ds.transformed(q)
    try:
        before = classification_report(ds)
    except AmbiguousClassificationError:
        return
    try:
        after = classification_report(moved)
    except AmbiguousClassificationError:
        return
    assert before["critical"] == after["critical"]
    assert before["variant"] == after["variant"]
    assert before["span_dim"] == after["span_dim"]
    assert before["sub_index"] == after["sub_index"]


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 3), m=st.integers(1, 6))
def test_adding_a_direction_shrinks_the_polar_samples(seed: int, n: int, m: int):
    """A(U + w) is contained in A(U): more constraints, fewer polar points."""
    rng = np.random.default_rng(seed)
    ds = _random_direction_set(rng, n, m)
    extra = rng.standard_normal(n)
    extra /= np.linalg.norm(extra)
    bigger = DirectionSet.from_vectors(np.vstack([ds.directions, extra]))
    _, near_small = sampling_oracle_classify(bigger, samples=3000, seed=2)
    _, near_big = sampling_oracle_classify(ds, samples=3000, seed=2)
    # every sampled near-polar point of the larger set appears for the smaller
    small_rows = {tuple(np.round(row, 12)) for row in near_small}
    big_rows = {tuple(np.round(row, 12)) for row in near_big}
    assert small_rows <= big_rows


def test_soul_vector_is_unit_and_polar_under_rotation():
    rng = np.random.default_rng(11)
    base = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for _ in range(10):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        ds = DirectionSet.from_vectors(base @ q.T)
        region = classify_polar_region(ds)
        assert region.variant is PolarVariant.WITH_BOUNDARY
        assert np.linalg.norm(region.soul) == pytest.approx(1.0, abs=1e-12)
        assert np.all(ds.directions @ region.soul <= 1e-9)


# ------------------------------------------------ one separation LP per report


def _two_step_report(dirset: DirectionSet) -> dict:
    """The report as it was built with criticality decided twice: the
    separation LP and its band first, then :func:`classify_polar_region`."""
    margin = lp.separation_margin(dirset.directions)
    if lp.FEASIBILITY_MARGIN < margin < lp.AMBIGUITY_BAND:
        raise AmbiguousClassificationError("criticality is numerically ambiguous", margin)
    report = dict.fromkeys(("variant", "span_dim", "soul", "sub_index"), None)
    report["critical"] = margin <= lp.FEASIBILITY_MARGIN
    if not report["critical"]:
        return report
    region = classify_polar_region(dirset)
    report["variant"] = region.variant.value
    report["span_dim"] = None if region.span_dim is None else int(region.span_dim)
    report["soul"] = None if region.soul is None else [float(x) for x in region.soul]
    report["sub_index"] = sub_index_to_json(sub_index_of_region(dirset.dim, region))
    return report


def _outcome(classify, dirset):
    try:
        return classify(dirset)
    except SubindexError as exc:
        return type(exc)


@contextmanager
def _counted_separation_lps():
    calls = []
    solve = lp.separation_margin

    def counted(directions):
        calls.append(len(directions))
        return solve(directions)

    with mock.patch.object(lp, "separation_margin", counted):
        yield calls


# near_band: regular sets tilted off a set critical in e1-perp, kept to LP
# margins in [1e-8, 1e-5], across the ambiguity band, the LP-decided regular
# sets and the certificate's threshold
_KINDS = st.sampled_from(["regular", "empty", "great_subsphere", "boundary", "near_band"])


def _generated_set(seed: int, kind: str, n: int, near_copy: bool) -> DirectionSet:
    ds = DirectionSet(n, _direction_rows(np.random.default_rng(seed), kind, n, near_copy))
    if kind == "near_band":
        assume(1e-8 <= criticality_margin(ds) <= 1e-5)
    return ds


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**31 - 1), kind=_KINDS, n=st.integers(2, 6), near_copy=st.booleans())
def test_report_matches_the_two_step_report(seed, kind, n, near_copy):
    """Deciding criticality once, certificate first, leaves every report and
    every refusal as it was."""
    ds = _generated_set(seed, kind, n, near_copy)
    assert _outcome(classification_report, ds) == _outcome(_two_step_report, ds)


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**31 - 1), kind=_KINDS, n=st.integers(2, 6), near_copy=st.booleans())
def test_certificate_answers_only_far_from_the_band(seed, kind, n, near_copy):
    """Whenever is_critical answers without the LP, the LP margin is at least
    CERTIFIED_MARGIN, so the LP's verdict would have been "regular" too."""
    ds = _generated_set(seed, kind, n, near_copy)
    with _counted_separation_lps() as calls:
        verdict = _outcome(is_critical, ds)
    if not calls:
        assert verdict is False
        assert criticality_margin(ds) >= CERTIFIED_MARGIN


def _fan(count: int, half_angle: float) -> list[list[float]]:
    angles = np.linspace(-half_angle, half_angle, count)
    return np.column_stack([np.cos(angles), np.sin(angles)]).tolist()


@pytest.mark.parametrize(
    "vectors, critical, lps",
    [
        # critical: the certificate cannot hold, one LP decides for the report
        ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], True, 1),
        # regular, and minus the summed direction separates: no LP
        ([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]], False, 0),
        # regular in the upper half-plane, but minus the sum points left: one LP
        ([[1.0, 0.01], [-1.0, 0.01], [1.0, 0.02]], False, 1),
        # regular by 3e-7, and minus the sum separates by that much once scaled
        # to the LP's box (by 3.5e-6 unscaled): one LP
        ([*_fan(12, 0.3), [3e-7, 1.0], [3e-7, -1.0]], False, 1),
    ],
)
def test_report_solves_at_most_one_separation_lp(vectors, critical, lps):
    ds = _dirs(vectors)
    with _counted_separation_lps() as calls:
        report = classification_report(ds)
    assert report["critical"] is critical
    assert len(calls) == lps


def test_near_copy_great_subspheres_are_refused_not_failed():
    """A great-subsphere set with one row turned 1e-7 rad off its span has a
    soul, if any, too short to certify. Such sets are valid input: each is
    classified or refused as ambiguous, never failed with an internal error
    (217 of these 250 raised one when the soul checks did)."""
    for seed in range(250):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        ds = DirectionSet(n, _direction_rows(rng, "great_subsphere", n, True))
        try:
            classification_report(ds)
        except AmbiguousClassificationError:
            pass


# A boundary-variant set of 16 rows plus 8 copies turned 1e-7..1e-6 rad: its
# soul-margin LP ends at |w| = 1.2e-9 with max u.w = 6.6e-10, so w / |w| misses
# the polar cone by 0.55 unless the soul test is scaled by |w|.
_SEED3_SET29 = np.array([
    [-0.5356770031761042, 0.5251646306534935, -0.20712065994417447, -0.30492627760718355, -0.3254942253510927, 0.12340165813999449, 0.30051303631573695, -0.2998177971092662],
    [0.07838671903243405, 0.09308781736465757, 0.08395741671242474, 0.7028490852987216, 0.12863533719430337, 0.6730956120119181, 0.10862936627925562, 0.05233931513038316],
    [-0.4687050172485053, -0.7061822548610407, -0.007787992231710242, -0.15138671676571752, 0.4725918810661259, -0.014854824031301814, 0.01690225872932273, -0.18653203663868784],
    [0.6866538403008954, -0.12629092259231925, 0.23446583264449003, -0.1685919212160546, -0.08518388224053386, -0.1958320230451792, 0.4868197660821272, -0.3828311431976564],
    [-0.5989064661331733, -0.2593878023775996, 0.024207656373942454, 0.3370816597691495, -0.5612489201078746, -0.2779228363477452, 0.08100905389848004, -0.2470122197835405],
    [0.00046615269036948673, -0.07819118913931537, 4.923820731574491e-05, -0.1630902812823285, -0.16616075325544527, -0.14371434986131468, 0.2259510424870431, 0.93164928728038],
    [0.28872837502725296, -0.020170129714348284, -0.7657028521018202, 0.12169571189969638, -0.09147081757585206, -0.20401632689484736, -0.5080144810668121, -0.08396488687868321],
    [-0.023882593693255058, -0.5100744568769315, 0.022285573701579492, -0.26353371518320645, -0.6968308223834754, -0.0412283878030936, -0.41102267176823004, -0.1144307329118695],
    [0.5425859006630267, -0.22824255273499763, 0.3542815010510634, -0.04320292297220308, -0.5140841198374132, 0.10464434912724578, -0.4804685040544417, 0.14156658334784267],
    [0.09699469879512267, -0.42405400408689353, 0.06617129424980364, 0.16176459370538254, -0.8746325838300468, 0.06791569359730287, 0.00623509261381891, -0.10290885068945878],
    [-0.5487819025219669, 0.09127546383341129, -0.12044910008696082, -0.3785855611430063, -0.694151177930052, 0.11125166066092412, -0.1670924880806713, 0.10261340533361551],
    [-0.08022377568278127, -0.8322077925180557, -0.06434808300101016, 0.26187201174922126, -0.10457872538302876, 0.07602733666536458, 0.4013059066768483, -0.22475189233250026],
    [-0.049853066626342354, 0.3125820482888726, 0.6621390167134742, -0.03654960032713394, 0.06708246016249449, -0.2380797463192697, -0.6308009888266736, -0.030842738586469222],
    [-0.018387011231237427, -0.3584527835854337, 0.06064370635222614, 0.01095113813660823, -0.8361331158619155, 0.1651838677254126, -0.3082285155658432, -0.21439873555039773],
    [-0.025252156587162358, -0.48859445442584637, 0.24931103776635008, 0.0318147093741092, -0.7101319075072322, 0.33877803900569736, -0.24387032564827738, -0.13761902812878307],
    [-0.36689511211719533, 0.17954622753652566, -0.023741646943853098, 0.23021979403558807, -0.7650722059159271, 0.3292683507558212, -0.07306626701520941, -0.283715531944338],
    [0.09699448054062162, -0.4240542286060813, 0.06617166985197728, 0.16176437518721196, -0.8746324612533075, 0.0679162422226115, 0.006234601886043886, -0.10290894265763179],
    [-0.023882593373154203, -0.5100744980614748, 0.022285573666678684, -0.26353380330227044, -0.6968309109751679, -0.04122846598218509, -0.4110225475352887, -0.11443022504727238],
    [0.07838672094009884, 0.09308780852795694, 0.08395741869221028, 0.7028490788204476, 0.12863531679016932, 0.6730956075662844, 0.10862940068843845, 0.052339447712490265],
    [-0.36689507312340774, 0.17954605976069335, -0.023741637629132444, 0.23021969019419272, -0.7650723089964688, 0.3292682979034612, -0.07306637502899793, -0.28371552913869],
    [-0.5989064761983082, -0.25938781841459185, 0.024207656790914276, 0.3370816411785726, -0.5612489543572112, -0.2779228624589854, 0.08100908892790375, -0.24701208518108833],
    [-0.46870501703105744, -0.7061822747242964, -0.0077879255126771406, -0.15138616982238212, 0.47259204847061925, -0.014854282736613534, 0.016902348683935763, -0.186532019486049],
    [0.686653823616504, -0.12629105897652543, 0.2344658382938892, -0.16859185341046176, -0.08518417629993326, -0.19583198547492692, 0.4868197327863101, -0.3828311506592781],
    [-0.0802237764692575, -0.8322080296886528, -0.06434804745283822, 0.26187171619181643, -0.10457930756504052, 0.07602728165918295, 0.40130544749005403, -0.22475193602289736],
])


def test_soul_test_is_scaled_by_the_margin_lps_vector():
    """An absolute u.w <= 1e-9 test let this w through and refused the set;
    scaled by |w| it sends the set to the feasibility LP, whose soul lies
    within 1e-9 of the polar cone."""
    ds = DirectionSet.from_vectors(_SEED3_SET29)
    _, lam = lp.soul_margin_lp(ds.directions)
    w = -ds.directions.T @ lam
    assert 1e-9 < np.linalg.norm(w) < 2e-9
    assert 1e-9 * np.linalg.norm(w) < (ds.directions @ w).max() <= 1e-9
    region = classify_polar_region(ds)
    assert region.variant is PolarVariant.WITH_BOUNDARY
    assert (ds.directions @ region.soul).max() <= 1e-9
