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
from oracles import sampling_oracle_classify
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
from subindex.sampling import covering_bound


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
    band = 1e-2 + covering_bound(n, 4000)
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
