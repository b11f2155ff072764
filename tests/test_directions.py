"""Unit tests for direction sets and spherical angle helpers."""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subindex.convexity import classification_report
from subindex.directions import (
    DEDUP_ANGLE,
    DEFAULT_TOLERANCE,
    DirectionSet,
    min_angles_to_set,
    row_norms,
)
from subindex.errors import SubindexError


def test_angle_orthogonal_pair():
    ds = DirectionSet.from_vectors([0.0, 1.0])
    assert min_angles_to_set(np.array([[1.0, 0.0]]), ds)[0] == pytest.approx(math.pi / 2)


def test_angle_clamps_rounding_noise():
    # nearly parallel unit vectors can push the inner product past 1.0
    v = np.array([0.6, 0.8])
    w = v / np.linalg.norm(v)
    assert min_angles_to_set(v[None], DirectionSet.from_vectors(w))[0] == 0.0


def test_angle_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        min_angles_to_set(np.array([[1.0, 0.0]]), DirectionSet.from_vectors([1.0, 0.0, 0.0]))


def test_direction_set_dedups_near_duplicates():
    base = np.array([1.0, 0.0, 0.0])
    wiggle = np.array([1.0, 1e-10, 0.0])
    wiggle = wiggle / np.linalg.norm(wiggle)
    ds = DirectionSet.from_vectors(np.array([base, wiggle, [0.0, 1.0, 0.0]]))
    assert len(ds) == 2


def test_direction_set_keeps_first_occurrence():
    u = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    ds = DirectionSet.from_vectors(u)
    np.testing.assert_array_equal(ds.directions[0], [0.0, 1.0])
    assert len(ds) == 2


def _unit_rows(raw: np.ndarray) -> np.ndarray:
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def _turned_copy(rng: np.random.Generator, u: np.ndarray, theta: float) -> np.ndarray:
    """u turned by angle theta toward a random perpendicular direction."""
    t = rng.standard_normal(u.shape[0])
    t -= (t @ u) * u
    return math.cos(theta) * u + math.sin(theta) * (t / np.linalg.norm(t))


def _greedy_chord_reference(unit: np.ndarray) -> list[int]:
    """Slow first-occurrence dedup: drop a row within the DEDUP_ANGLE chord of
    an earlier kept row."""
    chord = 2.0 * math.sin(DEDUP_ANGLE / 2.0)
    keep: list[int] = []
    for i in range(unit.shape[0]):
        if all(np.linalg.norm(unit[i] - unit[j]) >= chord for j in keep):
            keep.append(i)
    return keep


def _arccos_reference(unit: np.ndarray) -> np.ndarray:
    """The dedup loop this package used before the chord test: arccos of the dot."""
    keep: list[int] = []
    for i in range(unit.shape[0]):
        if all(np.arccos(np.clip(unit[i] @ unit[j], -1.0, 1.0)) >= DEDUP_ANGLE for j in keep):
            keep.append(i)
    return np.array(keep, dtype=int)


@pytest.mark.parametrize("dim", range(2, 9))
def test_direction_set_collapses_exact_copy(dim: int):
    # arccos of a dot rounding to 1 - 2**-53 reads 1.49e-8 > DEDUP_ANGLE, which
    # kept some exact copies twice; the chord of an exact copy is 0
    rng = np.random.default_rng([dim, 1])
    for _ in range(50):
        u = _unit_rows(rng.standard_normal((1, dim)))[0]
        ds = DirectionSet.from_vectors(np.array([u, u.copy()]))
        assert len(ds) == 1


@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize(
    "theta, kept",
    [(5e-9, [0, 2]), (9.9e-9, [0, 2]), (1.01e-8, [0, 1, 2]), (2e-8, [0, 1, 2])],
)
def test_direction_set_dedup_resolves_threshold(dim: int, theta: float, kept: list[int]):
    """A copy turned below DEDUP_ANGLE collapses onto the first row; above, it stays."""
    rng = np.random.default_rng([dim, int(theta * 1e12)])
    for _ in range(50):
        u = _unit_rows(rng.standard_normal((1, dim)))[0]
        other = _unit_rows(rng.standard_normal((1, dim)))[0]
        raw = np.array([u, _turned_copy(rng, u, theta), other])
        ds = DirectionSet.from_vectors(raw)
        np.testing.assert_array_equal(ds.directions, _unit_rows(raw)[kept])


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 8),
    m=st.integers(1, 12),
    copies=st.integers(0, 12),
)
def test_direction_set_dedup_matches_greedy_reference(seed: int, n: int, m: int, copies: int):
    """Same kept rows, in the same order, as the slow greedy chord loop."""
    rng = np.random.default_rng(seed)
    rows = list(_unit_rows(rng.standard_normal((m, n))))
    for _ in range(copies):
        # copies of copies make chains whose greedy outcome depends on order
        src = rows[int(rng.integers(len(rows)))]
        kind = int(rng.integers(3))
        theta = (0.0, rng.uniform(0.0, 0.9e-8), rng.uniform(1.1e-8, 1e-6))[kind]
        rows.append(_turned_copy(rng, src, theta))
    raw = np.array(rows)[rng.permutation(len(rows))]
    ds = DirectionSet.from_vectors(raw)
    unit = _unit_rows(raw)
    np.testing.assert_array_equal(ds.directions, unit[_greedy_chord_reference(unit)])


@pytest.mark.parametrize("seed", range(10))
def test_dedup_in_gram_blocks_of_three_rows_matches_greedy_reference(seed: int):
    """Blocks with no candidate pair are skipped and the rest decided: a few
    copies among 24 rows, in blocks of three, keep the greedy loop's rows
    whichever blocks the copies and their originals fall in."""
    rng = np.random.default_rng(seed)
    rows = list(_unit_rows(rng.standard_normal((24, 4))))
    for _ in range(int(rng.integers(1, 4))):
        src = rows[int(rng.integers(len(rows)))]
        rows.insert(int(rng.integers(len(rows) + 1)), _turned_copy(rng, src, rng.uniform(0.0, 0.9e-8)))
    raw = np.array(rows)
    with mock.patch("subindex.directions._GRAM_BLOCK_ENTRIES", 3 * raw.size):
        ds = DirectionSet.from_vectors(raw)
    unit = _unit_rows(raw)
    np.testing.assert_array_equal(ds.directions, unit[_greedy_chord_reference(unit)])
    assert len(ds) < len(unit)


def _report_or_error(dirset: DirectionSet):
    try:
        return classification_report(dirset)
    except SubindexError as exc:  # an ambiguous-band refusal must repeat too
        return type(exc).__name__


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 6), m=st.integers(1, 10))
def test_classification_report_unchanged_on_distinct_rows(seed: int, n: int, m: int):
    """On sets without near-duplicates the chord dedup and the old arccos loop
    keep the same rows, so the classification report cannot change."""
    rng = np.random.default_rng(seed)
    unit = _unit_rows(rng.standard_normal((m, n)))
    ds = DirectionSet.from_vectors(unit)
    with mock.patch("subindex.directions._first_occurrences", _arccos_reference):
        legacy = DirectionSet.from_vectors(unit)
    np.testing.assert_array_equal(ds.directions, legacy.directions)
    assert _report_or_error(ds) == _report_or_error(legacy)


def test_direction_set_renormalizes_within_slack():
    ds = DirectionSet.from_vectors(np.array([[1.0 + 1e-10, 0.0]]))
    assert np.linalg.norm(ds.directions[0]) == pytest.approx(1.0, abs=1e-15)
    # a looser tolerance admits sloppier input, still renormalized
    loose = DirectionSet(dim=2, directions=np.array([[1.0 + 1e-7, 0.0]]), tolerance=1e-6)
    assert np.linalg.norm(loose.directions[0]) == pytest.approx(1.0, abs=1e-15)


def test_every_constructor_defaults_to_the_one_tolerance():
    row = [[1.0, 0.0]]
    built = (
        DirectionSet(dim=2, directions=np.array(row)),
        DirectionSet.from_vectors(row),
        DirectionSet.from_json(json.dumps({"dim": 2, "directions": row})),
    )
    assert [ds.tolerance for ds in built] == [DEFAULT_TOLERANCE] * 3


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_tolerance_must_be_finite_and_nonnegative(bad: float):
    # [3, 4] is far from unit length; a NaN or infinite tolerance let it in
    with pytest.raises(ValueError, match="tolerance"):
        DirectionSet(dim=2, directions=np.array([[3.0, 4.0]]), tolerance=bad)


def test_direction_set_rejects_far_from_unit():
    with pytest.raises(ValueError):
        DirectionSet.from_vectors(np.array([[0.5, 0.0]]))
    with pytest.raises(ValueError):
        DirectionSet.from_vectors(np.array([[1.0 + 1e-7, 0.0]]))


def test_direction_set_rejects_bad_shape():
    with pytest.raises(ValueError):
        DirectionSet(dim=2, directions=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        DirectionSet(dim=3, directions=np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_direction_set_rejects_non_finite(bad: float):
    # abs(nan - 1) > tol is False, so the unit-length check alone lets NaN in
    with pytest.raises(ValueError, match="finite"):
        DirectionSet(dim=2, directions=[[bad, 0.0], [1.0, 0.0]])


def test_direction_set_refuses_a_norm_past_the_float_range_without_a_warning():
    # the squared norm of 1e308 overflows; the run treats RuntimeWarning as an error
    with pytest.raises(ValueError, match="unit vectors"):
        DirectionSet(2, [[1e308, 0.0], [1.0, 0.0]])


def test_direction_set_is_read_only():
    ds = DirectionSet.from_vectors(np.eye(2))
    with pytest.raises(ValueError):
        ds.directions[0, 0] = 5.0


def test_json_roundtrip_is_exact():
    ds = DirectionSet.from_vectors(np.array([[1.0, 0.0], [0.0, -1.0]]))
    payload = json.loads(json.dumps(ds.to_json()))
    back = DirectionSet.from_json(payload)
    assert back.dim == ds.dim
    np.testing.assert_array_equal(back.directions, ds.directions)


def test_min_angle_to_set_basic():
    ds = DirectionSet.from_vectors(np.eye(3))
    v = np.array([0.0, 0.0, -1.0])
    assert min_angles_to_set(v[None], ds)[0] == pytest.approx(math.pi / 2)
    assert min_angles_to_set(np.array([v, -v]), ds).shape == (2,)
    assert min_angles_to_set(v[None], DirectionSet.from_vectors([0.0, 1.0, 0.0]))[0] == pytest.approx(math.pi / 2)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 6),
    m=st.integers(1, 8),
    k=st.integers(0, 40),
)
@example(seed=0, n=2, m=1, k=2)  # a gemm, vs @ D.T, rounds row 0 of this stack one ulp off
def test_min_angles_to_set_matches_per_row_loop(seed: int, n: int, m: int, k: int):
    """The stacked angle check equals a loop of one-row calls bit for bit,
    rows normalized one at a time as flow-verify used to."""
    rng = np.random.default_rng(seed)
    ds = DirectionSet.from_vectors(_unit_rows(rng.standard_normal((m, n))))
    zs = rng.standard_normal((k, n)) * rng.uniform(0.1, 3.0, (k, 1))
    np.testing.assert_array_equal(row_norms(zs), [np.linalg.norm(z) for z in zs])
    vs = zs / row_norms(zs)[:, None]
    loop = np.array([min_angles_to_set((z / np.linalg.norm(z))[None], ds)[0] for z in zs])
    np.testing.assert_array_equal(min_angles_to_set(vs, ds), loop.reshape(k))


def test_min_angles_to_set_checks_every_row():
    ds = DirectionSet.from_vectors(np.eye(2))
    with pytest.raises(ValueError):
        min_angles_to_set(np.array([1.0, 0.0]), ds)


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5), m=st.integers(1, 6))
def test_transformed_preserves_pairwise_angles(seed: int, n: int, m: int):
    """Orthogonal transforms leave the angle structure untouched."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    ds = DirectionSet.from_vectors(raw)
    q = _random_rotation(rng, n)
    moved = ds.transformed(q)
    assert len(moved) == len(ds)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            before = min_angles_to_set(ds.directions[i : i + 1], DirectionSet.from_vectors(ds.directions[j]))[0]
            after = min_angles_to_set(moved.directions[i : i + 1], DirectionSet.from_vectors(moved.directions[j]))[0]
            assert after == pytest.approx(before, abs=1e-9)


def test_transformed_rejects_non_orthogonal():
    ds = DirectionSet.from_vectors(np.eye(2))
    with pytest.raises(ValueError):
        ds.transformed(np.array([[1.0, 1.0], [0.0, 1.0]]))
