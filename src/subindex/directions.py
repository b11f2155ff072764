"""Finite sets of unit directions and angle utilities on the sphere."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Two directions closer than this angle are treated as the same direction.
DEDUP_ANGLE = 1e-8

# How far a vector handed to angle() may be from unit length.
UNIT_SLACK = 1e-6

# Chord |u - v| between unit vectors at angle DEDUP_ANGLE.
_DEDUP_CHORD = 2.0 * np.sin(DEDUP_ANGLE / 2.0)

# Gram entries above 1 - _GRAM_PREFILTER are candidate duplicates. This is far
# looser than Gram rounding (~1e-15) and than 1 - cos(DEDUP_ANGLE) (~5e-17), so
# no pair within DEDUP_ANGLE is missed; the chord then decides each candidate.
_GRAM_PREFILTER = 1e-9

# Bound on the Gram entries of one row block times the dimension: this caps
# both the block and the row differences of its candidate pairs.
_GRAM_BLOCK_ENTRIES = 4_000_000


def _check_unit(v: np.ndarray, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ValueError(f"{name} is numerically zero")
    if abs(norm - 1.0) > UNIT_SLACK:
        raise ValueError(f"{name} is not unit length (|v| = {norm})")
    return v


def _first_occurrences(arr: np.ndarray) -> np.ndarray:
    """Indices of the rows of a unit-row array that survive deduplication.

    Row j is dropped when some earlier *kept* row i has chord
    ``|u_i - u_j| < 2 sin(DEDUP_ANGLE / 2)``, the greedy first-occurrence rule.
    The chord is computed from the difference of the rows, which resolves
    angles far below DEDUP_ANGLE, where arccos of a rounded dot product cannot.
    Candidate pairs come from the Gram matrix, formed in row blocks.
    """
    m, dim = arr.shape
    dropped = np.zeros(m, dtype=bool)
    block = max(1, _GRAM_BLOCK_ENTRIES // (m * dim))
    for start in range(0, m, block):
        gram = arr[start : start + block] @ arr.T
        rows, cols = np.nonzero(gram > 1.0 - _GRAM_PREFILTER)
        rows += start
        upper = cols > rows
        rows, cols = rows[upper], cols[upper]
        close = np.linalg.norm(arr[rows] - arr[cols], axis=1) < _DEDUP_CHORD
        rows, cols = rows[close], cols[close]
        # pairs arrive in row-major order, so when row i is reached every
        # earlier row has been decided and i's own status is final
        heads, first = np.unique(rows, return_index=True)
        for i, group in zip(heads, np.split(cols, first[1:])):
            if not dropped[i]:
                dropped[group] = True
    return np.flatnonzero(~dropped)


def angle(v, w) -> float:
    """Angle in [0, pi] between two unit vectors.

    The dot product is clamped to [-1, 1] before arccos so that roundoff
    never produces a NaN at nearly parallel or antipodal inputs.
    """
    v = _check_unit(v, "v")
    w = _check_unit(w, "w")
    if v.shape != w.shape:
        raise ValueError("v and w have different dimensions")
    return float(np.arccos(np.clip(np.dot(v, w), -1.0, 1.0)))


def angles_to_set(v, directions: np.ndarray) -> np.ndarray:
    """Angles from one unit vector to each row of a direction array."""
    v = _check_unit(v, "v")
    dots = np.clip(np.asarray(directions, dtype=float) @ v, -1.0, 1.0)
    return np.arccos(dots)


def row_norms(a) -> np.ndarray:
    """Euclidean norm of each row of a 2d array.

    Each row costs one dot product, the call ``np.linalg.norm`` makes for a
    single vector, so a row's norm equals ``np.linalg.norm(row)`` bit for bit
    and does not depend on the rows beside it; a sum along axis 1 can round
    differently.
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])


def _directions_of(dirset) -> np.ndarray:
    directions = dirset.directions if isinstance(dirset, DirectionSet) else np.asarray(dirset, float)
    if directions.size == 0:
        raise ValueError("direction set is empty")
    return directions


def min_angle_to_set(v, dirset) -> float:
    """Smallest angle from v to a nonempty direction set."""
    return float(angles_to_set(v, _directions_of(dirset)).min())


def min_angles_to_set(vs, dirset) -> np.ndarray:
    """Smallest angle from each row of a (k, dim) stack to a nonempty set.

    Row i equals ``min_angle_to_set(vs[i], dirset)`` bit for bit: every row
    gets the same unit-length check and the same matrix-vector product, here
    one stacked product for all rows.
    """
    directions = _directions_of(dirset)
    vs = np.asarray(vs, dtype=float)
    if vs.ndim != 2 or vs.shape[1] != directions.shape[1]:
        raise ValueError(f"vs must have shape (k, {directions.shape[1]}), got {vs.shape}")
    norms = row_norms(vs)
    bad = np.flatnonzero((norms < 1e-12) | (np.abs(norms - 1.0) > UNIT_SLACK))
    if bad.size:
        raise ValueError(f"row {bad[0]} is not unit length (|v| = {norms[bad[0]]})")
    dots = np.clip(np.matmul(directions, vs[:, :, None])[:, :, 0], -1.0, 1.0)
    return np.arccos(dots).min(axis=1)


def theta_neighborhood_contains(v, dirset, theta: float) -> bool:
    """Whether v lies strictly within angle theta of the set."""
    if not 0.0 < theta <= np.pi:
        raise ValueError(f"theta must lie in (0, pi], got {theta}")
    return min_angle_to_set(v, dirset) < theta


@dataclass(frozen=True)
class DirectionSet:
    """A nonempty finite set of unit vectors in R^dim.

    Rows of ``directions`` are the unit vectors, renormalized on construction.
    Near-duplicates are removed with the greedy first-occurrence rule: a row
    goes when an earlier kept row lies within chord ``2 sin(DEDUP_ANGLE / 2)``
    of it, i.e. at angle below ``DEDUP_ANGLE``. The chord is measured on the
    row difference, which resolves angles down to roundoff. The cost is one
    O(m^2 dim) numpy Gram product, formed in row blocks of bounded size.
    ``tolerance`` is the accepted slack on unit length of the input rows.
    """

    dim: int
    directions: np.ndarray
    tolerance: float = 1e-9

    def __post_init__(self):
        arr = np.asarray(self.directions, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError("directions must be a nonempty 2d array")
        if arr.shape[1] != self.dim:
            raise ValueError(
                f"directions have dimension {arr.shape[1]}, expected {self.dim}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("directions must be finite")
        if not 0.0 <= self.tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance}")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(np.abs(norms - 1.0) > max(self.tolerance, 1e-12)):
            worst = float(np.abs(norms - 1.0).max())
            raise ValueError(f"directions must be unit vectors (worst slack {worst:.3e})")
        # renormalize exactly, then deduplicate
        arr = arr / norms[:, None]
        arr = np.ascontiguousarray(arr[_first_occurrences(arr)])
        arr.setflags(write=False)
        object.__setattr__(self, "directions", arr)

    def __len__(self) -> int:
        return self.directions.shape[0]

    def __iter__(self):
        return iter(self.directions)

    @classmethod
    def from_vectors(cls, vectors, tolerance: float = 1e-9) -> "DirectionSet":
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        return cls(dim=arr.shape[1], directions=arr, tolerance=tolerance)

    def transformed(self, q: np.ndarray) -> "DirectionSet":
        """Apply an orthogonal matrix to every direction."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim, self.dim):
            raise ValueError("matrix shape does not match dimension")
        if not np.allclose(q @ q.T, np.eye(self.dim), atol=1e-10):
            raise ValueError("matrix is not orthogonal")
        return DirectionSet(self.dim, self.directions @ q.T, self.tolerance)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "directions": [[float(x) for x in row] for row in self.directions],
                "tol": self.tolerance,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DirectionSet":
        data = json.loads(text)
        try:
            dim = int(data["dim"])
            directions = data["directions"]
            tol = float(data.get("tol", 1e-9))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed direction-set JSON: {exc}") from exc
        return cls(dim=dim, directions=np.asarray(directions, dtype=float), tolerance=tol)
