"""Finite sets of unit directions and angle utilities on the sphere."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Two directions closer than this angle are treated as the same direction.
DEDUP_ANGLE = 1e-8

# How far a DirectionSet's input rows may be from unit length unless told otherwise.
DEFAULT_TOLERANCE = 1e-9

# Chord |u - v| between unit vectors at angle DEDUP_ANGLE.
_DEDUP_CHORD = 2.0 * np.sin(DEDUP_ANGLE / 2.0)

# Gram entries above 1 - _GRAM_PREFILTER are candidate duplicates. This is far
# looser than Gram rounding (~1e-15) and than 1 - cos(DEDUP_ANGLE) (~5e-17), so
# no pair within DEDUP_ANGLE is missed; the chord then decides each candidate.
_GRAM_PREFILTER = 1e-9

# Bound on the Gram entries of one row block times the dimension: this caps
# both the block and the row differences of its candidate pairs.
_GRAM_BLOCK_ENTRIES = 4_000_000


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
        if not upper.any():
            continue  # only the diagonal: no pair to decide, the common case
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


def row_norms(a) -> np.ndarray:
    """Euclidean norm of each row of a 2d array.

    Each row costs one dot product, the call ``np.linalg.norm`` makes for a
    single vector, so a row's norm equals ``np.linalg.norm(row)`` bit for bit
    and does not depend on the rows beside it; a sum along axis 1 can round
    differently.
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])


def min_angles_to_set(vs: np.ndarray, dirset: DirectionSet) -> np.ndarray:
    """Smallest angle from each row of a (k, dim) stack to a direction set.

    The caller passes unit rows. The products come from one einsum, which
    forms each row's dot products on their own, so a row's angle does not
    depend on the rows beside it (a gemm can round a row differently inside a
    stack). Dot products are clamped to [-1, 1] before arccos so that
    roundoff never produces a NaN at nearly parallel or antipodal inputs.
    """
    dots = np.clip(np.einsum("ij,kj->ik", vs, dirset.directions), -1.0, 1.0)
    return np.arccos(dots).min(axis=1)


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
    tolerance: float = DEFAULT_TOLERANCE

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
        with np.errstate(over="ignore"):  # an overflowed norm is inf, refused below
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
    def from_vectors(cls, vectors, tolerance: float = DEFAULT_TOLERANCE) -> "DirectionSet":
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
        """A set from a JSON object with an integer ``dim``, rows of numbers and
        an optional number ``tol``. Types are exact: JSON true is no number."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("a direction set must be a JSON object")
        dim, rows, tol = data.get("dim"), data.get("directions"), data.get("tol", DEFAULT_TOLERANCE)
        if type(dim) is not int:
            raise ValueError(f"'dim' must be an integer, got {dim!r}")
        if type(tol) not in (int, float):
            raise ValueError(f"'tol' must be a number, got {tol!r}")
        if type(rows) is not list or any(type(r) is not list or {type(x) for x in r} - {int, float} for r in rows):
            raise ValueError("'directions' must be a list of rows of numbers")
        return cls(dim=dim, directions=np.asarray(rows, dtype=float), tolerance=float(tol))
