"""Distance fields on the square unit torus R^n / Z^n.

The distance from x to a base point K is realized by finitely many lattice
translates K + m; enumerating |m|_inf <= 1 is exhaustive on the unit torus
because every coordinate displacement can be reduced below 1. The minimizing
unit vectors (K + m - x)/|K + m - x| play the role of initial directions of
minimizing geodesics, and feed the convexity classifier.

With K at the cube center (1/2, ..., 1/2), the critical points of dist_K are
exactly the centers of the k-dimensional subcubes of the unit cube, i.e. the
points with every coordinate in {0, 1/2}, and the point at the center of a
k-subcube has sub-index n - k. The number of critical points with sub-index
lambda is the binomial coefficient C(n, lambda).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .convexity import CERTIFIED_MARGIN, classify_polar_region, is_critical, sub_index_of_region
from .directions import DirectionSet
from .errors import AmbiguousClassificationError, InternalInconsistencyError, UnsupportedConfigurationError

# Largest dim the enumeration admits. On 2 vCPUs (py3.11, numpy 2.4) the default
# enumeration took 0.73 s and 38 MB of peak RSS at dim 8, 1.6 s and 39 MB at
# dim 9; a larger table is a new capability, to be measured as a whole command.
_MAX_ENUMERATION_DIM = 8

# Bound on grid**dim * (dim + 1) in sublevel_connectivity: about 10 bytes per
# unit (gathered axis minima, labels), 30 in dim 1 and past dim 4 (box merges).
# At the bound, every node in both sublevels, peak RSS was 124-155 MB in dims
# 2-11, 235 MB in dims 1 and 18 (grid 2): 2 vCPUs, py3.11, numpy 2.4.
_MAX_CONNECTIVITY_ENTRIES = 5_000_000

# Bound on the candidate translates of one point, which the up-set's LPs get
# as rows: 2**dim at the origin. On 2 vCPUs torus-classify there took 1.4 s and
# 104 MB at dim 12, 7.6 s and 121 MB at dim 13, 28 s and 168 MB at dim 14.
_MAX_UP_SET = 2**13

# Bound on the floats of one block of distance_many's per-axis terms (points x
# base points x dim x 3 offsets).
_BLOCK_ENTRIES = 4_000_000
_STEPS = np.array([-1.0, 0.0, 1.0])  # the lattice offsets searched, per axis

# Rounding slack of the candidate prefilter and of the up-set's gap test, far
# above the error of a sum of n terms below 3.
_PREFILTER = 1e-12

TIE_TOL = 1e-9  # on squared distances, under which a translate counts as minimizing


def reduce_point(x) -> np.ndarray:
    """Reduce coordinates mod 1 into [0, 1)."""
    x = np.asarray(x, dtype=float)
    return np.mod(x, 1.0)


@dataclass(frozen=True)
class CriticalPointRecord:
    point: np.ndarray
    directions: DirectionSet
    sub_index: int | float


@dataclass
class TorusDistanceField:
    """dist(., K) on the unit torus for a finite base set K.

    ``base`` may be a single point or a stack of points (distance is then the
    min over the stack). The translates searched are the offsets {-1, 0, 1}^n
    of every base point, which is exhaustive for the unit torus; as squared
    distances are sums of per-axis terms, N points cost O(N B 3n) for B base
    points. A translate counts as minimizing within ``TIE_TOL`` on squared
    distances.
    """

    dim: int
    base: np.ndarray = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.base is None:
            # a read-only view of one float, so nothing dim-long exists before a ceiling check
            self.base = np.broadcast_to(0.5, (1, self.dim))
        else:
            arr = reduce_point(self.base)
            if arr.ndim == 1:
                arr = arr[None, :]
            if arr.ndim != 2 or arr.shape[1] != self.dim:
                raise ValueError("base must be one or more points of dimension dim")
            self.base = arr

    def _ties(self, x: np.ndarray):
        """``(diff, sq, ties, beyond)`` for a reduced point x. Its candidates
        are the offsets within ``TIE_TOL`` of their axis's minimum, whose
        products hold every tie. ``diff[j]`` is candidate translate j
        (base-major, then in ``itertools.product`` order) minus x, ``sq`` its
        squared norm and ``ties`` marks ``sq <= min + TIE_TOL``; ``beyond``
        bounds every other translate's."""
        gaps = self.base[:, :, None] + _STEPS - x[:, None]
        terms = gaps * gaps
        axis_min = terms.min(axis=-1)
        per_base = axis_min.sum(axis=-1)
        cand = terms <= axis_min[..., None] + (TIE_TOL + _PREFILTER)
        # a non-candidate leaves the other axes at best at their minima;
        # past {-1, 0, 1} the nearest offset is one beyond the nearer of +-1
        edge = 1.0 + np.sqrt(np.minimum(terms[..., 0], terms[..., 2]))
        off = np.minimum(np.where(cand, np.inf, terms).min(axis=-1), edge * edge)
        beyond = float((per_base[:, None] - axis_min + off).min())
        # Python ints: an int64 product of 64 twos wraps to 0
        count = sum(math.prod(int(k) for k in mask.sum(axis=-1)) for mask in cand)
        if count > _MAX_UP_SET:
            raise UnsupportedConfigurationError(f"{count} candidate translates, the limit is {_MAX_UP_SET}")
        offsets = [itertools.product(*(_STEPS[c] for c in mask)) for mask in cand]
        diff = np.concatenate([b + np.array(list(o)) for b, o in zip(self.base, offsets)]) - x
        sq = (diff * diff).sum(axis=1)
        return diff, sq, sq <= per_base.min() + TIE_TOL, beyond

    def distance(self, x) -> float:
        return float(self.distance_many(np.asarray(x, float)[None, :])[0])

    def distance_many(self, points: np.ndarray) -> np.ndarray:
        """Distances for a stack of points, returned with shape (N,)."""
        pts = reduce_point(points)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError("points must have shape (N, dim)")
        out = np.empty(pts.shape[0])
        shifted = self.base[:, :, None] + _STEPS
        rows = max(1, _BLOCK_ENTRIES // shifted.size)
        for start in range(0, pts.shape[0], rows):
            # terms[i, b, a, k] = ((base[b, a] + _STEPS[k]) - pts[start + i, a])**2; float
            # addition is monotone, so the sum of the axis minima is the minimum
            gaps = shifted - pts[start : start + rows, None, :, None]
            out[start : start + rows] = np.sqrt((gaps * gaps).min(-1).sum(-1).min(-1))
        return out

    def up_set(self, x) -> DirectionSet:
        """Unit directions toward every minimizing lattice translate of the base.

        Ties are decided on squared distances within ``TIE_TOL``; a gap from
        the largest included to the smallest excluded one not above
        ``TIE_TOL`` raises ``AmbiguousClassificationError`` with it as margin.
        """
        x = reduce_point(x)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},)")
        diff, sq, ties, beyond = self._ties(x)
        if sq.min() < 1e-24:
            raise ValueError("the point coincides with a base point; no directions exist")
        gap = min(beyond, sq[~ties].min(initial=np.inf)) - sq[ties].max()
        if gap <= TIE_TOL + _PREFILTER:
            message = f"translates at {x} tie only within the tie tolerance {TIE_TOL}"
            raise AmbiguousClassificationError(message, margin=gap)
        rows = diff[ties]
        dirs = rows / np.linalg.norm(rows, axis=1)[:, None]
        return DirectionSet(self.dim, dirs)

    def classify_point(self, x) -> CriticalPointRecord | None:
        """Record for a critical point, or None when the point is regular."""
        x = reduce_point(x)
        dirs = self.up_set(x)
        if not is_critical(dirs):
            return None
        region = classify_polar_region(dirs)
        return CriticalPointRecord(
            point=x,
            directions=dirs,
            sub_index=sub_index_of_region(self.dim, region),
        )

    # -- ground-truth enumeration (centered single-point base only) ---------

    def enumerate_critical_points(self) -> list[CriticalPointRecord]:
        """All critical points of the centered field, classified.

        The candidates are the points with every coordinate in {0, 1/2},
        excluding the base point itself. The dim ceiling, the base and the
        regularity scan, which proves every point of the torus outside small
        disjoint boxes around the candidates regular, are checked before
        anything is classified.
        """
        if self.dim > _MAX_ENUMERATION_DIM:
            raise UnsupportedConfigurationError(f"enumeration is limited to dim <= {_MAX_ENUMERATION_DIM}")
        if self.base.shape[0] != 1 or not np.allclose(self.base[0], 0.5, atol=1e-12):
            raise UnsupportedConfigurationError(
                "critical point enumeration is implemented only for the single centered base point"
            )
        self._scan()
        records = []
        for coords in itertools.product((0.0, 0.5), repeat=self.dim):
            point = np.array(coords)
            if np.allclose(point, 0.5):
                continue
            record = self.classify_point(point)
            if record is None:
                raise InternalInconsistencyError(
                    f"expected critical point at {point} classified regular"
                )
            records.append(record)
        return records

    def _scan(self) -> tuple[float, float]:
        """Half-widths ``(tie, clear)`` of the boxes around the candidates
        outside which every point of the torus is proved regular; no LP is
        solved.

        A tied translate takes a candidate offset (as in :meth:`_ties`) on
        every axis and lies within sqrt(n/4 + TIE_TOL). So where the candidate
        gaps (1/2 + k) - x_a all have one sign and clear
        CERTIFIED_MARGIN * sqrt(n/4 + TIE_TOL), -sign e_a separates every tied
        direction with margin CERTIFIED_MARGIN, as the separation LP would.
        That fails only where the offsets -1 and 0 (or 0 and 1) tie,
        min(x_a, 1 - x_a) <= tie, and where |x_a - 1/2| < clear; so every
        critical point lies in a box of those half-widths around a point of
        {0, 1/2}^n. The boxes are disjoint while tie + clear < 1/2; where the
        windows meet, ``InternalInconsistencyError`` is raised.
        """
        tie = (TIE_TOL + _PREFILTER) / 2
        clear = CERTIFIED_MARGIN * math.sqrt(self.dim / 4 + TIE_TOL)
        if tie + clear >= 0.5:
            raise InternalInconsistencyError(
                f"at the tie tolerance {TIE_TOL} the scan's windows around 0 ({tie}) and 1/2 ({clear}) meet"
            )
        return tie, clear

    def betti_table(self) -> dict[int, int]:
        """Histogram sub-index -> count over all critical points."""
        records = self.enumerate_critical_points()
        table: dict[int, int] = {}
        for rec in records:
            key = int(rec.sub_index)
            table[key] = table.get(key, 0) + 1
        return dict(sorted(table.items()))

    def _grid_distances(self, grid: int) -> np.ndarray:
        """``distance_many`` bit for bit on the grid k/grid per axis, shaped
        (grid,)*dim: the axis minima, formed once per coordinate, are gathered
        for the same ``.sum(-1)``, as a broadcast left fold is not pairwise."""
        axes = np.arange(grid) / grid
        sq = np.empty((grid,) * self.dim + (self.dim,))
        best = np.full((grid,) * self.dim, np.inf)
        for shifted in self.base[:, :, None] + _STEPS:
            gaps = shifted[:, None, :] - axes[:, None]
            for a, axis_min in enumerate((gaps * gaps).min(-1)):
                sq[..., a] = axis_min.reshape((grid,) + (1,) * (self.dim - 1 - a))
            np.minimum(best, sq.sum(-1), out=best)
        return np.sqrt(best)

    def sublevel_connectivity(self, level: float, eps: float, grid: int) -> dict:
        """pi_0 report for the sublevel set {dist < level + eps} on a grid.

        Labels the components of the outer sublevel under the 2n wrapped grid
        neighbours of each vertex k/grid and reports whether each meets the
        inner sublevel {dist < level - eps}; also counts inner components so
        that regular levels can be checked for an unchanged component count.
        """
        if grid < 2:
            raise ValueError("grid must be at least 2")
        nodes = 1
        for _ in range(self.dim):
            nodes *= grid
            if nodes * (self.dim + 1) > _MAX_CONNECTIVITY_ENTRIES:
                raise UnsupportedConfigurationError(
                    f"grid {grid} at dim {self.dim} exceeds the connectivity limit "
                    f"grid**dim * (dim + 1) <= {_MAX_CONNECTIVITY_ENTRIES}"
                )
        guard = 2.0 * np.sqrt(self.dim) / grid
        if eps <= guard:
            raise ValueError(
                f"eps must exceed the grid guard 2*sqrt(n)/m = {guard:.4g}"
            )
        dist = self._grid_distances(grid)
        outer = dist < level + eps
        inner = dist < level - eps
        outer_labels, outer_comp, n_outer = _torus_components(outer)
        n_inner = _torus_components(inner)[2]
        # inner lies in outer (eps > 0): count the outer components it meets
        meets = np.count_nonzero(np.bincount(outer_comp[outer_labels[inner]]))
        return {
            "level": float(level),
            "eps": float(eps),
            "grid": int(grid),
            "outer_components": int(n_outer),
            "inner_components": int(n_inner),
            "components_meeting_inner": int(meets),
            "all_outer_meet_inner": bool(meets == n_outer),
            "counts_equal": bool(n_outer == n_inner),
        }


def _torus_components(mask: np.ndarray):
    """``(labels, comp, count)`` for the torus components of ``mask``: ``comp``
    maps box labels to components, label 0 (outside ``mask``) to its own. Boxes
    span the last four axes, as ``ndimage.label``'s structure and scan grow as
    3**rank; labels meeting across the other axes or a wrap face are merged."""
    # imported here, not with the module: they add about 0.5 s to every import
    from scipy import ndimage
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    k = min(mask.ndim, 4)
    structure = np.pad(ndimage.generate_binary_structure(k, 1)[None], [(1, 1)] + [(0, 0)] * k)
    labels, count = ndimage.label(mask.reshape((-1,) + mask.shape[mask.ndim - k:]), structure)
    labels = labels.reshape(mask.shape)
    pairs = [(labels, np.roll(labels, 1, a)) for a in range(mask.ndim - k)]
    pairs += [(labels.take(0, a), labels.take(-1, a)) for a in range(mask.ndim - k, mask.ndim)]
    src, dst = (np.concatenate([p[e][(p[0] > 0) & (p[1] > 0)] for p in pairs]) for e in (0, 1))
    graph = coo_matrix((np.ones(src.size), (src, dst)), shape=(count + 1, count + 1))
    n_comp, comp = connected_components(graph, directed=False)
    return labels, comp, n_comp - 1
