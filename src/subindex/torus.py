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
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .convexity import classify_polar_region, is_critical, sub_index_of_region
from .directions import DirectionSet
from .errors import AmbiguousClassificationError, InternalInconsistencyError, UnsupportedConfigurationError

# default grid resolutions for the exhaustive regularity scan, by dimension
_SCAN_RESOLUTION = {1: 101, 2: 31, 3: 13, 4: 7, 5: 5}

# Largest dim whose default enumeration stays under 30 s and 512 MB: on 2 vCPUs
# dim 8 takes 3.8 s and 271 MB of peak RSS, dim 9 14 s and 643 MB.
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

# Bound on the floats of one block of per-axis terms (points x base points x
# dim x 3 offsets) or of candidate translate differences.
_BLOCK_ENTRIES = 4_000_000
_STEPS = np.array([-1.0, 0.0, 1.0])  # the lattice offsets searched, per axis

# Rounding slack of the candidate prefilter and of the up-set's gap test, far
# above the error of a sum of n terms below 3.
_PREFILTER = 1e-12


# The two ceilings, checked by the methods below and by the CLI before a field
# and its dim-length base are built.
def _check_enumeration_dim(dim: int):
    if dim > _MAX_ENUMERATION_DIM:
        raise UnsupportedConfigurationError(f"enumeration is limited to dim <= {_MAX_ENUMERATION_DIM}")


def _check_connectivity_grid(dim: int, grid: int):
    if grid < 2:
        raise ValueError("grid must be at least 2")
    nodes = 1
    for _ in range(dim):
        nodes *= grid
        if nodes * (dim + 1) > _MAX_CONNECTIVITY_ENTRIES:
            raise UnsupportedConfigurationError(
                f"grid {grid} at dim {dim} exceeds the connectivity limit "
                f"grid**dim * (dim + 1) <= {_MAX_CONNECTIVITY_ENTRIES}"
            )


def reduce_point(x) -> np.ndarray:
    """Reduce coordinates mod 1 into [0, 1)."""
    x = np.asarray(x, dtype=float)
    return np.mod(x, 1.0)


@dataclass(frozen=True)
class CriticalPointRecord:
    point: np.ndarray
    level: float
    directions: DirectionSet
    sub_index: int | float


@dataclass
class TorusDistanceField:
    """dist(., K) on the unit torus for a finite base set K.

    ``base`` may be a single point or a stack of points (distance is then the
    min over the stack). The translates searched are the offsets {-1, 0, 1}^n
    of every base point, which is exhaustive for the unit torus; as squared
    distances are sums of per-axis terms, N points cost O(N B 3n) for B base
    points. ``tie_tol`` is the absolute tolerance on squared distances under
    which a translate counts as minimizing.
    """

    dim: int
    base: np.ndarray = None
    tie_tol: float = 1e-9

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.base is None:
            self.base = np.full((1, self.dim), 0.5)
        else:
            arr = reduce_point(self.base)
            if arr.ndim == 1:
                arr = arr[None, :]
            if arr.ndim != 2 or arr.shape[1] != self.dim:
                raise ValueError("base must be one or more points of dimension dim")
            self.base = arr
        if not 0.0 <= self.tie_tol < np.inf:
            raise ValueError(f"tie_tol must be finite and nonnegative, got {self.tie_tol}")

    def _axis_terms(self, pts: np.ndarray):
        """Yield ``(start, terms)`` over row blocks of reduced points, with
        ``terms[i, b, a, k] = ((base[b, a] + _STEPS[k]) - pts[start + i, a])**2``."""
        shifted = self.base[:, :, None] + _STEPS
        rows = max(1, _BLOCK_ENTRIES // shifted.size)
        for start in range(0, pts.shape[0], rows):
            gaps = shifted - pts[start : start + rows, None, :, None]
            yield start, gaps * gaps

    def _tie_groups(self, pts: np.ndarray):
        """Yield ``(idx, diff, sq, ties, beyond)`` for points ``pts[idx]`` that
        share their candidates: the offsets within ``tie_tol`` of their axis's
        minimum, whose products hold every tie. ``diff[g, j]`` is candidate
        translate j (base-major, then in ``itertools.product`` order) minus
        point ``idx[g]``, ``sq`` its squared norm and ``ties`` marks
        ``sq <= min + tie_tol``; ``beyond`` bounds every other translate's."""
        for start, terms in self._axis_terms(pts):
            axis_min = terms.min(axis=-1)
            per_base = axis_min.sum(axis=-1)
            smallest = per_base.min(axis=-1)
            cand = terms <= axis_min[..., None] + (self.tie_tol + _PREFILTER)
            # a non-candidate leaves the other axes at best at their minima;
            # past {-1, 0, 1} the nearest offset is one beyond the nearer of +-1
            edge = 1.0 + np.sqrt(np.minimum(terms[..., 0], terms[..., 2]))
            off = np.minimum(np.where(cand, np.inf, terms).min(axis=-1), edge * edge)
            beyond = (per_base[..., None] - axis_min + off).reshape(len(terms), -1).min(axis=1)
            # group by candidate pattern, its bits packed into one sort key
            packed = np.packbits(cand.reshape(len(terms), -1), axis=1)
            keys = packed.view(f"V{packed.shape[1]}").ravel()
            _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
            groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
            for row, members in zip(first, groups):
                # Python ints: an int64 product of 64 twos wraps to 0
                count = sum(math.prod(int(k) for k in mask.sum(axis=-1)) for mask in cand[row])
                if count > _MAX_UP_SET:
                    raise UnsupportedConfigurationError(f"{count} candidate translates, the limit is {_MAX_UP_SET}")
                offsets = [itertools.product(*(_STEPS[c] for c in mask)) for mask in cand[row]]
                targets = np.concatenate([b + np.array(list(o)) for b, o in zip(self.base, offsets)])
                step = max(1, _BLOCK_ENTRIES // targets.size)
                for lo in range(0, members.size, step):
                    local = members[lo : lo + step]
                    diff = targets - pts[start + local, None, :]
                    sq = (diff * diff).sum(axis=2)
                    ties = sq <= (smallest[local] + self.tie_tol)[:, None]
                    yield start + local, diff, sq, ties, beyond[local]

    def distance(self, x) -> float:
        return float(self.distance_many(np.asarray(x, float)[None, :])[0])

    def distance_many(self, points: np.ndarray) -> np.ndarray:
        """Distances for a stack of points, returned with shape (N,)."""
        pts = reduce_point(points)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError("points must have shape (N, dim)")
        out = np.empty(pts.shape[0])
        # float addition is monotone: the sum of the axis minima is the minimum
        for start, terms in self._axis_terms(pts):
            out[start : start + terms.shape[0]] = np.sqrt(terms.min(-1).sum(-1).min(-1))
        return out

    def up_set(self, x) -> DirectionSet:
        """Unit directions toward every minimizing lattice translate of the base.

        Ties are decided on squared distances within ``tie_tol``; a gap from
        the largest included to the smallest excluded one not above
        ``tie_tol`` raises ``AmbiguousClassificationError`` with it as margin.
        """
        x = reduce_point(x)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},)")
        [(_, diff, sq, ties, beyond)] = self._tie_groups(x[None, :])
        diff, sq, ties = diff[0], sq[0], ties[0]
        if sq.min() < 1e-24:
            raise ValueError("the point coincides with a base point; no directions exist")
        gap = min(float(beyond[0]), sq[~ties].min(initial=np.inf)) - sq[ties].max()
        if gap <= self.tie_tol + _PREFILTER:
            message = f"translates at {x} tie only within tie_tol {self.tie_tol}"
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
            level=self.distance(x),
            directions=dirs,
            sub_index=sub_index_of_region(self.dim, region),
        )

    # -- ground-truth enumeration (centered single-point base only) ---------

    def _require_centered_base(self, what: str):
        if self.base.shape[0] != 1 or not np.allclose(self.base[0], 0.5, atol=1e-12):
            raise UnsupportedConfigurationError(
                f"{what} is implemented only for the single centered base point"
            )

    def enumerate_critical_points(
        self, scan_resolution: int | None = None, verify: bool = True
    ) -> list[CriticalPointRecord]:
        """All critical points of the centered field, classified.

        The candidates are the points with every coordinate in {0, 1/2},
        excluding the base point itself. With ``verify`` a full grid scan
        asserts that every other grid point is regular.
        """
        self._require_centered_base("critical point enumeration")
        _check_enumeration_dim(self.dim)
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
        if verify:
            self._scan_for_extra_critical_points(scan_resolution)
        return records

    def _scan_grid(self, scan_resolution: int | None) -> np.ndarray:
        """The scan's grid in ``itertools.product`` order, candidates dropped."""
        if scan_resolution is None:
            scan_resolution = _SCAN_RESOLUTION.get(self.dim, 5)
        elif scan_resolution < 3:
            # at 1 and 2 every grid point is a candidate, so nothing is scanned
            raise ValueError("scan_resolution must be at least 3")
        axes = np.arange(scan_resolution) / scan_resolution
        grid = np.stack(np.meshgrid(*([axes] * self.dim), indexing="ij"), axis=-1).reshape(-1, self.dim)
        on_candidate = np.all(
            (np.abs(grid) < 1e-12) | (np.abs(grid - 0.5) < 1e-12), axis=1
        )
        return grid[~on_candidate]

    def _scan_for_extra_critical_points(self, scan_resolution: int | None):
        grid = self._scan_grid(scan_resolution)
        failed = []
        for idx, diff, _, ties, _ in self._tie_groups(grid):
            suspect = ties.sum(axis=1) > 1
            idx, diff, ties = idx[suspect], diff[suspect], ties[suspect]
            dirs = diff / np.linalg.norm(diff, axis=2)[..., None]
            # cheap separating certificate: the summed direction works for
            # every regular tie on this lattice
            w = np.where(ties[..., None], dirs, 0.0).sum(axis=1)
            ok = np.all(~ties | (np.einsum("gjn,gn->gj", dirs, w) > 1e-12), axis=1)
            failed += [(i, d[t]) for i, d, t in zip(idx[~ok], dirs[~ok], ties[~ok])]
        for i, dirs in sorted(failed, key=lambda f: f[0]):
            if is_critical(DirectionSet(self.dim, dirs)):
                raise InternalInconsistencyError(
                    f"grid scan found an unexpected critical point at {grid[i]}"
                )

    def betti_table(self, scan_resolution: int | None = None) -> dict[int, int]:
        """Histogram sub-index -> count over all critical points."""
        records = self.enumerate_critical_points(scan_resolution)
        table: dict[int, int] = {}
        for rec in records:
            key = int(rec.sub_index)
            table[key] = table.get(key, 0) + 1
        return dict(sorted(table.items()))

    # -- verification helpers ------------------------------------------------

    def first_order_residual(
        self, x, v, t_max: float = 0.1, steps: int = 32, t_min: float | None = None
    ) -> float:
        """max_t |dist(x + t v) - (c0 - t cos a)| / t^2 with a the smallest
        angle from v to the up-set at x.

        A bounded value as t -> 0 is the numerical form of first-order
        behavior of the distance along geodesics.
        """
        if not 0 < t_max <= 0.2:
            raise ValueError("t_max must lie in (0, 0.2]")
        x = reduce_point(x)
        v = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError("v must be a unit vector")
        dirs = self.up_set(x)
        c0 = self.distance(x)
        cos_a = float(np.max(np.clip(dirs.directions @ v, -1.0, 1.0)))
        lo = t_min if t_min is not None else t_max / steps
        ts = np.geomspace(lo, t_max, steps)
        points = x[None, :] + ts[:, None] * v[None, :]
        dists = self.distance_many(points)
        model = c0 - ts * cos_a
        return float(np.max(np.abs(dists - model) / ts**2))

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
        _check_connectivity_grid(self.dim, grid)
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
    # imported here, not with the module: it adds about 65 ms to every import
    from scipy import ndimage

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
