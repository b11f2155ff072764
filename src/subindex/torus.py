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
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .convexity import classify_polar_region, is_critical, sub_index_of_region
from .directions import DirectionSet
from .errors import InternalInconsistencyError, UnsupportedConfigurationError

# default grid resolutions for the exhaustive regularity scan, by dimension
_SCAN_RESOLUTION = {1: 101, 2: 31, 3: 13, 4: 7, 5: 5}

# Bound on points x translates x dim of one block of point-to-translate
# differences; every distance, up-set and scan computation goes through it.
_BLOCK_ENTRIES = 4_000_000


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
    of every base point, which is exhaustive for the unit torus. ``tie_tol``
    is the absolute tolerance on squared distances under which a translate
    counts as minimizing.
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

    @cached_property
    def _targets(self) -> np.ndarray:
        # all lattice translates of all base points, shape (B * 3^n, dim)
        offsets = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=self.dim)))
        return (self.base[:, None, :] + offsets[None, :, :]).reshape(-1, self.dim)

    def _blocks(self, pts: np.ndarray):
        """Yield ``(start, diff, sq)`` over row blocks of reduced points.

        ``diff[i, j]`` is translate j minus point ``start + i`` and ``sq`` its
        squared norm; a block holds at most ``_BLOCK_ENTRIES`` floats of diff.
        """
        rows = max(1, _BLOCK_ENTRIES // self._targets.size)
        for start in range(0, pts.shape[0], rows):
            diff = self._targets[None, :, :] - pts[start : start + rows, None, :]
            yield start, diff, (diff * diff).sum(axis=2)

    def distance(self, x) -> float:
        return float(self.distance_many(np.asarray(x, float)[None, :])[0])

    def distance_many(self, points: np.ndarray) -> np.ndarray:
        """Distances for a stack of points, returned with shape (N,)."""
        pts = reduce_point(points)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError("points must have shape (N, dim)")
        out = np.empty(pts.shape[0])
        for start, _, sq in self._blocks(pts):
            out[start : start + sq.shape[0]] = np.sqrt(sq.min(axis=1))
        return out

    def up_set(self, x) -> DirectionSet:
        """Unit directions toward every minimizing lattice translate of the base.

        Ties are decided on squared distances within ``tie_tol``.
        """
        x = reduce_point(x)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},)")
        [(_, diff, sq)] = self._blocks(x[None, :])
        diff, sq = diff[0], sq[0]
        smallest = float(sq.min())
        if smallest < 1e-24:
            raise ValueError("the point coincides with a base point; no directions exist")
        rows = diff[sq <= smallest + self.tie_tol]
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

    def _scan_for_extra_critical_points(self, scan_resolution: int | None):
        if scan_resolution is None:
            scan_resolution = _SCAN_RESOLUTION.get(self.dim, 5)
        elif scan_resolution < 3:
            # at 1 and 2 every grid point is a candidate, so nothing is scanned
            raise ValueError("scan_resolution must be at least 3")
        axes = np.arange(scan_resolution) / scan_resolution
        grid = np.array(list(itertools.product(axes, repeat=self.dim)))
        # drop grid points sitting on known critical points (all coords in {0, 1/2})
        on_candidate = np.all(
            (np.abs(grid) < 1e-12) | (np.abs(grid - 0.5) < 1e-12), axis=1
        )
        grid = grid[~on_candidate]
        for start, diff, sq in self._blocks(grid):
            ties = sq <= (sq.min(axis=1) + self.tie_tol)[:, None]
            for idx in np.nonzero(ties.sum(axis=1) > 1)[0]:
                rows = diff[idx][ties[idx]]
                dirs = rows / np.linalg.norm(rows, axis=1)[:, None]
                # cheap separating certificate: the summed direction works for
                # every regular tie on this lattice
                w = dirs.sum(axis=0)
                if np.all(dirs @ w > 1e-12):
                    continue
                if is_critical(DirectionSet(self.dim, dirs)):
                    raise InternalInconsistencyError(
                        f"grid scan found an unexpected critical point at {grid[start + idx]}"
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

    def sublevel_connectivity(self, level: float, eps: float, grid: int) -> dict:
        """pi_0 report for the sublevel set {dist < level + eps} on a grid.

        Builds the 2n-neighbor torus-wrapped grid graph on the outer sublevel
        vertices and reports, per component, whether it meets the inner
        sublevel {dist < level - eps}; also counts inner components so that
        regular levels can be checked for an unchanged component count.
        """
        if grid < 2:
            raise ValueError("grid must be at least 2")
        guard = 2.0 * np.sqrt(self.dim) / grid
        if eps <= guard:
            raise ValueError(
                f"eps must exceed the grid guard 2*sqrt(n)/m = {guard:.4g}"
            )
        shape = (grid,) * self.dim
        axes = np.arange(grid) / grid
        mesh = np.meshgrid(*([axes] * self.dim), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        dist = self.distance_many(pts)
        outer = dist < level + eps
        inner = dist < level - eps

        def component_labels(mask: np.ndarray) -> np.ndarray:
            n_nodes = mask.size
            idx = np.arange(n_nodes).reshape(shape)
            rows, cols = [], []
            for axis in range(self.dim):
                nb = np.roll(idx, -1, axis=axis)
                src, dst = idx.ravel(), nb.ravel()
                keep = mask[src] & mask[dst]
                rows.append(src[keep])
                cols.append(dst[keep])
            rows = np.concatenate(rows) if rows else np.empty(0, int)
            cols = np.concatenate(cols) if cols else np.empty(0, int)
            graph = coo_matrix(
                (np.ones(rows.size), (rows, cols)), shape=(n_nodes, n_nodes)
            )
            return connected_components(graph, directed=False)[1]

        outer_labels = component_labels(outer)
        n_outer = np.unique(outer_labels[outer]).size
        n_inner = np.unique(component_labels(inner)[inner]).size
        # inner is a subset of outer (eps > 0), so this counts outer
        # components that meet inner
        meets = np.unique(outer_labels[inner]).size
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
