"""Certified sample meshes on the circle and the 2-sphere, and the shared quadrature rule.

The meshes are deterministic, with known covering radii: equally spaced
points on S^1 and the golden-angle lattice on S^2. The terminal-cap
certificate of the cutoff flow samples them. The 64-node Gauss-Legendre rule
is shared by the flow-time and index-form quadratures.
"""

from __future__ import annotations

import functools
import math

import numpy as np

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def circle_samples(count: int) -> np.ndarray:
    """Equally spaced points on S^1, offset by half a step.

    Covering radius is exactly pi/count.
    """
    theta = 2.0 * math.pi * (np.arange(count) + 0.5) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


def fibonacci_sphere(count: int) -> np.ndarray:
    """Golden-angle lattice on S^2."""
    k = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = GOLDEN_ANGLE * k
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def sphere_samples(dim: int, count: int) -> np.ndarray:
    """``count`` points on S^(dim-1) as rows of a (count, dim) array, for dim 2 or 3."""
    if count < 1:
        raise ValueError("count must be positive")
    if dim == 2:
        return circle_samples(count)
    if dim == 3:
        return fibonacci_sphere(count)
    raise ValueError(f"no certified mesh for dim {dim}")


def covering_bound(dim: int, count: int) -> float:
    """Upper bound on the covering radius of ``sphere_samples(dim, count)``.

    Exact for dim 2. For dim 3 the Fibonacci lattice's covering radius is
    about 3.09/sqrt(count); the returned bound 2*sqrt(4*pi/count) is roughly
    2.3x that and is checked empirically in the test suite.
    """
    if dim == 2:
        return math.pi / count
    if dim == 3:
        return 2.0 * math.sqrt(4.0 * math.pi / count)
    raise ValueError(f"no covering bound available for dim {dim}")


@functools.cache
def gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 64-node Gauss-Legendre rule on [-1, 1], built on first use.

    The arrays are shared by every caller, so they are read-only.
    """
    x, wq = np.polynomial.legendre.leggauss(64)
    x.setflags(write=False)
    wq.setflags(write=False)
    return x, wq
