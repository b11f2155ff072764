"""Deterministic sample meshes on round spheres, and the shared quadrature rule.

Dimensions 1-3 use low-discrepancy constructions with known covering radii;
higher dimensions fall back to a seeded random sample, which is fine for
statistical oracles but carries no covering certificate.
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


def sphere_samples(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """``count`` points on S^(dim-1) as rows of a (count, dim) array.

    dim 1 returns both points of S^0 regardless of count.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if count < 1:
        raise ValueError("count must be positive")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        return circle_samples(count)
    if dim == 3:
        return fibonacci_sphere(count)
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    norms = np.linalg.norm(pts, axis=1)
    # resample the (measure-zero) degenerate rows rather than dividing by ~0
    bad = norms < 1e-12
    while bad.any():
        pts[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(pts, axis=1)
        bad = norms < 1e-12
    return pts / norms[:, None]


def covering_bound(dim: int, count: int) -> float:
    """Upper bound on the covering radius of ``sphere_samples(dim, count)``.

    Exact for dim <= 2. For dim 3 the Fibonacci lattice's covering radius is
    about 3.09/sqrt(count); the returned bound 2*sqrt(4*pi/count) is roughly
    2.3x that and is checked empirically in the test suite. No bound is
    available for the random fallback.
    """
    if dim == 1:
        return 0.0
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
