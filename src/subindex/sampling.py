"""The 64-node Gauss-Legendre rule shared by the flow-time and index-form quadratures."""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 64-node Gauss-Legendre rule on [-1, 1], built on first use.

    The arrays are shared by every caller, so they are read-only.
    """
    x, wq = np.polynomial.legendre.leggauss(64)
    x.setflags(write=False)
    wq.setflags(write=False)
    return x, wq
