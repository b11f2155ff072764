"""Criticality and polar-region classification for finite direction sets.

A point of a length space is critical for a distance function when every
tangent direction makes an angle <= pi/2 with some minimizing direction.
For a finite set U of unit vectors this is equivalent to the origin lying in
the convex hull of U, which :func:`is_critical` decides: an exact separating
certificate from the summed direction settles most regular sets, and the
separation LP the rest, at most once per :func:`classification_report`.

The polar region A = {v : angle(v, u) >= pi/2 for all u in U} is a closed,
spherically convex subset of the unit sphere. Exactly one of three things
happens: A is empty, A is a great subsphere (the unit sphere of span(U)^perp),
or A has nonempty boundary, in which case it is contained in a closed
quarter-sphere ball around a "soul" vector. The sub-index of the point is
n, n - dim span(A), or infinity respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import lp
from .directions import DirectionSet
from .errors import (
    AmbiguousClassificationError,
    InternalInconsistencyError,
    NotCriticalError,
    UnsupportedConfigurationError,
)

RANK_CUTOFF = 1e-9  # relative singular-value cutoff for span computations

# Certified lower bound on the separation LP's margin at which is_critical
# answers "regular" without a solve. The LP would report at least this bound
# less the solver's 1e-7 feasibility tolerance; at ten times AMBIGUITY_BAND
# that still clears the band, so the verdict is the one the LP would give.
CERTIFIED_MARGIN = 1e-6

# Most directions the soul LPs take: each builds a dense m x m Gram block. In
# dim 6, classifying a boundary-variant set took 1.1 s and 337 MB of peak RSS
# at 1500 rows, 2.1 s and 565 MB at 2000 (2 vCPUs, py3.11, numpy 2.4).
_MAX_SOUL_ROWS = 1500


class PolarVariant(str, Enum):
    EMPTY = "empty"
    GREAT_SUBSPHERE = "great_subsphere"
    WITH_BOUNDARY = "with_boundary"


@dataclass(frozen=True)
class PolarRegion:
    """Classification of the polar region of a critical direction set."""

    variant: PolarVariant
    span_dim: int | None = None
    soul: np.ndarray | None = None

    def __post_init__(self):
        if self.variant is PolarVariant.GREAT_SUBSPHERE:
            if self.span_dim is None or self.span_dim < 1:
                raise ValueError("great subsphere needs span_dim >= 1")
        if self.variant is PolarVariant.WITH_BOUNDARY and self.soul is None:
            raise ValueError("boundary variant needs a soul vector")


def criticality_margin(dirset: DirectionSet) -> float:
    """L1 distance from the origin to conv(U); zero exactly at critical sets."""
    return lp.separation_margin(dirset.directions)


def certified_regular(dirs) -> bool:
    """Whether the summed direction certifies that 0 lies outside conv(U).

    With w the sum of the (m, n) rows of U, -w / |w|_inf is feasible in the
    separation LP with margin min(U w) / |w|_inf, which certifies regularity
    at CERTIFIED_MARGIN or more.
    """
    u = np.asarray(dirs, dtype=float)
    w = u.sum(axis=0)
    dots = np.matmul(u, w[:, None])[:, 0]
    scale = np.abs(w).max()
    return bool(scale > 0.0 and dots.min() >= CERTIFIED_MARGIN * scale)


def is_critical(dirset: DirectionSet) -> bool:
    """Whether the origin lies in the convex hull of the direction set.

    A set that :func:`certified_regular` certifies is regular without an LP;
    otherwise the separation LP decides.

    Raises
    ------
    AmbiguousClassificationError
        If the LP margin falls between the feasibility margin (1e-9) and the
        ambiguity band (1e-7), where neither verdict is trustworthy.
    """
    if certified_regular(dirset.directions):
        return False
    margin = criticality_margin(dirset)
    if margin <= lp.FEASIBILITY_MARGIN:
        return True
    if margin < lp.AMBIGUITY_BAND:
        raise AmbiguousClassificationError("criticality is numerically ambiguous", margin)
    return False


def span_rank(directions: np.ndarray) -> int:
    sv = np.linalg.svd(np.asarray(directions, float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_CUTOFF * sv[0]))


def classify_polar_region(dirset: DirectionSet) -> PolarRegion:
    """Decide which of the three shapes the polar region of a critical set has.

    The decision runs on the polar cone C = {v : v . u <= 0 for all u}:
    its lineality within span(U) is trivial iff the origin admits a convex
    representation with all weights positive (an LP), and the orthogonal
    complement of span(U) contributes a great subsphere whenever it is
    nonzero. Soul vectors live in C intersected with -cone(U) and are found
    by the margin LP with a feasibility LP as fallback.
    """
    if not is_critical(dirset):
        raise NotCriticalError("polar-region classification requires a critical set")
    u = dirset.directions
    n = dirset.dim
    interior = lp.interior_weight_margin(u)
    if interior is None:
        # contradicts is_critical; the margins disagree near degeneracy
        raise AmbiguousClassificationError(
            "hull membership and interior LPs disagree", lp.FEASIBILITY_MARGIN
        )
    if interior >= lp.AMBIGUITY_BAND:
        rank = span_rank(u)
        if rank == n:
            return PolarRegion(PolarVariant.EMPTY)
        return PolarRegion(PolarVariant.GREAT_SUBSPHERE, span_dim=n - rank)
    if interior > lp.FEASIBILITY_MARGIN:
        raise AmbiguousClassificationError(
            "interior/boundary split is numerically ambiguous", interior
        )
    soul = _find_soul(u)
    return PolarRegion(PolarVariant.WITH_BOUNDARY, soul=soul)


def _find_soul(u: np.ndarray) -> np.ndarray:
    if u.shape[0] > _MAX_SOUL_ROWS:
        raise UnsupportedConfigurationError(f"{u.shape[0]} directions, the soul LPs' limit is {_MAX_SOUL_ROWS}")
    margin, lam = lp.soul_margin_lp(u)
    if margin > lp.AMBIGUITY_BAND:
        # a strictly separating w exists only when the set is not critical
        raise InternalInconsistencyError(
            f"soul margin LP returned {margin:.3e} on a critical set"
        )
    w = -u.T @ lam
    norm = float(np.linalg.norm(w))
    if norm <= 1e-9 or np.any(u @ w > 1e-9 * norm):
        objective, lam = lp.soul_feasibility_lp(u)
        if objective <= 1e-12:
            # the boundary variant is numerically indistinguishable from a
            # great subsphere, e.g. a row turned 1e-7 rad off the others' span
            raise AmbiguousClassificationError(
                "no soul vector clears the feasibility threshold", objective
            )
        w = -u.T @ lam
        norm = float(np.linalg.norm(w))
        if norm <= 1e-12:
            raise InternalInconsistencyError("soul feasibility LP returned a zero vector")
    soul = w / norm
    slack = float((u @ soul).max())
    if slack > 1e-9:
        raise AmbiguousClassificationError("computed soul leaves the polar cone", slack)
    return soul


def sub_index_of_region(dim: int, region: PolarRegion) -> int | float:
    if region.variant is PolarVariant.EMPTY:
        return dim
    if region.variant is PolarVariant.GREAT_SUBSPHERE:
        return dim - region.span_dim
    return math.inf


def sub_index(dirset: DirectionSet) -> int | float:
    """Sub-index of a critical direction set: an int in 1..dim, or math.inf."""
    return sub_index_of_region(dirset.dim, classify_polar_region(dirset))


def sub_index_to_json(value: int | float):
    if value == math.inf:
        return "inf"
    return int(value)


def classification_report(dirset: DirectionSet) -> dict:
    """Full JSON-ready classification of a direction set.

    Regular sets get ``critical: false`` with null classification fields.
    """
    report = {
        "critical": True,
        "variant": None,
        "span_dim": None,
        "soul": None,
        "sub_index": None,
    }
    try:
        region = classify_polar_region(dirset)
    except NotCriticalError:
        report["critical"] = False
        return report
    report["variant"] = region.variant.value
    report["span_dim"] = None if region.span_dim is None else int(region.span_dim)
    report["soul"] = None if region.soul is None else [float(x) for x in region.soul]
    report["sub_index"] = sub_index_to_json(sub_index_of_region(dirset.dim, region))
    return report
