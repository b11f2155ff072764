"""Criticality of distance functions and the sub-index invariant.

Core objects:

- DirectionSet: a finite set of unit vectors (initial directions of
  minimizing segments from a point).
- is_critical / classify_polar_region / sub_index: the convexity test for
  criticality and the classification of the region of directions making an
  obtuse-or-right angle with every direction in the set.
- TorusDistanceField: exact distance to a point set on the flat unit torus,
  with enumeration and classification of its critical points.
- flows: the cut-off flow near a critical point, certified bounds on where
  it arrives, and the flow-verify suite.
- jacobi: closed-form Jacobi fields in constant curvature, index forms with
  a dual-route cross-check, and second-order distance models.
"""

from .convexity import (
    PolarRegion,
    PolarVariant,
    classification_report,
    classify_polar_region,
    criticality_margin,
    is_critical,
    sub_index,
    sub_index_of_region,
)
from .directions import DirectionSet
from .errors import (
    AmbiguousClassificationError,
    IntegrationFailureError,
    InternalInconsistencyError,
    NoSolutionError,
    NotCriticalError,
    SubindexError,
    UnsupportedConfigurationError,
)
from .flows import (
    BumpProfile,
    CapAngleBound,
    arrival_bounds_many,
    cutoff_linear_flow,
    drift_length,
    terminal_cap_angle_bound,
)
from .jacobi import (
    JacobiField,
    ModelGeodesic,
    PiecewiseJacobi,
    SecondOrderModel,
    boundary_family,
    boundary_norm_bound,
    cutoff_field,
    index_divergence,
    index_form,
    lagrange_wronskian,
    model_distance,
    second_variation_check,
    solve_boundary_jacobi,
    vanishing_family,
)
from .torus import CriticalPointRecord, TorusDistanceField

__version__ = "0.1.0"

__all__ = [
    "AmbiguousClassificationError",
    "BumpProfile",
    "CapAngleBound",
    "CriticalPointRecord",
    "DirectionSet",
    "IntegrationFailureError",
    "InternalInconsistencyError",
    "JacobiField",
    "ModelGeodesic",
    "NoSolutionError",
    "NotCriticalError",
    "PiecewiseJacobi",
    "PolarRegion",
    "PolarVariant",
    "SecondOrderModel",
    "SubindexError",
    "TorusDistanceField",
    "UnsupportedConfigurationError",
    "arrival_bounds_many",
    "boundary_family",
    "boundary_norm_bound",
    "classification_report",
    "classify_polar_region",
    "criticality_margin",
    "cutoff_field",
    "cutoff_linear_flow",
    "drift_length",
    "index_divergence",
    "index_form",
    "is_critical",
    "lagrange_wronskian",
    "model_distance",
    "second_variation_check",
    "solve_boundary_jacobi",
    "sub_index",
    "sub_index_of_region",
    "terminal_cap_angle_bound",
    "vanishing_family",
]
