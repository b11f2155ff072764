"""Exception types shared across the package."""


class SubindexError(Exception):
    """Base class for all package-specific failures."""


class AmbiguousClassificationError(SubindexError):
    """The LP margin is too close to zero to decide a classification.

    Carries the offending margin so callers can report or widen tolerances.
    """

    def __init__(self, message: str, margin: float):
        super().__init__(f"{message} (margin {margin:.3e})")
        self.margin = margin


class NotCriticalError(SubindexError):
    """A classification step was asked for a direction set that is not critical."""


class InternalInconsistencyError(SubindexError):
    """A cross-check that must hold by construction failed."""


class UnsupportedConfigurationError(SubindexError):
    """The requested configuration is outside the implemented scope."""


class NetHypothesisError(SubindexError):
    """A direction set failed the covering-net hypothesis required by a flow bound."""


class NoSolutionError(SubindexError):
    """A two-point Jacobi problem has no solution (conjugate endpoints)."""


class IntegrationFailureError(SubindexError):
    """A numerical solve (the bump flow's flow-time inversion) did not converge."""
