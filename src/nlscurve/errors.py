"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge or reached an inadmissible result.

    The solvers: Petviashvili's iteration and Newton for the ground state,
    Newton for the scalings, the arc-length series of a curve and its
    inversion (an ellipse thinner than about 1:1000 leaves the series
    unresolved at ``geometry.ARC_MODES_CAP`` modes), the secant search for
    a critical radius and the eigen-solves of ``spectrum``.
    """


class BranchTrackingError(RuntimeError):
    """Eigenvector-overlap matching between consecutive samples became ambiguous."""

    def __init__(self, message, alpha, overlap):
        super().__init__(f"{message} at alpha={alpha:.6g} (overlap {overlap:.3f})")
        self.alpha = alpha
        self.overlap = overlap


class PhaseLawError(RuntimeError):
    """The phase-speed constant is too large for the requested operation.

    Raised when a denominator of the scaling/operator formulas loses its sign,
    i.e. when the small-speed regime assumed throughout is violated.
    """


class CurveNotCriticalError(RuntimeError):
    """The odd corrector's source has a kernel component larger than tolerated.

    Solvability of the odd corrector equation requires the curve to satisfy
    the extremality condition; a large projected-off component means it does
    not.
    """

    def __init__(self, message, removed):
        super().__init__(f"{message} (projected-off component {removed:.3e})")
        self.removed = removed
