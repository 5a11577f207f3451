"""Exception types shared across the package."""


class EpraKitError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(EpraKitError):
    """Kernel matrix is rank deficient within the requested tolerance."""


class DimensionMismatch(EpraKitError):
    """Operands have incompatible shapes."""


class EmptySupport(EpraKitError):
    """Away-step vertex requested for a vector with no positive component."""


class DegenerateStep(EpraKitError):
    """Line-search denominator vanished while the stop conditions failed."""


class NoThreshold(EpraKitError, IndexError):
    """The simplex projection found no component above its threshold, as
    when its argument holds a NaN or overflows.  Also an IndexError: the
    threshold's index does not exist."""


class FullRankSquare(EpraKitError):
    """Matrix has a trivial kernel; no nullspace basis exists."""


class ZeroVector(EpraKitError):
    """A nonzero vector was required."""


class NoFeasibleStart(EpraKitError):
    """The condition-measure search has no strictly positive kernel point
    to start from: the solver, whose `trivial_primal` certificate is that
    start, ended with another status."""


class DegenerateMax(EpraKitError):
    """Generated interior point has a tied maximal entry after bounded retries."""


class BothSidesInterior(EpraKitError):
    """Both the primal and the dual basic procedure produced interior
    certificates in the same round, which Gordan's theorem forbids."""
