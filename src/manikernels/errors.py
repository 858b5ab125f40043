"""Exception types shared across the library. Each class carries the
command line's exit status and the kind its message is reported as."""


class ManiKernelsError(Exception):
    """Base class for every error raised by this library."""

    exit_code = 2
    kind = "data error"


class UsageError(ManiKernelsError):
    """A flag or parameter the caller chose is invalid."""

    exit_code = 1
    kind = "usage error"


class NumericalFailure(ManiKernelsError):
    """A computation on valid input broke down."""

    exit_code = 3
    kind = "numerical failure"


class BadShapeError(ManiKernelsError):
    """Input array has the wrong shape for the requested operation."""


class DimMismatchError(ManiKernelsError):
    """Two operands that must share dimensions do not."""


class NonSymmetricError(ManiKernelsError):
    """Matrix violates the symmetry tolerance."""


class NotSpdError(ManiKernelsError):
    """Matrix is not symmetric positive definite."""


class NotPsdError(NumericalFailure):
    """Kernel matrix fails the positive semi-definiteness audit."""


class NoConvergenceError(NumericalFailure):
    """Iterative solver hit its iteration cap before converging."""


class ZeroExponentError(ManiKernelsError):
    """Matrix power requested with exponent zero."""


class EmptySetError(ManiKernelsError):
    """An operation over a point set received no points."""


class UnsupportedMetricError(UsageError):
    """The selected metric does not support the requested operation."""


class NumericalError(NumericalFailure):
    """Intermediate value strayed outside its valid range beyond roundoff."""


class RankDeficientError(ManiKernelsError):
    """Matrix does not have the column rank the operation requires."""


class NonFiniteError(ManiKernelsError):
    """Input holds a NaN or an infinite value."""


class MalformedFileError(ManiKernelsError):
    """Input file cannot be parsed: bad JSON or number, missing key, wrong type."""


class TrainMismatchError(ManiKernelsError):
    """Dataset differs from the one a model was trained on."""


class BadParamError(UsageError):
    """Hyperparameter out of its valid range (k, l, dims, grid, C, p, ...)."""


class OneClassError(ManiKernelsError):
    """Binary training set contains a single class, or more than two."""


class SingularScatterError(NumericalFailure):
    """Within-class scatter is singular and no ridge was requested."""


class RectOutOfBoundsError(ManiKernelsError):
    """Rectangle extends outside the feature stack."""


class TooFewPixelsError(ManiKernelsError):
    """Rectangle holds too few pixels for a covariance estimate."""


class TooSmallError(ManiKernelsError):
    """Image too small for derivative filters."""


class FrameMismatchError(ManiKernelsError):
    """Images for subwindow selection differ in size."""
