"""Exception types shared across the package.

Every error is an `InputError` (the arguments are malformed or out of range;
the command line exits 2) or a `NumericalFailure` (a computation on valid
arguments cannot deliver; the command line exits 3).
"""


class ResmonoError(Exception):
    """Base class for all package errors."""


class InputError(ResmonoError, ValueError):
    """The arguments are malformed, out of range or of mismatched shapes."""


class NumericalFailure(ResmonoError):
    """A computation on well-formed arguments has no valid result."""


class NonHermitian(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class InvalidRank(InputError):
    pass


class AlphaOutOfRange(InputError):
    pass


class SupportViolation(NumericalFailure):
    pass


class DegenerateVariance(NumericalFailure):
    pass


class NoFeasiblePoint(NumericalFailure):
    pass


class HypothesisViolated(NumericalFailure):
    """A bound's hypothesis fails, e.g. the pair is not hard at this order."""


class InfeasibleRounding(NumericalFailure):
    pass


class NotRational(InputError):
    pass


class DimensionOverflow(InputError):
    pass


class InvalidXi(InputError):
    pass


class TheoryUnsupported(InputError):
    pass


class DimensionCap(InputError):
    pass


class InvalidGibbs(InputError):
    """The Gibbs state is not normalized or lacks full support."""
