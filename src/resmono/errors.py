"""Exception types shared across the package."""


class ResmonoError(Exception):
    """Base class for all package errors."""


class NonHermitian(ResmonoError):
    pass


class DimensionMismatch(ResmonoError):
    pass


class InvalidRank(ResmonoError):
    pass


class AlphaOutOfRange(ResmonoError):
    pass


class SupportViolation(ResmonoError):
    pass


class DegenerateVariance(ResmonoError):
    pass


class NoFeasiblePoint(ResmonoError):
    pass


class HypothesisViolated(ResmonoError):
    """A bound's hypothesis fails, e.g. the pair is not hard at this order."""


class InfeasibleRounding(ResmonoError):
    pass


class NotRational(ResmonoError):
    pass


class DimensionOverflow(ResmonoError):
    pass


class InvalidXi(ResmonoError):
    pass


class TheoryUnsupported(ResmonoError):
    pass


class DimensionCap(ResmonoError):
    pass


class InvalidGibbs(ResmonoError):
    pass
