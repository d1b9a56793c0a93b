"""Exception hierarchy.

Two families matter downstream: validation errors mean the input was
rejected before any real computation ran (CLI exit code 2), numerical
errors mean a solver or an internal cross-check failed (CLI exit code 3).
"""


class HoldscanError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(HoldscanError):
    """Input rejected before computation."""


class NumericalError(HoldscanError):
    """Computation ran but violated its numerical contract."""


# construction / shape

class AllZeroMatrix(ValidationError):
    """Raw holdings sum to zero; nothing to normalize."""


class NegativeEntry(ValidationError):
    """Holdings and shares must be nonnegative."""


class NonFiniteEntry(ValidationError):
    """NaN or infinity in numeric input."""


class NotNormalized(ValidationError):
    """Share matrix does not sum to one within tolerance."""


class DimensionMismatch(ValidationError):
    """Shapes or label counts disagree."""


class DuplicateLabel(ValidationError):
    """Investor or stock labels must be unique."""


class LabelNotFound(ValidationError):
    """Referenced label is not present in the matrix."""


class NotAProbabilityVector(ValidationError):
    """Vector is not nonnegative and summing to one within tolerance."""


class InactiveSupport(ValidationError):
    """Operation requires zero rows/columns to be removed first."""


class SupportMismatch(ValidationError):
    """Divergence undefined: mass placed where the reference has none."""


class InvalidPartition(ValidationError):
    """Groups must be disjoint, nonempty, and cover all investors."""


class IndexOutOfRange(ValidationError):
    """Investor or stock index outside the matrix."""


class SameInvestor(ValidationError):
    """Pairwise operation needs two distinct investors."""


class NotFeasible(ValidationError):
    """Matrix does not satisfy the fixed-marginal constraints."""


class OutOfRange(ValidationError):
    """Scalar parameter outside its admissible interval."""


class DegenerateRange(ValidationError):
    """Fixed-marginal range of the micro concentration has zero width."""


class RemovingEverything(ValidationError):
    """Cannot remove a stock that carries (almost) all mass."""


class NotCentered(ValidationError):
    """Return vector is not capitalization-centered."""


class AlphaNearOne(ValidationError):
    """Power-sum order too close to 1 for the generalized family."""


class MarketNeutral(ValidationError):
    """Aggregate net exposure is zero; the net rank-one benchmark is undefined."""


class InactiveGrossSupport(ValidationError):
    """Signed book has an investor or stock with zero gross exposure."""


class ParseError(ValidationError):
    """Malformed input file."""


class MixedSignWithoutFlag(ValidationError):
    """Input carries a sign column but signed ingestion was not requested."""


class ConvergenceFailure(NumericalError):
    """Iterative solver did not reach its tolerance within the cap."""


class InternalConsistencyError(NumericalError):
    """Two independent computations of the same quantity disagree."""


class NonFiniteResult(NumericalError):
    """A result overflowed to infinity or came out NaN."""
