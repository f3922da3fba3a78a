"""Exception types raised by the stbc package.

All are subclasses of ValueError or RuntimeError so callers that do not
care about the fine distinctions can catch the built-in bases.
"""


class NonSquareError(ValueError):
    """A square matrix was required (trace)."""


class RankDeficientError(ValueError):
    """QR factorization hit a column with norm below the rank tolerance."""


class DimensionMismatchError(ValueError):
    """Operand dimensions do not conform."""


class UnsupportedSizeError(ValueError):
    """Antenna count exponent outside the supported range."""


class BadIndexOrderError(ValueError):
    """Generator index list is not strictly ascending / in range."""


class UnsupportedDimError(ValueError):
    """No builtin rotation is shipped for this dimension."""


class DesignFormatError(ValueError):
    """A design's header fields are missing or disagree with each other."""


class StructureError(ValueError):
    """Design lacks the group or first-group structure an operation needs."""


class AlphabetError(ValueError):
    """A symbol value is not a member of the declared alphabet."""


class DependentExtensionError(ValueError):
    """Extending a design produced linearly dependent weight matrices."""


class NotGroupDecodableError(ValueError):
    """Decoder requires a certified 4-group decodable rate-1 design."""


class TooLargeError(RuntimeError):
    """Exhaustive ML search space exceeds the configured budget."""


class BudgetExceededError(RuntimeError):
    """Enumeration exceeded its evaluation budget."""


class IntractableError(RuntimeError):
    """Simulation would exceed the decoder evaluation budget."""
