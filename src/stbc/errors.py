"""Exception types raised by the stbc package.

All are subclasses of ValueError or RuntimeError so callers that do not
care about the fine distinctions can catch the built-in bases.  Refused
work -- a search, an enumeration or a sweep over its budget -- is always
``BudgetExceededError``.
"""


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
    """A design's fields are missing, malformed or disagree with each other."""


class StructureError(ValueError):
    """Design lacks the group or first-group structure an operation needs."""


class AlphabetError(ValueError):
    """A symbol value is not a member of the declared alphabet."""


class DependentExtensionError(ValueError):
    """Extending a design produced linearly dependent weight matrices."""


class NotGroupDecodableError(ValueError):
    """The decoder needs a first layer of four certified groups."""


class BudgetExceededError(RuntimeError):
    """A search, enumeration or sweep would exceed its budget; refused
    before the work starts."""
