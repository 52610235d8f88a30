"""Exception types shared across the package, and its one integer rule.

Every structured failure carries an ``exit_code`` so the command line
front end can map it without a lookup table: 2 for domain and
convergence problems, 3 for inputs that are too coarse or horizons that
are too short, 4 for deliberate resource caps.

Integer arguments (indices, digits, floors, levels, caps, horizons) are
checked only through the two functions at the end: an integer is an
``int`` that is not a ``bool``, so ``True`` never passes as 1.
"""


class ToolkitError(Exception):
    exit_code = 2


class DomainError(ToolkitError, ValueError):
    """Input outside an operation's documented domain."""


class PoleProximityError(DomainError):
    """Argument too close to the pole of zeta at 1 to evaluate reliably."""


class DivergenceError(DomainError):
    """The requested series or integral diverges for these parameters."""


class BoundaryAmbiguityError(ToolkitError):
    """A decimal input is too coarse to determine the next digit.

    The digits that *are* certain at the stated precision are attached
    as ``digits``.
    """

    exit_code = 3

    def __init__(self, message, digits=()):
        super().__init__(message)
        self.digits = tuple(digits)


class InsufficientHorizonError(ToolkitError):
    """A scan horizon ends before the point where the claim is certified."""

    exit_code = 3


class ResourceCapError(ToolkitError):
    """An enumeration or an exact power would exceed a fixed work cap."""

    exit_code = 4


def is_int(x):
    """True for an int that is not a bool (bool subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def int_at_least(x, what, minimum=1):
    """Return x if it is an integer >= minimum; otherwise raise DomainError."""
    if not is_int(x) or x < minimum:
        raise DomainError("%s must be an integer >= %d, got %r" % (what, minimum, x))
    return x
