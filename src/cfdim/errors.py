"""Exception types shared across the package, its one integer rule, and its record base.

Every structured failure carries an ``exit_code`` so the command line
front end can map it without a lookup table: 2 for domain and
convergence problems, 3 for inputs that are too coarse or horizons that
are too short, 4 for deliberate resource caps.

Integer arguments (indices, digits, floors, levels, caps, horizons) are
checked only through the two functions at the end: an integer is an
``int`` that is not a ``bool``, so ``True`` never passes as 1.

The validated value records (PrecisionContext, IndexSequence, DigitSet,
StepSchedule) derive from ``FrozenRecord`` at the end.
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


class FrozenRecord:
    """Immutable record whose fields are its ``__slots__``, a subclass's after its base's.

    A subclass validates its arguments in ``__init__`` and stores each
    field once through ``_set``.  Records print as ``Name(field=value,
    ...)``, are equal only to a record of the same class with equal
    fields, hash by their fields, rebuild through ``__init__`` when
    copied or pickled, and raise AttributeError on assignment or deletion.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
