"""Exception types shared across the package, its input rules, and its record base.

Every structured failure carries an ``exit_code`` so the command line
front end can map it without a lookup table: 2 for domain and
convergence problems, 3 for inputs that are too coarse or horizons that
are too short, 4 for deliberate resource caps.

Integer arguments (indices, digits, floors, levels, caps, horizons) are
checked only through ``is_int`` and ``int_at_least``: an integer is an
``int`` that is not a ``bool``, so ``True`` never passes as 1.  Outside
input enters only through the readers after them: an integer typed as
text through ``read_int`` (ASCII decimal digits, blanks stripped, no
longer than the interpreter reads), a list of them through ``read_ints``,
a file through ``read_lines``, and any other number typed as text in the
grammar of ``match_number`` (a sign, then p/q or ASCII digits with a
point and exponent), read exactly by ``read_fraction``.  A refusal
quotes at most 40 characters of its input.

The validated value records (PrecisionContext, IndexSequence, DigitSet,
StepSchedule) derive from ``FrozenRecord`` at the end.
"""

import math
import re
import sys
from fractions import Fraction

# the exception types; the readers and FrozenRecord serve the layers only
__all__ = [
    "ToolkitError",
    "DomainError",
    "PoleProximityError",
    "DivergenceError",
    "BoundaryAmbiguityError",
    "InsufficientHorizonError",
    "ResourceCapError",
]


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


def quoted(value):
    """repr of value, cut to 40 characters so that a refusal never echoes unbounded input."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def read_int(text, what):
    """The int of text in ASCII decimal digits, blanks stripped, within the int-string limit."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise DomainError("%s must be written in decimal digits, got %s" % (what, quoted(digits)))
    try:  # int refuses text past the limit by its length, before converting
        return int(digits)
    except ValueError:
        raise DomainError("%s has %d digits, more than the %d an integer is read from"
                          % (what, len(digits), sys.get_int_max_str_digits())) from None


def read_ints(text, what):
    """The ints of a comma separated list, each read by ``read_int``; blank text is ()."""
    if not text.strip():
        return ()
    return tuple(read_int(part, what) for part in text.split(","))


def read_lines(path, what):
    """The lines of a text file, streamed; an unreadable or non-text file raises DomainError."""
    try:
        with open(path) as fh:
            yield from fh
    except OSError as exc:
        raise DomainError("cannot read %s %r: %s" % (what, path, exc.strerror))
    except UnicodeDecodeError as exc:
        raise DomainError("%s %r is not text: %s" % (what, path, exc))


# one number typed as text: an optional sign, then p/q or ASCII digits with
# an optional point and exponent; the exponent is the one group
_NUMBER = re.compile(r"[+-]?(?:\d+/\d+|(?=\.?\d)\d*(?:\.\d*)?(?:e([+-]?\d+))?)", re.ASCII | re.I)


def match_number(text):
    """The match of text, blanks stripped, in the one number grammar, or None."""
    return _NUMBER.fullmatch(text.strip())


def read_fraction(text, what):
    """The exact Fraction of a number typed as text, in the grammar of ``match_number``."""
    found = match_number(text)
    if found is None:
        raise DomainError("%s is not a rational: %s" % (what, quoted(text)))
    limit = sys.get_int_max_str_digits()
    # 10^|e| has |e| + 1 digits: past the limit it is refused before it is built
    if found[1] and limit and read_int(found[1].lstrip("+-"), "the exponent of " + what) >= limit:
        raise DomainError("%s has an exponent past the %d digits an integer is read from: %s"
                          % (what, limit, quoted(text)))
    try:
        return Fraction(found[0])
    except (ValueError, ZeroDivisionError):  # a part past the limit, or q = 0
        raise DomainError("%s is not a rational: %s" % (what, quoted(text))) from None


def nearest_float(x):
    """The float nearest a rational, or an infinity past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def exact_positive_fraction(value, what):
    """A positive Fraction of an int, a Fraction or text read by ``read_fraction``; no float."""
    if isinstance(value, bool):
        raise DomainError("%s must be a number, got a bool" % what)
    if isinstance(value, float):  # its rounding is silent
        raise DomainError("%s must be exact (int, Fraction or string like '1/10'), not a float"
                          % what)
    try:
        out = read_fraction(value, what) if isinstance(value, str) else Fraction(value)
    except TypeError:
        raise DomainError("%s is not a rational: %s" % (what, quoted(value))) from None
    if out <= 0:
        # the input, not out: str(out) fails past the int-string limit
        raise DomainError("%s must be positive, got %s" % (what, quoted(value)))
    return out


def _check_tolerance(tol, what):
    # a value is an mpf only once mpmath is loaded; nan and inf fail the
    # finiteness test, and -inf the sign test after it
    mpf = getattr(sys.modules.get("mpmath"), "mpf", float)
    if isinstance(tol, bool) or not isinstance(tol, (int, float, Fraction, mpf)):
        raise DomainError("%s must be an int, float, Fraction or mpf, got %s" % (what, quoted(tol)))
    if not tol < math.inf:
        raise DomainError("%s must be finite, got %s" % (what, tol))
    if not tol > 0:
        raise DomainError("%s must be positive" % what)


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
