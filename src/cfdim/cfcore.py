"""Exact continued fraction arithmetic for finite digit words.

Words are tuples of positive integer partial quotients a_1..a_n and
stand for [0; a_1, ..., a_n]; ``PartialQuotients`` is the tuple subclass
that validates its digits once, when it is built.  Everything here runs
on integers and ``fractions.Fraction`` so downstream inequality checks
never see rounding error.  Convergents follow the standard recurrence

    p_k = a_k p_{k-1} + p_{k-2},   q_k = a_k q_{k-1} + q_{k-2}

seeded with p_-1 = 1, p_0 = 0, q_-1 = 0, q_0 = 1.  One loop,
_denominators, runs it for (q_n, q_{n-1}) alone: q_n is the continuant
K(a_1, ..., a_n) and p_n = K(a_2, ..., a_n), so (p_n, p_{n-1}) is that
pair of the word less its first digit.  Only ``convergents``, which
lists every row, walks both.
"""

import re
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .errors import (
    BoundaryAmbiguityError, DomainError, exact_positive_fraction, int_at_least, is_int, quoted,
    read_int, read_ints,
)

__all__ = [
    "PartialQuotients",
    "Convergent",
    "Cylinder",
    "QuotientRatioCheck",
    "expand_rational",
    "expand_decimal",
    "evaluate",
    "convergents",
    "continuant",
    "cylinder",
    "normalize",
    "delete_indices",
    "quotient_ratio_check",
]


def _digit_tuple(digits):
    out = tuple(digits)
    # one pass in C when every digit is an exact int >= 1; anything else
    # (bools, int subclasses, bad digits) takes the loop, which names the
    # first bad digit
    if out and set(map(type, out)) == {int} and min(out) >= 1:
        return out
    for a in out:
        if not is_int(a) or a < 1:
            raise DomainError("partial quotients must be integers >= 1, got %r" % (a,))
    return out


def _wrap(digits):
    """A PartialQuotients around a tuple of digits already known to be valid."""
    return tuple.__new__(PartialQuotients, digits)


class PartialQuotients(tuple):
    """A finite word of partial quotients, all at least 1.

    An immutable tuple whose digits are validated on construction; most
    functions in this module accept either this type or any iterable of
    ints.  Built from a word that already is one, it returns that word.
    """

    __slots__ = ()

    def __new__(cls, digits=()):
        if type(digits) is cls:
            return digits
        return tuple.__new__(cls, _digit_tuple(digits))

    @property
    def digits(self):
        """The digits as a plain tuple."""
        return tuple(self)

    def extended(self, *extra):
        return _wrap(self + _digit_tuple(extra))

    @classmethod
    def from_text(cls, text):
        """Parse a comma separated digit list, e.g. ``"2,1,4"``."""
        return cls(read_ints(text, "a word digit"))

    def to_text(self):
        return ",".join(map(str, self))

    def __repr__(self):
        return "PartialQuotients([%s])" % self.to_text()


class Convergent(NamedTuple):
    p: int
    q: int


class QuotientRatioCheck(NamedTuple):
    lower: Fraction
    ratio: Fraction
    upper: Fraction
    ok: bool


def _denominators(digits):
    """(q_n, q_{n-1}) of valid digits a_1..a_n; (1, 0) for no digits."""
    q, q_prev = 1, 0
    for a in digits:
        q, q_prev = a * q + q_prev, q
    return q, q_prev


def _without(digits, positions):
    """The digits less those at ascending, distinct 1-based positions within them."""
    # the runs between consecutive dropped positions, and past the last
    ends = [0, *positions, len(digits) + 1]
    return tuple(chain.from_iterable(digits[i:j - 1] for i, j in zip(ends, ends[1:])))


def convergents(word):
    """All convergents (p_k, q_k) for k = 1..n, as exact integers."""
    rows, p_prev, p, q_prev, q = [], 1, 0, 0, 1
    for a in PartialQuotients(word):
        p_prev, p, q_prev, q = p, a * p + p_prev, q, a * q + q_prev
        rows.append(Convergent(p, q))
    return rows


def continuant(word):
    """The denominator q_n of the word's final convergent (q of () is 1)."""
    return _denominators(PartialQuotients(word))[0]


def evaluate(word):
    """Exact value of [0; a_1, ..., a_n] as a Fraction; the word must be nonempty."""
    digits = PartialQuotients(word)
    if not digits:
        raise DomainError("evaluate needs a nonempty word")
    return Fraction(_denominators(digits[1:])[0], _denominators(digits)[0])


def expand_rational(x):
    """Digits of a rational x in (0,1), read by ``exact_positive_fraction``.

    Euclid on a reduced fraction never ends in 1, so the last digit is >= 2.
    """
    x = exact_positive_fraction(x, "x")
    if not x < 1:
        raise DomainError("expand_rational needs 0 < x < 1, got %s" % x)
    digits = []
    p, q = x.numerator, x.denominator
    while p:
        a, r = divmod(q, p)
        digits.append(a)
        p, q = r, p
    return PartialQuotients(digits)


def normalize(word):
    """Rewrite a trailing digit 1 via [..., a, 1] = [..., a+1]."""
    digits = PartialQuotients(word)
    if len(digits) >= 2 and digits[-1] == 1:
        return PartialQuotients(digits[:-2] + (digits[-2] + 1,))
    return digits


# [0-9], not \d, which also matches non-ASCII digits
_DECIMAL_RE = re.compile(r"(?:0)?\.([0-9]+)")


def expand_decimal(text, max_digits=None):
    """Digits certain for every number within half an ulp of a decimal literal.

    The input "0.318" stands for the interval [0.3175, 0.3185); the
    returned word is the common prefix of the expansions of everything
    in that interval.  With ``max_digits`` set, failing to certify that
    many digits raises BoundaryAmbiguityError (carrying the digits that
    are certain); otherwise the certain prefix is returned, possibly
    empty.
    """
    if max_digits is not None:
        int_at_least(max_digits, "max_digits")
    m = _DECIMAL_RE.fullmatch(text.strip())
    if not m:
        raise DomainError("expected a decimal literal like '0.318', got %s" % quoted(text))
    frac = m.group(1)
    v = Fraction(read_int(frac, "the decimal literal"), 10 ** len(frac))
    half = Fraction(1, 2 * 10 ** len(frac))
    lo, hi = v - half, v + half
    if lo <= 0 or hi >= 1:
        raise DomainError("value together with its half-ulp uncertainty must stay inside (0,1)")

    digits = []
    while True:
        # digit of x is floor(1/x); on [lo, hi] the candidates are
        # bracketed by the endpoint reciprocals
        inv_hi = 1 / hi
        inv_lo = 1 / lo
        a_min = inv_hi.numerator // inv_hi.denominator
        a_max = inv_lo.numerator // inv_lo.denominator
        ambiguous = a_min != a_max or inv_hi == a_min
        # inv_hi == a_min: the right endpoint terminates right here, so
        # the interval straddles a cylinder boundary
        if ambiguous:
            word = PartialQuotients(digits)
            if max_digits is not None and len(digits) < max_digits:
                raise BoundaryAmbiguityError(
                    "only %d digit(s) are certain at this precision, %d requested"
                    % (len(digits), max_digits),
                    digits=word,
                )
            return word
        digits.append(a_min)
        if max_digits is not None and len(digits) >= max_digits:
            return PartialQuotients(digits)
        lo, hi = inv_lo - a_min, inv_hi - a_min
        lo, hi = min(lo, hi), max(lo, hi)


class Cylinder(NamedTuple):
    """The interval of numbers in (0,1) whose expansion starts with ``word``.

    Half open; which end is closed alternates with the parity of the
    word length.  ``left``/``right`` are exact Fractions.
    """

    word: PartialQuotients
    left: Fraction
    right: Fraction
    left_closed: bool
    right_closed: bool

    @property
    def length(self):
        return self.right - self.left

    def contains(self, x):
        if self.left < x < self.right:
            return True
        if x == self.left:
            return self.left_closed
        if x == self.right:
            return self.right_closed
        return False


def cylinder(word):
    """Cylinder interval of a nonempty word.

    Endpoints are the word's value and the mediant with the previous
    convergent; even length closes the left end, odd length the right.
    The exact length is 1/(q_n (q_n + q_{n-1})).
    """
    word = PartialQuotients(word)
    if not word:
        raise DomainError("cylinder needs at least one digit")
    (p, p_prev), (q, q_prev) = _denominators(word[1:]), _denominators(word)
    v = Fraction(p, q)
    mediant = Fraction(p + p_prev, q + q_prev)
    if len(word) % 2 == 0:
        return Cylinder(word, v, mediant, True, False)
    return Cylinder(word, mediant, v, False, True)


def delete_indices(word, positions):
    """Remove the digits at the given 1-based positions.

    ``positions`` may be any iterable of ints, or an object exposing
    ``upto(n)`` returning its members at most n (index sequences do).
    """
    digits = PartialQuotients(word)
    n = len(digits)
    if hasattr(positions, "upto"):
        raw = positions.upto(n)
    else:
        raw = positions
    drop = set()
    for i in raw:
        if not is_int(i):
            raise DomainError("positions must be integers, got %r" % (i,))
        if 1 <= i <= n:
            drop.add(i)
    # positions beyond the word are ignored, not an error
    return _wrap(_without(digits, sorted(drop)))


def quotient_ratio_check(word, k):
    """Compare q_n(word) / q_{n-1}(word minus digit k) against (a_k+1)/2 and a_k+1.

    Deleting one digit changes the continuant by a factor tied to that
    digit; this returns the exact ratio and both bounds.
    """
    digits = PartialQuotients(word)
    n = len(digits)
    if not is_int(k) or not 1 <= k <= n:
        raise DomainError("k must be in 1..%d, got %r" % (n, k))
    a_k = digits[k - 1]
    q_full = continuant(digits)
    q_del = continuant(digits[: k - 1] + digits[k:])
    ratio = Fraction(q_full, q_del)
    lower = Fraction(a_k + 1, 2)
    upper = Fraction(a_k + 1)
    return QuotientRatioCheck(lower, ratio, upper, lower <= ratio <= upper)
