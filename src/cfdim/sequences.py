"""Index sequences and digit sets: two readings of one kind of subset of N.

An IndexSequence is a strictly increasing sequence of positive integers
k_1 < k_2 < ..., with its counting function k(n) = #(members <= n).  A
DigitSet is the same object read as a set of allowed partial quotients;
it adds no field, only the rule that a progression has gap 1.  Both are
built from four rules:

    arith (a0, d)   a0, a0 + d, a0 + 2d, ...
    square          1, 4, 9, 16, ...
    pow (b)         b, b^2, b^3, ...
    explicit        a finite ascending list

and parsed from one spec language:

    even | all | geq:M | arith:a0,d | square | pow:b | file:<path>

"even" is arith (2, 2), "all" is arith (1, 1) and "geq:M" is
arith (M, 1); a file holds one integer per line, ascending, at most
10^6 entries, and blank lines are skipped.  Every integer of a spec, a
parameter or a line, is ASCII decimal digits read by
``cfdim.errors.read_int``.  A digit set needs a closed-form
convergence exponent, so its progressions must have gap 1 ("all",
"geq:M") and the digit set parser rejects "even" and "arith".

k(n) is constant on each run between consecutive members, and
``runs(limit)`` walks those runs; the certificate scans in
``construction`` and ``density`` read whole runs instead of single
indices.  On a run k/n is largest at its first index and smallest at
its last, so ``density`` compares only run ends.

Two quantities of run k >= 1, which starts at k_k and ends at
k_(k+1) - 1, are monotone in k on every rule:

- arith (a0, d): k/k_k moves with the sign of a0 - d, and
  k/(k_(k+1) - 1) = k/(kd + a0 - 1) never falls as a0 >= 1;
- square: 1/k and 1/(k + 2) fall;
- pow:b: k/b^k and k/(b^(k+1) - 1) fall as kb >= k + 1.

So ``end_runs`` reads only the four runs at the two ends of a window,
whatever its length, and ``density`` takes the extremes of k/n there.
An explicit list has no such order and is walked.

On every rule whose ``exact_density`` is 0 (square and pow) the ratio
k_j/j never decreases, that is k_j*(j+1) <= k_{j+1}*j: for square the
two sides are j^2*(j+1) and (j+1)^2*j, and for pow:b they are
b^j*(j+1) and b^j*b*j, where b*j >= 2j >= j+1.  So a test k_j < j*r,
for any fixed r, holds on an initial segment of j; the schedule
thresholds in ``construction`` search for its end instead of walking
every run.

The quantity k_j - 2j is a0 - d + j(d - 2) on arith (a0, d),
(j - 1)^2 - 1 on square and b^j - 2j on pow:b.  Below density 1/2
(square, pow, arith with d >= 3) it never decreases and grows without
bound; on arith (a0, 2), the one rule of density 1/2, it is the
constant a0 - 2; above it (d = 1) it falls.  So a test k_j - 2j <= r
holds on a finite initial segment of j below density 1/2, on all j or
none at 1/2, and on a final segment above it.  The nominal onset in
``construction`` tells the cases apart by ``exact_density`` and finds
the end of an initial segment by probing ``nth``.

Every infinite digit set is one of two shapes, told apart by its
convergence exponent tau: a power run k_j = (j + k_1 - 1)^(1/tau), with
tau 1 (all, geq:M) or 1/2 (square), or a geometric run k_j = k_1^j, with
tau 0 (pow:b).  A file: set is finite.  ``hirst`` sums a^-z over a digit
set from tau, ``nth``, ``first_at_least``, ``members`` and ``is_finite``
alone, so a new digit rule must take one of the two shapes, or
``parse_digit_set`` must refuse it.
"""

import itertools
from bisect import bisect_right
from fractions import Fraction
from math import isqrt
from operator import mul
from typing import NamedTuple

from .errors import (
    DomainError, FrozenRecord, int_at_least, is_int, quoted, read_int, read_ints, read_lines,
)

__all__ = [
    "IndexSequence",
    "DigitSet",
    "DensityReport",
    "TauResult",
    "parse_index_sequence",
    "parse_digit_set",
    "density",
    "tau",
]

_EXPLICIT_LIMIT = 10 ** 6
_ARITY = {"arith": 2, "square": 0, "pow": 1, "explicit": 0}


def _validated_values(values):
    vals = tuple(values)
    if not vals:
        raise DomainError("explicit list must be nonempty")
    if len(vals) > _EXPLICIT_LIMIT:
        raise DomainError("explicit list capped at %d entries" % _EXPLICIT_LIMIT)
    prev = 0
    for v in vals:
        int_at_least(v, "an explicit entry")
        if v <= prev:
            raise DomainError("explicit list must be strictly increasing (%d after %d)" % (v, prev))
        prev = v
    return vals


def _load_values(path):
    values = []
    for line_no, line in enumerate(read_lines(path, "sequence file"), start=1):
        if not line.isspace():
            try:
                values.append(read_int(line, "an entry"))
            except DomainError as exc:
                raise DomainError("line %d of %s: %s" % (line_no, path, exc)) from None
    return _validated_values(values)


class IndexSequence(FrozenRecord):
    """Strictly increasing positive integer sequence with counting function."""

    __slots__ = ("kind", "params", "values")

    def __init__(self, kind, params=(), values=()):
        arity = _ARITY.get(kind)
        if arity is None:
            raise DomainError("unknown rule kind %r" % kind)
        if not (isinstance(params, tuple) and len(params) == arity
                and all(is_int(p) for p in params)):
            raise DomainError("%s takes %d integer parameter(s), got %r"
                              % (kind, arity, params))
        if kind == "arith":
            if min(params) < 1:
                raise DomainError("arith needs a0 >= 1 and d >= 1")
        elif kind == "pow":
            if params[0] < 2:
                raise DomainError("pow base must be >= 2")
        elif kind == "explicit":
            values = _validated_values(values)
        self._set(kind=kind, params=params, values=values)

    def __hash__(self):
        # equal sequences have equal lengths and ends, so a list of 10^6
        # entries hashes without reading them all
        return hash((self.kind, self.params, len(self.values), self.values[:1],
                     self.values[-1:]))

    def nth(self, j):
        """k_j for j >= 1."""
        int_at_least(j, "sequence index")
        if self.kind == "arith":
            a0, d = self.params
            return a0 + (j - 1) * d
        if self.kind == "square":
            return j * j
        if self.kind == "pow":
            return self.params[0] ** j
        if j > len(self.values):
            raise DomainError("explicit sequence has only %d entries" % len(self.values))
        return self.values[j - 1]

    def count(self, n):
        """k(n): how many members are <= n."""
        if int_at_least(n, "n", 0) == 0:
            return 0
        if self.kind == "arith":
            a0, d = self.params
            return 0 if n < a0 else (n - a0) // d + 1
        if self.kind == "square":
            return isqrt(n)
        if self.kind == "pow":
            b = self.params[0]
            c, v = 0, b
            while v <= n:
                c += 1
                v *= b
            return c
        if n > self.values[-1]:
            raise DomainError(
                "explicit sequence is only known up to %d; count at %d is undetermined"
                % (self.values[-1], n)
            )
        return bisect_right(self.values, n)

    def count_window(self, n):
        """k(n), taking an explicit list as the whole sequence.

        Positions past the last listed member are unconstrained, so the
        count stops growing there instead of being undetermined.
        """
        if self.kind == "explicit":
            return bisect_right(self.values, int_at_least(n, "n", 0))
        return self.count(n)

    def members(self):
        """Iterator over k_1, k_2, ... in order; an explicit list ends with its last entry."""
        if self.kind == "arith":
            return itertools.count(*self.params)
        if self.kind == "square":
            return (j * j for j in itertools.count(1))
        if self.kind == "pow":
            return itertools.accumulate(itertools.repeat(self.params[0]), mul)
        return iter(self.values)

    def upto(self, n):
        """Members <= n, ascending."""
        int_at_least(n, "n", 0)
        return list(itertools.takewhile(lambda v: v <= n, self.members()))

    def __contains__(self, i):
        return is_int(i) and i >= 1 and self.count_window(i) > self.count_window(i - 1)

    def first_at_least(self, v):
        """Least j with k_j >= v."""
        if int_at_least(v, "value", 0) <= self.nth(1):
            return 1
        if self.kind == "explicit" and v > self.values[-1]:
            raise DomainError("explicit sequence never reaches %d within its window" % v)
        return self.count(v - 1) + 1

    def runs(self, limit):
        """(first, last, k) for each maximal run of m in [1, limit] with k(m) == k, ascending.

        k(m) is the window count; members are read one at a time.
        """
        int_at_least(limit, "limit")
        first = 1
        k_end = self.count_window(limit)
        for k, v in zip(range(k_end), self.members()):
            if v > first:
                yield first, v - 1, k
            first = v
        yield first, limit, k_end

    def end_runs(self, lo, limit):
        """The runs of [lo, limit] that can hold the extremes of k/n, clipped to it.

        Each is (first, last, k) as in ``runs``, with first raised to lo.
        Let k1 and k2 be the runs holding lo and limit; the runs between
        lie wholly inside.  On a rule, the run k that starts at k_k and
        ends at k_(k+1) - 1 has k/k_k and k/(k_(k+1) - 1) each monotone
        in k >= 1 (see the module docstring), so over those runs each
        takes its extremes at k1 + 1 or k2 - 1.  With the two clipped
        runs k1 and k2 that makes four, read by ``count`` and ``nth``.
        An explicit list walks every run.
        """
        if self.kind == "explicit":
            runs = self.runs(limit)
        else:
            k1, k2 = self.count(lo), self.count(limit)
            runs = ((self.nth(k) if k else 1, limit if k == k2 else self.nth(k + 1) - 1, k)
                    for k in sorted({k1, min(k1 + 1, k2), max(k2 - 1, k1), k2}))
        for first, last, k in runs:
            if last >= lo:
                yield max(first, lo), last, k

    @property
    def exact_density(self):
        """Exact limit of k(n)/n, or None when only a finite window is known."""
        if self.kind == "arith":
            return Fraction(1, self.params[1])
        if self.kind in ("square", "pow"):
            return Fraction(0)
        return None

    def spec_string(self):
        if self.kind == "arith":
            return "even" if self.params == (2, 2) else "arith:%d,%d" % self.params
        if self.kind == "square":
            return "square"
        if self.kind == "pow":
            return "pow:%d" % self.params
        return "explicit:%d-values" % len(self.values)


def _parse_rule(text, noun):
    """(kind, params, values) of a stripped spec; noun names the type in errors."""
    if text == "even":
        return "arith", (2, 2), ()
    if text == "square":
        return "square", (), ()
    if text == "all":
        return "arith", (1, 1), ()
    head, sep, rest = text.partition(":")
    if head == "arith" and sep:
        params = read_ints(rest, "an arith parameter")
        if len(params) != 2:
            raise DomainError("arith spec needs two parameters, e.g. arith:3,5")
        return "arith", params, ()
    if head == "pow" and sep:
        return "pow", (read_int(rest, "a pow base"),), ()
    if head == "geq" and sep:
        m = read_int(rest, "a geq floor")
        if m < 1:
            raise DomainError("geq floor must be >= 1")
        return "arith", (m, 1), ()
    if head == "file" and sep:
        return "explicit", (), _load_values(rest)
    raise DomainError("unrecognized %s spec %s" % (noun, quoted(text)))


def parse_index_sequence(text):
    return IndexSequence(*_parse_rule(text.strip(), "sequence"))


class DensityReport(NamedTuple):
    horizon: int
    lower_est: Fraction
    upper_est: Fraction
    exact: object  # Fraction or None
    zero_certified: bool


def density(seq, horizon):
    """Min and max of k(n)/n over the window [horizon/2, horizon].

    The window deliberately excludes small n: limsup and liminf are
    tail quantities and early terms pollute the estimates.
    """
    int_at_least(horizon, "horizon", 100)
    if seq.kind == "explicit" and horizon > seq.values[-1]:
        raise DomainError(
            "horizon %d exceeds the explicit window (max entry %d)"
            % (horizon, seq.values[-1])
        )
    # k/n is largest at a run's first index and smallest at its last; every
    # ratio lies in [0, 1], so 0/1 and 1/1 seed the max and the min
    up_k, up_n, low_k, low_n = 0, 1, 1, 1
    for first, last, k in seq.end_runs(horizon // 2, horizon):
        if k * up_n > up_k * first:
            up_k, up_n = k, first
        if k * low_n < low_k * last:
            low_k, low_n = k, last
    exact = seq.exact_density
    return DensityReport(horizon, Fraction(low_k, low_n), Fraction(up_k, up_n), exact, exact == 0)


class DigitSet(IndexSequence):
    """Set of allowed partial quotients: an index sequence read as a set.

    Rule sets are infinite by construction, and an arith rule must have
    gap 1 (all, geq:M).  An explicit list is a finite set.
    """

    __slots__ = ()

    def __init__(self, kind, params=(), values=()):
        super().__init__(kind, params, values)
        if self.kind == "arith" and self.params[1] != 1:
            raise DomainError(
                "a digit set progression needs gap 1 (all, geq:M), got arith:%d,%d"
                % self.params
            )

    @property
    def is_finite(self):
        return self.kind == "explicit"


def parse_digit_set(text):
    text = text.strip()
    if text == "even" or text.partition(":")[0] == "arith":
        raise DomainError(
            "%s has no closed-form convergence exponent; digit sets accept "
            "all, geq:M, square, pow:b, file:<path>" % quoted(text)
        )
    return DigitSet(*_parse_rule(text, "digit set"))


class TauResult(NamedTuple):
    value: Fraction
    method: str  # always "analytic": every exponent is a closed form
    warning: str = ""


_TAU = {
    "arith": TauResult(Fraction(1), "analytic"),
    "square": TauResult(Fraction(1, 2), "analytic"),
    "pow": TauResult(Fraction(0), "analytic"),
    "explicit": TauResult(Fraction(0), "analytic",
                          "finite digit set: the convergence exponent degenerates to 0"),
}


def tau(digits):
    """Exponent of convergence of a digit set.

    Closed forms for the rule kinds; an explicit list is a finite set,
    whose exponent degenerates to 0 with a warning.
    """
    # a plain IndexSequence may be a progression with gap > 1, which the
    # digit-set closed forms would read as a ray
    if not isinstance(digits, DigitSet):
        raise DomainError("digits must be a DigitSet (see parse_digit_set), got %s"
                          % type(digits).__name__)
    return _TAU[digits.kind]
