"""Schedules, point construction and the inequality checks behind the lower bound.

A step schedule assigns to every constrained position (the j-th member
k_j of an index sequence) a digit value that grows in slow steps: digit
j is the step index of j among the breakpoints n_1 < n_2 < ...  The
breakpoints are chosen so the logarithmic weight of the constrained
digits stays below c1 times the word length; c1 is either given
directly or derived from an exponent eps as eps*log(2)/2.

Everything decision-bearing is exact.  A weight inequality
e*log(p) > c1*m, for an integer product p of digit factors, is decided
a run of constant k(m) at a time: the last failing m of a run is
floor(e*log(p)/c1), read off a quotient accurate to 1/16 and clipped to
the run, unless that quotient lies within a relative 1e-9 of an integer
r in the run.  Such a near tie is decided at r alone: by p^(e*v)
against 2^(u*r), u/v = eps/2 in lowest terms, when c1 is derived from
eps; with an explicit rational c1 the sides cannot tie (log p is
transcendental for p >= 2), so escalating precision separates them,
unless c1 lies within a relative 1e-185 or so of a tie, where 200
digits do not and the check refuses.  The certified chain
2^((m-k-2)*en) >= (2*P^2)^ed is that test at 2*eps on p = 2*P^2.  That
near tie, the size bound and the Holder bound each compare x^a with
y^b on exact rationals in one place,
_power_at_least, which forms the powers only when the powers of two
around them overlap.  Floats appear otherwise only as display values.

The module's only state is a one-entry table, _size_onsets: the two
onsets of the size check for the last (sequence, schedule, eps) asked
about, so a run of checks against one schedule computes them once.
"""

import functools
import math
import random
import sys
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from . import special
from .cfcore import (
    PartialQuotients,
    _denominators,
    _without,
    cylinder,
    delete_indices,
    evaluate,
)
from .errors import (
    DomainError,
    FrozenRecord,
    InsufficientHorizonError,
    ResourceCapError,
    exact_positive_fraction,
    int_at_least,
    is_int,
    nearest_float,
    quoted,
)

__all__ = [
    "StepSchedule",
    "ScheduleOnset",
    "SizeBoundReport",
    "SeparationReport",
    "HolderPairReport",
    "choose_schedule",
    "step_value",
    "schedule_onset",
    "build_point",
    "verify_size_bound",
    "verify_separation",
    "holder_check",
    "nominal_onset",
    "sample_holder_pairs",
]

_LOG2 = math.log(2)
# the largest exact power, in bits, whose exponent eps may set; past it
# a check raises ResourceCapError instead of exhausting memory or time
_POWER_BITS = 1 << 24
# sample_holder_pairs draws prefix lengths min_prefix + [0, 60) and tails of [0, 30) digits
_PAIR_SPREAD = 60
_PAIR_TAIL_MAX = 30


class StepSchedule(FrozenRecord):
    """Step function data: digit j equals the index of the first breakpoint >= j.

    Exactly one of ``eps`` (derived mode, c1 = eps*log2/2) and ``c1``
    (explicit rational) is set; the other is None.  ``thresholds`` are
    the certified ratio thresholds N_j, ``breakpoints`` the strictly
    increasing indices n_j, and ``horizon`` the range on which the
    construction was checked.
    """

    __slots__ = ("eps", "c1", "thresholds", "breakpoints", "horizon")

    def __init__(self, eps, c1, thresholds, breakpoints, horizon):
        if (eps is None) == (c1 is None):
            raise DomainError("exactly one of eps and c1 must be set")
        if eps is not None and not (isinstance(eps, Fraction) and eps > 0):
            raise DomainError("eps must be a positive Fraction")
        if c1 is not None and not (isinstance(c1, Fraction) and c1 > 0):
            raise DomainError("c1 must be a positive Fraction")
        thresholds, breakpoints = tuple(thresholds), tuple(breakpoints)
        if len(thresholds) != len(breakpoints):
            raise DomainError("thresholds and breakpoints must have equal length")
        if not breakpoints:
            raise DomainError("a schedule needs at least one breakpoint")
        prev = 0
        for b in breakpoints:
            prev = int_at_least(b, "each breakpoint", prev + 1)
        for t in thresholds:
            int_at_least(t, "each threshold", 0)
        int_at_least(horizon, "horizon")
        self._set(eps=eps, c1=c1, thresholds=thresholds, breakpoints=breakpoints,
                  horizon=horizon)

    @property
    def c1_value(self):
        """c1 as a 50-digit float (derived mode computes eps*log2/2)."""
        from mpmath import mp

        with mp.workdps(50):
            if self.c1 is not None:
                return special.as_real(self.c1)
            return +(special.as_real(self.eps) * mp.log(2) / 2)

    def to_json(self):
        if self.c1 is not None:
            c1_text = str(self.c1)
        else:  # derived mode prints c1 to 25 digits
            from mpmath import mp

            with mp.workdps(50):
                c1_text = mp.nstr(self.c1_value, 25)
        return {
            "c1": c1_text,
            "eps": str(self.eps) if self.eps is not None else None,
            "horizon": self.horizon,
            "N": list(self.thresholds),
            "n": list(self.breakpoints),
        }

    @classmethod
    def from_json(cls, data):
        """Rebuild a schedule from its to_json form.

        With eps stored, c1 is display only: the schedule is rebuilt from
        eps and c1 = eps log 2 / 2 is derived again.  A stored c1 must
        still be an exact positive rational within relative 1e-9 of the
        derived value, compared at 50 digits.  That margin passes the
        25-digit rendering of to_json and catches hand edits that
        contradict eps.  The N and n entries reach the constructor as
        stored, so the integer rule decides them.
        """
        try:
            raw_c1 = data["c1"]
            raw_eps = data["eps"]
            horizon = data["horizon"]
            thresholds = tuple(data["N"])
            breakpoints = tuple(data["n"])
        except (KeyError, TypeError) as exc:
            raise DomainError("malformed schedule JSON: %s" % exc)
        if raw_eps is None:
            return cls(None, exact_positive_fraction(raw_c1, "c1"),
                       thresholds, breakpoints, horizon)
        eps = exact_positive_fraction(raw_eps, "eps")
        sched = cls(eps, None, thresholds, breakpoints, horizon)
        if raw_c1 is not None:
            # the stored c1 is display only; catch edits that contradict eps
            from mpmath import mp

            declared = exact_positive_fraction(raw_c1, "c1")
            with mp.workdps(50):
                derived = sched.c1_value
                gap = abs(special.as_real(declared) - derived)
                if gap > derived / 10 ** 9:
                    raise DomainError(
                        "schedule JSON has eps = %s but c1 = %s; derived c1 would be %s"
                        % (quoted(raw_eps), quoted(raw_c1), mp.nstr(derived, 12))
                    )
        return sched


def _require_zero_density(seq):
    d = seq.exact_density
    if d is None:
        raise DomainError(
            "an explicit finite list cannot certify zero density; "
            "use a rule-based sequence (square, pow:b)"
        )
    if d != 0:
        raise DomainError(
            "the sequence %s has density %s, but a schedule needs density 0"
            % (seq.spec_string(), d)
        )


def _last_holding(holds, cap=None):
    """The last k >= 0, never past cap, with holds(i) for every i in 1..k.

    holds is true on an initial segment of 1, 2, ...: k doubles until
    holds fails or k reaches cap, then a bisection closes in.
    """
    lo, hi = 0, 1  # holds on 1..lo, and fails at hi unless lo == hi == cap
    while (cap is None or lo < cap) and holds(hi):
        lo, hi = hi, 2 * hi if cap is None else min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def _mp_log(p):
    # mpmath strips an integer's trailing zero bits a byte at a time, in quadratic time
    from mpmath import mp

    zeros = (p & -p).bit_length() - 1
    return mp.log(p >> zeros) + zeros * mp.ln2


def _log_exceeds(p, e, m, eps, c1):
    """e*log(p) > c1*m exactly, for integers p >= 2, e >= 1; c1 is None when eps gives it."""
    if c1 is None:
        # p^(e*v) > 2^(u*m), u/v = eps/2 in lowest terms
        g = 2 - eps.numerator % 2
        u, v = eps.numerator // g, 2 * eps.denominator // g
        return not _power_at_least(2, u * m, p, e * v, eps)
    # log(p) is irrational and c1*m rational, so the sides never tie; but a
    # c1 within a relative 1e-185 or so of e*log(p)/m is not separated at 200 digits
    from mpmath import mp, mpf

    for dps in (60, 200):
        with mp.workdps(dps):
            lhs = e * _mp_log(p)
            rhs = special.as_real(c1) * m
            diff = lhs - rhs
            if abs(diff) > mpf(10) ** (15 - dps) * (abs(lhs) + abs(rhs) + 1):
                return diff > 0
    raise DomainError("could not separate log(p) from c1*m at 200 digits (m=%d)" % m)


def _weight_test(eps, c1):
    """end(p, first, last, e=1): the last m in [first, last] with e*log(p) > c1*m, or 0.

    p and e are integers >= 1, and p^e is never formed outside a near
    tie.  Exactly one of eps and c1 is a positive Fraction; eps means
    c1 = eps*log(2)/2.  The answer is floor(x) for x = e*log(p)/c1,
    clipped to [first, last], unless x lies within a relative 1e-9 of an
    integer r in the run: then _log_exceeds at r alone decides.  x is a
    float below 2^46 and has more digits past it.  The float quotient
    needs c1 in the normal float range.
    """
    c1_float = nearest_float(c1) if eps is None else nearest_float(eps) * _LOG2 / 2
    if not sys.float_info.min <= c1_float < math.inf:
        name, rate = ("c1", "c1") if eps is None else ("eps", "eps*log(2)/2")
        raise DomainError("%s is out of range: %s must lie between %g and %g"
                          % (name, rate, sys.float_info.min, sys.float_info.max))

    def end(p, first, last, e=1):
        # e*log(p) > c1*m holds exactly for m < e*log(p)/c1
        log_p = e * math.log(p)
        x = log_p / c1_float
        if x < 2 ** 46:  # the float quotient is within 1/16 of e*log(p)/c1 here
            if x < first - 1:
                return 0  # the run holds no failing m and no near tie
            m, r = math.floor(x), round(x)
        elif x > 2 * last:
            return last  # far past the run, or infinite: nothing to round
        else:  # past 2^46 a float may miss by more than 1/2: use more digits
            from mpmath import mp

            with mp.workdps(20 + len(str(last))):
                weight = special.as_real(c1) if eps is None else special.as_real(eps) * mp.ln2 / 2
                x = e * _mp_log(p) / weight
                m, r = int(mp.floor(x)), int(mp.nint(x))
        if first <= r <= last:
            # a near tie, where floor(x) may be off by one; p = 1 stays out
            rhs = c1_float * r
            if rhs * (1 - 1e-9) <= log_p <= rhs * (1 + 1e-9):
                m = r if _log_exceeds(p, e, r, eps, c1) else r - 1
        return min(m, last) if m >= first else 0

    return end


# The scans below look for the last m in [1, limit] at which an
# inequality in (m, k(m)) fails.  k(m) is constant on each run of
# seq.runs(limit), and within a run the failing m form a prefix (the
# right side grows with m while k stays fixed), so the last violator is
# the end of the last nonempty prefix.  The nominal onset finds the last
# run with one by a search on k_k - 2k and reads its end off an integer
# formula, the weight and the certified onsets off the weight test on the
# product _step_products carries.


def _step_products(seq, schedule, limit):
    """(first, last, k, prod_{j <= k} (step(j) + 1)) for each run of seq.runs(limit)."""
    # step(k) = i + 1 for the first breakpoint bps[i] >= k, so i moves at most one a run
    bps = schedule.breakpoints
    p, i = 1, 0
    for first, last, k in seq.runs(limit):
        if k:
            if bps[i] < k:
                i += 1
            p *= i + 2
        yield first, last, k, p


def choose_schedule(seq, j_max, horizon, c1=None, eps=None):
    """Thresholds and breakpoints for a zero-density sequence.

    For each step j, the threshold N_j is the largest n with
    k(n)*log(j+1) > c1*n, or 0 when there is none.  Run k of constant
    k(n) = k holds a violator exactly when its first index k_k does.  A
    zero-density rule has k_k/k nondecreasing (see ``sequences``), so
    those runs are 1..K-1, and N_j is the last violator of run K-1.
    ``_last_holding`` finds K - 1, each probe testing a run's first
    index with k*log(j+1), up to run k(horizon) + 1, which starts past
    the horizon.  A threshold past the horizon raises rather than
    extrapolating.  Breakpoint n_j is the least index above n_{j-1}
    whose sequence member reaches N_j.

    Exactly one of c1 and eps is given; eps means c1 = eps*log2/2.
    """
    _require_zero_density(seq)
    int_at_least(j_max, "j_max")
    int_at_least(horizon, "horizon")
    if (c1 is None) == (eps is None):
        raise DomainError("give exactly one of c1 and eps")
    if eps is not None:
        eps = exact_positive_fraction(eps, "eps")
    else:
        c1 = exact_positive_fraction(c1, "c1")
    end = _weight_test(eps, c1)
    cap = seq.count(horizon) + 1

    thresholds = []
    breakpoints = []
    prev = 0
    for j in range(1, j_max + 1):
        def fails(k):
            # k*log(j+1) > c1*k_k: run k holds a violator
            first = seq.nth(k)
            return end(j + 1, first, first, k) == first

        lo = _last_holding(fails, cap)
        worst = lo and end(j + 1, seq.nth(lo), seq.nth(lo + 1) - 1, lo)
        if worst > horizon:
            raise InsufficientHorizonError(
                "step %d has its threshold past the horizon %d, which cannot "
                "certify it" % (j, horizon)
            )
        thresholds.append(worst)
        n_j = max(prev + 1, seq.first_at_least(worst))
        breakpoints.append(n_j)
        prev = n_j
    return StepSchedule(eps, c1, tuple(thresholds), tuple(breakpoints), horizon)


def step_value(schedule, n):
    """The digit assigned to constrained index n: its step among the breakpoints."""
    int_at_least(n, "step index")
    bps = schedule.breakpoints
    if n > bps[-1]:
        raise DomainError(
            "index %d is past the last breakpoint %d; extend the schedule" % (n, bps[-1])
        )
    return bisect_left(bps, n) + 1


def _covered_limit(seq, schedule):
    """Last m whose constrained positions k(m) all have a step, capped at the horizon."""
    try:
        coverage = seq.nth(schedule.breakpoints[-1] + 1) - 1
    except DomainError:
        coverage = schedule.horizon
    return min(schedule.horizon, coverage)


class ScheduleOnset(NamedTuple):
    onset: int
    checked_to: int


def schedule_onset(seq, schedule):
    """Least n such that sum_{j<=k(m)} log(step(j)+1) <= c1*m for all m in [n, D].

    D is the horizon, shortened if the schedule's steps run out first.
    A violation at D itself means no onset can be certified and raises.
    In derived mode the comparison is the exact integer test
    prod (step(j)+1)^(2*ed) <= 2^(en*m).
    """
    limit = _covered_limit(seq, schedule)
    end = _weight_test(schedule.eps, schedule.c1)
    runs = _step_products(seq, schedule, limit)
    worst = max(end(p, first, last) for first, last, _, p in runs)
    if worst >= limit:
        raise InsufficientHorizonError(
            "the weight inequality still fails at %d, the edge of the checked "
            "range; no onset can be certified" % limit
        )
    return ScheduleOnset(worst + 1, limit)


def _constrained_digits(seq, schedule, n, what):
    """(k_j, step j) for each constrained position k_j <= n; ``what`` names n in errors."""
    k = seq.count_window(n)
    if k > schedule.breakpoints[-1]:
        raise DomainError(
            "%s has %d constrained positions but the schedule stops at %d"
            % (what, k, schedule.breakpoints[-1])
        )
    return [(seq.nth(j), step_value(schedule, j)) for j in range(1, k + 1)]


def build_point(seq, m_cap, schedule, depth, filler=1):
    """Word of the given depth: step digits at constrained positions, filler elsewhere."""
    int_at_least(m_cap, "digit cap")
    int_at_least(depth, "depth")
    if not is_int(filler) or not 1 <= filler <= m_cap:
        raise DomainError("filler must be an integer in [1, %d]" % m_cap)
    # the schedule's refusal comes before the word is allocated
    constrained = _constrained_digits(seq, schedule, depth, "depth %d" % depth)
    digits = [filler] * depth
    for pos, want in constrained:
        digits[pos - 1] = want
    return PartialQuotients(digits)


class SizeBoundReport(NamedTuple):
    eps: Fraction
    word: PartialQuotients
    onset: int
    onset_certified: object  # int, or None when not certifiable in range
    lhs: Fraction
    rhs: object  # mpf display value
    ok: bool


def _nominal_onset(seq, eps, horizon=None):
    """Least n with en*(m - 2k(m) - 4) >= 2*ed for every m >= n, or every m in [n, horizon].

    With offset = 3 + ceil(2*ed/en), m fails exactly when m <= 2k(m) + offset:
    run k >= 1, from k_k to k_(k+1) - 1, fails from its start when
    k_k - 2k <= offset, up to 2k + offset, which lies in it unless run k + 1
    fails too.  So the last failing m is 2J + offset, J the last failing run
    (0 when none is).  Below density 1/2 k_k - 2k never decreases and at 1/2
    it is constant (see ``sequences``), so ``_last_holding`` finds J; above
    1/2 it falls, so no run fails below a horizon that passes, and without a
    horizon the sequence is refused.  An explicit list is read member by member.
    """
    en, ed = eps.numerator, eps.denominator
    offset = 3 - (-2 * ed // en)
    cap = None
    if horizon is not None:
        cap = seq.count_window(horizon)
        if 2 * cap + offset >= horizon:
            raise InsufficientHorizonError(
                "the onset condition still fails at the horizon %d" % horizon
            )
    density = seq.exact_density
    if density is None:
        last = max((j for j, v in enumerate(seq.values[:cap], start=1) if v - 2 * j <= offset),
                   default=0)
    elif horizon is None and (2 * density > 1 or 2 * density == 1 and seq.nth(1) - 2 <= offset):
        raise DomainError(
            "the onset condition n - 2k(n) - 4 >= 2/eps fails infinitely often on %s; "
            "a progression needs a gap of at least 3, or gap 2 with a0 - 6 >= 2/eps"
            % seq.spec_string()
        )
    else:
        last = _last_holding(lambda j: seq.nth(j) - 2 * j <= offset, cap)
    return 2 * last + offset + 1


@functools.lru_cache(maxsize=1)
def _size_onsets(seq, schedule, eps):
    """(certified onset, nominal onset) of a size check, kept for the last key.

    Both depend on (seq, schedule, eps) alone, so a run of checks against
    one schedule walks them once.  A refusal is not kept: it raises again.
    """
    return _certified_onset(seq, schedule, eps), _nominal_onset(seq, eps, schedule.horizon)


def verify_size_bound(eps, seq, schedule, word):
    """Check |I(w)| >= |I(w with constrained digits deleted)|^(1+eps), exactly.

    The report also carries two onset lengths.  ``onset`` is the least
    n with en*(m - 2k(m) - 4) >= 2*ed for every m in [n, horizon]; the
    inequality is guaranteed from there for the all-filler-1 word shape
    the bound was designed around, but not for every admissible word.
    ``onset_certified`` is the least n from which the stronger chain
    2^((m-k-2)*en) >= (2*prod(step(j)+1)^2)^ed holds; past it the bound
    is provable for every admissible word.  None means the checked
    range could not certify it.
    """
    from mpmath import mp, mpf

    eps = exact_positive_fraction(eps, "eps")
    en, ed = eps.numerator, eps.denominator
    digits = PartialQuotients(word)
    n = len(digits)
    if n == 0:
        raise DomainError("word must be nonempty")
    constrained = _constrained_digits(seq, schedule, n, "word")
    for pos, want in constrained:
        if digits[pos - 1] != want:
            raise DomainError(
                "word is not admissible: position %d carries %d, the schedule says %d"
                % (pos, digits[pos - 1], want)
            )
    if n - len(constrained) < 1:
        raise DomainError("every digit is constrained; nothing remains after deletion")

    # |I(w)| = 1/L and |I(w')| = 1/R with L = q_n (q_n + q_{n-1}), so
    # |I(w)| >= |I(w')|^(1+eps) reads R^(en+ed) >= L^ed; w' drops the
    # constrained positions, which are the members of seq up to n
    q, q_prev = _denominators(digits)
    big_l = q * (q + q_prev)
    q, q_prev = _denominators(_without(digits, [pos for pos, _ in constrained]))
    big_r = q * (q + q_prev)
    ok = _power_at_least(big_r, en + ed, big_l, ed, eps)

    onset_certified, onset = _size_onsets(seq, schedule, eps)
    with mp.workdps(50):
        rhs = +((mpf(1) / mpf(big_r)) ** (mpf(en + ed) / ed))
    return SizeBoundReport(eps, digits, onset, onset_certified, Fraction(1, big_l), rhs, ok)


def _log2_bracket(x):
    """(k, h) for a positive rational x: 2^k <= x < 2^h = 2^(k+1), or x = 2^k = 2^h."""
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()  # 2^(k-1) < x < 2^(k+1)
    if (n >> k if k >= 0 else n << -k) < d:
        return k - 1, k
    return k, k + (n.bit_count() + d.bit_count() > 2)


def _power_at_least(x, a, y, b, eps):
    """x**a >= y**b, exactly, for positive rationals x, y and exponents a, b >= 1 that eps sets.

    Each power lies in a range of powers of two read off the bracket of its base.  Only
    when the two ranges overlap is a power formed, never one of a power of two, and only
    while a lower bound on its larger part, a*max(k, -k-1) + 1 bits, fits _POWER_BITS.
    """
    (kx, hx), (ky, hy) = _log2_bracket(x), _log2_bracket(y)
    if a * kx >= b * hy:
        return True
    if a * hx <= b * ky:
        return False
    bits = max(c * max(k, -k - 1) + 1 for c, k, h in ((a, kx, hx), (b, ky, hy)) if h > k)
    if bits > _POWER_BITS:
        raise ResourceCapError(
            "eps = %s needs an exact power of at least %d bits, past the budget of %d bits"
            % (eps, bits, _POWER_BITS)
        )
    if hy == ky:  # y**b == 2**(b*ky)
        return _log2_bracket(x ** a)[0] >= b * ky
    if hx == kx:
        return _log2_bracket(y ** b)[1] <= a * kx
    return x ** a >= y ** b


def _certified_onset(seq, schedule, eps):
    """Least m past which 2^((m-k-2)*en) >= (2*P^2)^ed, P = prod(step+1), keeps holding.

    It fails exactly when log(2P^2) > eps*log(2)*(m-k-2): at every m <= k + 2, and past
    that where the weight test at 2*eps says so.  With eps*limit <= 1 it fails at every
    m <= limit, as eps*log(2)*(m-k-2) < log(2).  No float holds an eps past 2^900, and
    no P that fits in memory fails at m > k + 2 there, so 2^900 stands in for it.
    """
    limit = _covered_limit(seq, schedule)
    if eps * limit <= 1:
        return None
    end = _weight_test(2 * eps if eps < 2 ** 900 else Fraction(2 ** 901), None)
    worst = 0
    for first, last, k, p in _step_products(seq, schedule, limit):
        shift = k + 2
        m = shift + (last > shift and end(2 * p * p, max(first - shift, 1), last - shift))
        if m >= first:
            worst = min(m, last)
    return None if worst >= limit else worst + 1


class SeparationReport(NamedTuple):
    gap: Fraction
    bound: Fraction
    ok: bool


def verify_separation(prefix, m_cap, x_tail, y_tail):
    """Exact check of gap >= |I(prefix)| / (9 M^3) for two continuations.

    Both tails must be nonempty, use digits in [1, M], and differ in
    their first digit.  Continuations that realize the same rational
    (a boundary alias like [w,a,1] vs [w,a+1]) describe one point, not
    two, and are rejected.
    """
    int_at_least(m_cap, "digit cap", 2)
    pre = PartialQuotients(prefix)
    xt = PartialQuotients(x_tail)
    yt = PartialQuotients(y_tail)
    if not xt or not yt:
        raise DomainError("both continuations must be nonempty")
    if xt[0] == yt[0]:
        raise DomainError("continuations must differ in their first digit")
    for name, digits in (("prefix", pre), ("first tail", xt), ("second tail", yt)):
        for a in digits:
            if a > m_cap:
                raise DomainError("%s digit %d exceeds the cap %d" % (name, a, m_cap))
    x = evaluate(pre + xt)
    y = evaluate(pre + yt)
    if x == y:
        raise DomainError(
            "the continuations describe the same point (boundary alias); "
            "separation is about distinct points"
        )
    base = cylinder(pre).length if pre else Fraction(1)
    bound = base / (9 * m_cap ** 3)
    gap = abs(x - y)
    return SeparationReport(gap, bound, gap >= bound)


def nominal_onset(seq, eps):
    """Horizon-free onset: least n with en*(m - 2k(m) - 4) >= 2*ed for all m >= n.

    Works on every rule of density below 1/2 (square, powers, progressions
    with gap >= 3), on finite explicit lists, and on gap-2 progressions
    with en*(a0 - 6) >= 2*ed.  Other progressions never satisfy the
    condition from any onset on and are rejected.
    """
    return _nominal_onset(seq, exact_positive_fraction(eps, "eps"))


class HolderPairReport(NamedTuple):
    x: PartialQuotients
    y: PartialQuotients
    prefix_len: int
    gap: object  # Fraction, or None when skipped before evaluation
    image_gap: object
    ok: object  # True/False, or None when skipped
    reason: str


def _skip(x, y, n, reason):
    return HolderPairReport(x, y, n, None, None, None, reason)


def holder_check(seq, m_cap, eps, sample_pairs):
    """Per-pair check of image_gap <= (9 M^3)^(1/(1+eps)) * gap^(1/(1+eps)).

    The image of a word is the value of the word with its constrained
    positions deleted.  The inequality is checked with both sides
    raised to the power 1+eps, i.e. image_gap^(en+ed) <= ((9M^3)*gap)^ed
    on exact rationals.  Pairs that do not satisfy the configuration
    (shared prefix of length at least the onset, then differing digits
    at a free position) are skipped with a reason, not failed.
    """
    int_at_least(m_cap, "digit cap", 2)
    eps = exact_positive_fraction(eps, "eps")
    en, ed = eps.numerator, eps.denominator
    onset = nominal_onset(seq, eps)
    scale = Fraction(9 * m_cap ** 3)
    reports = []
    for pair in sample_pairs:
        x = PartialQuotients(pair[0])
        y = PartialQuotients(pair[1])
        if x == y:
            reports.append(
                HolderPairReport(x, y, len(x), Fraction(0), Fraction(0), True,
                                 "identical points")
            )
            continue
        over = next(((a, i) for w in (x, y) for i, a in enumerate(w, start=1)
                     if a > m_cap and i not in seq), None)
        if over:
            reports.append(_skip(x, y, 0, "free digit %d at position %d exceeds the cap %d"
                                 % (*over, m_cap)))
            continue
        n = next((i for i, (ax, ay) in enumerate(zip(x, y)) if ax != ay), min(len(x), len(y)))
        if n == min(len(x), len(y)):
            reports.append(_skip(x, y, n, "no continuation digit"))
            continue
        if (n + 1) in seq:
            reports.append(_skip(x, y, n, "constrained continuation position"))
            continue
        if n < onset:
            reports.append(_skip(x, y, n, "below onset (need %d)" % onset))
            continue
        gap = abs(evaluate(x) - evaluate(y))
        if gap == 0:
            reports.append(_skip(x, y, n, "continuations describe the same point"))
            continue
        # both images keep the free digit n + 1, as n < min(len x, len y)
        dx = delete_indices(x, seq)
        dy = delete_indices(y, seq)
        image_gap = abs(evaluate(dx) - evaluate(dy))
        ok = image_gap == 0 or _power_at_least(scale * gap, ed, image_gap, en + ed, eps)
        reports.append(HolderPairReport(x, y, n, gap, image_gap, ok, ""))
    return reports


def sample_holder_pairs(seq, m_cap, schedule, count, seed, min_prefix):
    """Deterministic random pairs in the holder_check configuration.

    Each pair shares a prefix of length at least min_prefix (step digits
    at constrained positions, uniform free digits in [1, M]), then
    differs at the first free position and continues independently.
    Final digits are kept >= 2 at free positions so no pair can collide
    on a boundary alias.
    """
    int_at_least(m_cap, "digit cap", 2)  # two differing digits must fit under it
    int_at_least(count, "count")
    int_at_least(min_prefix, "min_prefix")
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        n = rng.randrange(min_prefix, min_prefix + _PAIR_SPREAD)
        # move n past the constrained positions that follow it; a run that
        # reaches index last + 1 of the schedule cannot be filled
        base = seq.count_window(n)
        cap = schedule.breakpoints[-1] + 1 - base
        t = _last_holding(lambda i: seq.count_window(n + i) - base == i, cap)
        if t >= cap:
            step_value(schedule, schedule.breakpoints[-1] + 1)  # raises
        n += t
        # the pair's constrained positions and their indices j: k_j -> j
        rank = {pos: j for j, pos in enumerate(seq.upto(n + _PAIR_TAIL_MAX), start=1)}

        def fill(pos):
            j = rank.get(pos)
            return rng.randint(1, m_cap) if j is None else step_value(schedule, j)

        prefix = [fill(i) for i in range(1, n + 1)]
        d1, d2 = rng.sample(range(1, m_cap + 1), 2)

        def extend(first):
            word = prefix + [first]
            for i in range(n + 2, n + 2 + rng.randrange(0, _PAIR_TAIL_MAX)):
                word.append(fill(i))
            # trim back to a free final position, then keep its digit >= 2
            # so distinct pairs can never collide on a boundary alias
            while len(word) > n + 1 and len(word) in rank:
                word.pop()
            if len(word) > n + 1 and word[-1] == 1:
                word[-1] = rng.randint(2, m_cap)
            return PartialQuotients(word)

        pairs.append((extend(d1), extend(d2)))
    return pairs
