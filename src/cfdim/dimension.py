"""Covering machinery for continued fractions with a floor on even-position digits.

The sets under study fix a floor M for the digits at even positions and
leave odd positions free.  Level intervals J(a_1,...,a_{2n-1}) are the
unions of all order-2n cylinders whose even digit runs over [M, inf);
their exact lengths drive covering sums whose convergence at exponent s
is governed by the per-level factor

    (1 + 1/M)^s zeta(2s) sum_{k >= M} k^(-2s).

The critical exponent is the root of factor = 1, found by safeguarded
false position on -log(factor), which is concave in s (about ten factor
evaluations; see critical_exponent), and the asymptotic form
1/2 + (log log M - log 2)/log M describes its large-M behavior.
reference_bounds evaluates the classical dimension windows (Jarnik,
Kurzweil, Hensley, Good, Jaerisch-Kessebohmer) for cross-checking.
"""

from fractions import Fraction
from typing import NamedTuple

from . import cfcore
from .errors import DivergenceError, DomainError, ResourceCapError, _check_tolerance, int_at_least
from .special import _CUTOFF_CAP, DEFAULT_CONTEXT, _series_from, _wide_neg_power, as_real

__all__ = [
    "CriticalSolveResult",
    "ReferenceBounds",
    "j_interval_length",
    "recursion_factor",
    "per_level_factor",
    "critical_exponent",
    "asymptotic_exponent",
    "covering_sum_enumerated",
    "reference_bounds",
]

_STEP_LIMIT = 200
_LEVEL_CAP = 3
_DIGIT_CAP = 50
# terms of primes and cofactors below 2^13 are kept while a covering sum runs
_COVER_MEMO = 1 << 13


def j_interval_length(word, m_floor):
    """Exact length of the union of cylinders extending an odd word by a digit >= m_floor.

    The union telescopes to the interval between the word's value and
    the value of the word extended by m_floor itself.  By the
    determinant identity that gap is 1/(q_n (M q_n + q_{n-1})).
    """
    digits = cfcore.PartialQuotients(word)
    if len(digits) % 2 == 0:
        raise DomainError("word must have odd length, got %d digits" % len(digits))
    int_at_least(m_floor, "digit floor")
    q, q_prev = cfcore._denominators(digits)
    return Fraction(1, q * (m_floor * q + q_prev))


def recursion_factor(a_odd, a_even, m_floor):
    """Per-step factor (M+1)/(M a_odd^2 a_even^2) bounding J-length decay, exact."""
    int_at_least(m_floor, "digit floor")
    int_at_least(a_odd, "odd-position digit")
    int_at_least(a_even, "even-position digit", m_floor)
    return Fraction(m_floor + 1, m_floor * a_odd * a_odd * a_even * a_even)


def per_level_factor(m_floor, s, ctx=DEFAULT_CONTEXT):
    """(1+1/M)^s zeta(2s) zeta_tail(M, 2s); the covering sum contracts when < 1."""
    from mpmath import mp, mpf

    int_at_least(m_floor, "digit floor", 2)
    with mp.workdps(ctx.working_digits):
        sm = as_real(s, "exponent")
        if not sm > mpf(1) / 2:
            raise DivergenceError("the level sums diverge for s <= 1/2")
        # the two series as zeta and zeta_tail form them, set up once
        full, tail = _series_from((1, m_floor), 2 * sm, ctx)
        return +((1 + mpf(1) / m_floor) ** sm * full * tail)


def _exact(tol):
    # the rational value of a number that _check_tolerance admitted, which
    # is never text
    from mpmath.libmp import to_rational

    p, q = to_rational(tol._mpf_) if hasattr(tol, "_mpf_") else tol.as_integer_ratio()
    return Fraction(p, q)


class CriticalSolveResult(NamedTuple):
    m_floor: int
    s_star: object  # mpf when converged, else None
    residual: object
    bracket: tuple
    iterations: int
    converged: bool
    message: str = ""


def critical_exponent(m_floor, tol=1e-12, s_max=2, ctx=DEFAULT_CONTEXT):
    """Root of per_level_factor(M, s) = 1 by false position on (1/2 + 1e-9, s_max].

    The factor blows up at s = 1/2+ and is numerically strictly
    decreasing, so g(s) = -log factor is increasing, and nearly linear
    away from the pole, where factor - 1 is not.  Each step interpolates
    g linearly between the bracket ends, falling back to the midpoint
    when rounding puts the interpolant on or outside an end.  g is also
    concave, as log zeta(2s) and log zeta(2s, M) are logs of sums of
    exponentials in s, so a chord through two true values of g has its
    zero at or right of the root and replaces hi.  After two hi steps in
    a row g_lo is scaled by 1 - g(new)/g(replaced), or by 1/2 when that
    is not positive (Anderson-Bjorck), so the stale lo cannot stall the
    bracket.  The next chord may replace lo, and the one after runs
    through true values again, so lo never needs damping.  A verdict
    flipped by rounding would only lose that step's damping: the bracket
    always keeps factor(lo) > 1 > factor(hi).  Stops when
    |factor - 1| <= tol; a tol below ctx.target_abs_tol, the accuracy of
    each factor value, is refused.  When the factor is still above 1 at
    s_max there is no root in the bracket and the result says so
    (converged False) instead of raising.

    The factor exceeds 1 at the left edge s = 1/2 + d, d = 1e-9: zeta(1 + 2d)
    and sum_{k >= M} k^(-1-2d) exceed 1/(2d) and M^(-2d)/(2d), so the factor
    exceeds 2.5e17 * M^(-2d), which falls below 1 only when M^(-2d) < 4e-18,
    for an M of more than 2.9e10 bits.
    """
    from mpmath import mp, mpf

    int_at_least(m_floor, "digit floor", 2)
    _check_tolerance(tol, "tol")
    if _exact(tol) < _exact(ctx.target_abs_tol):
        raise DomainError("tol %s is below ctx.target_abs_tol %s, the accuracy of each factor "
                          "value" % (tol, ctx.target_abs_tol))
    with mp.workdps(ctx.working_digits):
        lo = mpf("0.5") + mpf("1e-9")
        hi = as_real(s_max, "s_max")
        if not lo < hi <= 8:
            raise DomainError("s_max must lie in (0.5 + 1e-9, 8]")
        tol_m = as_real(tol)
        f_hi = per_level_factor(m_floor, hi, ctx)
        if f_hi > 1:
            return CriticalSolveResult(
                m_floor, None, None, (lo, hi), 0, False,
                "factor is %s > 1 at s_max = %s; no root in the bracket "
                "(the covering bound is vacuous here)" % (mp.nstr(f_hi, 8), mp.nstr(hi, 8)),
            )
        f_lo = per_level_factor(m_floor, lo, ctx)
        g_lo, g_hi = -mp.log(f_lo), -mp.log(f_hi)
        after_hi = False  # the previous step replaced hi
        for i in range(1, _STEP_LIMIT + 1):
            mid = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
            if not lo < mid < hi:
                mid = (lo + hi) / 2
            val = per_level_factor(m_floor, mid, ctx)
            res = abs(val - 1)
            if res <= tol_m:
                return CriticalSolveResult(m_floor, +mid, +res, (+lo, +hi), i, True)
            g_mid = -mp.log(val)
            if val > 1:
                lo, g_lo, after_hi = mid, g_mid, False
            else:
                if after_hi:  # hi replaced twice in a row: damp the stale g_lo
                    m = 1 - g_mid / g_hi
                    g_lo *= m if m > 0 else mpf(1) / 2
                hi, g_hi, after_hi = mid, g_mid, True
        return CriticalSolveResult(
            m_floor, None, +res, (+lo, +hi), _STEP_LIMIT, False,
            "residual did not reach %g within %d steps" % (tol, _STEP_LIMIT),
        )


def asymptotic_exponent(m_floor, ctx=DEFAULT_CONTEXT):
    """Large-M form of the critical exponent: 1/2 + (log log M - log 2)/log M."""
    from mpmath import mp, mpf

    int_at_least(m_floor, "digit floor", 3)
    with mp.workdps(ctx.working_digits):
        x = mpf(m_floor)
        return +(mpf(1) / 2 + (mp.log(mp.log(x)) - mp.log(2)) / mp.log(x))


def _j_factors(m_floor, levels, digit_cap, q=1, q_prev=0):
    # the two factors (q_n, M q_n + q_{n-1}) of 1/|J(w)| for every capped word
    # below the continuant pair (q, q_prev), in lex order: each level adds an
    # odd digit, all but the last an even one
    for a in range(1, digit_cap + 1):
        q_a = a * q + q_prev
        if levels == 1:
            yield q_a, m_floor * q_a + q
        else:
            for b in range(m_floor, digit_cap + 1):
                yield from _j_factors(m_floor, levels - 1, digit_cap, b * q_a + q, q_a)


def covering_sum_enumerated(m_floor, s, levels, digit_cap, ctx=DEFAULT_CONTEXT):
    """Sum of |J(a_1, ..., a_{2 levels - 1})|^s over digits capped at digit_cap.

    Odd positions run over [1, cap], even positions over [m_floor, cap].
    One depth-first walk in lex order carries the continuant pair
    (q_n, q_{n-1}); each word's J-length is the exact unit fraction
    1/(q r) with r = M q_n + q_{n-1}, so only the final powers and their
    sum are floating point.

    A word with r < 2^16 (so q < 2^16 too) takes q^(-s) and r^(-s) from
    special's power kernel _wide_neg_power as integer pairs (m, e), the
    value m 2^e with m of prec + 64 bits: one power per prime, and the
    truncated product of the terms of the least prime factor and of the
    cofactor for a composite.  The sum keeps one memo of the pairs below
    2^13, so each prime there takes its power once, and reads it before
    calling the kernel, so a hit makes no call.  A word with r >= 2^16
    takes one direct power of q r.  Every term, the product of the two
    mantissas or the direct power, is added into one integer whose unit
    lies 64 bits below the ulp of the first word's term, the largest, as
    all-minimal digits minimise q and r; the sum is rounded to prec once.

    The error budget, relative, in units u = 2^-prec: each rounded power
    of a k is within u, plus the error of mpmath's logarithm at prec + 10
    bits, s log k 2^-10 u (an integer or half-integer s takes no
    logarithm, so this part is an overestimate there); a truncated
    product moves a term by less than 2^-63 u, and each word's add drops
    less than the unit, 2^-63 u of the sum (2^-34 u over 3*10^8 words);
    the final rounding adds at most u.  So a sum is within (W + 1) u,
    where W is the mean over the words, weighted by their terms, of
    Omega(q r) (1 for a direct power) plus s log(q r) 2^-10.  W is a few
    units, as the large terms have small q and r: at most 5.8 over 300
    grids of M <= 6, cap <= 10, levels <= 3 and s < 3.  On 85 benchmark
    ops and random grids the worst error was 2.2 u against a 120-digit
    sum, where a rounded add per word, and 2 Omega(q r) - 1 roundings
    per term, reached 80.6 u.

    The caps (levels <= 3, digit_cap <= 50) bound the request shape,
    not the runtime: the largest admitted grid, (2, 7/10, 3, 50), is
    ~3*10^8 words, 98.6 % of them direct powers, at 11-16 us a word (a
    uniform sample of 2*10^4 of its words on a shared 2-core Xeon VM,
    whose speed varies about twofold), 1 to 1.4 hours, so keep
    digit_cap modest at levels = 3.  Its first 10^5 words, 43 % of them
    direct, take 9-17 us a word, and 11-22 us with a rounded mpf sum.
    """
    from mpmath import mp
    from mpmath.libmp import from_int, from_man_exp, mpf_neg, mpf_pow, round_nearest

    int_at_least(m_floor, "digit floor")
    int_at_least(levels, "levels")
    if levels > _LEVEL_CAP:
        raise ResourceCapError("level cap is %d, got %d" % (_LEVEL_CAP, levels))
    int_at_least(digit_cap, "digit cap", m_floor)
    if digit_cap > _DIGIT_CAP:
        raise ResourceCapError("digit cap is %d, got %d" % (_DIGIT_CAP, digit_cap))
    with mp.workdps(ctx.working_digits):
        sm = as_real(s, "exponent")
        if not sm > 0:
            raise DomainError("exponent s must be positive")
        prec = mp.prec
        nz = mpf_neg(sm._mpf_)
        memo = [None] * _COVER_MEMO
        total, unit = 0, None
        for q, r in _j_factors(m_floor, levels, digit_cap):
            if r < _CUTOFF_CAP:
                # the kernel is called only on a memo miss
                tq = memo[q] if q < _COVER_MEMO else None
                if tq is None:
                    tq = _wide_neg_power(q, memo, nz, prec)
                tr = memo[r] if r < _COVER_MEMO else None
                if tr is None:
                    tr = _wide_neg_power(r, memo, nz, prec)
                m, e = tq[0] * tr[0], tq[1] + tr[1]
            else:
                _, m, e, _ = mpf_pow(from_int(q * r), nz, prec, round_nearest)
            if unit is None:
                # the first word's term is the largest: 64 bits below its ulp
                unit = e + m.bit_length() - prec - 64
            total += m << (e - unit) if e >= unit else m >> (unit - e)
        return mp.make_mpf(from_man_exp(total, unit, prec, round_nearest))


class ReferenceBounds(NamedTuple):
    m_floor: int
    jarnik_lo: object
    jarnik_hi: object
    kurzweil_lo: object
    kurzweil_hi: object
    hensley: object
    good_f_lo: object
    good_f_hi: object
    jk_asymptotic: object
    applicable: dict


def reference_bounds(m_floor, ctx=DEFAULT_CONTEXT):
    """The classical dimension windows, evaluated wherever they are defined.

    Applicability flags carry each formula's stated M-range (Jarnik
    M >= 8, Kurzweil M >= 1000, Good M >= 20); out-of-range values are
    still computed.  good_f_hi needs log log(M-1), so it is None at
    M = 2.
    """
    from mpmath import mp, mpf

    int_at_least(m_floor, "digit floor", 2)
    with mp.workdps(ctx.working_digits):
        m = mpf(m_floor)
        log2 = mp.log(2)
        jarnik_lo = 1 - 4 / (m * log2)
        jarnik_hi = 1 - 1 / (8 * m * mp.log(m))
        kurzweil_lo = 1 - mpf("0.99") / m
        kurzweil_hi = 1 - mpf("0.25") / m
        hensley = 1 - (6 / mp.pi ** 2) / m - (72 / mp.pi ** 4) * mp.log(m) / m ** 2
        good_f_lo = mpf(1) / 2 + 1 / (2 * mp.log(m + 2))
        good_f_hi = None
        if m_floor >= 3:
            good_f_hi = +(mpf(1) / 2 + mp.log(mp.log(m - 1)) / (2 * mp.log(m - 1)))
        jk = mpf(1) / 2 + mp.log(mp.log(m)) / (2 * mp.log(m))
        return ReferenceBounds(
            m_floor,
            +jarnik_lo, +jarnik_hi,
            +kurzweil_lo, +kurzweil_hi,
            +hensley,
            +good_f_lo, good_f_hi,
            +jk,
            {
                "jarnik": m_floor >= 8,
                "kurzweil": m_floor >= 1000,
                "good": m_floor >= 20,
            },
        )
