"""High precision zeta values, tail sums, and pole-side approximations.

Everything runs through mpmath at the working_digits of a
PrecisionContext, which holds 50 to 1,000 digits; each function that
computes a real imports mpmath itself, so importing the package does
not load it. One Euler-Maclaurin routine, _series_from, serves the full
series and its tails, and every series is set up there alone: the pole
check and the goal tol/8, once for all its starts.  A sum is the partial
sum up to a cutoff N, then

    N^(1-z)/(z-1) + N^(-z)/2 + sum_j B_{2j}/(2j)! (z)_{2j-1} N^(-z-2j+1)

through B_8, with the first omitted correction (the B_10 term) as a
computable remainder bound.  The cutoff starts at max(start, 64) and
doubles until that bound clears the requested tolerance with slack; at
the closest admitted approach to the pole (z = 1 + 2e-9) the bound is
already below 1e-20 at N = 64, so the doubling loop is quiescent in
ordinary use.  The cutoff never doubles past 2^16 = 65,536: a
tolerance the bound cannot clear by then raises DomainError before any
term is summed.  Every tolerance >= 5e-50 is reachable from start <= 64
and every tolerance >= 5e-47 from any start, for every admitted z (the
bound at 2^16 is largest next to the pole, 5.2e-51 there).

Every term costs few non-integer powers.  The tail corrections take one,
p = N^(-z), and form N^(1-z) = p*N and each N^(-z-2j+1) = p / N^(2j-1)
from exact integer powers of N.  The head is multiplicative, through
the one power kernel _wide_neg_power: k^(-z) for k < 2^16 is an integer
pair (m, e), the value m 2^e with m of prec + 64 bits.  A prime's pair
is its power, exactly; a composite's is the product of the pairs of its
least prime factor and of its cofactor, truncated to prec + 64 bits,
which moves it by less than 2^-(prec + 63) relative.  One loop walks
the cofactors down to a memo hit or a prime, at most Omega(k) links,
then multiplies the factors' pairs back in.  A least prime factor is
one lookup in _LPF, a 64 KiB table that two slice sieves build at
import in about 0.4 ms (2-core Xeon VM).  The caller passes a list as
the memo, which keeps the pairs below its length and is freed with the
call: a module-level function holds no reference to itself, so no cycle
keeps it.  For the head the memo is N/2 long, below which both factors
of every composite term lie, so a zeta value costs one power per prime
below the cutoff plus one per cutoff tried: 19 at N = 64, where one
power per term made 70.

The head is one exact sum: _head adds every pair into one integer whose
unit lies 64 bits below the ulp of the first term, the largest, and
rounds the sum to prec once.  A term of k carries only its Omega(k)
rounded powers, each within u = 2^-prec relative, plus the error of
mpmath's logarithm at prec + 10 bits, z log k 2^-10 u in all (see
below).  So the head is within (W + 1) u relative, W the mean over its
terms, weighted by their values, of Omega(k) + z log k 2^-10: Omega(k)
<= 15 below 2^16, and the truncations add less than 2^-46 u.  An
enclosure of the head must widen it by that much.  The covering sums of
dimension take their terms from the same kernel and add them the same
way.  The tail corrections run on raw values too: they do each
operation of the mpf expression they replaced, in its order, rounded
once to nearest at the working precision, so their bits are that
expression's.

A prime's power p^(-z) has the bits that mpf.__pow__ gives.  At an
exponent that is neither an integer nor a half-integer, mpmath 1.3
forms it as exp(-z log p), with log p rounded to 10 guard bits, and
_prime_power keeps that logarithm for each prime below 2^12: such a
prime costs one exponential per power and one logarithm per working
precision.  _coefficients keeps the B_2j/(2j)! of the corrections, and
_pole_guard the bound 1 + 1e-9 on z, the same way.  The three are
functools.lru_cache tables, the one state of the module: the
coefficients and guards of four precisions, and at most four times the
564 logarithms of the primes below 2^12, about 700 bytes each with the
table's own entry at 50 digits.  Each value kept is the very value
the computation would round again, so no bit of any result depends on
what the tables hold, and every caller in the process can share them.
The primes past 2^12, which only a head or a covering sum of a large
cutoff meets, take mpf_pow as before, so a call keeps at most the
logarithms of 564 primes, some 400 KB at 50 digits.  The formula is
mpmath 1.3.x's; test_a_prime_power_has_the_bits_of_mpf_pow checks it
against the mpmath in use.
"""

import functools
import math
from fractions import Fraction

from .errors import (
    DivergenceError, DomainError, FrozenRecord, PoleProximityError, ResourceCapError,
    _check_tolerance, int_at_least, match_number, quoted,
)

__all__ = [
    "PrecisionContext",
    "DEFAULT_CONTEXT",
    "euler_gamma",
    "zeta",
    "zeta_tail",
    "tail_integral_approx",
    "laurent_zeta_approx",
]

# 30-digit reference value; nothing downstream needs the constant beyond
# that accuracy
_EULER_GAMMA_30 = "0.577215664901532860606512090082"
# critical_exponent(10) takes about 0.8 s at 1,000 digits and 43 s at 10,000
_MAX_DIGITS = 1000
# as_real refuses a caller's exponent above it: zeta("1e1000") takes 5 s
# and zeta("1e2000") 29 s, while at 10^6 every exponent function takes ms.
# An mpf exponent is one computed inside, such as the 2s of a factor at s
_MAX_EXPONENT = 10 ** 6


class PrecisionContext(FrozenRecord):
    """Accuracy goal (absolute) and internal working precision in digits, 50 to 1,000."""

    __slots__ = ("target_abs_tol", "working_digits")

    def __init__(self, target_abs_tol=1e-12, working_digits=50):
        _check_tolerance(target_abs_tol, "target_abs_tol")
        if int_at_least(working_digits, "working_digits", 30) > _MAX_DIGITS:
            raise ResourceCapError("working_digits cap is %d, got %d"
                                   % (_MAX_DIGITS, working_digits))
        # 30 to 49 are held as 50, which absorbs the cancellation near the pole
        self._set(target_abs_tol=target_abs_tol, working_digits=max(50, working_digits))


DEFAULT_CONTEXT = PrecisionContext()


def as_real(x, what="value"):
    """Coerce int/float/Fraction/mpf or number text to a finite mpf at the current precision."""
    import mpmath

    if isinstance(x, bool):
        raise DomainError("expected a real %s, got a boolean" % what)
    if isinstance(x, Fraction):  # always finite
        xm = mpmath.mpf(x.numerator) / x.denominator
    else:
        try:
            if isinstance(x, str) and match_number(x) is None:
                raise ValueError  # mpmath reads only text in the one number grammar
            xm = mpmath.mpf(x)
        except (TypeError, ValueError, ZeroDivisionError):
            raise DomainError("cannot interpret %s as a real %s" % (quoted(x), what))
        if not mpmath.mp.isfinite(xm):
            raise DomainError("%s must be a finite real, got %s" % (what, xm))
    if what == "exponent" and not isinstance(x, mpmath.mpf) and xm > _MAX_EXPONENT:
        raise ResourceCapError("exponent cap is %d, got %s" % (_MAX_EXPONENT, xm))
    return xm


def euler_gamma(ctx=DEFAULT_CONTEXT):
    """Euler-Mascheroni constant from the stored 30-digit reference."""
    from mpmath import mp, mpf

    with mp.workdps(ctx.working_digits):
        return +mpf(_EULER_GAMMA_30)


_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66))
_CUTOFF_CAP = 1 << 16

def _tail_correction(n0, z, prec):
    # Euler-Maclaurin value of sum_{k >= n0} k^(-z) through B_8, and the
    # magnitude of the first omitted (B_10) term, which bounds the remainder;
    # one power p = n0^(-z) and exact integer powers of n0 make every term.
    # It runs on raw values at prec bits, each operation of the mpf expression
    #   p = mpf(n0) ** -z;  total = p * n0 / (z - 1) + p / 2
    #   term_j = c_j * rising * p / n0 ** (2j - 1);  total += term_j
    #   rising *= (z + 2j - 1) * (z + 2j)
    # in its order and rounded once, so the bits are that expression's
    import mpmath

    libmp, mp = mpmath.libmp, mpmath.mp
    add, sub, mul, div = libmp.mpf_add, libmp.mpf_sub, libmp.mpf_mul, libmp.mpf_div
    from_int, fone = libmp.from_int, libmp.fone
    rnd = libmp.round_nearest
    zr = z._mpf_
    p = libmp.mpf_pow(from_int(n0, prec, rnd), libmp.mpf_neg(zr, prec, rnd), prec, rnd)
    total = add(div(libmp.mpf_mul_int(p, n0, prec, rnd), sub(zr, fone, prec, rnd), prec, rnd),
                div(p, libmp.ftwo, prec, rnd), prec, rnd)
    rising = zr  # rising factorial (z)_{2j-1}, extended two factors per step
    coefficients = _coefficients(prec)
    for j, c in enumerate(coefficients, start=1):
        term = div(mul(mul(c._mpf_, rising, prec, rnd), p, prec, rnd),
                   from_int(n0 ** (2 * j - 1)), prec, rnd)
        if j == len(coefficients):
            return mp.make_mpf(total), mp.make_mpf(libmp.mpf_abs(term))
        total = add(total, term, prec, rnd)
        even = add(zr, from_int(2 * j), prec, rnd)  # z + 2j, and z + 2j - 1 from it
        rising = mul(rising, mul(sub(even, fone, prec, rnd), even, prec, rnd), prec, rnd)


def _sieve(n, divisors):
    # a bytearray holding at each k < n the least of the divisors d that
    # divide k with d^2 <= k, and 0 where none does: each d marks its
    # multiples from d^2 with one slice, the largest d first, so the least
    # one is written last
    table = bytearray(n)
    for d in sorted(divisors, reverse=True):
        table[d * d::d] = bytes((d,)) * len(range(d * d, n, d))
    return table


# the least prime factor of every composite k < 2^16, which is one of the
# 54 primes below 256; 0 at 0, 1 and every prime
_LPF = _sieve(_CUTOFF_CAP, [p for p, d in enumerate(_sieve(256, range(2, 16)))
                            if p > 1 and not d])


# a logarithm is kept for each prime below _LOG_CUTOFF, at most as many as
# four precisions hold; the module docstring says why they are shared
_LOG_CUTOFF = 1 << 12
_PRECISIONS_KEPT = 4


@functools.lru_cache(maxsize=_PRECISIONS_KEPT)
def _coefficients(prec):
    # B_2j/(2j)! for each B_2j of _BERNOULLI, rounded to prec bits
    from mpmath import mp

    with mp.workprec(prec):
        return tuple(as_real(b) / math.factorial(2 * j)
                     for j, b in enumerate(_BERNOULLI, start=1))


@functools.lru_cache(maxsize=_PRECISIONS_KEPT * sum(not d for d in _LPF[2:_LOG_CUTOFF]))
def _log_prime(p, prec):
    # log p rounded to prec + 10 bits, the logarithm mpf_pow forms
    import mpmath

    libmp = mpmath.libmp
    return libmp.mpf_log(libmp.from_int(p), prec + 10, libmp.round_nearest)


def _prime_power(p, nz, prec):
    # raw p^(-z) for a prime p, nz the raw -z: the bits of
    # mpf_pow(from_int(p), nz, prec, round_nearest) (mpf.__pow__ gives the
    # same).  For an nz that is neither an integer nor a half-integer,
    # mpmath 1.3's mpf_pow forms exp(nz * log p) with log p at prec + 10
    # bits, and below _LOG_CUTOFF that logarithm is kept.  This copies
    # mpmath 1.3.x; test_a_prime_power_has_the_bits_of_mpf_pow checks that
    # the mpmath in use agrees.  The plain import costs a fifth of a
    # from-import
    import mpmath

    libmp = mpmath.libmp
    if nz[2] >= -1 or p >= _LOG_CUTOFF:
        return libmp.mpf_pow(libmp.from_int(p), nz, prec, libmp.round_nearest)
    return libmp.mpf_exp(libmp.mpf_mul(nz, _log_prime(p, prec)), prec, libmp.round_nearest)


def _wide(raw, width):
    # a raw positive mpf as the integer pair (m, e) of its value m 2^e, m of width bits
    _, m, e, bc = raw
    return m << width - bc, e + bc - width


def _wide_neg_power(k, memo, nz, prec):
    # k^(-z) for 1 <= k < 2^16, nz the raw -z, as an integer pair (m, e),
    # the value m 2^e with m of prec + 64 bits.  A prime's term is
    # _prime_power's value, exactly; a composite's is the product of the
    # terms of its least prime factor and of its cofactor, truncated to
    # prec + 64 bits, which moves it by less than 2^-(prec + 63) relative.
    # The loop walks the chain of cofactors down to a memo hit or a prime,
    # then multiplies the factors' terms back in.  memo, a list, keeps
    # every pair below its length
    width = prec + 64
    n = len(memo)
    v = memo[k] if k < n else None
    links = []
    while v is None:
        p = _LPF[k]
        if p:
            links.append((k, p))
            k //= p
            v = memo[k] if k < n else None
        else:
            v = (1 << width - 1, 1 - width) if k == 1 else _wide(_prime_power(k, nz, prec), width)
            if k < n:
                memo[k] = v
    for k, p in reversed(links):
        f = memo[p] if p < n else None
        if f is None:
            f = _wide(_prime_power(p, nz, prec), width)
            if p < n:
                memo[p] = f
        m = f[0] * v[0]
        cut = m.bit_length() - width
        v = (m >> cut, f[1] + v[1] + cut)
        if k < n:
            memo[k] = v
    return v


def _head(start, cutoff, z, prec):
    # the raw sum of k^(-z) over k in [start, cutoff), rounded to prec bits
    # once.  Every term has prec + 64 bits and none exceeds the first, so
    # each is added into one integer in units of the first term's last bit,
    # dropping only its bits below that unit.  The least prime factor and the
    # cofactor of a composite k are below cutoff/2, and only those are ever
    # reused, so the memo keeps k < cutoff/2 alone
    from mpmath.libmp import from_man_exp, fzero, mpf_neg, round_nearest

    if start >= cutoff:
        return fzero
    nz = mpf_neg(z._mpf_)
    memo = [None] * ((cutoff + 1) // 2)
    terms = (_wide_neg_power(k, memo, nz, prec) for k in range(start, cutoff))
    total, unit = next(terms)
    total += sum(m >> (unit - e) for m, e in terms)
    return from_man_exp(total, unit, prec, round_nearest)


def _series_from(starts, z, ctx):
    # the sums of k^(-z) over k >= start, one per start, to ctx.target_abs_tol
    # at the working precision, z an mpf: the pole check and the goal tol/8
    # are made once.  A sum is the head, added exactly and rounded once,
    # plus the corrected tail from the cutoff
    import mpmath

    libmp, mp = mpmath.libmp, mpmath.mp
    prec, rnd = mp.prec, libmp.round_nearest
    _check_exponent(z, prec)
    goal = as_real(ctx.target_abs_tol) / 8
    sums = []
    for start in starts:
        cutoff = max(64, start)
        tail, bound = _tail_correction(cutoff, z, prec)
        while bound > goal:
            cutoff *= 2
            if cutoff > _CUTOFF_CAP:
                raise DomainError("tolerance %g is unreachable with B_8 corrections at z = %s"
                                  % (ctx.target_abs_tol, z))
            tail, bound = _tail_correction(cutoff, z, prec)
        head = _head(start, cutoff, z, prec)
        sums.append(mp.make_mpf(libmp.mpf_add(head, tail._mpf_, prec, rnd)))
    return sums


@functools.lru_cache(maxsize=_PRECISIONS_KEPT)
def _pole_guard(prec):
    # 1 + 1e-9 rounded to prec bits: _check_exponent refuses every z at or below it
    from mpmath import mp, mpf

    with mp.workprec(prec):
        return 1 + mpf("1e-9")


def _check_exponent(zm, prec):
    if zm <= _pole_guard(prec):
        if zm <= 1:
            raise PoleProximityError(
                "z = %s is at or below 1, where the series diverges (need z > 1 + 1e-9)" % zm)
        raise PoleProximityError(
            "z = %s is at or inside the guard window around the pole at 1 "
            "(need z > 1 + 1e-9)" % zm
        )


def zeta(z, ctx=DEFAULT_CONTEXT):
    """Riemann zeta on the real ray z > 1 + 1e-9, within ctx.target_abs_tol."""
    return zeta_tail(1, z, ctx)


def zeta_tail(start, z, ctx=DEFAULT_CONTEXT):
    """Sum of k^(-z) over k >= start; same domain and accuracy as zeta."""
    from mpmath import mp

    int_at_least(start, "start")
    with mp.workdps(ctx.working_digits):
        (value,) = _series_from((start,), as_real(z, "exponent"), ctx)
        return +value


def tail_integral_approx(start, s, ctx=DEFAULT_CONTEXT):
    """Integral of x^(-2s) over [start, inf): start^(1-2s)/(2s-1)."""
    from mpmath import mp, mpf

    int_at_least(start, "start")
    with mp.workdps(ctx.working_digits):
        sm = as_real(s, "exponent")
        if not sm > mpf(1) / 2:
            raise DivergenceError("the tail integral diverges for s <= 1/2")
        return +(mpf(start) ** (1 - 2 * sm) / (2 * sm - 1))


def laurent_zeta_approx(delta, ctx=DEFAULT_CONTEXT):
    """Two-term pole expansion 1/(2 delta) + gamma, approximating zeta(1+2 delta)."""
    from mpmath import mp, mpf

    with mp.workdps(ctx.working_digits):
        d = as_real(delta, "delta")
        if not 0 < d <= mpf(1) / 2:
            raise DomainError("delta must lie in (0, 1/2], got %s" % d)
        return +(1 / (2 * d) + mpf(_EULER_GAMMA_30))
