"""High precision zeta values, tail sums, and pole-side approximations.

Every real is computed on a private mpmath context at the working_digits
of a PrecisionContext (50 to 1,000), which kept_context builds once and
never changes: as_real converts into it, the raw paths take its prec,
and as_mpf hands a result back as an mpmath.mpf with the same bits.
Nothing reads or sets mpmath's process-wide mp.prec, so no result
depends on other threads or on the caller's mpmath precision.  Each
function that computes a real imports mpmath itself, so importing the
package does not load it.  One Euler-Maclaurin routine, _series_from,
serves the full series and its tails, and every series is set up there
alone: the pole check and the goal tol/8, once for all its starts.  A
sum is the partial sum up to a cutoff N, then

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
import in about 0.4 ms (2-core Xeon VM).  _power_sum makes the memo, a
list that keeps the pairs below its length and is freed with the call:
a module-level function holds no reference to itself, so no cycle keeps
it.  It reads the memo before it calls the kernel, so a hit makes no
call.  For the head the memo is N/2 long, below which both factors of
every composite term lie, so a zeta value costs one power per prime
below the cutoff plus one per cutoff tried: 19 at N = 64, where one
power per term made 70.

The head is one exact sum, made by _power_sum, which makes the covering
sums of dimension too.  It adds the terms (q r)^(-z) of integer pairs
q <= r, the head's being (1, k), into one integer whose unit lies 64
bits below the ulp of the first term, the largest, and rounds the sum to
prec once.  Memo slot 1 holds the unit pair (1, 0), so the term of
(1, k) is the pair of k exactly; a pair with r >= 2^16 takes one direct
power of q r.  A term of k carries only its Omega(k) rounded powers,
each within u = 2^-prec relative, plus the error of mpmath's logarithm
at prec + 10 bits, z log k 2^-10 u in all (see below).  So the head is
within (W + 1) u relative, W the mean over its terms, weighted by their
values, of Omega(k) + z log k 2^-10: Omega(k) <= 15 below 2^16, and the
truncations add less than 2^-46 u.  An enclosure of the head must widen
it by that much.  The tail corrections run on raw values too: they do
each operation of the mpf expression they replaced, in its order,
rounded once to nearest at the working precision, so their bits are that
expression's.

A prime's power p^(-z) has the bits that mpf.__pow__ gives.  At an
exponent that is neither an integer nor a half-integer, mpmath 1.3
forms it as exp(-z log p), with log p rounded to 10 guard bits, and
_prime_power keeps that logarithm for each prime below 2^12: such a
prime costs one exponential per power and one logarithm per working
precision.  _coefficients keeps the raw B_2j/(2j)! of the corrections,
and _pole_guard the raw bound 1 + 1e-9 on z, the same way.  The four
functools.lru_cache tables are the one state of the module: the
contexts of eight digit counts (about 44 KB and 0.5 ms to build each),
the coefficients and guards of four precisions, and at most four times
the 564 logarithms of the primes below 2^12, about 700 bytes each with
the table's own entry at 50 digits.  Each value kept is the very value
the computation would round again, and a context is never changed, so
no bit of any result depends on what the tables hold, and every caller
in the process, in any thread, can share them.
The primes past 2^12, which only a head of a large cutoff or a covering
sum meets, take mpf_pow itself, so a call keeps at most the
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
# A real of the kept context is one computed inside, such as the 2s of a
# factor at s, and passes; a caller's mpmath.mpf is capped like its text
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


@functools.lru_cache(maxsize=8)
def kept_context(digits):
    """A private mpmath context at the given decimal digits, built once and never changed."""
    import mpmath

    mpc = mpmath.MPContext()
    mpc.dps = digits
    return mpc


def as_real(x, what, mpc):
    """Coerce int/float/Fraction/mpf or number text to a finite real of the kept context mpc.

    what names the value in a refusal; the exponent cap skips a real of mpc alone.
    """
    if isinstance(x, bool):
        raise DomainError("expected a real %s, got a boolean" % what)
    if isinstance(x, Fraction):  # always finite
        xm = mpc.mpf(x.numerator) / x.denominator
    else:
        try:
            if isinstance(x, str) and match_number(x) is None:
                raise ValueError  # mpmath reads only text in the one number grammar
            xm = mpc.mpf(x)
        except (TypeError, ValueError, ZeroDivisionError):
            raise DomainError("cannot interpret %s as a real %s" % (quoted(x), what))
        if not mpc.isfinite(xm):
            raise DomainError("%s must be a finite real, got %s" % (what, xm))
    if what == "exponent" and not isinstance(x, mpc.mpf) and xm > _MAX_EXPONENT:
        raise ResourceCapError("exponent cap is %d, got %s" % (_MAX_EXPONENT, xm))
    return xm


def as_mpf(x):
    """A real of a kept context as an mpmath.mpf with the same bits."""
    import mpmath

    return mpmath.mp.make_mpf(x._mpf_)


def euler_gamma(ctx=DEFAULT_CONTEXT):
    """Euler-Mascheroni constant from the stored 30-digit reference."""
    return as_mpf(kept_context(ctx.working_digits).mpf(_EULER_GAMMA_30))


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
    # in its order and rounded once, so the bits, both raw, are that expression's
    import mpmath

    libmp = mpmath.libmp
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
        term = div(mul(mul(c, rising, prec, rnd), p, prec, rnd),
                   from_int(n0 ** (2 * j - 1)), prec, rnd)
        if j == len(coefficients):
            return total, libmp.mpf_abs(term)
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
    # raw B_2j/(2j)! for each B_2j of _BERNOULLI, as the mpf expression
    # mpf(b.numerator) / b.denominator / (2j)! rounds it at prec bits
    from mpmath.libmp import from_int, mpf_div, round_nearest

    return tuple(mpf_div(mpf_div(from_int(b.numerator), from_int(b.denominator), prec,
                                 round_nearest),
                         from_int(math.factorial(2 * j)), prec, round_nearest)
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
    # every pair below its length; a caller reads memo[k] before calling
    width = prec + 64
    n = len(memo)
    v = None
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


def _power_sum(pairs, memo_len, z, prec):
    # the raw sum of (q r)^(-z) over the integer pairs (q, r), q <= r, whose
    # first term is the largest, rounded to prec bits once; the kernel keeps
    # the pairs below memo_len.  The module docstring says how it adds
    from mpmath.libmp import from_int, from_man_exp, mpf_neg, mpf_pow, round_nearest

    nz = mpf_neg(z._mpf_)
    memo = [None] * memo_len
    memo[1] = (1, 0)
    total, unit = 0, None
    for q, r in pairs:
        if r < _CUTOFF_CAP:
            tq = memo[q] if q < memo_len else None
            if tq is None:
                tq = _wide_neg_power(q, memo, nz, prec)
            tr = memo[r] if r < memo_len else None
            if tr is None:
                tr = _wide_neg_power(r, memo, nz, prec)
            m, e = tq[0] * tr[0], tq[1] + tr[1]
        else:
            _, m, e, _ = mpf_pow(from_int(q * r), nz, prec, round_nearest)
        if unit is None:
            unit = e + m.bit_length() - prec - 64
        total += m << (e - unit) if e >= unit else m >> (unit - e)
    return from_man_exp(total, unit, prec, round_nearest)


def _series_from(starts, z, ctx):
    # the sums of k^(-z) over k >= start, one per start, to ctx.target_abs_tol,
    # as reals of the context's kept context, z one of them: the pole check
    # and the goal tol/8 are made once.  A sum is the head, added exactly
    # and rounded once, plus the corrected tail from the cutoff
    import mpmath

    libmp = mpmath.libmp
    mpc = kept_context(ctx.working_digits)
    prec, rnd = mpc.prec, libmp.round_nearest
    _check_exponent(z, prec)
    goal = (as_real(ctx.target_abs_tol, "tolerance", mpc) / 8)._mpf_
    sums = []
    for start in starts:
        cutoff = max(64, start)
        tail, bound = _tail_correction(cutoff, z, prec)
        while libmp.mpf_gt(bound, goal):
            cutoff *= 2
            if cutoff > _CUTOFF_CAP:
                raise DomainError("tolerance %g is unreachable with B_8 corrections at z = %s"
                                  % (ctx.target_abs_tol, z))
            tail, bound = _tail_correction(cutoff, z, prec)
        head = libmp.fzero
        if start < cutoff:
            # the least prime factor and the cofactor of a composite k are
            # below cutoff/2, and only those are ever reused
            head = _power_sum(((1, k) for k in range(start, cutoff)), (cutoff + 1) // 2, z, prec)
        sums.append(mpc.make_mpf(libmp.mpf_add(head, tail, prec, rnd)))
    return sums


@functools.lru_cache(maxsize=_PRECISIONS_KEPT)
def _pole_guard(prec):
    # raw 1 + 1e-9 as 1 + mpf("1e-9") rounds it at prec bits: _check_exponent
    # refuses every z at or below it
    from mpmath.libmp import fone, from_str, mpf_add, round_nearest

    return mpf_add(fone, from_str("1e-9", prec, round_nearest), prec, round_nearest)


def _check_exponent(zm, prec):
    from mpmath.libmp import fone, mpf_le

    if mpf_le(zm._mpf_, _pole_guard(prec)):
        if mpf_le(zm._mpf_, fone):
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
    int_at_least(start, "start")
    zm = as_real(z, "exponent", kept_context(ctx.working_digits))
    (value,) = _series_from((start,), zm, ctx)
    return as_mpf(value)


def tail_integral_approx(start, s, ctx=DEFAULT_CONTEXT):
    """Integral of x^(-2s) over [start, inf): start^(1-2s)/(2s-1)."""
    int_at_least(start, "start")
    mpc = kept_context(ctx.working_digits)
    sm = as_real(s, "exponent", mpc)
    if not sm > mpc.mpf(1) / 2:
        raise DivergenceError("the tail integral diverges for s <= 1/2")
    return as_mpf(mpc.mpf(start) ** (1 - 2 * sm) / (2 * sm - 1))


def laurent_zeta_approx(delta, ctx=DEFAULT_CONTEXT):
    """Two-term pole expansion 1/(2 delta) + gamma, approximating zeta(1+2 delta)."""
    mpc = kept_context(ctx.working_digits)
    d = as_real(delta, "delta", mpc)
    if not 0 < d <= mpc.mpf(1) / 2:
        raise DomainError("delta must lie in (0, 1/2], got %s" % d)
    return as_mpf(1 / (2 * d) + mpc.mpf(_EULER_GAMMA_30))
