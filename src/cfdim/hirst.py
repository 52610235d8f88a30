"""Dimension values for digit-restricted sets and the covering condition behind them.

For an infinite digit set D the dimension along a sparse constrained
sequence is tau(D)/2, with tau the convergence exponent of D.  The
upper-bound half rests on a covering condition: with z = tau(1+eps) and
e = 1/(upper density - eps) - 1,

    (sum_{a in D} a^-z)^e * (sum_{a in D, a >= M} a^-z) <= 1

must hold at the chosen floor M.  The sums are evaluated analytically
(zeta and geometric closed forms; direct sums for finite lists), never
by adding terms up to M, because the interesting M sit near 10^12.
They read tau(D) and the members of D, not its rule: an infinite D is
a power run or a geometric run, as sequences states.
"""

from fractions import Fraction
from typing import NamedTuple

from . import cfcore
from .errors import DivergenceError, DomainError, exact_positive_fraction, int_at_least, is_int
from .sequences import tau
from .special import DEFAULT_CONTEXT, as_real, zeta_tail

__all__ = [
    "M0Condition",
    "FloorEstimate",
    "DichotomyResult",
    "digit_power_sum",
    "digit_tail_power_sum",
    "hirst_dimension",
    "covering_condition",
    "estimate_condition_floor",
    "covering_product_bound",
    "dimension_dichotomy",
]

_FLOOR_CAP = 10 ** 18


def digit_power_sum(digits, z, ctx=DEFAULT_CONTEXT):
    """sum over a in D of a^-z, by closed form; raises when it diverges."""
    return digit_tail_power_sum(digits, 1, z, ctx)


def digit_tail_power_sum(digits, floor_m, z, ctx=DEFAULT_CONTEXT):
    """sum over a in D with a >= floor_m of a^-z, by closed form."""
    from mpmath import mp

    t = tau(digits).value
    int_at_least(floor_m, "floor")
    with mp.workdps(ctx.working_digits):
        zm = as_real(z, "exponent")
        if digits.is_finite:
            return +mp.fsum(mp.power(a, -zm) for a in digits.members() if a >= floor_m)
        # tau is 1/q on a power run and 0/1 on a geometric one, so z > tau
        # reads q z > 1 or z > 0, and q z is z/tau on a power run
        qz = zm * t.denominator
        if not qz > t.numerator:
            raise DivergenceError("the digit tail diverges for z <= tau = %s" % t)
        j0 = digits.first_at_least(floor_m)  # the tail is k_j0, k_(j0+1), ...
        b = digits.nth(1)
        if t:  # k_j^-z = (j + k_1 - 1)^(-z/tau)
            return zeta_tail(j0 + b - 1, qz, ctx)
        # k_j^-z = (k_1^-z)^j
        return +(mp.power(b, -j0 * zm) / (1 - mp.power(b, -zm)))


def hirst_dimension(digits):
    """tau(D)/2, the dimension of the set with digits from D at sparse positions, as a TauResult."""
    t = tau(digits)
    return t._replace(value=t.value / 2)


def _analytic_pieces(digits, seq, eps):
    """Shared preconditions: returns (tau, z, exponent e) as exact Fractions."""
    t = tau(digits).value
    eps = exact_positive_fraction(eps, "eps")
    # every rule sequence has a density, which is then its upper density
    dbar = seq.exact_density
    if dbar is None:
        raise DomainError(
            "the sequence %s has no analytic upper density; the condition's "
            "exponent cannot be certified" % seq.spec_string()
        )
    if dbar == 0:
        raise DomainError(
            "the condition needs a sequence of positive upper density; "
            "%s has density 0" % seq.spec_string()
        )
    if not eps < dbar:
        raise DomainError(
            "eps must lie strictly below the upper density %s, got %s" % (dbar, eps)
        )
    if t == 0 and not digits.is_finite:
        raise DivergenceError(
            "tau = 0 on an infinite digit set makes the full sum diverge"
        )
    return t, t * (1 + eps), 1 / (dbar - eps) - 1


class M0Condition(NamedTuple):
    lhs: object  # mpf
    ok: bool


def _condition_at(digits, full, z, e, m_floor, ctx):
    """full^e * (tail sum at m_floor) against 1, at the context's working digits."""
    from mpmath import mp

    with mp.workdps(ctx.working_digits):
        lhs = +(mp.power(full, as_real(e)) * digit_tail_power_sum(digits, m_floor, z, ctx))
        return M0Condition(lhs, bool(lhs <= 1))


def covering_condition(digits, seq, eps, m_floor, ctx=DEFAULT_CONTEXT):
    """Evaluate (full sum)^e * (tail sum at m_floor) and compare with 1."""
    int_at_least(m_floor, "the digit floor")
    _, z, e = _analytic_pieces(digits, seq, eps)
    return _condition_at(digits, digit_power_sum(digits, z, ctx), z, e, m_floor, ctx)


class FloorEstimate(NamedTuple):
    value: object  # int, or None when the estimate leaves the integer range
    lhs: object
    ok: bool
    exceeded: bool


def estimate_condition_floor(digits, seq, eps, ctx=DEFAULT_CONTEXT):
    """Invert the tail's integral form to estimate the least workable floor.

    The closed-form inversion is bumped by a hair (the integral form
    slightly undershoots the true tail), verified by the covering
    condition, and doubled until the condition holds.  Floors beyond
    10^18 are reported as exceeded rather than returned.
    """
    from mpmath import mp, mpf

    t, z, e = _analytic_pieces(digits, seq, eps)
    with mp.workdps(ctx.working_digits):
        full = digit_power_sum(digits, z, ctx)
        thr = mp.power(full, -as_real(e))
        if digits.is_finite:
            # z = 0, so each of the n digits adds 1 to a tail and
            # thr = n^(-e) <= 1.  Only the empty tail fits, or the whole set
            # when n = 1 and thr = 1
            values = tuple(digits.members())
            est = mpf(values[0] if len(values) == 1 else values[-1] + 1)
        else:
            # a power run, tau = 1/q (_analytic_pieces refused tau = 0): the tail
            # from k_j = r^q is about r^(1-w)/(w - 1), w = q z, which is thr at an
            # r > 1, as w = 1 + eps < 2 and thr <= 1; so k_1 = 1 changes nothing
            w1 = as_real(z) * t.denominator - 1
            r = mp.power(w1 * thr, -1 / w1)
            est = max(r ** t.denominator, mpf(digits.nth(1)))
        if est > _FLOOR_CAP:
            return FloorEstimate(None, None, False, True)
        m = max(1, int(mp.ceil(est * (1 + mpf("1e-9")))))
        while True:
            res = _condition_at(digits, full, z, e, m, ctx)
            if res.ok:
                return FloorEstimate(m, res.lhs, True, False)
            if m > _FLOOR_CAP // 2:
                return FloorEstimate(None, res.lhs, False, True)
            m *= 2


def covering_product_bound(digits, seq, m_floor, s, level_base, level, prefix,
                           ctx=DEFAULT_CONTEXT):
    """Product bound on the covering sum between two constrained levels.

    With k_N and k_n the positions of constrained digits number
    level_base and level, the words in between have (k_n - k_N) - (n - N)
    free positions (each contributing the full digit sum at exponent 2s)
    and n - N constrained ones (each contributing the tail sum at the
    floor).  The prefix must reach exactly to position k_N with digits
    from D; its own weight multiplies the product.
    """
    from mpmath import mp, mpf

    t = tau(digits).value
    int_at_least(m_floor, "the digit floor")
    int_at_least(level_base, "the base level", 0)
    if not is_int(level) or level <= level_base:
        raise DomainError("the target level must exceed the base level %d, got %r"
                          % (level_base, level))
    word = cfcore.PartialQuotients(prefix)
    k_base = seq.nth(level_base) if level_base >= 1 else 0
    k_top = seq.nth(level)
    if len(word) != k_base:
        raise DomainError(
            "prefix must have length %d (position of constrained digit %d), got %d"
            % (k_base, level_base, len(word))
        )
    for a in word:
        if a not in digits:
            raise DomainError("prefix digit %d is outside the digit set" % a)
    with mp.workdps(ctx.working_digits):
        sm = as_real(s, "exponent")
        half_tau = as_real(t / 2)
        if not sm > half_tau:
            raise DivergenceError(
                "the level sums diverge for s <= tau/2 = %s" % mp.nstr(half_tau, 8)
            )
        z = 2 * sm
        full = digit_power_sum(digits, z, ctx)
        tail = digit_tail_power_sum(digits, m_floor, z, ctx)
        free_exp = (k_top - k_base) - (level - level_base)
        head = mpf(1)
        for a in word:
            head *= mp.power(a, -z)
        return +(head * mp.power(full, free_exp) * mp.power(tail, level - level_base))


class DichotomyResult(NamedTuple):
    dim: Fraction
    branch: str


def dimension_dichotomy(seq):
    """1/2 when the constrained positions have positive upper density, 1 at density 0."""
    dbar = seq.exact_density
    if dbar is None:
        raise DomainError(
            "no analytic density certificate for %s; the dichotomy needs one"
            % seq.spec_string()
        )
    if dbar > 0:
        return DichotomyResult(Fraction(1, 2), "positive-upper-density")
    return DichotomyResult(Fraction(1), "zero-upper-density")
