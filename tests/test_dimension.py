"""Level intervals, the critical equation, covering sums, reference windows."""

import math
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cfdim import (
    DivergenceError,
    DomainError,
    PrecisionContext,
    ResourceCapError,
    asymptotic_exponent,
    covering_sum_enumerated,
    critical_exponent,
    evaluate,
    j_interval_length,
    per_level_factor,
    recursion_factor,
    reference_bounds,
    zeta,
    zeta_tail,
)
from cfdim.special import as_real


def test_j_interval_is_gap_to_floor_extension():
    # J(w, M) telescopes: its length is |value(w + [M]) - value(w)|
    assert j_interval_length((1,), 2) == Fraction(1, 3)
    assert j_interval_length((2,), 3) == abs(Fraction(3, 7) - Fraction(1, 2))
    with pytest.raises(DomainError):
        j_interval_length((1, 2), 2)  # even length
    with pytest.raises(DomainError):
        j_interval_length((1,), 0)


@pytest.mark.xfail(
    strict=True,
    reason="documented value J([1], 2) = 1/6 contradicts the defining "
    "telescope |[0;1,2] - [0;1]| = |2/3 - 1| = 1/3",
)
def test_j_interval_documented_example_literal():
    assert j_interval_length((1,), 2) == Fraction(1, 6)


def test_j_interval_equals_union_of_cylinders():
    from cfdim import cylinder

    for w in ((1,), (3,), (2, 1, 4)):
        for m_floor in (2, 3, 5):
            direct = j_interval_length(w, m_floor)
            # partial unions converge to the J length from below
            partial = sum(
                (cylinder(tuple(w) + (b,)).length for b in range(m_floor, 300)),
                Fraction(0),
            )
            assert partial < direct
            assert direct - partial < Fraction(1, 100)


def test_recursion_factor_chain_inequality_sampled():
    for m_floor in (2, 3):
        for w in product(range(1, 4), repeat=3):
            base = j_interval_length(w, m_floor)
            for a in range(1, 4):
                for b in range(m_floor, m_floor + 3):
                    ext = j_interval_length(tuple(w) + (a, b), m_floor)
                    assert ext <= recursion_factor(a, b, m_floor) * base


def test_recursion_factor_validation():
    assert recursion_factor(2, 3, 3) == Fraction(4, 3 * 4 * 9)
    with pytest.raises(DomainError):
        recursion_factor(2, 2, 3)  # even digit below the floor
    with pytest.raises(DomainError):
        recursion_factor(0, 3, 2)


def test_per_level_factor_decreases_in_s_and_M():
    with mp.workdps(40):
        grid = [per_level_factor(5, s) for s in ("0.6", "0.7", "0.8", "1", "1.5")]
        assert all(a > b for a, b in zip(grid, grid[1:]))
        by_m = [per_level_factor(m, "0.8") for m in (2, 3, 5, 10, 100)]
        assert all(a > b for a, b in zip(by_m, by_m[1:]))
    with pytest.raises(DivergenceError):
        per_level_factor(5, "0.5")
    with pytest.raises(DomainError):
        per_level_factor(1, "0.8")


@settings(max_examples=30)
@given(st.one_of(st.integers(2, 70), st.integers(2, 10 ** 7)), st.floats(0.5 + 1e-6, 3),
       st.sampled_from([50, 100]))
def test_per_level_factor_is_the_product_of_the_public_series(m_floor, s, dps):
    # the factor calls the series directly; below M = 64 its tail has a head
    ctx = PrecisionContext(working_digits=dps)
    with mp.workdps(dps):
        sm = mpf(s)
        base = (1 + mpf(1) / m_floor) ** sm
        want = +(base * zeta(2 * sm, ctx) * zeta_tail(m_floor, 2 * sm, ctx))
    assert per_level_factor(m_floor, s, ctx)._mpf_ == want._mpf_


def test_critical_exponent_solves_factor_equals_one():
    with mp.workdps(40):
        for m_floor in (2, 10, 1000):
            res = critical_exponent(m_floor)
            assert res.converged
            assert abs(per_level_factor(m_floor, res.s_star) - 1) <= mpf("1e-12")
            assert res.bracket[0] <= res.s_star <= res.bracket[1]


def test_critical_exponent_no_root_reports_instead_of_raising():
    res = critical_exponent(2, s_max="0.55")
    assert not res.converged
    assert res.s_star is None
    assert "no root" in res.message
    assert "no root" in critical_exponent(2, s_max="0.51").message
    assert critical_exponent(2, s_max=8).converged
    with pytest.raises(DomainError):
        critical_exponent(2, s_max=9)
    with pytest.raises(DomainError):
        critical_exponent(2, tol=0)


@settings(max_examples=25)
@given(st.floats(min_value=math.log10(2), max_value=12), st.sampled_from([50, 100]))
def test_critical_exponent_matches_mpmath_oracle(log_m, dps):
    # M log-uniform in [2, 10^12]; the oracle is mpmath's own Hurwitz zeta
    m_floor = max(2, round(10 ** log_m))
    ctx = PrecisionContext(working_digits=dps)
    res = critical_exponent(m_floor, ctx=ctx)
    assert res.converged
    lo, hi = res.bracket
    assert lo <= res.s_star <= hi
    assert per_level_factor(m_floor, lo, ctx) > 1 > per_level_factor(m_floor, hi, ctx)
    with mp.workdps(dps + 10):
        s = res.s_star
        oracle = (1 + mpf(1) / m_floor) ** s * mp.zeta(2 * s) * mp.zeta(2 * s, m_floor)
        assert abs(oracle - 1) <= mpf("1e-12")


@pytest.mark.parametrize("dps", [50, 100])
def test_critical_exponent_needs_few_factor_evaluations(monkeypatch, dps):
    # endpoints included; plain bisection needs 43-48 here
    import cfdim.dimension as dimension

    real = dimension.per_level_factor
    calls = []
    monkeypatch.setattr(
        dimension, "per_level_factor", lambda *a: calls.append(a) or real(*a)
    )
    ctx = PrecisionContext(working_digits=dps)
    for m_floor in (2, 3, 10, 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12):
        calls.clear()
        assert critical_exponent(m_floor, ctx=ctx).converged
        assert len(calls) <= 12, (m_floor, len(calls))


def test_critical_exponent_step_limit_keeps_an_open_bracket(monkeypatch):
    # the solve at M = 1000 takes more than three steps
    monkeypatch.setattr("cfdim.dimension._STEP_LIMIT", 3)
    res = critical_exponent(1000)
    assert not res.converged and res.s_star is None
    assert res.iterations == 3 and "within 3 steps" in res.message
    lo, hi = res.bracket
    assert lo < hi


@pytest.mark.parametrize("m_floor", [2, 10, 1000, 10 ** 6])
def test_minus_log_factor_is_concave_in_s(m_floor):
    # log zeta(2s) and log zeta(2s, M) are logs of sums of exponentials in
    # s, so g = -log factor is concave; its second differences at step 1/20
    # lie far below the 1e-12 accuracy of a factor
    with mp.workdps(50):
        g = [-mp.log(per_level_factor(m_floor, Fraction(k, 20))) for k in range(11, 81)]
        second = [a - 2 * b + c for a, b, c in zip(g, g[1:], g[2:])]
    assert max(second) < -1e-6


@pytest.mark.parametrize("ctx", [PrecisionContext(), PrecisionContext(1e-25, 100)],
                         ids=["50 digits", "100 digits"])
def test_the_solver_never_replaces_lo_twice_in_a_row(monkeypatch, ctx):
    # g is concave, so a chord through two true values of g has its zero at
    # or right of the root: only a chord through a damped g_lo replaces lo,
    # and the damping of g_lo after two hi steps in a row is the one needed
    import cfdim.dimension as dimension

    real = dimension.per_level_factor
    verdicts = []  # factor > 1 at each call, where a step replaces lo

    def recorded(*args):
        value = real(*args)
        verdicts.append(value > 1)
        return value

    monkeypatch.setattr(dimension, "per_level_factor", recorded)
    pairs = []
    for m_floor in (2, 10, 1000, 10 ** 6, 10 ** 12, 10 ** 40):
        verdicts.clear()
        assert critical_exponent(m_floor, ctx.target_abs_tol, ctx=ctx).converged
        steps = verdicts[2:-1]  # past the two ends; the converged step replaces nothing
        pairs += zip(steps, steps[1:])
    assert (True, True) not in pairs
    assert (False, False) in pairs


def test_a_tol_below_the_context_tolerance_is_refused():
    # the factor is computed to ctx.target_abs_tol, so a residual below it
    # says nothing: at tol 1e-30 the 50-digit solve at M = 2 reported
    # 5.6e-39, where the 80-digit |factor - 1| is 1.6e-21
    with pytest.raises(DomainError, match="^tol 1e-30 is below ctx.target_abs_tol 1e-12, "):
        critical_exponent(2, tol=1e-30)
    assert critical_exponent(2, tol=1e-30, ctx=PrecisionContext(1e-30)).converged
    # the comparison is exact: 10^-12 lies above the float 1e-12, and a
    # value a hair below that float is refused, as a Fraction and as an mpf
    assert Fraction(1, 10 ** 12) > Fraction(1e-12)
    assert critical_exponent(1000, tol=Fraction(1, 10 ** 12)).converged
    below = Fraction(1e-12) - Fraction(1, 10 ** 40)
    with mp.workdps(50):
        below_mpf = mpf(1e-12) - mpf("1e-40")
    for tol in (below, below_mpf):
        with pytest.raises(DomainError, match="^tol .* is below ctx.target_abs_tol 1e-12, "):
            critical_exponent(1000, tol=tol)


@pytest.mark.parametrize("m_floor, s_raw", [
    (12, (0, 0xcb3f5e13c391f7ea2ccef23d04e0c6918f4710616f93c76039350c15afd5a34b226eda7e7c3f0643a251,
          -336, 336)),
    (2612212,
     (0, 0x9b9d57843bbdd8f0a5da5a97a2c1d4b00a2090e087c8e5334a4acf2f4692a76f1a46610eec8c40f7507d,
      -336, 336)),
])
def test_critical_exponent_keeps_its_bits_at_a_small_and_a_large_floor(m_floor, s_raw):
    # 100-digit roots with a head in the tail series (M < 64) and without
    res = critical_exponent(m_floor, ctx=PrecisionContext(working_digits=100))
    assert res.s_star._mpf_ == s_raw


def test_asymptotic_exponent_values():
    with mp.workdps(30):
        a = asymptotic_exponent(1000)
        expect = 0.5 + (mp.log(mp.log(1000)) - mp.log(2)) / mp.log(1000)
        assert abs(a - expect) < mpf("1e-25")
    with pytest.raises(DomainError):
        asymptotic_exponent(2)


def test_covering_sum_disjointness_bound_at_s_one():
    # level intervals with distinct digit words are disjoint inside (0,1)
    with mp.workdps(30):
        for cap in (5, 12, 30):
            total = covering_sum_enumerated(2, 1, 1, cap)
            assert total < 1
    # and grow monotonically with the digit cap
    with mp.workdps(30):
        sums = [covering_sum_enumerated(2, 1, 1, cap) for cap in (5, 12, 30)]
        assert sums[0] < sums[1] < sums[2]


def _cover_words(m_floor, levels, cap):
    # the capped words in lex order: odd positions from 1, even ones from M
    return product(*[range(m_floor, cap + 1) if pos % 2 else range(1, cap + 1)
                     for pos in range(2 * levels - 1)])


def _telescoped_cover_sum(m_floor, s, levels, cap):
    # reference: each |J(w)| as |value(w + [M]) - value(w)|, words in lex
    # order, and one direct power per word
    sm = mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else mpf(s)
    total = mpf(0)
    for w in _cover_words(m_floor, levels, cap):
        ln = abs(evaluate(w + (m_floor,)) - evaluate(w))
        total += (mpf(ln.numerator) / ln.denominator) ** sm
    return +total


def _assert_cover_sum_matches_reference(m_floor, s, levels, cap):
    # a kernel term carries at most Omega(q r) <= 30 rounded powers, so a
    # sum of positive terms stays within 1e-45 relative at 50 digits, at
    # an integer s as at any other
    with mp.workdps(50):
        expect = _telescoped_cover_sum(m_floor, s, levels, cap)
        got = covering_sum_enumerated(m_floor, s, levels, cap)
        assert abs(got - expect) <= mpf("1e-45") * expect, (m_floor, s, levels, cap)


def test_covering_sum_matches_direct_enumeration():
    cases = [
        (3, "0.8", 2, 6),
        (2, "0.7", 1, 9),  # a single level
        (2, "0.9", 3, 4),  # three levels
        (3, 2, 2, 5),  # integer exponent
        (2, 1, 2, 6),  # s = 1: every term is a product of prime powers
        (5, "0.65", 2, 5),  # cap equal to the floor
        (4, "0.85", 3, 8),  # 231 of the words have M q + q' >= 2^16
    ]
    for case in cases:
        _assert_cover_sum_matches_reference(*case)


_EXPONENTS = st.one_of(
    st.sampled_from([1, 2]),
    st.integers(1, 40).flatmap(
        lambda q: st.integers(q // 2 + 1, 2 * q).map(lambda p: Fraction(p, q))),
)


@settings(max_examples=30)
@given(st.integers(2, 6), _EXPONENTS, st.sampled_from([1, 2]), st.integers(0, 8))
def test_covering_sum_matches_direct_powers_on_small_grids(m_floor, s, levels, extra):
    # M in [2, 6], s rational in (1/2, 2], cap in [M, min(M + 8, 10)]
    _assert_cover_sum_matches_reference(m_floor, s, levels, min(m_floor + extra, 10))


def _big_omega(k):
    # prime factors of k counted with multiplicity
    n, d = 0, 2
    while d * d <= k:
        while k % d == 0:
            k //= d
            n += 1
        d += 1
    return n + (k > 1)


def _rounding_budget(m_floor, s, levels, cap):
    # the budget of covering_sum_enumerated's docstring in units of 2^-prec
    # relative: per term Omega(q r) rounded powers below r = 2^16 and one
    # direct power past it, plus mpmath's logarithm, s log(q r) 2^-10 in
    # all, averaged with the terms (q r)^(-s) as weights; then the final
    # rounding
    total = weighted = 0.0
    for w in _cover_words(m_floor, levels, cap):
        q, r = evaluate(w).denominator, evaluate(w + (m_floor,)).denominator
        term = float(q * r) ** -float(s)
        powers = _big_omega(q) + _big_omega(r) if r < 1 << 16 else 1
        total += term
        weighted += term * (powers + float(s) * math.log(q * r) / 1024)
    return weighted / total + 1


def _caps_within(m_floor, levels, words):
    # the caps from the floor to 10 whose grids have at most this many words
    return [cap for cap in range(m_floor, 11)
            if cap ** levels * (cap - m_floor + 1) ** (levels - 1) <= words]


_BUDGET_EXPONENTS = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.integers(2, 40).flatmap(
        lambda q: st.integers(1, 3 * q).filter(lambda p: p % q).map(lambda p: Fraction(p, q))),
)


@settings(max_examples=40)
@given(st.integers(1, 6), st.sampled_from([1, 2, 3]), st.integers(0, 9), _BUDGET_EXPONENTS)
def test_a_covering_sum_is_within_its_error_budget(m_floor, levels, pick, s):
    # the reference sums exact J-lengths at 90 digits, at the same 50-digit s
    caps = _caps_within(m_floor, levels, 1000)
    cap = caps[pick % len(caps)]
    got = covering_sum_enumerated(m_floor, s, levels, cap)
    with mp.workdps(50):
        sm, prec = as_real(s), mp.prec
    with mp.workdps(90):
        ref = _telescoped_cover_sum(m_floor, sm, levels, cap)
        units = abs(got - ref) / ref * mpf(2) ** prec
    assert units <= _rounding_budget(m_floor, s, levels, cap), (units, cap)


@pytest.mark.parametrize("m_floor, s, levels, cap, raw", [
    (3, 1, 2, 10, (0, 0xe244bd12a6231564f0f9a7a96621309e68cae1458f, -171, 168)),
    (2, 2, 1, 30, (0, 0x1ffa284342f9f0c3b04743b4e224ffbb36d5fd7f2cd, -172, 169)),
    (2, Fraction(7, 10), 1, 30, (0, 0x52fe1a43a7a87d2d9ad255cbbbb567b92e98188ebb, -166, 167)),
    (6, Fraction(23, 26), 2, 24,
     (0, 0xf1a2794d5138185fbd33c07970d1331dcd7dab38b1, -171, 168)),
    (4, Fraction(17, 20), 3, 8, (0, 0x18d853859ae2e40171190d0167c64a948c15aed2a99, -173, 169)),
    (3, Fraction(5, 8), 3, 5, (0, 0x112ff278546b8130493e909aafbf64241b9234324cb, -169, 169)),
    (2, 1, 3, 5, (0, 0xb52552f72399750d0719e2b3c0bba5cc3f1e90ba03, -172, 168)),
    (3, 2, 2, 10, (0, 0x13bc7d4d41ef2ae8297885bee8965d606031c8affe1, -180, 169)),
], ids=["s1-level2", "s2-level1", "level1", "largest-cover-op-seed-1", "r-past-2^16", "level3",
        "s1-level3", "s2-level2"])
def test_covering_sum_keeps_its_bits(m_floor, s, levels, cap, raw):
    # the raw mpf of the sum at 50 digits: a change to the kernel or the
    # walk that rounds nothing anew keeps every bit.  The largest op
    # of the benchmark's cover round at seed 1, (6, 23/26, 2, 24), and
    # (4, 17/20, 3, 8) reach M q + q' >= 2^16.  An integer s takes the same
    # walk as any other, its prime powers mpf_pow's integer powers
    assert covering_sum_enumerated(m_floor, s, levels, cap)._mpf_ == raw


def test_covering_sum_at_a_huge_integer_exponent_is_quick():
    # one rounded integer power per prime met; an exact (q r)^s would not
    # finish
    start = time.perf_counter()
    total = covering_sum_enumerated(2, 10 ** 5, 2, 6)
    assert time.perf_counter() - start < 1
    assert 0 < total < mpf(3) ** -100000


def test_covering_sum_caps():
    with pytest.raises(ResourceCapError):
        covering_sum_enumerated(2, 1, 4, 5)
    with pytest.raises(ResourceCapError):
        covering_sum_enumerated(2, 1, 2, 51)
    with pytest.raises(DomainError):
        covering_sum_enumerated(3, 1, 2, 2)  # cap below the floor


def test_reference_bounds_shape():
    b = reference_bounds(1000)
    assert b.jarnik_lo < b.jarnik_hi
    assert b.kurzweil_lo < b.kurzweil_hi
    assert b.applicable == {"jarnik": True, "kurzweil": True, "good": True}
    assert b.good_f_lo < b.good_f_hi
    small = reference_bounds(2)
    assert small.good_f_hi is None
    assert small.applicable == {"jarnik": False, "kurzweil": False, "good": False}
    with pytest.raises(DomainError):
        reference_bounds(1)


def test_reference_asymptotic_tracks_critical_exponent():
    # the large-M surrogate lands within a tightening band of the solver
    with mp.workdps(30):
        gaps = []
        for m_floor in (100, 10000, 1000000):
            res = critical_exponent(m_floor)
            gaps.append(abs(res.s_star - reference_bounds(m_floor).jk_asymptotic))
        assert gaps[-1] < mpf("0.06")
