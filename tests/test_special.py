"""Zeta values, tails, and pole-side approximations."""

import gc
import math
import random
import time
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_int, mpf_neg, mpf_pow, round_nearest

from cfdim import (
    DivergenceError,
    DomainError,
    PoleProximityError,
    PrecisionContext,
    ResourceCapError,
    euler_gamma,
    laurent_zeta_approx,
    special,
    tail_integral_approx,
    zeta,
    zeta_tail,
)
from cfdim.dimension import covering_sum_enumerated, critical_exponent, per_level_factor
from cfdim.hirst import covering_product_bound
from cfdim.sequences import parse_digit_set, parse_index_sequence
from cfdim.special import (
    _LPF, _head, _prime_power, _tail_correction, _wide_neg_power, as_real,
)

TIGHT = PrecisionContext(target_abs_tol=1e-20, working_digits=60)


def test_zeta_spot_values():
    with mp.workdps(50):
        assert abs(zeta(2) - mp.pi ** 2 / 6) < mpf("1e-12")
        assert abs(zeta(4) - mp.pi ** 4 / 90) < mpf("1e-12")


def test_zeta_matches_mpmath_on_a_grid():
    with mp.workdps(50):
        for z in ("1.1", "1.2", "1.5", "2", "3.7", "7", "12"):
            ours = zeta(z, TIGHT)
            ref = mpmath.zeta(mpf(z))
            assert abs(ours - ref) < mpf("1e-18"), z


def test_zeta_tail_complements_partial_sum():
    with mp.workdps(50):
        for start in (2, 5, 17, 64, 100):
            for z in ("1.2", "2", "3"):
                head = mp.fsum(mpf(k) ** (-mpf(z)) for k in range(1, start))
                assert abs(zeta(z, TIGHT) - head - zeta_tail(start, z, TIGHT)) < mpf("1e-18")


def test_zeta_tail_direct_sum_agreement():
    with mp.workdps(50):
        ref = mp.zeta(mpf("2.4")) - mp.fsum(mpf(k) ** mpf("-2.4") for k in range(1, 10))
        assert abs(zeta_tail(10, "2.4") - ref) < mpf("1e-12")


def test_pole_guard_and_divergence():
    with pytest.raises(PoleProximityError):
        zeta("1.0000000001")
    with pytest.raises(PoleProximityError):
        zeta_tail(5, 1)
    with pytest.raises(PoleProximityError):
        zeta("0.5")
    with pytest.raises(DivergenceError):
        tail_integral_approx(5, "0.5")
    with pytest.raises(DomainError):
        zeta_tail(0, 2)


def test_tail_sandwich_on_grid():
    # integral <= tail <= first term + integral, for z = 2s
    with mp.workdps(50):
        for start in (1, 2, 5, 10, 64, 100, 1000):
            for s in ("0.51", "0.6", "0.75", "1", "1.5", "2", "4"):
                z = 2 * mpf(s)
                lo = tail_integral_approx(start, s)
                tail = zeta_tail(start, mp.nstr(z, 20))
                hi = mpf(start) ** (-z) + lo
                assert lo <= tail <= hi, (start, s)


def test_euler_gamma_reference():
    with mp.workdps(40):
        assert abs(euler_gamma() - mp.euler) < mpf("1e-29")


@pytest.mark.xfail(
    strict=True,
    reason="the two-term Laurent error is ~0.1456*delta (twice the first "
    "Stieltjes constant), above the documented 0.1*delta",
)
def test_laurent_error_within_tenth_delta_literal():
    with mp.workdps(50):
        for d in ("1e-4", "1e-3", "1e-2", "1e-1"):
            delta = mpf(d)
            err = abs(zeta(1 + 2 * delta, TIGHT) - laurent_zeta_approx(d, TIGHT))
            assert err <= mpf("0.1") * delta, d


def test_laurent_error_within_fifth_delta():
    with mp.workdps(50):
        for d in ("1e-4", "1e-3", "1e-2", "1e-1"):
            delta = mpf(d)
            err = abs(zeta(1 + 2 * delta, TIGHT) - laurent_zeta_approx(d, TIGHT))
            assert err <= mpf("0.2") * delta, d


def test_laurent_domain():
    with pytest.raises(DomainError):
        laurent_zeta_approx(0)
    with pytest.raises(DomainError):
        laurent_zeta_approx("0.6")


def test_precision_context_validation():
    with pytest.raises(DomainError):
        PrecisionContext(target_abs_tol=0)
    with pytest.raises(DomainError):
        PrecisionContext(working_digits=10)
    ctx = PrecisionContext(target_abs_tol=1e-30, working_digits=80)
    with mp.workdps(60):
        assert abs(zeta(2, ctx) - mp.pi ** 2 / 6) < mpf("1e-28")


def test_working_digits_below_50_are_stored_as_50():
    low = PrecisionContext(working_digits=30)
    assert low == PrecisionContext() and low.working_digits == 50
    assert zeta("2.5", low)._mpf_ == zeta("2.5")._mpf_
    assert critical_exponent(100, ctx=low).s_star._mpf_ == critical_exponent(100).s_star._mpf_


def test_working_digits_past_1000_are_refused_at_once():
    assert PrecisionContext(working_digits=1000).working_digits == 1000
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="^working_digits cap is 1000, got 1001$") as exc:
        PrecisionContext(working_digits=1001)
    assert time.perf_counter() - start < 0.1 and exc.value.exit_code == 4


_EXPONENT_FUNCTIONS = {
    "zeta": lambda s: zeta(s),
    "zeta_tail": lambda s: zeta_tail(5, s),
    "tail_integral_approx": lambda s: tail_integral_approx(3, s),
    "per_level_factor": lambda s: per_level_factor(5, s),
    "covering_sum_enumerated": lambda s: covering_sum_enumerated(2, s, 2, 6),
    "covering_product_bound": lambda s: covering_product_bound(
        parse_digit_set("all"), parse_index_sequence("even"), 2, s, 0, 1, ()),
}


@pytest.mark.parametrize("name", sorted(_EXPONENT_FUNCTIONS))
def test_an_exponent_past_a_million_is_refused_at_once(name):
    call = _EXPONENT_FUNCTIONS[name]
    for s in (10 ** 6, "1e6", Fraction(10 ** 6)):
        start = time.perf_counter()
        assert 0 < call(s) <= 1
        assert time.perf_counter() - start < 0.5
    for s in ("1000000.5", 10 ** 6 + 1, "1e300", Fraction(10 ** 1000), "1e5000"):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="^exponent cap is 1000000, got ") as exc:
            call(s)
        assert time.perf_counter() - start < 0.1 and exc.value.exit_code == 4


@pytest.mark.parametrize("tol, message", [
    (math.inf, "must be finite"),
    (mpf("inf"), "must be finite"),
    (0, "must be positive"),
    (-1e-12, "must be positive"),
    (math.nan, "must be finite, got nan"),
    ("1e-12", "must be an int, float, Fraction or mpf, got '1e-12'"),
    (True, "must be an int, float, Fraction or mpf, got True"),
])
def test_a_tolerance_must_be_positive_and_finite(tol, message):
    with pytest.raises(DomainError, match="^target_abs_tol " + message):
        PrecisionContext(target_abs_tol=tol)
    with pytest.raises(DomainError, match="^tol " + message):
        critical_exponent(1000, tol=tol)


def test_a_fraction_or_mpf_tolerance_acts_as_its_float():
    want = critical_exponent(1000, tol=1e-12).s_star
    for tol in (Fraction(1, 10 ** 12), mpf(1e-12)):
        assert critical_exponent(1000, tol=tol).s_star == want
        assert zeta("2.5", PrecisionContext(tol)) == zeta("2.5")


def test_as_real_refuses_a_bool_and_an_infinity():
    with pytest.raises(DomainError, match="^expected a real value, got a boolean$"):
        as_real(True)
    with pytest.raises(DomainError, match=r"^value must be a finite real, got \+inf$"):
        as_real(float("inf"))


def _big_omega(k):
    # prime factors of k counted with multiplicity
    n, d = 0, 2
    while d * d <= k:
        while k % d == 0:
            k //= d
            n += 1
        d += 1
    return n + (k > 1)


@pytest.mark.parametrize("z", ["1.0000000011", "1.5", "2", "2.5", "7"])
def test_a_head_sum_is_within_its_error_budget(z):
    # the budget of special's docstring, in units of 2^-prec relative:
    # W + 1, W the mean over the terms, weighted by their values, of
    # Omega(k) + z log k 2^-10.  The reference is a 120-digit mp.fsum of
    # direct powers at the same 50-digit z
    omega = [_big_omega(k) for k in range(1 << 14)]
    with mp.workdps(50):
        zm, prec = as_real(z), mp.prec
    weights = [0.0] + [float(k) ** -float(zm) for k in range(1, 1 << 14)]
    with mp.workdps(120):
        terms = [mpf(0)] + [mpf(k) ** -zm for k in range(1, 1 << 14)]
        for start in (1, 2, 63):
            for cutoff in (64, 1024, 1 << 14):
                got = mp.make_mpf(_head(start, cutoff, zm, prec))
                ref = mp.fsum(terms[start:cutoff])
                ks = range(start, cutoff)
                w = math.fsum(weights[k] * (omega[k] + float(zm) * math.log(k) / 1024)
                              for k in ks) / math.fsum(weights[k] for k in ks)
                units = abs(got - ref) / ref * mpf(2) ** prec
                assert units <= w + 1, (start, cutoff, units, w)


@pytest.mark.parametrize("z", ["0.7", "2.5", Fraction(10, 7)])
def test_wide_kernel_terms_carry_only_their_prime_powers_roundings(z):
    # a prime's pair is _prime_power's value exactly, and a composite's
    # carries its Omega(k) rounded powers, each within 2^-prec relative
    # (3 % more for mpmath's logarithm at prec + 10 bits), and truncated
    # products below 2^-(prec + 63)
    ks = list(range(1, 1 << 12)) + [1 << 15]
    with mp.workdps(50):
        zm = as_real(z)
        prec = mp.prec
        memo = [None] * 64
        nz = mpf_neg(zm._mpf_)
        pairs = [_wide_neg_power(k, memo, nz, prec) for k in ks]
        primes = {k: mp.make_mpf(_prime_power(k, nz, prec)) for k in ks if k > 1 and not _LPF[k]}
    with mp.workdps(120):
        for k, (m, e) in zip(ks, pairs):
            assert m.bit_length() == prec + 64, k
            value = mp.ldexp(m, e)
            if k in primes:
                assert value == primes[k], k
            exact = mpf(k) ** -zm
            assert abs(value - exact) <= 1.03 * _big_omega(k) * mp.ldexp(exact, -prec), k


def _least_prime_factor(k):
    # trial division by 2 .. min(isqrt(k), 255): 0 for 0, 1 and a prime below 2^16
    return next((d for d in range(2, min(math.isqrt(k), 255) + 1) if k % d == 0), 0)


def test_the_least_prime_factor_table_is_trial_division():
    assert list(_LPF) == [_least_prime_factor(k) for k in range(1 << 16)]


def test_the_kernel_makes_the_products_of_a_reference():
    # the reference splits k into its least prime factor and the cofactor and
    # multiplies their integer pairs, truncating the product to prec + 64
    # bits, in increasing k so that both are at hand.  A short memo makes
    # the kernel walk long chains and power the primes above it again; the
    # covering sum's memo keeps most of them
    ks = list(range(1, 1 << 16))
    prec = 53
    width = prec + 64
    nz = mpf_neg(mpf("0.7")._mpf_)
    ref = {1: (1 << width - 1, 1 - width)}
    for k in ks[1:]:
        p = _least_prime_factor(k)
        if p:
            (mf, ef), (mc, ec) = ref[p], ref[k // p]
            cut = (mf * mc).bit_length() - width
            ref[k] = (mf * mc >> cut, ef + ec + cut)
        else:
            _, m, e, bc = mpf_pow(from_int(k), nz, prec, round_nearest)
            ref[k] = (m << width - bc, e + bc - width)
    want = [ref[k] for k in ks]
    for length in (64, 1 << 13):
        memo = [None] * length
        assert [_wide_neg_power(k, memo, nz, prec) for k in ks] == want, length


_PRIMES = [k for k in range(2, 1 << 16) if not _LPF[k]]
_KEPT_PRIMES = [p for p in _PRIMES if p < special._LOG_CUTOFF]


def _empty_tables():
    # the constants special keeps, emptied as in a new process
    special._log_prime.cache_clear()
    special._coefficients.cache_clear()
    special._pole_guard.cache_clear()


@pytest.fixture
def cold_tables():
    _empty_tables()


@pytest.mark.parametrize("digits, sample", [(50, None), (100, 300), (1000, 20)])
def test_a_prime_power_has_the_bits_of_mpf_pow(cold_tables, digits, sample):
    # every prime below 2^16 at 50 digits, and at 100 and 1,000 a seeded
    # sample of the primes below the cutoff, whose logarithms are kept; the
    # first exponent keeps them and the others read them.  The kept
    # logarithm copies mpmath 1.3's mpf_pow, so this is the check that the
    # mpmath in use agrees
    primes = _PRIMES if sample is None else random.Random(digits).sample(_KEPT_PRIMES, sample)
    with mp.workdps(digits):
        prec = mp.prec
        for z in ("0.7", Fraction(10, 7), "1.000000002", "3.75"):
            nz = mpf_neg(as_real(z)._mpf_)
            want = [mpf_pow(from_int(p), nz, prec, round_nearest) for p in primes]
            assert [_prime_power(p, nz, prec) for p in primes] == want, z
    info = special._log_prime.cache_info()
    assert info.currsize == info.misses == sum(p < special._LOG_CUTOFF for p in primes)


@pytest.mark.parametrize("z", [2, "2.5"])
def test_an_integer_or_half_integer_prime_power_is_mpf_pow_itself(monkeypatch, cold_tables, z):
    # mpf_pow forms these without a logarithm, so none is kept
    calls = []
    monkeypatch.setattr(mpmath.libmp, "mpf_pow",
                        lambda *args: calls.append(args) or mpf_pow(*args))
    with mp.workdps(50):
        nz = mpf_neg(as_real(z)._mpf_)
        want = [mpf_pow(from_int(p), nz, mp.prec, round_nearest) for p in _PRIMES[:100]]
        assert [_prime_power(p, nz, mp.prec) for p in _PRIMES[:100]] == want
    assert len(calls) == 100 and special._log_prime.cache_info().currsize == 0


@pytest.mark.parametrize("digits, zeta_raw, tail_raw, s_raw", [
    (50,
     (0, 0x1f74a1c9d20a2d6a57c9f48c369a49d657e1221cf27, -167, 169),
     (0, 0x973108de57a130ab78c57e2f5a2331366af3c85fb5, -169, 168),
     (0, 0x156f42bbb567b72111a8f7c496a5652018da1cb4b3, -165, 165)),
    (100,
     (0, 0x3ee94393a4145ad4af93e9186d3493acafc24439e50ea42581b0f1c1fc9259afa1f00c84d3afb66e58c1,
      -332, 334),
     (0, 0x973108de57a130ab78c57e2f5a2331366af3c85fb4dbd2b675a6d3d2d673f54c50c14efbf0bcfd5fc123,
      -337, 336),
     (0, 0xab7a15ddab3db9088d47be24b52b2900c6d0e5a597ed2608b790ea6621ea790694fad3900d39d8d84747,
      -336, 336)),
])
def test_zeta_tail_and_the_critical_exponent_keep_their_bits(cold_tables, digits, zeta_raw,
                                                             tail_raw, s_raw):
    # raw mpf values at exponents whose prime powers take kept logarithms,
    # from empty tables and again from full ones
    ctx = PrecisionContext(1e-12, digits)
    for _ in range(2):
        assert zeta("1.3", ctx)._mpf_ == zeta_raw
        assert zeta_tail(10, "1.7", ctx)._mpf_ == tail_raw
        assert critical_exponent(1000, ctx=ctx).s_star._mpf_ == s_raw


@pytest.mark.parametrize("digits", [50, 100, 1000])
def test_the_kept_coefficients_are_those_of_the_working_precision(digits):
    # B_2j/(2j)! as the correction once formed it at every call
    with mp.workdps(digits):
        want = [(as_real(b) / math.factorial(2 * j))._mpf_
                for j, b in enumerate(special._BERNOULLI, start=1)]
        assert [c._mpf_ for c in special._coefficients(mp.prec)] == want


@pytest.mark.parametrize("digits", [50, 100, 1000])
def test_the_kept_pole_guard_is_that_of_the_working_precision(digits):
    # 1 + 1e-9, read from text at the working precision
    with mp.workdps(digits):
        assert special._pole_guard(mp.prec)._mpf_ == (1 + mpf("1e-9"))._mpf_


def test_an_exponent_at_or_below_one_is_told_the_series_diverges():
    # still a PoleProximityError; the guard window is 1 < z <= 1 + 1e-9
    for z in ["-2", "0.5", "1"]:
        with pytest.raises(PoleProximityError) as exc:
            zeta(z)
        assert str(exc.value) == ("z = %s is at or below 1, where the series diverges "
                                  "(need z > 1 + 1e-9)" % mpf(z))
    with pytest.raises(PoleProximityError, match="inside the guard window"):
        zeta("1.0000000001")


@pytest.mark.parametrize("digits", [50, 100, 1000])
def test_the_pole_guard_keeps_its_verdict_an_ulp_either_side(digits):
    # z at the guard and one ulp below it is refused, one ulp above it passes
    with mp.workdps(digits):
        guard = 1 + mpf("1e-9")
        ulp = mp.ldexp(1, 1 - mp.prec)
        for z, refused in ((guard - ulp, True), (guard, True), (guard + ulp, False)):
            assert (z <= 1 + mpf("1e-9")) == refused
            if not refused:
                special._check_exponent(z, mp.prec)
                continue
            with pytest.raises(PoleProximityError) as exc:
                special._check_exponent(z, mp.prec)
            assert str(exc.value) == (
                "z = %s is at or inside the guard window around the pole at 1 "
                "(need z > 1 + 1e-9)" % z)


def test_the_tables_keep_four_precisions(cold_tables, monkeypatch):
    # a fifth precision drops the coefficients of the first, and the
    # logarithms of every prime below the cutoff at five precisions leave
    # those of the last four; a value computed again after its precision
    # was dropped has the same bits
    precs = [dps_to_prec(d) for d in (50, 60, 70, 80, 90)]
    first = [zeta("1.3", PrecisionContext(1e-12, d))._mpf_ for d in (50, 60, 70, 80, 90)]
    assert special._coefficients.cache_info().currsize == 4
    assert special._pole_guard.cache_info().currsize == 4
    for prec in precs:
        for p in _KEPT_PRIMES:
            special._log_prime(p, prec)
    assert special._log_prime.cache_info().currsize == 4 * len(_KEPT_PRIMES)
    counts = _count_logarithms(monkeypatch)
    for prec in precs[1:]:
        special._log_prime(_KEPT_PRIMES[-1], prec)
    assert counts[0] == 0
    assert zeta("1.3")._mpf_ == first[0]
    assert counts[0] == 18


@pytest.mark.parametrize("z", ["1.000000002", "1.2", "2", "3.5", "8"])
def test_euler_maclaurin_remainder_bound_is_the_b10_term(z):
    # the loop that sums the B_2..B_8 corrections returns the magnitude of
    # the next (B_10) term as its remainder bound
    with mp.workdps(50):
        zm = mpf(z)
        for n0 in (64, 1000, 2 ** 16):
            _, bound = _tail_correction(n0, zm, mp.prec)
            ref = abs(mp.bernoulli(10) / mp.factorial(10) * mp.rf(zm, 9) * mpf(n0) ** (-zm - 9))
            assert abs(bound - ref) <= ref * mpf("1e-40"), n0


def _mpf_tail_correction(n0, z):
    # the mpf expression whose operations _tail_correction does on raw values
    p = mpf(n0) ** (-z)
    total = p * n0 / (z - 1) + p / 2
    rising = z
    coefficients = special._coefficients(mp.prec)
    for j, c in enumerate(coefficients, start=1):
        term = c * rising * p / n0 ** (2 * j - 1)
        if j == len(coefficients):
            return total, abs(term)
        total += term
        rising *= (z + 2 * j - 1) * (z + 2 * j)


# exponents in (1 + 2e-9, 8]: a float times a factor near 1 whose
# denominator is not a power of two, so that its mpf fills the mantissa
# and a sum such as z + 2j rounds, and every integer and half-integer
_TAIL_EXPONENTS = st.one_of(
    st.floats(1 + 2e-9, 8, exclude_min=True)
    .map(lambda x: min(Fraction(x) * Fraction(3 * 10 ** 20 + 1, 3 * 10 ** 20), Fraction(8))),
    st.integers(3, 16).map(lambda k: Fraction(k, 2)),
)


@settings(max_examples=80)
@given(st.integers(1, 10 ** 9), _TAIL_EXPONENTS, st.integers(50, 300))
def test_the_raw_tail_correction_has_the_bits_of_the_mpf_expression(n0, z, digits):
    with mp.workdps(digits):
        zm = as_real(z)
        got = _tail_correction(n0, zm, mp.prec)
        want = _mpf_tail_correction(n0, zm)
    assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


def _count_noninteger_powers(monkeypatch):
    # mpf ** mpf, the raw libmp.mpf_pow of the direct covering terms, and
    # the kernel's prime powers.  A prime power at an integer or
    # half-integer exponent, or of a prime past the cutoff, calls mpf_pow,
    # and every other one takes its kept logarithm; mpf.__pow__ calls its
    # own binding of mpf_pow.  So no power is counted twice
    counts = [0]
    real_pow = mpmath.mpf.__pow__
    real_raw_pow = mpmath.libmp.mpf_pow
    real_prime_power = special._prime_power

    def counting_pow(self, other):
        if not mp.isint(other):
            counts[0] += 1
        return real_pow(self, other)

    def counting_raw_pow(s, t, *args):
        if not mp.isint(mp.make_mpf(t)):
            counts[0] += 1
        return real_raw_pow(s, t, *args)

    def counting_prime_power(p, nz, prec):
        if nz[2] < -1 and p < special._LOG_CUTOFF:
            counts[0] += 1
        return real_prime_power(p, nz, prec)

    monkeypatch.setattr(mpmath.mpf, "__pow__", counting_pow)
    monkeypatch.setattr(mpmath.libmp, "mpf_pow", counting_raw_pow)
    monkeypatch.setattr(special, "_prime_power", counting_prime_power)
    return counts


def _count_logarithms(monkeypatch):
    # the raw libmp.mpf_log that the kernel calls for a logarithm it does
    # not hold yet
    counts = [0]
    real_log = mpmath.libmp.mpf_log

    def counting_log(*args):
        counts[0] += 1
        return real_log(*args)

    monkeypatch.setattr(mpmath.libmp, "mpf_log", counting_log)
    return counts


def test_zeta_takes_one_power_per_prime_below_the_cutoff(monkeypatch):
    # 18 primes below the cutoff 64 and one for the tail; a power per head
    # term and per correction term would make 70
    counts = _count_noninteger_powers(monkeypatch)
    zeta("2.5")
    assert counts[0] == 19


def test_a_critical_solve_takes_a_bounded_number_of_powers(monkeypatch):
    # 21 per factor evaluation at a non-integer s: (1+1/M)^s, 19 for zeta(2s)
    # and 1 for the tail from M = 1000, whose head is empty.  This solve
    # makes 210, where a power per head and per correction term made 780
    counts = _count_noninteger_powers(monkeypatch)
    assert critical_exponent(1000).converged
    assert counts[0] <= 210


def test_a_critical_solve_takes_a_logarithm_per_prime_once(cold_tables, monkeypatch):
    # the 18 primes below the cutoff 64, each once at this precision; a
    # second solve finds them all kept
    counts = _count_logarithms(monkeypatch)
    critical_exponent(1000)
    assert counts[0] == 18
    critical_exponent(1000)
    assert counts[0] == 18


def test_a_covering_sum_takes_a_power_per_prime_met(monkeypatch):
    # the largest op of the benchmark's cover round at seed 1: 2,463 prime
    # powers from the kernel, whose memo keeps the terms below 2^13, and 56
    # direct powers, where one power per word made 10,944 and a memo below
    # 2^12 made 3,252
    counts = _count_noninteger_powers(monkeypatch)
    covering_sum_enumerated(6, Fraction(23, 26), 2, 24)
    assert counts[0] <= 2519


def test_a_non_integer_covering_sum_stays_on_integers(monkeypatch):
    # the same op, 10,944 words: its terms are integer products added into
    # one integer, so the only rounded products are those that form the
    # prime powers, one for each prime below 2^12 met, and no sum is
    # rounded until the last.  An integer s takes the same walk, and its
    # prime powers are mpf_pow's integer powers, which take no product
    counts = dict.fromkeys(["mpf_mul", "mpf_add"], 0)
    for name in counts:
        def counting(*args, _real=getattr(mpmath.libmp, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mpmath.libmp, name, counting)
    covering_sum_enumerated(6, Fraction(23, 26), 2, 24)
    assert counts["mpf_add"] == 0 and counts["mpf_mul"] <= len(_KEPT_PRIMES)
    counts.update(mpf_mul=0, mpf_add=0)
    covering_sum_enumerated(6, 2, 2, 24)
    assert counts == {"mpf_mul": 0, "mpf_add": 0}


def test_the_head_stays_raw(monkeypatch):
    # raw values wrapped as mpf objects through mp.make_mpf, which mp.fsum
    # also calls for its sum.  A series wraps the tail's sum and bound and
    # its own value: 3 for zeta, and 6 for a factor, whose second series
    # starts at 1000.  An mpf for each of the 63 head terms and for the sum
    # made 64 and 65
    counts = [0]
    real_make_mpf = mp.make_mpf

    def counting_make_mpf(v):
        counts[0] += 1
        return real_make_mpf(v)

    monkeypatch.setattr(mp, "make_mpf", counting_make_mpf)
    zeta("2.5")
    assert counts[0] <= 3
    counts[0] = 0
    per_level_factor(1000, "0.75")
    assert counts[0] <= 6


def _reference_zeta_tail(start, z, tol):
    # direct powers for every head term and every Euler-Maclaurin term, the
    # cutoff doubling from max(64, start) until the B_10 term is below tol/8
    def tail(n0):
        n0 = mpf(n0)
        total = n0 ** (1 - z) / (z - 1) + n0 ** (-z) / 2
        for j in range(1, 6):
            term = mp.bernoulli(2 * j) / math.factorial(2 * j) * mp.rf(z, 2 * j - 1) \
                * n0 ** (-z - 2 * j + 1)
            if j == 5:
                return total, abs(term)
            total += term

    cutoff = max(64, start)
    value, bound = tail(cutoff)
    while bound > mpf(tol) / 8:
        cutoff *= 2
        value, bound = tail(cutoff)
    return mp.fsum(mpf(k) ** (-z) for k in range(start, cutoff)) + value


@settings(max_examples=40)
@given(st.integers(1, 300), st.floats(-8, math.log10(7), exclude_min=True),
       st.sampled_from([50, 100]), st.sampled_from([1e-12, 1e-20]))
def test_zeta_tail_matches_direct_powers_and_hurwitz_zeta(start, log_gap, dps, tol):
    z = "%.17g" % (1 + 10 ** log_gap)
    ours = zeta_tail(start, z, PrecisionContext(tol, dps))
    with mp.workdps(dps):
        ref = _reference_zeta_tail(start, mpf(z), tol)
        assert abs(ours - ref) <= 4 * mp.eps * abs(ref)
    with mp.workdps(120):
        assert abs(ours - mp.zeta(mpf(z), start)) <= tol


def test_a_zeta_call_leaves_no_reference_cycle():
    # the head's memo is freed with the call, not held in a cycle until
    # the collector runs
    ctx = PrecisionContext(1e-46, 50)
    gc.collect()
    gc.disable()
    try:
        zeta_tail(1, "1.2", ctx)
        zeta_tail(1, "1.2", ctx)
        found = gc.collect()
    finally:
        gc.enable()
    assert found < 100


def test_head_memo_stays_small_at_the_largest_cutoff():
    # the cutoff reaches 2^15 here; the head adds the terms one at a time,
    # so the peak is the memo of the integer pairs below 2^14 (2.8 MB, where
    # mp.fsum's list of the terms made 5.7 MB), and a memo of every term as
    # an mpf would about double it.  The call starts from empty tables, as
    # each CLI command does, so the peak also holds the logarithms it keeps
    # of the 564 primes below 2^12
    zeta(2)
    _empty_tables()
    tracemalloc.start()
    try:
        zeta_tail(1, "1.2", PrecisionContext(1e-46, 50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.2e6
