"""Step schedules, point building, size/separation/Hölder verification."""

import math
import random
import re
import time
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cfdim import (
    DomainError,
    InsufficientHorizonError,
    PartialQuotients,
    ResourceCapError,
    StepSchedule,
    build_point,
    choose_schedule,
    cylinder,
    delete_indices,
    evaluate,
    holder_check,
    nominal_onset,
    parse_index_sequence,
    sample_holder_pairs,
    schedule_onset,
    step_value,
    verify_separation,
    verify_size_bound,
)
from cfdim import cfcore, construction
from cfdim.construction import _power_at_least, _weight_test
from cfdim.sequences import IndexSequence

SQ = parse_index_sequence("square")


def square_schedule(j_max=30, horizon=10000):
    return choose_schedule(SQ, j_max, horizon, eps="1/10")


def test_schedule_flagship_values():
    s = choose_schedule(SQ, 1, 10000, eps="1/10")
    assert s.thresholds == (379,)
    assert s.breakpoints == (20,)


def test_schedule_breakpoints_increase_and_follow_thresholds():
    s = square_schedule()
    assert len(s.breakpoints) == 30
    assert all(a < b for a, b in zip(s.breakpoints, s.breakpoints[1:]))
    for n_j, big_n in zip(s.breakpoints, s.thresholds):
        assert SQ.nth(n_j) >= big_n
        # least such index above the previous breakpoint
        assert n_j == 1 or SQ.nth(n_j - 1) < big_n or n_j - 1 in s.breakpoints


def test_schedule_thresholds_are_largest_violators():
    # brute recheck of N_1 for eps = 1/10: k(n)*log(2) > c1*n must fail
    # for every n > 379 up to the certification bound, and hold at 379
    s = choose_schedule(SQ, 1, 10000, eps="1/10")
    en, ed = 1, 10
    def violates(n):
        k = SQ.count(n)
        return 2 ** (2 * ed * k) > 2 ** (en * n)  # (j+1) = 2
    assert violates(379)
    assert not any(violates(n) for n in range(380, 2000))


def test_schedule_exact_tie_is_not_a_violation():
    # at n = 380 and 400 the two sides are equal integers,
    # 2^(2*ed*k) == 2^(en*n) with j + 1 = 2; the strict comparison keeps
    # them out of the violator set, and one index earlier they violate
    end = _weight_test(Fraction(1, 10), None)
    for n, k in ((380, 19), (400, 20)):
        assert SQ.count(n) == k
        assert end(2 ** k, n, n + 5) == 0
        assert end(2 ** k, n - 1, n + 5) == n - 1
    assert choose_schedule(SQ, 1, 10000, eps="1/10").thresholds == (379,)


def test_schedule_rejects_positive_density_and_short_horizons():
    with pytest.raises(DomainError):
        choose_schedule(parse_index_sequence("even"), 1, 10000, eps="1/10")
    with pytest.raises(DomainError):
        choose_schedule(SQ, 1, 10000)  # neither c1 nor eps
    with pytest.raises(DomainError):
        choose_schedule(SQ, 1, 10000, c1="1/20", eps="1/10")
    # N_32 = 10088 lies past the horizon, N_31 = 9899 inside it (9900
    # ties exactly); a horizon of 100 does not reach N_1 = 379
    with pytest.raises(InsufficientHorizonError, match="step 32 has its threshold past"):
        choose_schedule(SQ, 32, 10000, eps="1/10")
    assert choose_schedule(SQ, 32, 10 ** 5, eps="1/10").thresholds[-1] == 10088
    assert choose_schedule(SQ, 31, 10000, eps="1/10").thresholds[-1] == 9899
    with pytest.raises(InsufficientHorizonError):
        choose_schedule(SQ, 1, 100, eps="1/10")


def test_schedule_explicit_c1_path():
    s = choose_schedule(SQ, 2, 100000, c1="1")
    assert s.c1 == Fraction(1)
    assert s.eps is None
    # c1 = 1 is generous: k(n) <= sqrt(n) <= n/log(2) for all n >= 1
    assert s.thresholds[0] <= 3
    p = choose_schedule(parse_index_sequence("pow:2"), 1, 10000, c1="1")
    assert p.breakpoints[0] >= 1


def test_schedule_thresholds_past_two_to_the_46_are_exact():
    # at c1 = 10^-15 each quotient k*log(j+1)/c1 passes 2^46, where a
    # float misses its integer part (by 9 for N_2); a 300-digit log
    # confirms that N_j violates and N_j + 1, on the same run, does not
    seq = parse_index_sequence("pow:2")
    c1 = Fraction(1, 10 ** 15)
    s = choose_schedule(seq, 2, 10 ** 20, c1=c1)
    assert s.thresholds == (38123094930796992, 60423675876746033)
    with mp.workdps(300):
        for j, n in enumerate(s.thresholds, start=1):
            k = seq.count(n)
            assert seq.count(n + 1) == k
            lhs, rate = k * mp.log(j + 1), mpf(c1.numerator) / c1.denominator
            assert lhs > rate * n and not lhs > rate * (n + 1)


def test_schedule_threshold_on_a_power_of_two_is_exact_and_fast():
    # at c1 = 10^-7 the last failing run of step 1 carries p = 2^6931471,
    # and its near tie goes to the exact test; mpmath alone would strip
    # the trailing zero bits of p a byte at a time, for minutes
    start = time.perf_counter()
    s = choose_schedule(SQ, 1, 10 ** 14, c1="1e-7")
    assert time.perf_counter() - start < 5
    n = s.thresholds[0]
    assert n == 48045295807830 and SQ.count(n) == SQ.count(n + 1) == 6931471
    with mp.workdps(300):
        lhs, rate = 6931471 * mp.log(2), mpf(10) ** -7
        assert lhs > rate * n and not lhs > rate * (n + 1)


# a 300-digit rational within 10^-300 of log(2)/7: at step 1 on square the
# threshold test at m = 49 compares 7*log(2) with 49*c1, past 200 digits
with mp.workdps(320):
    C1_NEAR_A_TIE = Fraction(int(mp.nint(mp.log(2) / 7 * 10 ** 300)), 10 ** 300)


def test_schedule_refuses_a_c1_that_200_digits_cannot_separate():
    with pytest.raises(DomainError,
                       match=r"^could not separate log\(p\) from c1\*m at 200 digits \(m=49\)$"):
        choose_schedule(SQ, 1, 10 ** 4, c1=C1_NEAR_A_TIE)


def test_schedule_json_round_trip_both_modes():
    s = square_schedule(j_max=3)
    data = s.to_json()
    assert sorted(data) == ["N", "c1", "eps", "horizon", "n"]
    again = StepSchedule.from_json(data)
    assert again == s
    e = choose_schedule(SQ, 2, 100000, c1="1/20")
    back = StepSchedule.from_json(e.to_json())
    assert back == e and back.eps is None


def test_schedule_json_tamper_detection():
    data = square_schedule(j_max=1).to_json()
    data["c1"] = "1/2"  # contradicts eps
    with pytest.raises(DomainError):
        StepSchedule.from_json(data)
    with pytest.raises(DomainError):
        StepSchedule.from_json({"c1": "1/2"})


def test_schedule_json_c1_margin_both_sides():
    # a stored c1 within relative 1e-9 of eps*log2/2 loads, 1.1e-9 off does
    # not; the 25-digit rendering moves c1 by about 1e-25, far inside the gap
    s = square_schedule(j_max=1)
    data = s.to_json()
    for rel, ok in (("5e-10", True), ("-5e-10", True), ("0.9e-9", True), ("-0.9e-9", True),
                    ("1.1e-9", False), ("-1.1e-9", False), ("1e-8", False), ("-1e-8", False)):
        with mp.workdps(50):
            data["c1"] = text = mp.nstr(s.c1_value * (1 + mpf(rel)), 25)
        if ok:
            assert StepSchedule.from_json(data) == s
        else:
            with pytest.raises(DomainError, match="^schedule JSON has eps = '1/10' but c1 = %s; "
                               "derived c1 would be 0.034657359028$" % re.escape(repr(text))):
                StepSchedule.from_json(data)


def test_schedule_validation():
    with pytest.raises(DomainError):
        StepSchedule(Fraction(1, 10), Fraction(1, 20), (1,), (1,), 10)
    with pytest.raises(DomainError):
        StepSchedule(Fraction(1, 10), None, (1, 2), (5,), 10)
    with pytest.raises(DomainError):
        StepSchedule(Fraction(1, 10), None, (1, 2), (5, 5), 10)
    with pytest.raises(DomainError):
        StepSchedule(None, Fraction(1, 2), (), (), 10)
    with pytest.raises(DomainError, match="^eps must be a positive Fraction$"):
        StepSchedule(0.1, None, (1,), (5,), 10)
    with pytest.raises(DomainError, match="^c1 must be a positive Fraction$"):
        StepSchedule(None, 1, (1,), (5,), 10)


def test_step_value_staircase():
    s = square_schedule()
    assert step_value(s, 1) == 1
    assert step_value(s, 20) == 1
    assert step_value(s, 21) == 2
    assert step_value(s, s.breakpoints[-1]) == 30
    with pytest.raises(DomainError):
        step_value(s, s.breakpoints[-1] + 1)
    with pytest.raises(DomainError):
        step_value(s, 0)


def test_schedule_onset_certifies_weight_inequality():
    s = square_schedule()
    ons = schedule_onset(SQ, s)
    assert ons.onset == 380
    assert ons.checked_to == 10000
    # independent recheck at a few spots with 60-digit logs
    with mp.workdps(60):
        c1 = mpf(1) / 10 * mp.log(2) / 2
        def weight(n):
            return mp.fsum(mp.log(step_value(s, j) + 1) for j in range(1, SQ.count(n) + 1))
        assert weight(379) > c1 * 379
        for n in (380, 381, 400, 2000, 9999, 10000):
            assert weight(n) <= c1 * n


def test_schedule_onset_explicit_c1_agrees_with_brute_force():
    seq = parse_index_sequence("pow:2")
    s = choose_schedule(seq, 3, 5000, c1="1/4")
    ons = schedule_onset(seq, s)
    with mp.workdps(60):
        c1 = mpf(1) / 4
        def ok(n):
            return mp.fsum(
                mp.log(step_value(s, j) + 1) for j in range(1, seq.count(n) + 1)
            ) <= c1 * n
        limit = min(5000, seq.nth(s.breakpoints[-1] + 1) - 1)
        brute = max((n for n in range(1, limit + 1) if not ok(n)), default=0) + 1
    assert ons.onset == brute


def test_build_point_places_step_digits():
    manual = StepSchedule(None, Fraction(1, 2), (1, 1), (2, 10), 100)
    w = build_point(parse_index_sequence("even"), 3, manual, 6, filler=2)
    assert list(w) == [2, 1, 2, 1, 2, 2]
    w = build_point(SQ, 3, square_schedule(), 10, filler=2)
    assert list(w) == [1, 2, 2, 1, 2, 2, 2, 2, 1, 2]  # steps at 1, 4, 9


def test_build_point_refuses_a_deep_word_before_allocating_it():
    import tracemalloc

    s = square_schedule()  # its breakpoints stop at 100 = k(10^4)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="schedule stops at 100"):
            build_point(SQ, 3, s, 10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a word of 10^7 fillers would take 80 MB of list slots
    assert peak < 2 * 2 ** 20


def test_build_point_deeper_depth_extends_prefix():
    s = square_schedule()
    short = build_point(SQ, 4, s, 30)
    long = build_point(SQ, 4, s, 80)
    assert long.digits[:30] == short.digits


def test_build_point_validation():
    s = square_schedule(j_max=1)
    with pytest.raises(DomainError):
        build_point(SQ, 3, s, 441)  # k(441) = 21 exceeds the only breakpoint
    with pytest.raises(DomainError):
        build_point(SQ, 3, square_schedule(), 10, filler=0)
    with pytest.raises(DomainError):
        build_point(SQ, 1, square_schedule(), 10, filler=2)
    # the cap binds fillers only; constrained positions may exceed it
    w = build_point(SQ, 1, square_schedule(), 10)
    assert all(d == 1 for i, d in enumerate(w.digits, start=1) if i not in (1, 4, 9))


def test_size_bound_onsets_and_flagship_words():
    s = square_schedule()
    all_ones_34 = PartialQuotients((1,) * 34)
    rep = verify_size_bound("1/10", SQ, s, all_ones_34)
    assert rep.onset == 34
    assert rep.onset_certified == 531
    assert not rep.ok  # the nominal onset is not sufficient for every word
    assert rep.lhs ** 11 < Fraction(1, 10 ** 140)
    rep = verify_size_bound("1/10", SQ, s, PartialQuotients((1,) * 111))
    assert rep.ok
    # all-ones is inadmissible at depth 531 (position 441 needs step 2),
    # so go through the constructor for a certified-onset word
    rep = verify_size_bound("1/10", SQ, s, build_point(SQ, 2, s, 531))
    assert rep.ok


@pytest.mark.xfail(
    strict=True,
    reason="the documented claim that ok holds whenever the word length "
    "reaches the nominal onset fails on the all-ones word at 34",
)
def test_size_bound_nominal_onset_sufficient_literal():
    s = square_schedule()
    rep = verify_size_bound("1/10", SQ, s, PartialQuotients((1,) * 34))
    assert rep.ok


def test_size_bound_every_word_passes_from_certified_onset():
    import random

    s = square_schedule()
    rng = random.Random(5)
    for _ in range(8):
        length = rng.randint(531, 620)
        digits = []
        for i in range(1, length + 1):
            if i in SQ:
                digits.append(step_value(s, SQ.count(i)))
            else:
                digits.append(rng.randint(1, 2))  # adversarial: small digits
        rep = verify_size_bound("1/10", SQ, s, PartialQuotients(digits))
        assert rep.ok


def test_size_bound_matches_cylinder_lengths():
    # the report builds both lengths from the final continuants; compare
    # with the Fraction endpoints of cylinder and the direct power test,
    # on lengths around the nominal and certified onsets
    import random

    s = square_schedule()
    rng = random.Random(8)
    for length in (20, 34, 60, 111, 200, 531, 600):
        digits = [step_value(s, SQ.count(i)) if i in SQ else rng.randint(1, 3)
                  for i in range(1, length + 1)]
        rep = verify_size_bound("1/10", SQ, s, digits)
        lhs = cylinder(digits).length
        r = cylinder(delete_indices(digits, SQ)).length
        assert rep.lhs == lhs
        assert rep.ok == (lhs ** 10 >= r ** 11)


def test_size_bound_report_carries_the_word_as_a_word():
    s = square_schedule()
    digits = list(build_point(SQ, 3, s, 60).digits)
    word = verify_size_bound("1/10", SQ, s, digits).word
    assert type(word) is PartialQuotients and word == tuple(digits)


def test_exact_powers_past_the_budget_raise_resource_cap_error():
    # on pow:2 at eps = 10^-12, step 1 ends at the tie (2^46)^(2*10^12)
    # against 2^(46*2*10^12), between powers of two, which the exponents
    # decide; the weight tie of step 2 (p = 3) would form 3^(47*2*10^12)
    # and is refused at once.  The Holder check near eps = 1 has bases
    # whose brackets separate the two sides, and the certified onset forms
    # no power: at eps = 10^-12 it finds no onset in range, and the size
    # check answers within a second
    tiny, near_one = Fraction(1, 10 ** 12), Fraction(10 ** 12 - 1, 10 ** 12)
    pow2 = parse_index_sequence("pow:2")
    start = time.perf_counter()
    assert choose_schedule(pow2, 1, 10 ** 20, eps=tiny).thresholds == (91999999999999,)
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=r"^eps = 1/1000000000000 needs an exact power"):
        choose_schedule(pow2, 2, 10 ** 20, eps=tiny)
    assert time.perf_counter() - start < 1
    pairs = sample_holder_pairs(SQ, 5, square_schedule(), 3, 3, nominal_onset(SQ, near_one))
    start = time.perf_counter()
    assert [r.ok for r in holder_check(SQ, 5, near_one, pairs)] == [True, True, True]
    assert time.perf_counter() - start < 1
    long = choose_schedule(SQ, 30, 10 ** 13, eps="1/10")
    start = time.perf_counter()
    rep = verify_size_bound(tiny, SQ, long, [1] * 40)
    assert time.perf_counter() - start < 1
    assert rep.ok is False and rep.onset_certified is None


def test_size_check_refuses_final_powers_past_the_budget():
    # the two cylinder powers R^(en+ed) and L^ed overlap in bit range and
    # would each take about 10^8 bits, which would cost minutes to form
    s = square_schedule()
    word = build_point(SQ, 3, s, 10200)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError,
                       match=r"^eps = 229/7000 needs an exact power of at least 101372268 bits"):
        verify_size_bound(Fraction(229, 7000), SQ, s, word)
    assert time.perf_counter() - start < 1


def test_size_bound_validates_the_word_once(monkeypatch):
    s = square_schedule()
    word = list(build_point(SQ, 3, s, 300).digits)
    want = verify_size_bound("1/10", SQ, s, word)
    real, calls = cfcore._digit_tuple, []

    def counted(digits):
        calls.append(digits)
        return real(digits)
    monkeypatch.setattr(cfcore, "_digit_tuple", counted)
    assert verify_size_bound("1/10", SQ, s, word) == want
    assert len(calls) == 1


# (x, a, y, b) for x^a >= y^b: any sizes, powers of two, and near-ties
# y = x^c + d with a = b*c, where only the exact powers can decide; then
# the same shapes on rationals on both sides of 1: 2^(+-k), and ties
# (t^c)^b against t^(b*c) moved by a factor 1 + d/10^12; and x^a against
# 2^(floor(log2 x^a) + d), where only x^a is formed and its bracket decides
_generic = st.tuples(st.integers(1, 2 ** 70), st.integers(1, 12),
                     st.integers(1, 2 ** 70), st.integers(1, 12))
_twos = st.builds(lambda i, a, j, b: (2 ** i, a, 2 ** j, b),
                  st.integers(0, 70), st.integers(1, 12), st.integers(0, 70), st.integers(1, 12))
_ties = st.builds(lambda x, c, b, d: (x, b * c, max(x ** c + d, 1), b),
                  st.integers(1, 2 ** 40), st.integers(1, 4), st.integers(1, 6),
                  st.integers(-1, 1))
_rationals = st.builds(Fraction, st.integers(1, 2 ** 70), st.integers(1, 2 ** 70))
_fraction_generic = st.tuples(_rationals, st.integers(1, 12), _rationals, st.integers(1, 12))
_fraction_twos = st.builds(lambda i, a, j, b: (Fraction(2) ** i, a, Fraction(2) ** j, b),
                           st.integers(-70, 70), st.integers(1, 12),
                           st.integers(-70, 70), st.integers(1, 12))
_fraction_ties = st.builds(
    lambda t, c, b, d: (t ** c * Fraction(10 ** 12 + d, 10 ** 12), b, t, b * c),
    st.builds(Fraction, st.integers(1, 2 ** 30), st.integers(1, 2 ** 30)),
    st.integers(1, 4), st.integers(1, 6), st.integers(-1, 1))


def _floor_log2(q):
    k = q.numerator.bit_length() - q.denominator.bit_length()
    return k - (Fraction(2) ** k > q)


_near_twos = st.builds(
    lambda x, a, d: (x, a, Fraction(2) ** (_floor_log2(Fraction(x) ** a) + d), 1),
    st.one_of(st.integers(1, 2 ** 70), _rationals,
              st.builds(lambda n: Fraction(1, n), st.integers(1, 2 ** 70))),
    st.integers(1, 12), st.integers(-1, 1))
_power_cases = st.one_of(_generic, _twos, _ties, _fraction_generic, _fraction_twos, _fraction_ties,
                         _near_twos)


@settings(max_examples=500)
@given(_power_cases)
def test_power_comparison_matches_the_direct_one(case):
    x, a, y, b = case
    assert _power_at_least(x, a, y, b, Fraction(1)) == (x ** a >= y ** b)
    assert _power_at_least(y, b, x, a, Fraction(1)) == (y ** b >= x ** a)


@settings(max_examples=300)
@given(_power_cases, st.integers(1, 60))
def test_power_comparison_refuses_only_past_a_lower_bound_on_the_budget(case, scale):
    # under a 600-bit budget the helper answers exactly or refuses, and a
    # refusal names a bound that passes the budget and that the larger
    # numerator or denominator of the two powers really reaches; scaling
    # both exponents keeps the answer and carries ties past the budget
    x, a, y, b = case
    a, b = a * scale, b * scale
    formed = max(part.bit_length() for z in (Fraction(x) ** a, Fraction(y) ** b)
                 for part in (z.numerator, z.denominator))
    with patch.object(construction, "_POWER_BITS", 600):
        try:
            got = _power_at_least(x, a, y, b, Fraction(1))
        except ResourceCapError as exc:
            bits = int(re.search(r"at least (\d+) bits", str(exc)).group(1))
            assert 600 < bits <= formed
        else:
            assert got == (x ** a >= y ** b)


# (eps, p, m) for the derived weight test: any sizes, and exact ties
# p = 2^(en*a), m = 2*ed*a (so p^(2*ed) == 2^(en*m)) with m moved by -1, 0, 1
_eps = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
_derived_any = st.tuples(_eps, st.integers(1, 2 ** 300), st.integers(1, 5000))
_derived_ties = st.builds(
    lambda eps, a, d: (eps, 2 ** (eps.numerator * a), max(2 * eps.denominator * a + d, 1)),
    _eps, st.integers(0, 30), st.integers(-1, 1))


@settings(max_examples=300)
@given(st.one_of(_derived_any, _derived_ties))
def test_derived_weight_test_matches_the_integer_powers(case):
    eps, p, m = case
    end = _weight_test(eps, None)
    assert (end(p, m, m) == m) == (p ** (2 * eps.denominator) > 2 ** (eps.numerator * m))


# (c1, p, m) for the explicit weight test, with m drawn around log(p)/c1;
# a c1 below 1e-9 puts the sides within the float margin of each other
_c1 = st.one_of(st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6)),
                st.builds(Fraction, st.integers(1, 100), st.integers(10 ** 9, 10 ** 12)))
_explicit_cases = st.builds(
    lambda c1, p, d: (c1, p, max(int(math.log(p) / c1) + d, 1)),
    _c1, st.integers(1, 2 ** 300), st.integers(-1, 2))


@settings(max_examples=300)
@given(_explicit_cases)
def test_explicit_weight_test_matches_a_300_digit_log(case):
    c1, p, m = case
    end = _weight_test(None, c1)
    with mp.workdps(300):
        assert (end(p, m, m) == m) == (mp.log(p) > mpf(c1.numerator) / c1.denominator * m)


# (eps, None, p) or (None, c1, p) from the draws above, exact ties
# p = 2^(en*a) included, and a run [first, last] at most 40 wide placed
# around x = log(p)/c1: wholly below x, containing it or wholly above it.
# A c1 below 1e-12 puts x past 2^46, where a float quotient can miss the
# integer part.
_end_pairs = st.one_of(
    st.tuples(_eps, st.none(), st.integers(1, 2 ** 300)),
    st.builds(lambda eps, a: (eps, None, 2 ** (eps.numerator * a)), _eps, st.integers(0, 30)),
    st.tuples(st.none(), _c1, st.integers(1, 2 ** 300)),
    st.tuples(st.none(), st.builds(Fraction, st.integers(1, 100), st.integers(10 ** 13, 10 ** 22)),
              st.integers(2, 2 ** 300)))


@settings(max_examples=300)
@given(_end_pairs, st.integers(-45, 5), st.integers(0, 39))
def test_weight_end_is_the_last_failing_index_of_a_run(case, shift, width):
    eps, c1, p = case
    end = _weight_test(eps, c1)
    c1_float = float(c1) if eps is None else float(eps) * math.log(2) / 2
    first = max(int(math.log(p) / c1_float) + shift, 1)
    last = first + width
    if c1 is None:
        power = p ** (2 * eps.denominator)
        fails = [m for m in range(first, last + 1) if power > 2 ** (eps.numerator * m)]
    else:
        with mp.workdps(300):
            log_p, c1_mp = mp.log(p), mpf(c1.numerator) / c1.denominator
            fails = [m for m in range(first, last + 1) if log_p > c1_mp * m]
    assert end(p, first, last) == max(fails, default=0)


def test_weight_test_refuses_c1_outside_the_float_range():
    for eps, c1 in ((None, Fraction(1, 10 ** 400)), (None, Fraction(10 ** 400)),
                    (Fraction(10 ** 400), None), (Fraction(1, 10 ** 400), None)):
        with pytest.raises(DomainError, match="out of range"):
            _weight_test(eps, c1)
    # a schedule carrying such a c1 is refused with it
    tiny = StepSchedule(None, Fraction(1, 10 ** 400), (0,), (5,), 100)
    with pytest.raises(DomainError, match="out of range"):
        schedule_onset(SQ, tiny)
    # an eps below the float range is named with its rate, not as c1
    with pytest.raises(DomainError, match=r"^eps is out of range: eps\*log\(2\)/2 must lie"):
        choose_schedule(SQ, 1, 10 ** 4, eps=Fraction(1, 10 ** 400))


def test_size_check_at_a_tiny_eps_reports_the_nominal_horizon():
    # with eps*limit <= 1 the certified chain fails at every m in range,
    # decided before any float, so the nominal onset is the one to refuse
    with pytest.raises(InsufficientHorizonError, match="still fails at the horizon 10000"):
        verify_size_bound(Fraction(1, 10 ** 400), SQ, square_schedule(), [1] * 40)


def test_size_bound_rejects_inadmissible_words():
    s = square_schedule()
    bad = [1] * 40
    bad[3] = 3  # position 4 must carry step value 1
    with pytest.raises(DomainError):
        verify_size_bound("1/10", SQ, s, PartialQuotients(bad))
    with pytest.raises(DomainError):
        verify_size_bound(0.1, SQ, s, PartialQuotients((1,) * 40))


def test_size_bound_refuses_a_word_with_no_free_digit():
    s = square_schedule()
    with pytest.raises(DomainError, match="^word must be nonempty$"):
        verify_size_bound("1/10", SQ, s, ())
    # position 1 is the square 1, so its one digit is constrained
    with pytest.raises(DomainError, match="^every digit is constrained; nothing remains"):
        verify_size_bound("1/10", SQ, s, (1,))


def test_separation_gap_dominates_cylinder_scaled_bound():
    rep = verify_separation((2, 1), 3, (1, 2), (2, 1))
    assert rep.gap == Fraction(3, 143)
    assert rep.bound == Fraction(1, 9 * 27) * cylinder_len((2, 1))
    assert rep.ok


def cylinder_len(w):
    from cfdim import cylinder

    return cylinder(w).length


def test_separation_exhaustive_small():
    for m_cap in (2, 3):
        for plen in (0, 1, 2):
            for prefix in product(range(1, m_cap + 1), repeat=plen):
                for t1 in product(range(1, m_cap + 1), repeat=2):
                    for t2 in product(range(1, m_cap + 1), repeat=2):
                        if t1[0] == t2[0]:
                            continue
                        x = tuple(prefix) + t1
                        y = tuple(prefix) + t2
                        if evaluate(x) == evaluate(y):
                            continue
                        rep = verify_separation(prefix, m_cap, t1, t2)
                        assert rep.ok, (prefix, t1, t2)


def test_separation_validation():
    with pytest.raises(DomainError):
        verify_separation((), 3, (2, 1), (3,))  # same value, boundary alias
    with pytest.raises(DomainError):
        verify_separation((), 3, (2, 1), (2, 2))  # equal first digits
    with pytest.raises(DomainError):
        verify_separation((), 3, (4, 1), (2, 2))  # digit above the cap
    with pytest.raises(DomainError):
        verify_separation((), 1, (1,), (1,))
    with pytest.raises(DomainError, match="^both continuations must be nonempty$"):
        verify_separation((2,), 3, (), (1,))


def test_nominal_onset_values():
    assert nominal_onset(SQ, "1/10") == 34
    assert nominal_onset(SQ, "1/10") < nominal_onset(SQ, "1/100")
    assert nominal_onset(parse_index_sequence("pow:2"), "1/10") >= 1
    with pytest.raises(DomainError):
        nominal_onset(parse_index_sequence("even"), "1/10")


def test_holder_check_passes_sampled_pairs():
    s = square_schedule()
    pairs = sample_holder_pairs(SQ, 5, s, 40, 9, 34)
    reports = holder_check(SQ, 5, "1/10", pairs)
    assert len(reports) == 40
    assert all(r.ok for r in reports)
    assert all(r.reason == "" or r.reason == "identical points" for r in reports)


def test_holder_check_skip_reasons():
    s = square_schedule()
    w = build_point(SQ, 5, s, 40)
    reports = holder_check(
        SQ,
        5,
        "1/10",
        [
            (w, w),
            ((1, 2), (1, 3)),  # below the onset
            (w.digits[:35] + (2,), w.digits[:35] + (3,)),  # position 36 constrained
            ((1,) * 38 + (9,), (1,) * 38 + (2,)),  # free digit above the cap
            ((1,) * 38 + (2,), (1,) * 38 + (7,)),  # the same, in the second word
        ],
    )
    assert reports[0].ok is True and reports[0].reason == "identical points"
    assert reports[1].ok is None and "below onset" in reports[1].reason
    assert reports[2].ok is None and "constrained" in reports[2].reason
    assert reports[3].ok is None and "exceeds the cap" in reports[3].reason
    assert reports[4].reason == "free digit 7 at position 39 exceeds the cap 5"


def test_holder_check_skips_a_pair_whose_words_share_a_whole_word():
    # one word is a prefix of the other, so no digit follows the shared prefix
    x = (1,) * 38
    for pair in ((x, x + (2,)), (x + (3, 1), x)):
        (report,) = holder_check(SQ, 5, "1/10", [pair])
        assert report == (*pair, 38, None, None, None, "no continuation digit")


def test_holder_check_rejects_boundary_alias_pairs():
    base = (1,) * 38
    reports = holder_check(SQ, 5, "1/10", [(base + (2, 1), base + (3,))])
    assert reports[0].ok is None
    assert "same point" in reports[0].reason


def test_sample_holder_pairs_deterministic():
    s = square_schedule()
    a = sample_holder_pairs(SQ, 5, s, 6, 3, 34)
    b = sample_holder_pairs(SQ, 5, s, 6, 3, 34)
    assert a == b
    c = sample_holder_pairs(SQ, 5, s, 6, 4, 34)
    assert a != c
    for x, y in a:
        shared = 0
        for dx, dy in zip(x.digits, y.digits):
            if dx != dy:
                break
            shared += 1
        assert shared >= 34
        assert (shared + 1) not in SQ


@pytest.mark.parametrize("last", [49, 10 ** 12])
@pytest.mark.parametrize("spec", ["all", "geq:7"])
def test_sample_holder_pairs_refuses_a_constrained_run_past_the_schedule(spec, last):
    # seed 1 draws a prefix of 13 digits, and every later position is
    # constrained, so no free position follows before the schedule's steps
    # run out; a last breakpoint of 10^12, as a schedule file may hold, is
    # refused as fast
    sched = (choose_schedule(SQ, 4, 10 ** 4, c1="1/30") if last == 49
             else StepSchedule(Fraction(1, 10), None, (0,), (last,), last))
    assert sched.breakpoints[-1] == last
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^index %d is past the last breakpoint %d; "
                                          "extend the schedule$" % (last + 1, last)):
        sample_holder_pairs(parse_index_sequence(spec), 3, sched, 1, 1, 5)
    assert time.perf_counter() - start < 1


# The size check and the pair sampler read the constrained positions once
# and walk the denominators alone.  The references below walk all four
# continuant rows, delete digit by digit and ask the sequence at every
# position, and both sides must agree on every report, pair and refusal.
def _all_rows_final(digits):
    # (p_n, q_n, p_{n-1}, q_{n-1}) from the full recurrence
    p_prev, q_prev, p, q = 1, 0, 0, 1
    for a in digits:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q, p_prev, q_prev


def _size_bound_by_rows(eps, seq, schedule, word):
    eps = Fraction(eps)
    en, ed = eps.numerator, eps.denominator
    digits = PartialQuotients(word)
    n = len(digits)
    constrained = construction._constrained_digits(seq, schedule, n, "word")
    for pos, want in constrained:
        if digits[pos - 1] != want:
            raise DomainError(
                "word is not admissible: position %d carries %d, the schedule says %d"
                % (pos, digits[pos - 1], want))
    if n - len(constrained) < 1:
        raise DomainError("every digit is constrained; nothing remains after deletion")
    _, q, _, q_prev = _all_rows_final(digits)
    big_l = q * (q + q_prev)
    drop = set(seq.upto(n))
    _, q, _, q_prev = _all_rows_final(a for k, a in enumerate(digits, start=1) if k not in drop)
    big_r = q * (q + q_prev)
    ok = _power_at_least(big_r, en + ed, big_l, ed, eps)
    onset_certified = construction._certified_onset(seq, schedule, eps)
    onset = construction._nominal_onset(seq, eps, schedule.horizon)
    with mp.workdps(50):
        rhs = +((mpf(1) / mpf(big_r)) ** (mpf(en + ed) / ed))
    return construction.SizeBoundReport(eps, digits, onset, onset_certified,
                                        Fraction(1, big_l), rhs, ok)


def _pairs_by_position(seq, m_cap, schedule, count, seed, min_prefix):
    rng = random.Random(seed)

    def fill(pos):
        if pos in seq:
            return step_value(schedule, seq.count_window(pos))
        return rng.randint(1, m_cap)

    pairs = []
    for _ in range(count):
        n = rng.randrange(min_prefix, min_prefix + 60)
        while (n + 1) in seq:
            n += 1
        prefix = [fill(i) for i in range(1, n + 1)]
        d1, d2 = rng.sample(range(1, m_cap + 1), 2)

        def extend(first):
            word = prefix + [first]
            for i in range(n + 2, n + 2 + rng.randrange(0, 30)):
                word.append(fill(i))
            while len(word) > n + 1 and len(word) in seq:
                word.pop()
            if len(word) > n + 1 and word[-1] == 1:
                word[-1] = rng.randint(2, m_cap)
            return PartialQuotients(word)

        pairs.append((extend(d1), extend(d2)))
    return pairs


_LISTED = IndexSequence("explicit", (), (3, 10, 20, 40, 70))
# (sequence, schedule, longest word): both modes on square and pow:2 as
# choose_schedule builds them, and a hand-built schedule on a listed
# sequence whose steps run out at its fifth member.  The steps of square
# in c1 mode run out at position 2500, inside the longest prefixes drawn
_PIPELINE_CASES = [
    (parse_index_sequence(spec), choose_schedule(parse_index_sequence(spec), j_max, 10 ** 4,
                                                 **{mode: value}), longest)
    for spec, longest in (("square", 1000), ("pow:2", 600))
    for mode, value, j_max in (("eps", "1/10", 30), ("c1", "1/30", 4))
] + [
    (_LISTED, StepSchedule(Fraction(1, 10), None, (0, 0, 0), (1, 2, 4), 200), 90),
    (_LISTED, StepSchedule(None, Fraction(1, 30), (0, 0), (2, 4), 200), 90),
]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, InsufficientHorizonError, ResourceCapError) as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_PIPELINE_CASES), st.floats(0, 1), st.integers(0, 2 ** 32),
       st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 2)]),
       st.sampled_from([False, False, False, True]))
def test_size_bound_agrees_with_the_row_by_row_reference(case, share, seed, eps, corrupt):
    seq, sched, longest = case
    rng = random.Random(seed)
    n = 1 + int(share * (longest - 1))
    steps = dict(construction._constrained_digits(seq, sched, n, "word")) \
        if seq.count_window(n) <= sched.breakpoints[-1] else {}
    word = [steps.get(i) or rng.randint(1, 6) for i in range(1, n + 1)]
    if corrupt and steps:
        word[rng.choice(sorted(steps)) - 1] += 1
    got = _outcome(verify_size_bound, eps, seq, sched, word)
    assert got == _outcome(_size_bound_by_rows, eps, seq, sched, word)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_PIPELINE_CASES), st.integers(2, 6), st.integers(1, 8),
       st.integers(0, 2 ** 32), st.one_of(st.integers(1, 120), st.integers(2300, 2600)))
@example(_PIPELINE_CASES[1], 3, 2, 5, 2450)  # square's c1 steps run out at 2500
def test_sampled_pairs_agree_with_the_position_by_position_reference(case, m_cap, count, seed,
                                                                    min_prefix):
    seq, sched, _ = case
    got = _outcome(sample_holder_pairs, seq, m_cap, sched, count, seed, min_prefix)
    assert got == _outcome(_pairs_by_position, seq, m_cap, sched, count, seed, min_prefix)


def test_size_onsets_keep_one_key_and_equal_the_uncached_scans():
    # square and pow:2, each with two value-equal schedules built apart,
    # at eps 1/10 as text and as a Fraction and at 1/7: a key that repeats
    # the last one reads the kept onsets, any other computes them again
    construction._size_onsets.cache_clear()
    pw = parse_index_sequence("pow:2")
    scheds = {seq: [choose_schedule(seq, 30, 10 ** 4, eps="1/10") for _ in range(2)]
              for seq in (SQ, pw)}
    for a, b in scheds.values():
        assert a == b and a is not b
    words = {seq: build_point(seq, 3, a, 600) for seq, (a, _) in scheds.items()}
    calls = [(SQ, 0, "1/10"), (SQ, 1, Fraction(1, 10)), (pw, 0, "1/10"), (SQ, 0, "1/7"),
             (SQ, 1, Fraction(1, 7)), (pw, 1, Fraction(1, 10)), (pw, 0, "1/10"),
             (SQ, 0, Fraction(1, 10)), (pw, 1, "1/7")]
    for seq, i, eps in calls:
        sched = scheds[seq][i]
        got = verify_size_bound(eps, seq, sched, words[seq])
        assert got == _size_bound_by_rows(eps, seq, sched, words[seq]), (seq, i, eps)
    info = construction._size_onsets.cache_info()
    assert (info.maxsize, info.currsize, info.hits, info.misses) == (1, 1, 3, 6)


def test_size_onsets_keep_no_refusal():
    # the nominal onset refuses this horizon; the refusal is not kept,
    # so each call walks again and raises the same error
    construction._size_onsets.cache_clear()
    even = parse_index_sequence("even")
    sched = StepSchedule(Fraction(1, 10), None, (0,), (5,), 10 ** 6)
    for _ in range(2):
        with pytest.raises(InsufficientHorizonError,
                           match="^the onset condition still fails at the horizon 1000000$"):
            verify_size_bound("1/10", even, sched, [1] * 10)
    assert construction._size_onsets.cache_info().currsize == 0
