"""Digit-set dimension values, covering conditions, the density dichotomy."""

from fractions import Fraction
from itertools import product

import mpmath
import pytest
from mpmath import mp, mpf

from cfdim import (
    DivergenceError,
    DomainError,
    PartialQuotients,
    covering_condition,
    covering_product_bound,
    dimension_dichotomy,
    estimate_condition_floor,
    hirst_dimension,
    parse_digit_set,
    parse_index_sequence,
    zeta,
    zeta_tail,
)
from cfdim.cfcore import expand_decimal, quotient_ratio_check
from cfdim.construction import (
    StepSchedule,
    build_point,
    choose_schedule,
    sample_holder_pairs,
    step_value,
)
from cfdim.dimension import covering_sum_enumerated, recursion_factor
from cfdim.hirst import digit_power_sum, digit_tail_power_sum
from cfdim.sequences import DigitSet, IndexSequence, density, tau

ALL = parse_digit_set("all")
EVEN = parse_index_sequence("even")


def test_digit_power_sum_closed_forms():
    with mp.workdps(40):
        assert abs(digit_power_sum(ALL, "1.5") - zeta("1.5")) < mpf("1e-30")
        assert abs(digit_power_sum(parse_digit_set("geq:10"), 2) - zeta_tail(10, 2)) < mpf("1e-30")
        assert abs(digit_power_sum(parse_digit_set("square"), "0.8") - zeta("1.6")) < mpf("1e-30")
        # geometric: sum over 2^-k for k >= 1
        assert abs(digit_power_sum(parse_digit_set("pow:2"), 1) - 1) < mpf("1e-30")
        few = DigitSet("explicit", (), (2, 5))
        assert abs(digit_power_sum(few, 1) - (mpf(1) / 2 + mpf(1) / 5)) < mpf("1e-30")


def test_digit_power_sum_divergence_edges():
    with pytest.raises(DivergenceError):
        digit_power_sum(ALL, 1)
    with pytest.raises(DivergenceError):
        digit_power_sum(parse_digit_set("square"), "0.5")
    with pytest.raises(DivergenceError):
        digit_power_sum(parse_digit_set("pow:2"), 0)


def test_digit_tail_power_sum_matches_direct():
    with mp.workdps(40):
        sq = parse_digit_set("square")
        # sum over squares >= 10 of d^(-0.9) is sum_{j>=4} j^(-1.8)
        direct = mp.zeta(mpf("1.8")) - mp.fsum(mpf(j) ** mpf("-1.8") for j in range(1, 4))
        assert abs(digit_tail_power_sum(sq, 10, "0.9") - direct) < mpf("1e-12")
        pw = parse_digit_set("pow:2")
        direct = mp.fsum(mpf(2) ** (-k) for k in range(4, 200))
        assert abs(digit_tail_power_sum(pw, 9, 1) - direct) < mpf("1e-30")
        assert abs(digit_tail_power_sum(ALL, 7, 2) - zeta_tail(7, 2)) < mpf("1e-30")
        # floors one below, at and one above a member; the reference sums
        # members >= floor read off a brute-force membership list
        z = mpf("1.3")
        squares = [j * j for j in range(1, 10)]
        for floor in (8, 9, 10):
            head = mp.fsum(mpf(a) ** -z for a in squares if a < floor)
            got = digit_tail_power_sum(sq, floor, z)
            assert abs(got - (mp.zeta(2 * z) - head)) < mpf("1e-12"), floor
        cubes = parse_digit_set("pow:3")
        for floor in (26, 27, 28):
            direct = mp.fsum(mpf(3) ** (-k * z) for k in range(1, 300) if 3 ** k >= floor)
            assert abs(digit_tail_power_sum(cubes, floor, z) - direct) < mpf("1e-30"), floor
        geq7 = parse_digit_set("geq:7")
        for floor in (6, 7, 8):
            # non-members 1..6 and the members below the floor
            head = mp.fsum(mpf(a) ** -2 for a in range(1, 20) if a < 7 or a < floor)
            got = digit_tail_power_sum(geq7, floor, 2)
            assert abs(got - (mp.zeta(2) - head)) < mpf("1e-12"), floor


@pytest.mark.parametrize("digits, floor_m, z, raw", [
    (ALL, 7, "1.5", (0, 0x64566f329ce8bd8acc4beb52e37f029bab3bce533b, -167, 167)),
    (parse_digit_set("geq:7"), 12, 2, (0, 0xb1f99bef902b2b7b4cd40087e880a081c98b317883, -171, 168)),
    (parse_digit_set("square"), 10, "0.9",
     (0, 0x1d3998fe73c66c1c283770d624afa5c48fb3b3d442f, -170, 169)),
    (parse_digit_set("pow:3"), 28, "1.3",
     (0, 0x4731031fbacc0207615c79a4fe541562637df3f593, -174, 167)),
    (DigitSet("explicit", (), (2, 5, 11, 20)), 5, "0.7",
     (0, 0x1446798fb281ca965dc600d1b33b63354fdac7d539f, -169, 169)),
], ids=["all", "geq7", "square", "pow3", "finite"])
def test_digit_tail_power_sum_keeps_its_bits(digits, floor_m, z, raw):
    # the raw mpf at 50 digits, one case per shape: a power run through
    # zeta_tail, a geometric run and a finite set
    assert digit_tail_power_sum(digits, floor_m, z)._mpf_ == raw


def test_the_floor_and_the_condition_along_even_keep_their_bits():
    # the raw lhs at 50 digits, eps 1/5: on all the estimated floor holds
    # and half of it fails; on square the floor passes 10^18, where the
    # condition fails, and it holds at 10^40
    est = estimate_condition_floor(ALL, EVEN, Fraction(1, 5))
    lhs = (0, 0xffffffff24250d72f848d1259919911c3fb54e66b5, -168, 168)
    assert (est.value, est.lhs._mpf_, est.ok, est.exceeded) == (1644707099789, lhs, True, False)
    assert covering_condition(ALL, EVEN, Fraction(1, 5), 1644707099789) == (est.lhs, True)
    half = covering_condition(ALL, EVEN, Fraction(1, 5), 822353549894)
    assert (half.lhs._mpf_, half.ok) \
        == ((0, 0x12611186ab21622508c5dab9c358bf80d62b0b769c5, -168, 169), False)
    square = parse_digit_set("square")
    assert estimate_condition_floor(square, EVEN, Fraction(1, 5)) == (None, None, False, True)
    for m_floor, raw, ok in [
        (10 ** 18, (0, 0x465ca6f0dddb3387ce3cb18d19ad3bb18ff142456d, -164, 167), False),
        (10 ** 40, (0, 0xe34de6cad1aead341fa812c9c62bb358977df2f3ad, -173, 168), True),
    ]:
        res = covering_condition(square, EVEN, Fraction(1, 5), m_floor)
        assert (res.lhs._mpf_, res.ok) == (raw, ok), m_floor


def test_hirst_dimension_flagship_values():
    assert hirst_dimension(ALL).value == Fraction(1, 2)
    assert hirst_dimension(parse_digit_set("square")).value == Fraction(1, 4)
    assert hirst_dimension(parse_digit_set("pow:2")).value == 0
    assert hirst_dimension(parse_digit_set("geq:1000")).value == Fraction(1, 2)


def test_hirst_dimension_finite_set_warns(tmp_path):
    path = tmp_path / "digits.txt"
    path.write_text("1\n2\n3\n")
    h = hirst_dimension(parse_digit_set("file:%s" % path))
    assert h.value == 0 and h.warning


def test_hirst_dimension_is_tau_with_the_value_halved(tmp_path):
    finite = tmp_path / "digits.txt"
    finite.write_text("1\n2\n3\n")
    sets = [parse_digit_set(text) for text in ("all", "geq:5", "square", "pow:3")]
    sets.append(parse_digit_set("file:%s" % finite))
    for digits in sets:
        t, h = tau(digits), hirst_dimension(digits)
        assert type(h) is type(t) and h == t._replace(value=t.value / 2)
        assert type(t.value) is Fraction and t.method == "analytic"
    assert hirst_dimension(sets[4]).warning == tau(sets[4]).warning != ""


@pytest.mark.parametrize(
    "digits",
    [EVEN, IndexSequence("arith", (1, 1)), IndexSequence("explicit", (), (2, 5))],
    ids=["even", "all-as-sequence", "explicit-sequence"],
)
def test_index_sequence_is_not_a_digit_set(digits):
    # read as digits, even once summed over every integer (zeta(2) - 1
    # where the even digits give zeta(2)/4), and an explicit sequence
    # escaped as an AttributeError
    calls = [
        lambda: tau(digits),
        lambda: digit_power_sum(digits, 2),
        lambda: digit_tail_power_sum(digits, 1, 2),
        lambda: covering_condition(digits, EVEN, "1/5", 100),
        lambda: estimate_condition_floor(digits, EVEN, "1/5"),
        lambda: covering_product_bound(digits, EVEN, 2, 1, 0, 1, _EMPTY),
        lambda: hirst_dimension(digits),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="digits must be a DigitSet"):
            call()


def test_covering_condition_flips_with_floor():
    c = covering_condition(ALL, EVEN, "1/5", 100)
    assert not c.ok and c.lhs > 1
    c = covering_condition(ALL, EVEN, "1/5", 10 ** 13)
    assert c.ok and c.lhs < 1


def test_covering_condition_monotone_in_floor():
    with mp.workdps(40):
        values = [
            covering_condition(ALL, EVEN, "1/5", m).lhs
            for m in (10, 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12)
        ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_covering_condition_domain_checks():
    with pytest.raises(DomainError):
        covering_condition(ALL, EVEN, "1/2", 100)  # eps reaches the density
    with pytest.raises(DomainError):
        covering_condition(ALL, parse_index_sequence("square"), "1/5", 100)
    with pytest.raises(DomainError):
        covering_condition(ALL, IndexSequence("explicit", (), (2, 4)), "1/5", 100)


_EMPTY = PartialQuotients(())
_SQUARE = parse_index_sequence("square")
_SCHED = StepSchedule(Fraction(1, 10), None, (0, 0), (1, 2), 100)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: covering_condition(ALL, EVEN, "1/5", True), "the digit floor must be"),
        (lambda: digit_tail_power_sum(ALL, True, 2), "floor must be an integer >= 1"),
        (lambda: covering_product_bound(ALL, EVEN, True, 1, 0, 1, _EMPTY),
         "the digit floor must be"),
        (lambda: covering_product_bound(ALL, EVEN, 2, 1, True, 2, _EMPTY),
         "the base level must be"),
        (lambda: covering_product_bound(ALL, EVEN, 2, 1, 0, True, _EMPTY),
         "the target level must exceed"),
        # each integer parameter refuses True
        (lambda: expand_decimal("0.714285", max_digits=True),
         "max_digits must be an integer >= 1, got True"),
        (lambda: StepSchedule(Fraction(1, 10), None, (0,), (True,), 10),
         "each breakpoint must be an integer >= 1, got True"),
        (lambda: StepSchedule(Fraction(1, 10), None, (True,), (1,), 10),
         "each threshold must be an integer >= 0, got True"),
        (lambda: StepSchedule(Fraction(1, 10), None, (0,), (1,), True),
         "horizon must be an integer >= 1, got True"),
        (lambda: choose_schedule(_SQUARE, True, 10000, eps="1/10"),
         "j_max must be an integer >= 1, got True"),
        (lambda: choose_schedule(_SQUARE, 1, True, eps="1/10"),
         "horizon must be an integer >= 1, got True"),
        (lambda: step_value(_SCHED, True), "step index must be an integer >= 1, got True"),
        (lambda: build_point(_SQUARE, True, _SCHED, 3),
         "digit cap must be an integer >= 1, got True"),
        (lambda: build_point(_SQUARE, 3, _SCHED, True), "depth must be an integer >= 1, got True"),
        (lambda: build_point(_SQUARE, 3, _SCHED, 3, True), r"filler must be an integer in \[1, 3\]"),
        (lambda: sample_holder_pairs(_SQUARE, 3, _SCHED, True, 0, 5),
         "count must be an integer >= 1, got True"),
        (lambda: sample_holder_pairs(_SQUARE, 3, _SCHED, 1, 0, True),
         "min_prefix must be an integer >= 1, got True"),
        (lambda: recursion_factor(True, 2, 2), "odd-position digit must be an integer >= 1, got True"),
        (lambda: recursion_factor(1, True, 1),
         "even-position digit must be an integer >= 1, got True"),
        (lambda: covering_sum_enumerated(2, 1, True, 3), "levels must be an integer >= 1, got True"),
        (lambda: covering_sum_enumerated(1, 1, 1, True),
         "digit cap must be an integer >= 1, got True"),
        # indices, counts, sampling sizes and rule parameters
        (lambda: quotient_ratio_check((2, 3), True), "k must be in 1..2, got True"),
        (lambda: _SQUARE.nth(True), "sequence index must be an integer >= 1, got True"),
        (lambda: _SQUARE.count(True), "n must be an integer >= 0, got True"),
        (lambda: _SQUARE.upto(2.5), "n must be an integer >= 0, got 2.5"),
        (lambda: _SQUARE.upto(True), "n must be an integer >= 0, got True"),
        (lambda: IndexSequence("explicit", (), (1, 3)).count_window(2.5),
         "n must be an integer >= 0, got 2.5"),
        (lambda: parse_index_sequence("pow:2").first_at_least(2.5),
         "value must be an integer >= 0, got 2.5"),
        (lambda: _SQUARE.first_at_least(2.5), "value must be an integer >= 0, got 2.5"),
        (lambda: list(_SQUARE.runs(2.5)), "limit must be an integer >= 1, got 2.5"),
        (lambda: list(_SQUARE.runs(True)), "limit must be an integer >= 1, got True"),
        (lambda: IndexSequence("pow", (True,)), r"pow takes 1 integer parameter\(s\)"),
        # one value below the minimum per module
        (lambda: expand_decimal("0.714285", max_digits=0), "max_digits must be an integer >= 1, got 0"),
        (lambda: zeta_tail(0, 2), "start must be an integer >= 1, got 0"),
        (lambda: density(_SQUARE, 99), "horizon must be an integer >= 100, got 99"),
        (lambda: list(_SQUARE.runs(0)), "limit must be an integer >= 1, got 0"),
        (lambda: covering_sum_enumerated(2, 1, 0, 3), "levels must be an integer >= 1, got 0"),
        (lambda: build_point(_SQUARE, 3, _SCHED, 0), "depth must be an integer >= 1, got 0"),
        (lambda: covering_condition(ALL, EVEN, "1/5", 0),
         "the digit floor must be an integer >= 1, got 0"),
    ],
    ids=["condition-floor", "tail-floor", "product-floor", "product-base", "product-level",
         "cf-max-digits", "schedule-breakpoint", "schedule-threshold", "schedule-horizon",
         "choose-j-max", "choose-horizon", "step-index", "point-cap", "point-depth",
         "point-filler", "pairs-count", "pairs-min-prefix", "factor-odd", "factor-even",
         "cover-levels", "cover-cap", "ratio-k", "seq-nth", "seq-count",
         "seq-upto-float", "seq-upto-bool", "seq-window-float", "seq-first-pow-float",
         "seq-first-square-float", "seq-runs-float", "seq-runs-bool", "rule-param",
         "cfcore-below", "special-below", "sequences-below", "runs-below",
         "dimension-below", "construction-below", "hirst-below"],
)
def test_bool_is_not_an_integer_argument(call, message):
    # bool subclasses int; the shared rule in cfdim.errors refuses it, and
    # the few checks with their own text build on the same predicate
    with pytest.raises(DomainError, match=message):
        call()


def test_estimate_condition_floor_flagship():
    est = estimate_condition_floor(ALL, EVEN, "1/5")
    assert est.ok and not est.exceeded
    assert 1.5e12 < est.value < 2e12
    assert not covering_condition(ALL, EVEN, "1/5", est.value // 10).ok


def test_estimate_doubles_a_floor_that_fails():
    # the inverted tail at geq:2 and eps 2/5 undershoots: its floor fails
    # by 1e-10, and the doubled one is returned
    geq2 = parse_digit_set("geq:2")
    low = covering_condition(geq2, EVEN, "2/5", 186450034)
    assert not low.ok and 1 < low.lhs < 1 + mpf("1e-9")
    est = estimate_condition_floor(geq2, EVEN, "2/5")
    assert (est.value, est.ok, est.exceeded) == (372900068, True, False)


def test_estimate_on_an_explicit_digit_set(tmp_path):
    # tau = 0 on a finite set, so every digit's term is 1 and only the
    # empty tail meets the condition: past the largest digit, 89, where the
    # 1e-9 bump lifts the estimate 90 to 91.  One digit alone meets it
    # with its whole tail, 1 = 1^(-e), so its estimate is the digit, 7
    path = tmp_path / "digits.txt"
    path.write_text("1\n2\n3\n5\n8\n13\n21\n34\n55\n89\n")
    digits = parse_digit_set("file:%s" % path)
    est = estimate_condition_floor(digits, EVEN, "1/5")
    assert (est.value, est.lhs, est.ok) == (91, 0, True)
    assert not covering_condition(digits, EVEN, "1/5", 89).ok
    path.write_text("7\n")
    one = parse_digit_set("file:%s" % path)
    assert covering_condition(one, EVEN, "1/5", 7) == (1, True)
    assert estimate_condition_floor(one, EVEN, "1/5")[:3] == (8, 0, True)


def test_covering_condition_square_digits_at_large_floor():
    # squares decay so slowly (tail ~ M^(-0.05) at eps = 1/10) that the
    # condition only turns true around 10^51; the estimator reports the
    # overflow and the analytic tails still evaluate the condition there
    d = parse_digit_set("square")
    est = estimate_condition_floor(d, EVEN, "1/10")
    assert est.exceeded and est.value is None
    assert covering_condition(d, EVEN, "1/10", 10 ** 55).ok
    assert not covering_condition(d, EVEN, "1/10", 10 ** 40).ok


def test_floor_doubling_stops_past_half_the_cap():
    # squares along all at eps 37/314: the estimate, about 8.6e17, undershoots.
    # The tail's first term adds about eps/(2J) to its integral form, J the
    # first square root past the floor, more than the 1e-9 bump takes off
    # when J lies less than about 1/2 above the estimated root.  So the
    # condition fails there, and doubling would pass 10^18
    square, every = parse_digit_set("square"), parse_index_sequence("all")
    est = estimate_condition_floor(square, every, "37/314")
    assert (est.value, est.ok, est.exceeded) == (None, False, True)
    assert 1 < est.lhs < 1 + mpf("1e-11")
    assert not covering_condition(square, every, "37/314", 860105624118713000).ok


def test_estimate_blows_up_near_the_density():
    est = estimate_condition_floor(ALL, EVEN, "9/20")
    assert est.exceeded and est.value is None


@pytest.mark.xfail(
    strict=True,
    reason="the estimate is not monotone in eps: the threshold loosens "
    "and the inversion exponent stiffens in opposite directions, so the "
    "floor dips near eps = 0.3 before blowing up toward the density",
)
def test_estimate_monotone_in_eps_literal():
    values = [
        estimate_condition_floor(ALL, EVEN, e).value
        for e in ("1/5", "1/4", "3/10", "2/5")
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_estimate_grows_on_the_upper_branch():
    lo = estimate_condition_floor(ALL, EVEN, "3/10").value
    mid = estimate_condition_floor(ALL, EVEN, "2/5").value
    assert lo < mid
    assert estimate_condition_floor(ALL, EVEN, "9/20").exceeded


def test_product_bound_closed_form_example():
    with mp.workdps(40):
        b = covering_product_bound(ALL, EVEN, 2, 1, 0, 1, PartialQuotients(()))
        z2 = zeta(2)
        assert abs(b - z2 * (z2 - 1)) < mpf("1e-30")
        # even constraints: free exponent is n - N, so level 2 squares both sums
        b2 = covering_product_bound(ALL, EVEN, 2, 1, 0, 2, PartialQuotients(()))
        assert abs(b2 - (z2 * (z2 - 1)) ** 2) < mpf("1e-28")


def test_product_bound_decreasing_in_s():
    with mp.workdps(40):
        vals = [
            covering_product_bound(ALL, EVEN, 3, s, 0, 2, PartialQuotients(()))
            for s in ("0.6", "0.8", "1", "1.3")
        ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_product_bound_prefix_weighting():
    with mp.workdps(40):
        prefix = PartialQuotients((1, 2))  # length k_1 = 2 for the even sequence
        b = covering_product_bound(ALL, EVEN, 2, 1, 1, 2, prefix)
        free = covering_product_bound(ALL, EVEN, 2, 1, 0, 1, PartialQuotients(()))
        weight = mpf(1) / (1 * 2) ** 2
        assert abs(b - weight * free) < mpf("1e-30")
    with pytest.raises(DomainError):
        covering_product_bound(ALL, EVEN, 2, 1, 1, 2, PartialQuotients((1,)))
    with pytest.raises(DomainError, match="^prefix digit 2 is outside the digit set$"):
        covering_product_bound(parse_digit_set("geq:3"), EVEN, 3, 1, 1, 2, PartialQuotients((3, 2)))
    with pytest.raises(DivergenceError):
        covering_product_bound(ALL, EVEN, 2, "0.5", 0, 1, PartialQuotients(()))


def test_product_bound_dominates_enumeration():
    from cfdim import cylinder

    d20 = DigitSet("explicit", (), tuple(range(1, 21)))
    with mp.workdps(30):
        for n, length in ((1, 2), (2, 4)):
            bound = covering_product_bound(d20, EVEN, 2, "9/10", 0, n, PartialQuotients(()))
            total = mpf(0)
            spaces = [
                range(2, 21) if (i + 1) % 2 == 0 else range(1, 21)
                for i in range(length)
            ]
            for w in product(*spaces):
                total += cylinder(w).length ** mpf("0.9")
            assert total <= bound


def test_dimension_dichotomy():
    assert dimension_dichotomy(EVEN) == (Fraction(1, 2), "positive-upper-density")
    assert dimension_dichotomy(parse_index_sequence("arith:1,3")).dim == Fraction(1, 2)
    assert dimension_dichotomy(parse_index_sequence("square")) == (
        Fraction(1),
        "zero-upper-density",
    )
    assert dimension_dichotomy(parse_index_sequence("pow:2")).dim == Fraction(1)
    with pytest.raises(DomainError):
        dimension_dichotomy(IndexSequence("explicit", (), (1, 4, 6)))


def test_dichotomy_agrees_with_hirst_specialization():
    assert hirst_dimension(ALL).value == dimension_dichotomy(EVEN).dim
