"""Exact word arithmetic: expansion, convergents, cylinders, deletion."""

import copy
import json
import pickle
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfdim import (
    BoundaryAmbiguityError,
    DomainError,
    PartialQuotients,
    continuant,
    convergents,
    cylinder,
    delete_indices,
    evaluate,
    expand_decimal,
    expand_rational,
    normalize,
    quotient_ratio_check,
)
from cfdim.cfcore import Cylinder, _digit_tuple, _wrap
from cfdim.cli import main
from cfdim.errors import is_int
from cfdim.sequences import IndexSequence, parse_index_sequence


def test_expand_known_values():
    assert list(expand_rational("7/10")) == [1, 2, 3]
    assert list(expand_rational(Fraction(1, 2))) == [2]
    assert list(expand_rational(Fraction(2, 5))) == [2, 2]
    assert list(expand_rational(Fraction(5, 7))) == [1, 2, 2]


def test_round_trip_small_denominators():
    # exhaustive up to denominator 80; the acceptance suite pushes to 500
    for q in range(2, 81):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            w = expand_rational(Fraction(p, q))
            assert evaluate(w) == Fraction(p, q)
            assert w.digits[-1] > 1


def test_expand_rejects_out_of_range_and_floats():
    for bad in ("0/1", "1/1", "3/2", "-1/4"):
        with pytest.raises(DomainError):
            expand_rational(bad)
    with pytest.raises(DomainError):
        expand_rational(0.7)
    with pytest.raises(DomainError):
        expand_rational(True)


def test_expand_rational_rejects_unreadable_input():
    # exact_positive_fraction reads x; a pair of ints is not a rational
    for bad in ("abc", "1/0", "\u0661/2", "1_0/3", (1, 0), (1,), ("a", 2)):
        with pytest.raises(DomainError, match="^x is not a rational: "):
            expand_rational(bad)


def test_evaluate_rejects_empty_word():
    with pytest.raises(DomainError):
        evaluate(())


def test_word_parsing_and_text_round_trip():
    w = PartialQuotients.from_text("2, 1, 4")
    assert w.digits == (2, 1, 4)
    assert w.to_text() == "2,1,4"
    assert PartialQuotients.from_text("").digits == ()
    with pytest.raises(DomainError):
        PartialQuotients.from_text("2,x")
    with pytest.raises(DomainError):
        PartialQuotients((0,))
    with pytest.raises(DomainError):
        PartialQuotients((True,))


def test_a_word_built_from_a_word_is_that_word():
    # the word is immutable and already checked, so no layer copies it
    w = PartialQuotients((2, 1, 4))
    assert PartialQuotients(w) is w
    assert normalize(w) is w and cylinder(w).word is w
    fresh = PartialQuotients((2, 1, 4))
    assert fresh == w and fresh is not w and type(fresh) is PartialQuotients


def test_a_word_is_a_validated_tuple(capsys):
    w = PartialQuotients((2, 1, 4))
    assert len(w) == 3 and w[0] == 2 and w[-1] == 4
    assert w[1:] == (1, 4) and list(w) == [2, 1, 4]
    assert w and not PartialQuotients()
    # it compares and hashes as the plain tuple of its digits
    assert w == (2, 1, 4) and hash(w) == hash((2, 1, 4))
    assert type(w.digits) is tuple and w.digits == (2, 1, 4)
    with pytest.raises(AttributeError):
        w.digits = (1,)
    with pytest.raises(AttributeError):
        w.note = "x"
    for again in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(again) is PartialQuotients and again == w
    assert type(_wrap((3, 5))) is PartialQuotients
    assert repr(w) == "PartialQuotients([2,1,4])"
    assert repr(PartialQuotients()) == "PartialQuotients([])"
    assert w.extended(7, 1) == (2, 1, 4, 7, 1)
    with pytest.raises(DomainError):
        w.extended(0)
    main(["cf", "cylinder", "--word", "2,1,4"])
    keys = list(json.loads(capsys.readouterr().out)["result"])
    assert list(Cylinder._fields) == [k for k in keys if k != "length"]


def test_normalize_folds_trailing_one():
    assert normalize((2, 1)).digits == (3,)
    assert normalize((1, 2, 1)).digits == (1, 3)
    assert normalize((1,)).digits == (1,)
    assert normalize((3, 2)).digits == (3, 2)
    # the fold preserves the value
    assert evaluate((1, 2, 1)) == evaluate(normalize((1, 2, 1)))


def test_convergent_recurrence_and_determinant():
    w = (2, 1, 4, 1, 6)
    cv = convergents(w)
    # seeds p_-1 = 1, p_0 = 0 and q_-1 = 0, q_0 = 1
    p_prev2, p_prev1 = 1, 0
    q_prev2, q_prev1 = 0, 1
    for k, a in enumerate(w, start=1):
        pk, qk = cv[k - 1]
        assert pk == a * p_prev1 + p_prev2
        assert qk == a * q_prev1 + q_prev2
        assert pk * q_prev1 - p_prev1 * qk == (-1) ** (k - 1)
        p_prev2, p_prev1 = p_prev1, pk
        q_prev2, q_prev1 = q_prev1, qk
    assert evaluate(w) == Fraction(cv[-1].p, cv[-1].q)


def test_continuant_matches_convergent_denominator():
    assert continuant(()) == 1
    for w in ((3,), (1, 1, 1), (2, 1, 4, 1, 6)):
        assert continuant(w) == convergents(w)[-1].q


def test_cylinder_orientation_and_length():
    even = cylinder((1, 2))  # value 2/3, mediant 3/4
    assert (even.left, even.right) == (Fraction(2, 3), Fraction(3, 4))
    assert even.left_closed and not even.right_closed
    odd = cylinder((2,))  # value 1/2, mediant 1/3
    assert (odd.left, odd.right) == (Fraction(1, 3), Fraction(1, 2))
    assert not odd.left_closed and odd.right_closed
    for w in ((1, 2), (2,), (3, 1, 4)):
        cv = convergents(w)
        qn = cv[-1].q
        qn1 = cv[-2].q if len(w) > 1 else 1
        assert cylinder(w).length == Fraction(1, qn * (qn + qn1))


def test_cylinder_needs_a_digit():
    with pytest.raises(DomainError, match="^cylinder needs at least one digit$"):
        cylinder(())


def test_cylinder_contains_its_value_and_splits_digits():
    for w in ((1,), (2, 3), (1, 1, 2)):
        c = cylinder(w)
        assert c.contains(evaluate(w))
        inside = (c.left + c.right) / 2
        assert c.contains(inside)
        assert not c.contains(c.left - c.length) and not c.contains(c.right + c.length)
        assert list(expand_rational(inside))[: len(w)] == list(w)


@pytest.mark.xfail(
    strict=True,
    reason="half-open cylinders of opposite parity share the boundary "
    "convergent, so strict set containment fails for digit-1 extensions",
)
def test_cylinder_nesting_literal():
    outer = cylinder((1,))
    inner = cylinder((1, 1))
    assert inner.left_closed is True and inner.left == Fraction(1, 2)
    # 1/2 is in inner but on the open edge of outer = (1/2, 1]
    assert (outer.contains(inner.left) or not inner.left_closed)


def test_cylinder_nesting_up_to_closure():
    for w in ((1,), (2,), (1, 2), (2, 1, 1)):
        outer = cylinder(w)
        for a in range(1, 5):
            inner = cylinder(tuple(w) + (a,))
            assert outer.left <= inner.left and inner.right <= outer.right


def test_cylinders_of_fixed_length_tile_without_overlap():
    for length in (1, 2, 3):
        cells = sorted(
            (cylinder(w) for w in product(range(1, 6), repeat=length)),
            key=lambda c: c.left,
        )
        for a, b in zip(cells, cells[1:]):
            assert a.right <= b.left or (a.right == b.left and not (a.right_closed and b.left_closed))


def test_expand_decimal_emits_only_certain_digits():
    assert list(expand_decimal("0.714285")) == [1, 2, 2]
    # 1/2 is the boundary between the first-digit cylinders of 1 and 2,
    # so a decimal interval straddling it certifies no digits at all
    assert list(expand_decimal("0.5000000")) == []
    assert list(expand_decimal("0.7000000000")) == [1, 2]
    with pytest.raises(BoundaryAmbiguityError):
        expand_decimal("0.7", max_digits=6)
    with pytest.raises(DomainError):
        expand_decimal("1.2")


def test_expand_decimal_rejects_max_digits_below_one():
    for bad in (0, -3):
        with pytest.raises(DomainError, match="max_digits"):
            expand_decimal("0.318", bad)
    assert list(expand_decimal("0.318", 1)) == [3]


def test_delete_indices_positions_and_sequences():
    w = (3, 1, 4, 1, 5, 9)
    assert delete_indices(w, (2, 4)).digits == (3, 4, 5, 9)
    assert delete_indices(w, (2, 4, 40)).digits == (3, 4, 5, 9)  # out of range ignored
    from cfdim import parse_index_sequence

    assert delete_indices(w, parse_index_sequence("square")).digits == (1, 4, 5, 9)
    with pytest.raises(DomainError):
        delete_indices(w, (1, True))


def test_submersion_length_identity():
    from cfdim import parse_index_sequence

    sq = parse_index_sequence("square")
    for length in (1, 4, 9, 15, 26):
        w = tuple(1 + (i % 3) for i in range(length))
        assert len(delete_indices(w, sq)) == length - sq.count(length)


def test_quotient_ratio_bounds_hold_on_small_grid():
    for length in (1, 2, 3, 4):
        for w in product(range(1, 5), repeat=length):
            for k in range(1, length + 1):
                r = quotient_ratio_check(w, k)
                assert r.ok, (w, k)


def test_quotient_ratio_check_validates_k():
    with pytest.raises(DomainError):
        quotient_ratio_check((1, 2), 3)
    with pytest.raises(DomainError):
        quotient_ratio_check((1, 2), 0)


class _Digit(int):
    """An int subclass: a valid digit that the fast path leaves to the loop."""


def _loop_digit_tuple(digits):
    # the per-digit validation loop, the reference for the fast path
    out = []
    for a in digits:
        if not is_int(a) or a < 1:
            raise DomainError("partial quotients must be integers >= 1, got %r" % (a,))
        out.append(a)
    return tuple(out)


def _outcome(fn, digits):
    try:
        return fn(digits)
    except DomainError as exc:
        return str(exc)


_valid = st.one_of(st.integers(1, 9), st.integers(1, 10 ** 30))
# ints of other types that compare like valid digits, and exact ints below 1
_int_like = st.one_of(st.integers(-3, 9), st.booleans(), st.integers(1, 9).map(_Digit))
_any = st.one_of(_valid, _int_like, st.floats(-3, 3))


@settings(max_examples=300)
@given(st.one_of(st.lists(_valid, max_size=30), st.lists(_int_like, max_size=30),
                 st.lists(_any, max_size=30)))
def test_digit_tuple_matches_the_validation_loop(digits):
    got = _outcome(_digit_tuple, digits)
    assert got == _outcome(_loop_digit_tuple, digits)
    if isinstance(got, tuple):
        assert [type(a) for a in got] == [type(a) for a in digits]
    # any iterable, read once
    assert _outcome(_digit_tuple, iter(digits)) == got


# properties of the continuant kernel, each against an oracle that shares
# no code with it: Fraction folds, Euclid and per-digit deletion
_digit = st.one_of(st.integers(1, 4), st.integers(1, 10 ** 12))
_word = st.lists(_digit, max_size=40)
_nonempty = st.lists(_digit, min_size=1, max_size=40)


def _fold(word):
    # [0; a_1, ..., a_n] as the right fold of 1/(a + x) from x = 0
    x = Fraction(0)
    for a in reversed(word):
        x = 1 / (a + x)
    return x


@settings(max_examples=300)
@given(_nonempty)
def test_evaluate_is_the_right_fold(word):
    assert evaluate(word) == _fold(word)


@settings(max_examples=300)
@given(st.integers(2, 10 ** 30).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))))
def test_evaluate_inverts_expand_rational(x):
    assert evaluate(expand_rational(x)) == x


@settings(max_examples=300)
@given(_word)
def test_a_continuant_reads_the_same_reversed(word):
    assert continuant(word) == continuant(word[::-1]) == _fold(word).denominator


@settings(max_examples=300)
@given(_nonempty)
def test_the_last_convergent_is_the_value(word):
    x = _fold(word)
    rows = convergents(word)
    assert len(rows) == len(word)
    assert (rows[-1].p, rows[-1].q) == (x.numerator, x.denominator)


def _starts_with(x, word):
    # x's expansion starts with the word: Euclid's digits do, or x is the
    # word's own value, whose digits Euclid writes without a final 1
    return tuple(expand_rational(x))[: len(word)] == tuple(word) or x == _fold(word)


@settings(max_examples=300)
@given(_nonempty, st.lists(st.integers(1, 6), max_size=4), st.integers(1, 10 ** 6))
def test_a_cylinder_is_its_length_and_its_words(word, tail, num):
    c = cylinder(word)
    q = _fold(word).denominator
    q_prev = _fold(word[:-1]).denominator if len(word) > 1 else 1
    assert c.length == Fraction(1, q * (q + q_prev))
    # both ends, a point past each, a continuation and a rational inside
    inside = c.left + c.length * Fraction(num, 10 ** 6 + 1)
    past = (c.left - c.length / 3, c.right + c.length / 3)
    for x in (c.left, c.right, *past, _fold(list(word) + tail), inside):
        if 0 < x < 1:
            assert c.contains(x) == _starts_with(x, word), x


def _euclid(x):
    # every digit of a rational x in (0, 1), by Euclid on Fractions
    digits = []
    while x:
        x = 1 / x
        digits.append(x.numerator // x.denominator)
        x -= digits[-1]
    return digits


@settings(max_examples=300)
@given(st.integers(1, 30).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, 10 ** d - 1))),
       st.lists(st.integers(1, 10 ** 6).map(lambda k: Fraction(k, 10 ** 6 + 1)), max_size=4))
@example((2, 12), [])  # [0.115, 0.125) ends at 1/8, on a cylinder boundary
def test_expand_decimal_prefix_starts_every_expansion_in_its_interval(case, shares):
    # "0.318" stands for [0.3175, 0.3185): both ends and rationals between
    # them expand with the certain prefix and go on past it
    d, n = case
    prefix = list(expand_decimal("0." + str(n).zfill(d)))
    lo, hi = Fraction(2 * n - 1, 2 * 10 ** d), Fraction(2 * n + 1, 2 * 10 ** d)
    for x in (lo, hi, *(lo + (hi - lo) * share for share in shares)):
        digits = _euclid(x)
        assert digits[: len(prefix)] == prefix and len(digits) > len(prefix), x


def _delete_per_digit(word, positions):
    # delete_indices as a per-digit set test
    digits = PartialQuotients(word)
    n = len(digits)
    raw = positions.upto(n) if hasattr(positions, "upto") else positions
    drop = set()
    for i in raw:
        if not is_int(i):
            raise DomainError("positions must be integers, got %r" % (i,))
        if 1 <= i <= n:
            drop.add(i)
    return tuple(a for k, a in enumerate(digits, start=1) if k not in drop)


_SEQUENCE_SPECS = ["square", "pow:2", "pow:3", "even", "all", "arith:3,4", "geq:5"]


@settings(max_examples=300)
@given(_word, st.one_of(
    st.lists(st.integers(-5, 50), max_size=60),
    st.lists(st.one_of(st.integers(1, 50), st.booleans(), st.just(2.0)), max_size=8),
    st.sampled_from(_SEQUENCE_SPECS).map(parse_index_sequence),
    st.lists(st.integers(1, 60), min_size=1, unique=True).map(
        lambda v: IndexSequence("explicit", (), tuple(sorted(v)))),
))
def test_delete_indices_is_the_per_digit_deletion(word, positions):
    got = _outcome(lambda w: delete_indices(w, positions), word)
    assert got == _outcome(lambda w: _delete_per_digit(w, positions), word)
    if isinstance(got, tuple):
        assert type(got) is PartialQuotients
