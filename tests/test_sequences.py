"""Index sequences, densities, digit sets, convergence exponents."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfdim import (
    DomainError,
    density,
    parse_digit_set,
    parse_index_sequence,
    tau,
)
from cfdim.sequences import DigitSet, IndexSequence


def test_rule_sequence_members_and_counts():
    sq = parse_index_sequence("square")
    assert [sq.nth(j) for j in (1, 2, 3, 10)] == [1, 4, 9, 100]
    assert sq.count(10000) == 100
    ev = parse_index_sequence("even")
    assert [ev.nth(j) for j in (1, 2, 3)] == [2, 4, 6]
    assert ev.count(11) == 5
    ar = parse_index_sequence("arith:1,3")
    assert [ar.nth(j) for j in (1, 2, 3)] == [1, 4, 7]
    assert ar.count(10) == 4
    pw = parse_index_sequence("pow:2")
    assert [pw.nth(j) for j in (1, 2, 3)] == [2, 4, 8]
    assert pw.count(1000) == 9
    assert parse_index_sequence("geq:5").nth(1) == 5
    assert parse_index_sequence("all").nth(3) == 3


def test_count_is_inverse_of_nth():
    for spec in ("square", "even", "arith:3,5", "pow:3", "all"):
        seq = parse_index_sequence(spec)
        for j in range(1, 40):
            v = seq.nth(j)
            assert seq.count(v) == j
            assert seq.count(v - 1) == j - 1
            assert v in seq


def test_first_at_least():
    sq = parse_index_sequence("square")
    assert sq.first_at_least(1) == 1
    assert sq.first_at_least(0) == 1
    assert sq.first_at_least(10) == 4  # members 1,4,9,16: first >= 10 is the 4th
    assert sq.first_at_least(16) == 4
    for spec in ("even", "pow:2", "arith:1,3"):
        seq = parse_index_sequence(spec)
        for v in (1, 5, 17, 300):
            j = seq.first_at_least(v)
            assert seq.nth(j) >= v
            assert j == 1 or seq.nth(j - 1) < v


def test_explicit_sequence_window_semantics():
    ex = IndexSequence("explicit", (), (2, 5, 7))
    assert ex.nth(2) == 5
    assert ex.count(6) == 2
    assert 5 in ex and 6 not in ex
    with pytest.raises(DomainError):
        ex.count(8)  # beyond the recorded window
    assert ex.count_window(8) == 3  # the list taken as the whole sequence
    assert ex.first_at_least(6) == 3
    with pytest.raises(DomainError, match="^explicit sequence never reaches 8 within its window$"):
        ex.first_at_least(8)


def test_parse_rejects_malformed_specs():
    for bad in ("cube", "arith:", "pow:x", "arith:2", ""):
        with pytest.raises(DomainError):
            parse_index_sequence(bad)


def _rule(args):
    return IndexSequence(*args)


def _digits(args):
    return DigitSet(*args)


@pytest.mark.parametrize(
    "parse, spec, message",
    [
        (parse_index_sequence, "pow:1", "pow base must be >= 2"),
        (parse_digit_set, "pow:1", "pow base must be >= 2"),
        (parse_digit_set, "geq:0", "geq floor must be >= 1"),
        (_rule, ("arith", (0, 1)), "arith needs a0 >= 1 and d >= 1"),
        (_rule, ("pow", (1,)), "pow base must be >= 2"),
        (_rule, ("arith", (1.5, 1)), "arith takes 2 integer parameter(s), got (1.5, 1)"),
        (_rule, ("arith", (True, 1)), "arith takes 2 integer parameter(s), got (True, 1)"),
        (_rule, ("arith", (1,)), "arith takes 2 integer parameter(s), got (1,)"),
        (_rule, ("pow", (2.5,)), "pow takes 1 integer parameter(s), got (2.5,)"),
        (_rule, ("pow", 3), "pow takes 1 integer parameter(s), got 3"),
        (_rule, ("square", (2,)), "square takes 0 integer parameter(s), got (2,)"),
        (_digits, ("arith", (1, True)), "arith takes 2 integer parameter(s), got (1, True)"),
        (_digits, ("pow", (2, 3)), "pow takes 1 integer parameter(s), got (2, 3)"),
    ],
    ids=["sequence-pow", "digits-pow", "digits-geq", "rule-arith-range", "rule-pow-range",
         "rule-arith-float", "rule-arith-bool", "rule-arith-arity", "rule-pow-float",
         "rule-pow-not-tuple", "rule-square-arity", "digits-arith-bool", "digits-pow-arity"],
)
def test_parse_reports_range_errors_as_such(parse, spec, message):
    with pytest.raises(DomainError) as exc:
        parse(spec)
    assert str(exc.value) == message


def test_exact_density_by_kind():
    assert parse_index_sequence("even").exact_density == Fraction(1, 2)
    assert parse_index_sequence("arith:1,3").exact_density == Fraction(1, 3)
    assert parse_index_sequence("square").exact_density == 0
    assert parse_index_sequence("pow:2").exact_density == 0
    assert IndexSequence("explicit", (), (1, 2, 3)).exact_density is None


def test_zero_density_rules_have_a_nondecreasing_ratio():
    # k_j/j never decreases on a rule of density 0, in integers; the
    # schedule thresholds of construction rest on it
    specs = ["square", "even", "all", "geq:7", "arith:1,3", "arith:40,9"]
    specs += ["pow:%d" % b for b in range(2, 11)]
    zero = [spec for spec in specs if parse_index_sequence(spec).exact_density == 0]
    assert zero == ["square"] + specs[6:]
    for spec in zero:
        seq = parse_index_sequence(spec)
        for j in range(1, 2001):
            assert seq.nth(j) * (j + 1) <= seq.nth(j + 1) * j, (spec, j)


def test_density_report_window_estimates():
    rep = density(parse_index_sequence("even"), 10000)
    assert rep.exact == Fraction(1, 2)
    assert rep.upper_est == Fraction(1, 2)
    assert not rep.zero_certified
    rep = density(parse_index_sequence("square"), 10000)
    assert rep.exact == 0
    assert rep.zero_certified
    assert rep.upper_est <= Fraction(1, 50)
    with pytest.raises(DomainError):
        density(parse_index_sequence("even"), 50)


def test_count_k_matches_membership():
    sq = parse_index_sequence("square")
    assert sq.count(10) == sum(1 for i in range(1, 11) if i in sq)


def test_membership_refuses_bool():
    assert 1 in parse_index_sequence("square") and True not in parse_index_sequence("square")
    assert True not in parse_digit_set("all")
    assert True not in IndexSequence("explicit", (), (1, 2))


def test_digit_set_membership():
    assert 7 in parse_digit_set("all")
    geq = parse_digit_set("geq:5")
    assert 5 in geq and 4 not in geq
    s = parse_digit_set("square")
    assert 16 in s and 15 not in s
    p = parse_digit_set("pow:3")
    assert 27 in p and 28 not in p
    assert p.upto(30) == [3, 9, 27]
    assert not p.is_finite


def test_digit_set_rejects_index_only_specs():
    with pytest.raises(DomainError):
        parse_digit_set("even")
    with pytest.raises(DomainError):
        parse_digit_set("arith:1,3")
    with pytest.raises(DomainError, match="gap 1"):
        DigitSet("arith", (2, 2))


def test_explicit_digit_set_from_file(tmp_path):
    path = tmp_path / "digits.txt"
    path.write_text("2\n3\n5\n7\n")
    d = parse_digit_set("file:%s" % path)
    assert d.is_finite
    assert d.upto(6) == [2, 3, 5]
    bad = tmp_path / "bad.txt"
    bad.write_text("5\n3\n")
    with pytest.raises(DomainError):
        parse_digit_set("file:%s" % bad)
    bad.write_text("5\n7x\n")
    with pytest.raises(DomainError, match="line 2 of .*bad.txt"):
        parse_digit_set("file:%s" % bad)
    bad.write_text("\n")
    with pytest.raises(DomainError, match="^explicit list must be nonempty$"):
        parse_index_sequence("file:%s" % bad)


def test_tau_closed_forms():
    assert tau(parse_digit_set("all")).value == Fraction(1)
    assert tau(parse_digit_set("geq:100")).value == Fraction(1)
    assert tau(parse_digit_set("square")).value == Fraction(1, 2)
    assert tau(parse_digit_set("pow:2")).value == Fraction(0)
    for spec in ("all", "square", "pow:7"):
        assert tau(parse_digit_set(spec)).method == "analytic"


def test_tau_finite_explicit_warns(tmp_path):
    path = tmp_path / "few.txt"
    path.write_text("1\n2\n3\n")
    t = tau(parse_digit_set("file:%s" % path))
    assert t.value == 0 and t.method == "analytic" and t.warning


@pytest.mark.parametrize("spec, want_tau", [
    ("all", Fraction(1)), ("geq:2", Fraction(1)), ("geq:7", Fraction(1)),
    ("geq:1000", Fraction(1)), ("square", Fraction(1, 2)),
])
def test_a_power_run_is_j_plus_k1_minus_1_to_the_1_over_tau(spec, want_tau):
    # hirst sums these through zeta_tail(j + k_1 - 1, z/tau)
    digits = parse_digit_set(spec)
    t = tau(digits)
    assert t.value == want_tau and not t.warning and not digits.is_finite
    k1 = digits.nth(1)
    assert [digits.nth(j) for j in range(1, 201)] \
        == [(j + k1 - 1) ** (1 / t.value) for j in range(1, 201)]


@pytest.mark.parametrize("b", [2, 3, 7, 10, 17, 1000])
def test_a_geometric_run_is_k1_to_the_j_at_tau_0(b):
    digits = parse_digit_set("pow:%d" % b)
    t = tau(digits)
    assert t.value == 0 and not t.warning and not digits.is_finite
    assert digits.nth(1) == b
    assert [digits.nth(j) for j in range(1, 201)] == [b ** j for j in range(1, 201)]


def test_an_explicit_list_is_capped_at_a_million_entries():
    # one repeated entry: the length is checked before the order
    with pytest.raises(DomainError, match="^explicit list capped at 1000000 entries$"):
        IndexSequence("explicit", (), itertools.repeat(1, 10 ** 6 + 1))
    assert len(IndexSequence("explicit", (), range(1, 10 ** 6 + 1)).values) == 10 ** 6


def test_spec_string_round_trip():
    for spec in ("square", "even", "arith:1,3", "pow:2", "all"):
        seq = parse_index_sequence(spec)
        again = parse_index_sequence(seq.spec_string())
        assert [again.nth(j) for j in (1, 2, 5)] == [seq.nth(j) for j in (1, 2, 5)]


# Property tests for the four shared rules.  Each oracle lists members
# without calling the library.  The conftest profile derandomizes them,
# so every run draws the same examples.
_PROPS = settings(max_examples=150)


def _ints(lo, hi):
    # small values often, so that members fall below the brute-force range
    return st.one_of(st.integers(lo, min(hi, 60)), st.integers(lo, hi))


_rules = st.one_of(
    st.builds(lambda a0, d: IndexSequence("arith", (a0, d)), _ints(1, 10 ** 12), _ints(1, 10 ** 9)),
    st.just(IndexSequence("square")),
    st.builds(lambda b: IndexSequence("pow", (b,)), _ints(2, 10 ** 6)),
)
_explicit = st.lists(st.integers(1, 3000), min_size=1, max_size=40, unique=True).map(
    lambda vs: IndexSequence("explicit", (), tuple(sorted(vs))))


def _oracle_members(seq, n):
    """Members <= n, listed from the rule's definition."""
    if seq.kind == "arith":
        a0, d = seq.params
        return set(range(a0, n + 1, d))
    if seq.kind == "square":
        return {r * r for r in range(1, n + 1)}
    if seq.kind == "pow":
        return {seq.params[0] ** e for e in range(1, n.bit_length() + 1)}
    return set(seq.values)


@_PROPS
@given(st.one_of(_rules, _explicit), st.integers(1, 30))
def test_nth_count_and_first_at_least_agree(seq, j):
    if seq.kind == "explicit":
        j = min(j, len(seq.values))
    v = seq.nth(j)
    assert seq.count(v) == j
    assert seq.first_at_least(v) == j
    assert v in seq
    if seq.kind != "explicit" or j < len(seq.values):
        assert seq.first_at_least(v + 1) == j + 1
    if j == 1 or seq.nth(j - 1) < v - 1:
        assert seq.first_at_least(v - 1) == j


@_PROPS
@given(st.one_of(_rules, _explicit), st.integers(0, 3000))
def test_upto_is_a_brute_force_filter(seq, n):
    members = _oracle_members(seq, n)
    want = [i for i in range(1, n + 1) if i in members]
    assert seq.upto(n) == want
    assert [i for i in range(1, n + 1) if i in seq] == want
    assert seq.count_window(n) == len(want)


@_PROPS
@given(_rules)
@example(IndexSequence("arith", (2, 2)))  # spelled "even"
@example(IndexSequence("arith", (4, 2)))
@example(IndexSequence("arith", (1, 1)))
def test_spec_string_parses_back_to_the_same_rule(seq):
    again = parse_index_sequence(seq.spec_string())
    assert again == seq
    assert again.upto(500) == seq.upto(500)


@_PROPS
@given(st.sampled_from(["all", "geq", "square", "pow"]), _ints(1, 10 ** 6),
       st.integers(-3, 5000))
def test_digit_set_membership_matches_its_predicate(rule, p, a):
    if rule == "all":
        digits, member = parse_digit_set("all"), a >= 1
    elif rule == "geq":
        digits, member = parse_digit_set("geq:%d" % p), a >= p
    elif rule == "square":
        digits, member = parse_digit_set("square"), a in {r * r for r in range(1, 80)}
    else:
        b = p + 1
        digits = parse_digit_set("pow:%d" % b)
        member = a in {b ** e for e in range(1, 14)}
    assert (a in digits) is member


def test_all_is_the_ray_from_one():
    assert parse_digit_set("all") == parse_digit_set("geq:1")
    assert parse_digit_set("all").upto(5) == [1, 2, 3, 4, 5]


def _ref_density(seq, horizon):
    """Min and max of k(n)/n, testing every n of the window [horizon//2, horizon]."""
    ratios = [Fraction(seq.count(n), n) for n in range(horizon // 2, horizon + 1)]
    return min(ratios), max(ratios)


@st.composite
def _density_cases(draw):
    # the rules with runs shorter and longer than the window; an explicit
    # list must reach the horizon
    horizon = draw(st.integers(100, 3000))
    top = draw(st.integers(horizon, 3500))
    seq = draw(st.one_of(
        st.builds(lambda a0, d: IndexSequence("arith", (a0, d)),
                  _ints(1, 4000), _ints(1, 2000)),
        # progressions with many runs in the window, on both sides of a0 = d
        st.builds(lambda a0, d: IndexSequence("arith", (a0, d)),
                  st.integers(1, 40), st.integers(1, 40)),
        st.just(IndexSequence("square")),
        st.builds(lambda b: IndexSequence("pow", (b,)), _ints(2, 4000)),
        st.lists(st.integers(1, top - 1), max_size=200, unique=True).map(
            lambda vs: IndexSequence("explicit", (), tuple(sorted(vs)) + (top,))),
    ))
    return seq, horizon


@_PROPS
@given(_density_cases())
@example((IndexSequence("square"), 101))  # odd; the window starts inside [49, 63]
@example((IndexSequence("arith", (7, 13)), 999))
@example((IndexSequence("arith", (1, 10)), 100))  # the max is at the second run, 6/51
@example((IndexSequence("arith", (10 ** 6, 1)), 3000))  # the window lies in run 0
@example((IndexSequence("pow", (3,)), 2999))
@example((IndexSequence("arith", (1, 1)), 100))  # every ratio is 1
@example((IndexSequence("arith", (3000, 1)), 2000))  # every ratio is 0
def test_density_matches_the_per_index_window(case):
    seq, horizon = case
    rep = density(seq, horizon)
    assert (rep.lower_est, rep.upper_est) == _ref_density(seq, horizon)
    assert rep.horizon == horizon and rep.exact == seq.exact_density


def test_density_refuses_a_horizon_past_an_explicit_window():
    with pytest.raises(DomainError, match="exceeds the explicit window"):
        density(IndexSequence("explicit", (), (1, 5, 150)), 151)
