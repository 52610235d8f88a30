"""The run-wise certificate scans against per-index reference loops.

The scans in ``construction`` find the end of the violating prefix of
each run of constant k(m).  The nominal onset (of ``verify_size_bound``
and ``nominal_onset``) searches for the last run that holds a
violator and reads it off an integer formula.  The certified onset and
the weight scan of ``schedule_onset`` walk ``IndexSequence.runs`` and read it off
floor(log(p)/c1), clipped to the run, with one exact test where that
quotient nearly ties an integer in the run.  The thresholds of ``choose_schedule`` search for the first run
whose first index holds no violator, and read the last violator of the
run before it the same way.  The loops below test every index instead;
both must give the same integers and raise the same errors.
"""

import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cfdim import (
    DomainError,
    IndexSequence,
    InsufficientHorizonError,
    StepSchedule,
    build_point,
    choose_schedule,
    nominal_onset,
    parse_index_sequence,
    schedule_onset,
    step_value,
    verify_size_bound,
)
from cfdim import construction
from cfdim.construction import _LOG2, _certified_onset, _covered_limit


# Per-index threshold predicates, kept apart from the library's merged
# weight test so that the references below share none of its logic.

def _ratio_violates_derived(en, ed, k, n, j):
    # k*log(j+1) > (en/ed)*(log2/2)*n, exactly: (j+1)^(2*ed*k) > 2^(en*n)
    if k == 0:
        return False
    lhs = 2 * ed * k * math.log(j + 1)
    rhs = en * n * _LOG2
    if abs(lhs - rhs) > 1e-9 * (abs(lhs) + abs(rhs)):
        return lhs > rhs
    power = (j + 1) ** (2 * ed * k)
    m = en * n
    bits = power.bit_length()
    if bits != m + 1:
        return bits > m + 1
    return power != (1 << m)


def _ratio_violates_explicit(c1, k, n, j):
    # k*log(j+1) > c1*n; a tie would make log(j+1) rational, impossible.
    # For k, j >= 1 the left side is irrational and the right rational,
    # so the raise below never fires: the search in choose_schedule,
    # which skips most n, drops no error that testing every n would raise.
    if k == 0:
        return False
    lhs, rhs = k * math.log(j + 1), c1.numerator / c1.denominator * n
    if abs(lhs - rhs) > 1e-9 * (lhs + rhs):
        return lhs > rhs
    for dps in (60, 200):
        with mp.workdps(dps):
            lhs = k * mp.log(j + 1)
            rhs = mpf(c1.numerator) / c1.denominator * n
            diff = lhs - rhs
            if abs(diff) > mpf(10) ** (-(dps - 15)) * (abs(lhs) + abs(rhs) + 1):
                return diff > 0
    raise DomainError(
        "could not separate k*log(j+1) from c1*n at 200 digits (k=%d, n=%d, j=%d)"
        % (k, n, j)
    )


def _ratio_violates(c1, eps):
    if eps is not None:
        en, ed = eps.numerator, eps.denominator
        return lambda k, n, j: _ratio_violates_derived(en, ed, k, n, j)
    return lambda k, n, j: _ratio_violates_explicit(c1, k, n, j)


def ref_choose_schedule(seq, j_max, horizon, c1=None, eps=None):
    # The gate: with h = max(horizon, k_1), a threshold past h leaves a
    # violator in (h, 3h].  With r = log(j+1)/c1, run k holds a violator
    # when k*r > k_k, and those runs are an initial segment (the fact
    # pinned in test_sequences).  If the last of them starts at most at
    # 3h, its first index or h + 1 is such a violator.  If it starts
    # past 3h, the run m >= 1 holding 3h fails too: k_m is one when
    # k_m > h, and otherwise (m+1)*r > k_(m+1) > 3h gives m*r > h + 1,
    # so h + 1 violates.
    eps = None if eps is None else Fraction(eps)
    c1 = None if c1 is None else Fraction(c1)
    violates = _ratio_violates(c1, eps)
    top = 3 * max(horizon, seq.nth(1))
    counts = [seq.count(n) for n in range(top + 1)]
    thresholds, breakpoints, prev = [], [], 0
    for j in range(1, j_max + 1):
        worst = 0
        for n in range(1, top + 1):
            if violates(counts[n], n, j):
                worst = n
        if worst > horizon:
            raise InsufficientHorizonError("step %d" % j)
        thresholds.append(worst)
        prev = max(prev + 1, seq.first_at_least(worst))
        breakpoints.append(prev)
    return StepSchedule(eps, c1, tuple(thresholds), tuple(breakpoints), horizon)


def ref_schedule_onset(seq, schedule):
    derived = schedule.eps is not None
    limit = _covered_limit(seq, schedule)
    if derived:
        en, ed = schedule.eps.numerator, schedule.eps.denominator
        product = 1
    else:
        c1 = schedule.c1
        logs = []
    k = worst = 0
    log_sum = mpf(0)
    with mp.workdps(60):
        for m in range(1, limit + 1):
            if seq.count_window(m) > k:
                k += 1
                s = step_value(schedule, k)
                if derived:
                    product *= (s + 1) ** (2 * ed)
                else:
                    logs.append(s)
                    log_sum += mp.log(s + 1)
            if derived:
                e = en * m
                bits = product.bit_length()
                if bits > e + 1 or (bits == e + 1 and product != (1 << e)):
                    worst = m
            else:
                rhs = mpf(c1.numerator) / c1.denominator * m
                diff = log_sum - rhs
                if abs(diff) <= mpf("1e-40") * (abs(rhs) + 1):
                    with mp.workdps(200):
                        fine = mp.fsum(mp.log(s + 1) for s in logs)
                        diff = fine - mpf(c1.numerator) / c1.denominator * m
                if diff > 0:
                    worst = m
    if worst >= limit:
        raise InsufficientHorizonError("edge")
    return (worst + 1, limit)


def ref_last_nominal_violator(seq, eps, limit):
    en, ed = eps.numerator, eps.denominator
    worst = 0
    for m in range(1, limit + 1):
        if en * (m - 2 * seq.count_window(m) - 4) < 2 * ed:
            worst = m
    return worst


def ref_certified_onset(seq, schedule, eps):
    en, ed = eps.numerator, eps.denominator
    limit = _covered_limit(seq, schedule)
    k, prod_sq, rhs, worst = 0, 1, 2 ** ed, 0
    for m in range(1, limit + 1):
        if seq.count_window(m) > k:
            k += 1
            prod_sq *= (step_value(schedule, k) + 1) ** 2
            rhs = (2 * prod_sq) ** ed
        e = (m - k - 2) * en
        if e < 0 or 2 ** e < rhs:
            worst = m
    return None if worst >= limit else worst + 1


def ref_size_onsets(eps, seq, schedule):
    eps = Fraction(eps)
    worst = ref_last_nominal_violator(seq, eps, schedule.horizon)
    if worst >= schedule.horizon:
        raise InsufficientHorizonError("horizon")
    return (worst + 1, ref_certified_onset(seq, schedule, eps))


def outcome(fn):
    """The value, or the class of the error raised."""
    try:
        return fn()
    except (DomainError, InsufficientHorizonError) as exc:
        return type(exc)


def size_onsets(eps, seq, schedule):
    # a depth-1 or depth-2 word is admissible for every schedule here
    word = build_point(seq, 2, schedule, 2 if 1 in seq else 1)
    rep = verify_size_bound(eps, seq, schedule, word)
    return (rep.onset, rep.onset_certified)


def test_runs_partition_the_range_by_window_count():
    seqs = ["square", "pow:2", "pow:3", "even", "arith:1,3", "arith:4,5", "all"]
    cases = [(parse_index_sequence(s), limit) for s in seqs for limit in (1, 2, 17, 130)]
    cases += [(IndexSequence("explicit", (), (1, 2, 9, 40)), limit) for limit in (1, 8, 60)]
    for seq, limit in cases:
        runs = list(seq.runs(limit))
        assert runs[0][0] == 1 and runs[-1][1] == limit
        for (_, last, k), (first, _, k_next) in zip(runs, runs[1:]):
            assert first == last + 1 and k_next == k + 1
        flat = [k for first, last, k in runs for _ in range(first, last + 1)]
        assert flat == [seq.count_window(m) for m in range(1, limit + 1)]


@pytest.mark.parametrize("spec,kw,j_max,threshold_calls,exact_tests", [
    ("square", {"eps": Fraction(1, 10)}, 30, 415, (8, 3)),
    ("pow:2", {"eps": Fraction(1, 10)}, 30, 262, (4, 2)),
    ("square", {"c1": Fraction(1, 30)}, 4, 50, (0, 0)),
    ("pow:2", {"c1": Fraction(1, 30)}, 4, 31, (0, 0)),
], ids=["square-eps", "pow2-eps", "square-c1", "pow2-c1"])
def test_weight_scans_make_one_call_per_run_and_pinned_exact_tests(
        monkeypatch, spec, kw, j_max, threshold_calls, exact_tests):
    # the threshold search calls end once per probe of its galloping
    # search and bisection, and once more for the last failing run of
    # each step; the onset scan calls end once per run.
    # The exact test runs only at a near tie inside a run.  In eps mode
    # every quotient x for j + 1 = 2, 4, 8, 16 is an integer, as the two
    # sides tie as integers there, but most of those ties fall outside
    # the probed index or run
    ends, exact = [], []
    real_weight, real_exact = construction._weight_test, construction._log_exceeds

    def counting(eps, c1):
        end = real_weight(eps, c1)

        def counted(p, first, last, e=1):
            ends.append(first)
            return end(p, first, last, e)
        return counted

    def counted_exact(p, e, m, eps, c1):
        exact.append(m)
        return real_exact(p, e, m, eps, c1)
    monkeypatch.setattr(construction, "_weight_test", counting)
    monkeypatch.setattr(construction, "_log_exceeds", counted_exact)
    seq = parse_index_sequence(spec)
    got = choose_schedule(seq, j_max, 10 ** 4, **kw)
    assert got == ref_choose_schedule(seq, j_max, 10 ** 4, **kw)
    assert (len(ends), len(exact)) == (threshold_calls, exact_tests[0])

    del ends[:], exact[:]
    onset = schedule_onset(seq, got)
    assert onset == ref_schedule_onset(seq, got)
    assert (len(ends), len(exact)) == (len(list(seq.runs(onset.checked_to))), exact_tests[1])


def test_size_bound_nominal_onset_walks_no_run(monkeypatch):
    # the nominal onset finds the last run holding a violator by probing
    # nth: at horizons 10^4 and 10^12 only the certified onset walks
    # runs, up to the covered limit, and the reports are equal
    sq = parse_index_sequence("square")
    short = choose_schedule(sq, 30, 10 ** 4, eps="1/10")
    long = StepSchedule(short.eps, short.c1, short.thresholds, short.breakpoints, 10 ** 12)
    word = build_point(sq, 3, short, 200)
    walked = []
    real = IndexSequence.runs

    def counted(self, limit):
        for run in real(self, limit):
            walked.append(limit)
            yield run
    monkeypatch.setattr(IndexSequence, "runs", counted)
    construction._size_onsets.cache_clear()  # an earlier test may have kept these onsets
    reports = []
    for sched in (short, long):
        del walked[:]
        reports.append(verify_size_bound("1/10", sq, sched, word))
        assert set(walked) == {_covered_limit(sq, sched)}
    assert reports[0] == reports[1]
    assert reports[0].onset == 34


def test_size_bound_nominal_scan_refuses_a_failing_horizon_without_walking(monkeypatch):
    # even fails the onset condition at every member, so at the horizon
    # 10^6 too: the nominal scan raises before walking a run, and only
    # the certified onset walks its runs, up to the covered limit 11
    even = parse_index_sequence("even")
    sched = StepSchedule(Fraction(1, 10), None, (0,), (5,), 10 ** 6)
    walked = []
    real = IndexSequence.runs

    def counted(self, limit):
        for run in real(self, limit):
            walked.append(limit)
            yield run
    monkeypatch.setattr(IndexSequence, "runs", counted)
    construction._size_onsets.cache_clear()
    with pytest.raises(InsufficientHorizonError, match="fails at the horizon 1000000$"):
        verify_size_bound("1/10", even, sched, [1] * 10)
    assert set(walked) == {_covered_limit(even, sched)} == {11}


def _rule_grid():
    # seeded: each case draws a sequence, a mode and a range small enough
    # that the per-index reference stays cheap; the fixed cases put the
    # scans at the edge of their range
    rng = random.Random(20)
    cases = [("square", "eps", "1/10", 1, 10000), ("square", "eps", "1/10", 1, 100),
             ("square", "c1", "1/30", 2, 1500), ("pow:2", "eps", "1/10", 6, 300),
             ("pow:2", "c1", "1/4", 3, 5000), ("pow:3", "eps", "1/3", 4, 200),
             ("pow:2", "eps", "1/50", 2, 60)]
    for _ in range(14):
        mode = rng.choice(("eps", "c1"))
        value = rng.choice(("1/10", "1/3", "1/50", "2/7") if mode == "eps"
                           else ("1/30", "1/4", "1/2", "1"))
        cases.append((rng.choice(("square", "pow:2", "pow:3")), mode, value,
                      rng.randint(1, 5), rng.choice((40, 300, 1200, 2500))))
    return cases


@pytest.mark.parametrize("spec,mode,value,j_max,horizon", _rule_grid())
def test_rule_sequence_scans_match_per_index_reference(spec, mode, value, j_max, horizon):
    seq = parse_index_sequence(spec)
    kw = {mode: value}
    got = outcome(lambda: choose_schedule(seq, j_max, horizon, **kw))
    assert got == outcome(lambda: ref_choose_schedule(seq, j_max, horizon, **kw))
    if not isinstance(got, StepSchedule):
        return
    assert outcome(lambda: schedule_onset(seq, got)) == outcome(
        lambda: ref_schedule_onset(seq, got))
    for eps in ("1/10", "1/3", "3/1"):
        assert outcome(lambda: size_onsets(eps, seq, got)) == outcome(
            lambda: ref_size_onsets(eps, seq, got))


def _explicit_grid():
    rng = random.Random(21)
    cases = []
    for _ in range(20):
        values = tuple(sorted(rng.sample(range(2, 200), rng.randint(1, 20))))
        count = rng.randint(1, 25)
        breakpoints = tuple(sorted(rng.sample(range(1, 30), count)))
        ratio = Fraction(rng.randint(1, 5), rng.randint(1, 20))
        eps, c1 = (ratio, None) if rng.random() < 0.5 else (None, ratio)
        horizon = rng.choice((3, 40, 250, 900))
        cases.append((values, StepSchedule(eps, c1, (0,) * count, breakpoints, horizon)))
    return cases


@pytest.mark.parametrize("values,schedule", _explicit_grid())
def test_explicit_list_scans_match_per_index_reference(values, schedule):
    # past its last entry an explicit list constrains nothing: window semantics
    seq = IndexSequence("explicit", (), values)
    assert outcome(lambda: schedule_onset(seq, schedule)) == outcome(
        lambda: ref_schedule_onset(seq, schedule))
    for eps in ("1/10", "1/3", "3/1"):
        assert outcome(lambda: size_onsets(eps, seq, schedule)) == outcome(
            lambda: ref_size_onsets(eps, seq, schedule))


def test_scans_hit_the_edge_of_their_range():
    sq = parse_index_sequence("square")
    # the onset condition still fails at a horizon of 30
    short = StepSchedule(Fraction(1, 10), None, (0,), (5,), 30)
    with pytest.raises(InsufficientHorizonError):
        verify_size_bound("1/10", sq, short, build_point(sq, 2, short, 2))
    with pytest.raises(InsufficientHorizonError):
        ref_size_onsets("1/10", sq, short)
    # the nominal onset fits under a horizon of 60, the certified one does not
    edge = StepSchedule(Fraction(1, 10), None, (0,), (5,), 60)
    assert size_onsets("1/10", sq, edge) == ref_size_onsets("1/10", sq, edge)
    assert size_onsets("1/10", sq, edge)[1] is None


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 3), Fraction(5, 2), Fraction(3, 4)])
def test_certified_onset_at_an_exact_power_of_two(eps):
    # every step up to breakpoint 50 is 1, so on the run that decides the
    # onset (2*prod(step+1)^2)^ed is 2^((2k+1)*ed) exactly, and en divides
    # that exponent: ceil(log2) must not round the power up
    sq = parse_index_sequence("square")
    sched = StepSchedule(eps, None, (0,), (50,), 3000)
    onset = ref_certified_onset(sq, sched, eps)
    k = sq.count(onset - 1)
    assert k <= 50 and (2 * k + 1) * eps.denominator % eps.numerator == 0
    assert size_onsets(eps, sq, sched)[1] == onset


# hand-built schedules: up to 12 breakpoints below 80, on a rule or a
# short explicit list, with a covered range small enough for the per-index
# reference, and eps with denominators up to 50
_onset_seqs = st.one_of(
    st.sampled_from([IndexSequence("square"), IndexSequence("pow", (2,)),
                     IndexSequence("pow", (3,)), IndexSequence("arith", (4, 5))]),
    st.lists(st.integers(1, 400), min_size=1, max_size=30, unique=True).map(
        lambda vs: IndexSequence("explicit", (), tuple(sorted(vs)))))
_onset_schedules = st.builds(
    lambda bps, h: StepSchedule(Fraction(1, 10), None, (0,) * len(bps), tuple(sorted(bps)), h),
    st.sets(st.integers(1, 80), min_size=1, max_size=12), st.integers(1, 600))


@settings(max_examples=150, deadline=None)
@given(_onset_seqs, _onset_schedules,
       st.builds(Fraction, st.integers(1, 30), st.integers(1, 50)))
def test_certified_onset_matches_the_per_index_chain(seq, schedule, eps):
    assert _certified_onset(seq, schedule, eps) == ref_certified_onset(seq, schedule, eps)


@pytest.mark.parametrize("eps", [Fraction(229, 7000), Fraction(3, 10007)])
def test_certified_onset_forms_no_power_of_the_product(eps):
    # carrying (2*P^2)^ed took seconds at these denominators; the weight
    # test on 2*P^2 finds in well under a second that no onset fits
    sq = parse_index_sequence("square")
    sched = choose_schedule(sq, 30, 10 ** 4, eps="1/10")
    start = time.perf_counter()
    assert _certified_onset(sq, sched, eps) is None
    assert time.perf_counter() - start < 1


def test_verify_size_bound_onset_is_limited_to_the_horizon():
    # below its horizon of 50, arith:100,1 constrains nothing, so the
    # onset is found there although nominal_onset rejects the sequence
    late = parse_index_sequence("arith:100,1")
    sched = StepSchedule(Fraction(1, 10), None, (0,), (5,), 50)
    assert verify_size_bound("1/10", late, sched, [1] * 40).onset == 24
    assert size_onsets("1/10", late, sched)[0] == ref_size_onsets("1/10", late, sched)[0] == 24
    with pytest.raises(DomainError):
        nominal_onset(late, "1/10")
    # even violates the condition at every member, up to the horizon
    even = parse_index_sequence("even")
    with pytest.raises(InsufficientHorizonError):
        size_onsets("1/10", even, sched)
    with pytest.raises(InsufficientHorizonError):
        ref_size_onsets("1/10", even, sched)


_NOMINAL_SPECS = ["square", "pow:2", "pow:3", "arith:1,3", "arith:5,4", "arith:2,7",
                  "arith:30,2", "arith:26,2", "arith:25,2", "even", "arith:10,1", "explicit"]


def _nominal_seq(spec):
    return (IndexSequence("explicit", (), (1, 2, 3, 5, 8, 13, 21, 34)) if spec == "explicit"
            else parse_index_sequence(spec))


@pytest.mark.parametrize("spec", _NOMINAL_SPECS)
def test_nominal_onset_matches_a_longer_per_index_scan(spec):
    # the reference scans far past the library's certificate bound, so it
    # also checks that bound; a sequence that still violates the
    # condition at the end of the scan (a member of a gap-1 or gap-2
    # progression) must be rejected
    seq = _nominal_seq(spec)
    for eps in ("1/10", "1/3", "1/50", "5/2"):
        worst = ref_last_nominal_violator(seq, Fraction(eps), 3000)
        if worst >= 2998:
            with pytest.raises(DomainError, match="fails infinitely often"):
                nominal_onset(seq, eps)
        else:
            assert nominal_onset(seq, eps) == worst + 1, eps


def test_nominal_onset_decides_gap_two_progressions():
    # m - 2k(m) is a0 - 2 at each member of arith:a0,2, so an onset
    # exists exactly when en*(a0 - 6) >= 2*ed
    assert nominal_onset(parse_index_sequence("arith:30,2"), "1/10") == 24
    assert nominal_onset(parse_index_sequence("arith:26,2"), "1/10") == 24
    for spec in ("arith:25,2", "even", "arith:10,1"):
        with pytest.raises(DomainError, match="fails infinitely often on %s;" % spec):
            nominal_onset(parse_index_sequence(spec), "1/10")


def _fails(seq, eps, m):
    # the onset condition en*(m - 2k(m) - 4) >= 2*ed fails at m
    return eps.numerator * (m - 2 * seq.count_window(m) - 4) < 2 * eps.denominator


@pytest.mark.parametrize(
    "spec", ["square", "pow:2", "pow:3", "arith:1,3", "arith:5,4", "arith:40,7",
             "arith:30,2", "arith:26,2", "arith:2006,2", "explicit"])
def test_nominal_cert_leaves_no_violator_up_to_four_times_past_it(spec):
    # the nominal onset certifies that no violator lies at or past it, and
    # onset - 1 fails; scan [onset, 4*onset] anyway.  Within a run of
    # constant k the condition holds on a suffix, so the first index of
    # each run (clipped to the onset) is its worst point.  Gap-2
    # progressions may only be refused when en*(a0 - 6) < 2*ed.
    seq = _nominal_seq(spec)
    for eps in (Fraction(1, 1000), Fraction(1, 50), Fraction(1, 10), Fraction(1, 3),
                Fraction(5, 2), Fraction(7)):
        en, ed = eps.numerator, eps.denominator
        try:
            onset = nominal_onset(seq, eps)
        except DomainError:
            assert seq.params[1] == 2 and en * (seq.params[0] - 6) < 2 * ed, eps
            continue
        assert onset == 1 or _fails(seq, eps, onset - 1), (eps, onset)
        for first, last, k in seq.runs(4 * onset):
            if last >= onset:
                m = max(first, onset)
                assert en * (m - 2 * k - 4) >= 2 * ed, (eps, onset, m)


_WALK_CAP = 2048
_REFUSAL = ("the onset condition n - 2k(n) - 4 >= 2/eps fails infinitely often on %s; "
            "a progression needs a gap of at least 3, or gap 2 with a0 - 6 >= 2/eps")


def ref_nominal_onset(seq, eps):
    # walks the runs of constant k one member at a time and returns one
    # past the last m with m - 2k < need, or None past _WALK_CAP members.
    # On run j, from k_j to k_(j+1) - 1, the failing m are those below
    # 2j + need.  k_j - 2j falls on gap-1 progressions and is a0 - 2 on
    # gap-2 ones, so those are refused unless that constant reaches need;
    # elsewhere it never falls, so the walk stops at the first run j >= 1
    # that has no failing m.  An explicit list is walked to its end, and
    # its last run has no end.
    need = 4 + 2 / eps
    if seq.kind == "arith" and seq.params[1] <= 2 and (seq.params[1] == 1
                                                       or seq.params[0] - 2 < need):
        return _REFUSAL % seq.spec_string()
    starts = [1] + list(itertools.islice(seq.members(), _WALK_CAP + 1))
    worst = 0
    for j, first in enumerate(starts):
        top = math.ceil(2 * j + need) - 1  # the last failing m of run j
        if top < first:
            if j and seq.kind != "explicit":
                return worst + 1
            continue
        worst = top if j + 1 == len(starts) else min(top, starts[j + 1] - 1)
    return worst + 1 if seq.kind == "explicit" else None


def test_nominal_onset_is_where_a_per_member_walk_stops():
    # past the walk, the library's onset is checked from both sides instead
    seqs = ([parse_index_sequence(spec) for spec in ["square"] + ["pow:%d" % b for b in range(2, 6)]]
            + [IndexSequence("arith", (a0, d)) for a0 in range(1, 41) for d in range(1, 9)]
            + [_nominal_seq("explicit")])
    start = time.perf_counter()
    for seq in seqs:
        for eps in (Fraction(7), Fraction(5, 2), Fraction(1), Fraction(1, 3), Fraction(1, 10),
                    Fraction(3, 100), Fraction(1, 1000), Fraction(1, 10 ** 6)):
            want = ref_nominal_onset(seq, eps)
            if isinstance(want, str):
                with pytest.raises(DomainError, match="^%s$" % re.escape(want)):
                    nominal_onset(seq, eps)
                continue
            got = nominal_onset(seq, eps)
            if want is None:
                j = seq.count(got - 1)
                assert j > _WALK_CAP and _fails(seq, eps, got - 1), (seq, eps)
                assert not _fails(seq, eps, got), (seq, eps)
                assert seq.nth(j + 1) - 2 * (j + 1) >= 4 + 2 / eps, (seq, eps)
            else:
                assert got == want, (seq, eps)
    assert time.perf_counter() - start < 5


_LATE_LISTS = {"explicit-late": (50, 51, 52, 90, 400), "explicit-edge": (25, 27, 100)}


@pytest.mark.parametrize("spec", _NOMINAL_SPECS + ["arith:60,1", "arith:100,1", *_LATE_LISTS])
def test_nominal_onset_under_a_horizon_matches_a_per_index_scan(spec):
    # horizons around each horizon-free onset, and every horizon up to
    # 200: the onset is one past the last failing m in [1, h], and a
    # failure at h itself is refused.  A refused progression can still
    # have an onset below a horizon that comes before its failures, and
    # a listed member that fails just past the horizon (25 at eps 1/10,
    # horizon 24) does not count.
    seq = (IndexSequence("explicit", (), _LATE_LISTS[spec]) if spec in _LATE_LISTS
           else _nominal_seq(spec))
    for eps in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 50), Fraction(5, 2)):
        horizons = set(range(1, 201))
        try:
            onset = nominal_onset(seq, eps)
        except DomainError:
            pass
        else:
            horizons |= {h for o in (onset, 2 * onset, 4 * onset) for h in range(o - 3, o + 4)}
        horizons = sorted(h for h in horizons if h >= 1)
        worst, last_fail = 0, {}
        for m in range(1, horizons[-1] + 1):
            if _fails(seq, eps, m):
                worst = m
            last_fail[m] = worst
        for h in horizons:
            if last_fail[h] == h:
                with pytest.raises(InsufficientHorizonError,
                                   match="^the onset condition still fails at the horizon %d$" % h):
                    construction._nominal_onset(seq, eps, h)
            else:
                assert construction._nominal_onset(seq, eps, h) == last_fail[h] + 1, (eps, h)


@pytest.mark.parametrize("spec", ["square", "pow:2"])
@pytest.mark.parametrize("mode,value", [("eps", Fraction(1, 10)), ("c1", Fraction(1, 30))])
def test_no_violator_up_to_four_times_past_each_threshold(spec, mode, value):
    # N_j violates k(n)*log(j+1) > c1*n and no n in (N_j, 4*N_j] does,
    # tested at every n for each step j <= 30
    seq = parse_index_sequence(spec)
    violates = _ratio_violates(*((None, value) if mode == "eps" else (value, None)))
    sched = choose_schedule(seq, 30, 10 ** 5, **{mode: value})
    for j, big_n in enumerate(sched.thresholds, start=1):
        assert big_n > 0 and violates(seq.count(big_n), big_n, j), j
        for n in range(big_n + 1, 4 * big_n + 1):
            assert not violates(seq.count(n), n, j), (j, big_n, n)
