"""Acceptance suite: one test per published criterion.

Criteria whose literal wording is contradicted by exact computation
appear twice: a strict-xfail test pinning the literal claim (suffix b)
and a corrected counterpart carrying the intended content.  The
terminal summary prints one line per criterion.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from mpmath import mp, mpf

from cfdim import (
    asymptotic_exponent,
    choose_schedule,
    convergents,
    covering_condition,
    critical_exponent,
    cylinder,
    dimension_dichotomy,
    estimate_condition_floor,
    evaluate,
    expand_rational,
    hirst_dimension,
    holder_check,
    j_interval_length,
    laurent_zeta_approx,
    parse_digit_set,
    parse_index_sequence,
    quotient_ratio_check,
    sample_holder_pairs,
    schedule_onset,
    step_value,
    tail_integral_approx,
    verify_separation,
    verify_size_bound,
    zeta,
    zeta_tail,
)
from cfdim.construction import PartialQuotients
from spawn import child_env

SQ = parse_index_sequence("square")
EVEN = parse_index_sequence("even")
ALL = parse_digit_set("all")


def test_criterion_01_round_trip_exactness():
    # evaluate(expand_rational(x)) == x on every reduced p/q with q <= 500
    started = time.time()
    checked = 0
    for q in range(2, 501):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            assert evaluate(expand_rational(x)) == x
            checked += 1
    elapsed = time.time() - started
    assert checked == 76115
    assert elapsed < 10, "took %.1fs" % elapsed


def test_criterion_02_identities_exhaustive():
    started = time.time()
    # determinant identity, cylinder length formula, q_n >= 2^((n-1)/2)
    for length in range(1, 9):
        for w in product(range(1, 5), repeat=length):
            cv = convergents(w)
            pn, qn = cv[-1]
            pn1, qn1 = cv[-2] if length > 1 else (0, 1)
            assert pn * qn1 - pn1 * qn == (-1) ** (length - 1)
            assert cylinder(w).length == Fraction(1, qn * (qn + qn1))
            assert qn * qn >= 2 ** (length - 1)
    # quotient-ratio bounds on the stated grid, every k
    for length in range(1, 7):
        for w in product(range(1, 6), repeat=length):
            for k in range(1, length + 1):
                assert quotient_ratio_check(w, k).ok
    elapsed = time.time() - started
    assert elapsed < 60, "took %.1fs" % elapsed


def test_criterion_03_chain_inequality_exhaustive():
    # |J(w.a.b)| <= (M+1)/(M a^2 b^2) |J(w)| on exact rationals
    failures = 0
    for m_floor in (2, 3, 4):
        for length in (1, 3, 5):
            for w in product(range(1, 5), repeat=length):
                base = j_interval_length(w, m_floor)
                for a in range(1, 5):
                    for b in range(1, 5):
                        ext = j_interval_length(tuple(w) + (a, b), m_floor)
                        if ext > Fraction(m_floor + 1, m_floor * a * a * b * b) * base:
                            failures += 1
    assert failures == 0


FLOORS = (10, 100, 1000, 10 ** 4, 10 ** 6)


def test_criterion_04_critical_equation():
    started = time.time()
    with mp.workdps(50):
        stars, gaps = [], []
        for m_floor in FLOORS:
            res = critical_exponent(m_floor, tol=1e-12)
            assert res.converged and res.residual <= mpf("1e-12")
            stars.append(res.s_star)
            gaps.append(res.s_star - asymptotic_exponent(m_floor))
        assert all(a > b for a, b in zip(stars, stars[1:]))
        # corrected trend: the signed gap decreases strictly along the
        # list (the literal absolute-value claim is criterion_04b)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert mpf("0.5") < stars[-1] < mpf("0.7")
    elapsed = time.time() - started
    assert elapsed < 30, "took %.1fs" % elapsed


@pytest.mark.xfail(
    strict=True,
    reason="the gap s* - asymptotic changes sign between M = 100 and "
    "M = 1000, so its absolute value rises again at M = 10^4",
)
def test_criterion_04b_absolute_gap_decreasing_literal():
    with mp.workdps(50):
        gaps = [
            abs(critical_exponent(m).s_star - asymptotic_exponent(m))
            for m in FLOORS
        ]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_criterion_05_zeta_numerics():
    with mp.workdps(50):
        assert abs(zeta(2) - mp.pi ** 2 / 6) <= mpf("1e-12")
        assert abs(zeta(4) - mp.pi ** 4 / 90) <= mpf("1e-12")
        # corrected Laurent constant: the true error is ~0.1456*delta
        # (twice the first Stieltjes constant), so 0.2 is the honest cap
        for d in ("1e-4", "1e-3", "1e-2", "1e-1"):
            delta = mpf(d)
            err = abs(zeta(1 + 2 * delta) - laurent_zeta_approx(d))
            assert err <= mpf("0.2") * delta
        for start in (1, 2, 5, 10, 64, 100, 1000):
            for s in ("0.51", "0.6", "0.75", "1", "1.5", "2", "4"):
                z = 2 * mpf(s)
                lo = tail_integral_approx(start, s)
                tail = zeta_tail(start, mp.nstr(z, 20))
                assert lo <= tail <= mpf(start) ** (-z) + lo


@pytest.mark.xfail(
    strict=True,
    reason="|zeta(1+2d) - (1/(2d)+gamma)| is about 0.1456*d, above the "
    "published 0.1*d for every delta in the stated grid",
)
def test_criterion_05b_laurent_tenth_delta_literal():
    with mp.workdps(50):
        for d in ("1e-4", "1e-3", "1e-2", "1e-1"):
            delta = mpf(d)
            err = abs(zeta(1 + 2 * delta) - laurent_zeta_approx(d))
            assert err <= mpf("0.1") * delta


def test_criterion_06_schedule_pipeline():
    started = time.time()
    flagship = choose_schedule(SQ, 1, 10000, eps="1/10")
    assert flagship.thresholds == (379,)
    assert flagship.breakpoints == (20,)
    # weight inequality sum log(step(j)+1) <= c1*n holds for all n in
    # [380, 10^4]; 380 is sharp (379 violates), certified exactly
    sched = choose_schedule(SQ, 30, 10000, eps="1/10")
    onset = schedule_onset(SQ, sched)
    assert onset.onset == 380
    assert onset.checked_to == 10000
    # verify_size_bound passes on 20 seeded random admissible words at
    # or above the reported onset (digits within the separation cap 5)
    import random

    rng = random.Random(42)
    for _ in range(20):
        length = rng.randint(34, 120)
        digits = [
            step_value(sched, SQ.count(i)) if i in SQ else rng.randint(1, 5)
            for i in range(1, length + 1)
        ]
        rep = verify_size_bound("1/10", SQ, sched, PartialQuotients(digits))
        assert rep.onset == 34
        assert rep.ok, digits
    elapsed = time.time() - started
    assert elapsed < 60, "took %.1fs" % elapsed


@pytest.mark.xfail(
    strict=True,
    reason="the k-indexed weight invariant c1*k(n) >= sum log(step(j)+1) "
    "needs c1 >= log 2, impossible for c1 = eps*log2/2 with eps < 2; the "
    "n-indexed form certified above is what the construction uses",
)
def test_criterion_06b_weight_invariant_k_form_literal():
    sched = choose_schedule(SQ, 30, 10000, eps="1/10")
    with mp.workdps(50):
        c1 = sched.c1_value
        for n in (1, 380, 10000):
            k = SQ.count(n)
            weight = mp.fsum(mp.log(step_value(sched, j) + 1) for j in range(1, k + 1))
            assert c1 * k >= weight, n


def test_criterion_07_separation_and_holder():
    # exhaustive separation: M in {2,3}, prefixes up to 3, tails up to 3
    orders = {True: 0, False: 0}
    for m_cap in (2, 3):
        digit = range(1, m_cap + 1)
        prefixes = [()] + [
            w for L in (1, 2, 3) for w in product(digit, repeat=L)
        ]
        tails = [w for L in (1, 2, 3) for w in product(digit, repeat=L)]
        for prefix in prefixes:
            for t1 in tails:
                for t2 in tails:
                    if t1[0] == t2[0]:
                        continue
                    x = evaluate(prefix + t1)
                    y = evaluate(prefix + t2)
                    if x == y:
                        continue  # boundary alias, same point
                    rep = verify_separation(prefix, m_cap, t1, t2)
                    assert rep.ok, (m_cap, prefix, t1, t2)
                    orders[x < y] += 1
    assert orders[True] and orders[False]  # both orderings exercised
    # Hölder: 100 seeded random pairs, square schedule, M = 5, eps = 1/10
    sched = choose_schedule(SQ, 30, 10000, eps="1/10")
    pairs = sample_holder_pairs(SQ, 5, sched, 100, 0, 34)
    reports = holder_check(SQ, 5, "1/10", pairs)
    assert len(reports) == 100
    assert all(rep.ok for rep in reports)


def test_criterion_08_hirst_numerics():
    assert not covering_condition(ALL, EVEN, "1/5", 100).ok
    est = estimate_condition_floor(ALL, EVEN, "1/5")
    assert est.ok and not est.exceeded
    assert 1.5e12 < est.value < 2e12  # the documented scale is ~1.7e12
    assert covering_condition(ALL, EVEN, "1/5", est.value).ok
    assert hirst_dimension(ALL).value == Fraction(1, 2)
    assert hirst_dimension(parse_digit_set("square")).value == Fraction(1, 4)
    assert dimension_dichotomy(EVEN).dim == Fraction(1, 2)
    assert dimension_dichotomy(parse_index_sequence("arith:1,3")).dim == Fraction(1, 2)
    assert dimension_dichotomy(SQ).dim == Fraction(1)
    assert dimension_dichotomy(parse_index_sequence("pow:2")).dim == Fraction(1)


CLI_MATRIX = [
    ["cf", "expand", "--rational", "7/10"],
    ["cf", "expand", "--decimal", "0.714285"],
    ["cf", "eval", "--word", "1,2,3"],
    ["cf", "convergents", "--word", "2,1,4,1,6"],
    ["cf", "cylinder", "--word", "1,2,3"],
    ["cf", "delete", "--word", "3,1,4,1,5,9", "--seq", "square"],
    ["zeta", "value", "--z", "2"],
    ["zeta", "tail", "--start", "10", "--z", "1.5"],
    ["dim", "factor", "--M", "5", "--s", "0.75"],
    ["dim", "critical", "--M", "1000", "--tol", "1e-12"],
    ["dim", "asymptotic", "--M", "1000"],
    ["dim", "reference", "--M", "1000"],
    ["dim", "jlen", "--word", "1,2,3", "--M", "4"],
    ["dim", "cover", "--M", "2", "--s", "1", "--levels", "2", "--digit-cap", "12"],
    ["seq", "density", "--spec", "square", "--horizon", "10000"],
    ["seq", "tau", "--digits-spec", "square"],
    ["seq", "count", "--spec", "pow:2", "--n", "1000"],
    ["construct", "schedule", "--seq", "square", "--eps", "1/10",
     "--j-max", "1", "--horizon", "10000"],
    ["construct", "point", "--seq", "square", "--eps", "1/10", "--j-max", "30",
     "--horizon", "10000", "--M", "3", "--depth", "12"],
    ["construct", "verify-sep", "--prefix", "2,1", "--M", "3",
     "--x-tail", "1,2", "--y-tail", "2,1"],
    ["construct", "verify-size", "--seq", "square", "--eps", "1/10",
     "--j-max", "30", "--horizon", "10000", "--word", ",".join(["1"] * 40)],
    ["construct", "holder", "--seq", "square", "--eps", "1/10", "--j-max", "30",
     "--horizon", "10000", "--M", "5", "--sample", "5", "--seed", "3"],
    ["hirst", "dim", "--digits-spec", "square"],
    ["hirst", "m0", "--digits-spec", "all", "--seq", "even", "--eps", "1/5",
     "--M", "100"],
    ["hirst", "product", "--digits-spec", "all", "--seq", "even", "--M", "2",
     "--s", "1", "--base-level", "0", "--level", "1"],
    ["hirst", "theorem", "--seq", "even"],
]


def run_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cfdim"] + argv,
        capture_output=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, (argv, proc.stderr)
    return proc.stdout


def test_criterion_09_cli_determinism():
    for argv in CLI_MATRIX:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second, argv
        json.loads(first.decode())  # every matrix entry emits valid JSON
    # --threads is accepted but must not change the bytes
    cover = CLI_MATRIX[13]
    assert cover[:2] == ["dim", "cover"]
    reference = run_cli(cover + ["--threads", "1"])
    for threads in ("2", "4"):
        assert run_cli(cover + ["--threads", threads]) == reference
