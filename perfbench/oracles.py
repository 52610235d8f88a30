"""Output checks for each workload, computed without importing cfdim.

Every check takes an op (as generated in workloads.py) and the summary
the worker returned for it, and returns None when the output is right
or a one-line reason when it is not.  Reals are recomputed with
mpmath's own zeta and Hurwitz zeta; rationals and integers from the
continuant recurrence.  They run after the timed region.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import isqrt

from mpmath import mp, mpf

import workloads

# documented accuracy of cfdim's Euler-Maclaurin sums (PrecisionContext)
_ZETA_TOL = mpf("1e-12")
# relative agreement asked of covering sums (25 significant digits)
_COVER_REL = mpf("1e-25")
# relative agreement asked of hirst quantities built from several sums
_HIRST_REL = mpf("1e-9")


def _q_pair(word):
    # (q_n, q_{n-1}) of [0; a_1, ..., a_n]
    q_prev, q = 0, 1
    for a in word:
        q_prev, q = q, a * q + q_prev
    return q, q_prev


def _value(word):
    p_prev, p, q_prev, q = 1, 0, 0, 1
    for a in word:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return Fraction(p, q)


def _cylinder_length(word):
    q, q_prev = _q_pair(word)
    return Fraction(1, q * (q + q_prev))


# ---------------------------------------------------------------- cover

def cover_sum(m_floor, s, levels, cap):
    """Sum of |J(w)|^s, |J(w)| = 1/(q_n (M q_n + q_{n-1})), words in lexicographic order."""
    ranges = [range(1, cap + 1) if pos % 2 else range(m_floor, cap + 1)
              for pos in range(1, 2 * levels)]
    with mp.workdps(50):
        sm = mpf(s.numerator) / s.denominator
        total = mpf(0)
        for word in product(*ranges):
            q, q_prev = _q_pair(word)
            total += (mpf(1) / (q * (m_floor * q + q_prev))) ** sm
        return +total


def check_cover(op, got):
    if got is None:
        return "no result"
    want = cover_sum(op["M"], Fraction(op["s"]), op["levels"], op["cap"])
    with mp.workdps(50):
        if abs(mpf(got) - want) > _COVER_REL * abs(want):
            return "covering sum %s, closed form gives %s" % (got, mp.nstr(want, 30))
    return None


# ---------------------------------------------------------------- critical

def _factor(m_floor, s):
    return (1 + mpf(1) / m_floor) ** s * mp.zeta(2 * s) * mp.zeta(2 * s, m_floor)


def _tau(digits):
    if digits == "square":
        return Fraction(1, 2)
    if digits.startswith("pow:"):
        return Fraction(0)
    return Fraction(1)


def _density(seq):
    if seq == "even":
        return Fraction(1, 2)
    return Fraction(1, int(seq.split(",")[1]))


def _seq_nth(seq, j):
    if seq == "even":
        return 2 * j
    a0, d = (int(x) for x in seq.split(":")[1].split(","))
    return a0 + (j - 1) * d


def _full_sum(digits, z):
    if digits == "all":
        return mp.zeta(z)
    if digits.startswith("geq:"):
        return mp.zeta(z, int(digits[4:]))
    if digits == "square":
        return mp.zeta(2 * z)
    t = mp.power(int(digits[4:]), -z)
    return t / (1 - t)


def _tail_sum(digits, floor_m, z):
    if digits == "all":
        return mp.zeta(z, floor_m)
    if digits.startswith("geq:"):
        return mp.zeta(z, max(floor_m, int(digits[4:])))
    if digits == "square":
        return mp.zeta(2 * z, 1 if floor_m <= 1 else isqrt(floor_m - 1) + 1)
    b = int(digits[4:])
    j0, v = 1, b
    while v < floor_m:
        j0, v = j0 + 1, v * b
    return mp.power(b, -j0 * z) / (1 - mp.power(b, -z))


def _condition_lhs(op, floor_m):
    eps = Fraction(op["eps"])
    z = _tau(op["digits"]) * (1 + eps)
    e = 1 / (_density(op["seq"]) - eps) - 1
    zf = mpf(z.numerator) / z.denominator
    ef = mpf(e.numerator) / e.denominator
    return mp.power(_full_sum(op["digits"], zf), ef) * _tail_sum(op["digits"], floor_m, zf)


def _rel_off(got, want):
    return abs(mpf(got) - want) > _HIRST_REL * abs(want)


def check_critical(op, got):
    """Dispatch for every op kind of the critical workload."""
    if got is None:
        return "no result"
    kind = op["kind"]
    with mp.workdps(50):
        if kind == "critical":
            if not got["converged"]:
                return "bisection did not converge"
            with mp.workdps(op["dps"] + 10):
                residual = abs(_factor(op["M"], mpf(got["s"])) - 1)
                if residual > _ZETA_TOL:
                    return "factor at s* is off 1 by %s" % mp.nstr(residual, 5)
            return None
        if kind == "factor":
            s = mpf(op["s"])
            base = (1 + mpf(1) / op["M"]) ** s
            full, tail = mp.zeta(2 * s), mp.zeta(2 * s, op["M"])
            want = base * full * tail
            if abs(mpf(got) - want) > base * (full + tail) * _ZETA_TOL:
                return "factor %s, zeta gives %s" % (got, mp.nstr(want, 25))
            return None
        if kind in ("zeta", "zeta_tail"):
            z = mpf(op["z"])
            want = mp.zeta(z) if kind == "zeta" else mp.zeta(z, op["start"])
            if abs(mpf(got) - want) > _ZETA_TOL:
                return "%s %s, mpmath gives %s" % (kind, got, mp.nstr(want, 25))
            return None
        if kind == "condition":
            want = _condition_lhs(op, op["M"])
            if _rel_off(got["lhs"], want):
                return "condition lhs %s, Hurwitz sums give %s" % (got["lhs"], mp.nstr(want, 20))
            if abs(want - 1) > _HIRST_REL and got["ok"] != (want <= 1):
                return "condition verdict %s disagrees with lhs %s" % (got["ok"], mp.nstr(want, 20))
            return None
        if kind == "floor":
            if got["exceeded"] or not got["ok"] or got["value"] is None:
                return "no floor found: %r" % (got,)
            want = _condition_lhs(op, got["value"])
            if want > 1 + _HIRST_REL:
                return "condition fails at the reported floor %d" % got["value"]
            if _rel_off(got["lhs"], want):
                return "floor lhs %s, Hurwitz sums give %s" % (got["lhs"], mp.nstr(want, 20))
            return None
        if kind == "product":
            z = 2 * mpf(op["s"])
            free = _seq_nth(op["seq"], op["level"]) - op["level"]
            want = (mp.power(_full_sum(op["digits"], z), free)
                    * mp.power(_tail_sum(op["digits"], op["M"], z), op["level"]))
            if _rel_off(got, want):
                return "product bound %s, closed form gives %s" % (got, mp.nstr(want, 20))
            return None
    return "unknown op kind %r" % kind


# ---------------------------------------------------------------- certify

def _count(spec, n):
    if n < 1:
        return 0
    if spec == "square":
        return isqrt(n)
    return n.bit_length() - 1  # members 2, 4, 8, ... up to n


def _first_at_least(spec, v):
    j = 1
    while workloads.seq_nth(spec, j) < v:
        j += 1
    return j


def _violates(pipe, k, n, j):
    # k log(j+1) > c1 n, with c1 = eps log2 / 2 in eps mode
    if k == 0:
        return False
    value = Fraction(pipe["value"])
    if pipe["mode"] == "eps":
        return (j + 1) ** (2 * value.denominator * k) > 2 ** (value.numerator * n)
    with mp.workdps(60):
        return k * mp.log(j + 1) > mpf(value.numerator) / value.denominator * n


def _step(breakpoints, j):
    return bisect_left(breakpoints, j) + 1


def _weight_exceeds(pipe, breakpoints, m):
    # sum_{j <= k(m)} log(step(j)+1) > c1 m
    steps = [_step(breakpoints, j) for j in range(1, _count(pipe["seq"], m) + 1)]
    value = Fraction(pipe["value"])
    if pipe["mode"] == "eps":
        prod = 1
        for s in steps:
            prod *= (s + 1) ** (2 * value.denominator)
        return prod > 2 ** (value.numerator * m)
    with mp.workdps(80):
        return mp.fsum(mp.log(s + 1) for s in steps) > mpf(value.numerator) / value.denominator * m


def _pinned(pipe):
    # square with eps 1/10 has known values: N_1 = 379, n_1 = 20, onset 380
    return pipe["seq"] == "square" and pipe["mode"] == "eps" and pipe["value"] == "1/10"


def _check_schedule(pipe, got):
    thresholds, breakpoints = got["N"], got["n"]
    if len(thresholds) != pipe["j_max"] or len(breakpoints) != pipe["j_max"]:
        return "schedule has %d steps, asked for %d" % (len(thresholds), pipe["j_max"])
    if _pinned(pipe) and (thresholds[0], breakpoints[0]) != (379, 20):
        return "square, eps 1/10: first step is (%d, %d), known (379, 20)" % (
            thresholds[0], breakpoints[0])
    prev = 0
    for j, (big_n, n_j) in enumerate(zip(thresholds, breakpoints), start=1):
        if big_n > 0 and not _violates(pipe, _count(pipe["seq"], big_n), big_n, j):
            return "step %d: no ratio violation at its threshold %d" % (j, big_n)
        top = min(pipe["horizon"], big_n + 200)
        for n in range(big_n + 1, top + 1):
            if _violates(pipe, _count(pipe["seq"], n), n, j):
                return "step %d: violation at %d above the threshold %d" % (j, n, big_n)
        if n_j != max(prev + 1, _first_at_least(pipe["seq"], big_n)):
            return "step %d: breakpoint %d does not match threshold %d" % (j, n_j, big_n)
        prev = n_j
    return None


def _check_onset(pipe, breakpoints, got):
    onset, checked_to = got["onset"], got["checked_to"]
    if not 1 <= onset <= checked_to <= pipe["horizon"]:
        return "onset %d / checked_to %d out of range" % (onset, checked_to)
    if _pinned(pipe) and onset != 380:
        return "square, eps 1/10: onset %d, known 380" % onset
    if onset > 1 and not _weight_exceeds(pipe, breakpoints, onset - 1):
        return "weight inequality already holds at %d, before the onset %d" % (onset - 1, onset)
    for m in range(onset, min(checked_to, onset + 300) + 1):
        if _weight_exceeds(pipe, breakpoints, m):
            return "weight inequality fails at %d, past the onset %d" % (m, onset)
    return None


def _admissible(spec, breakpoints, word, m_cap):
    for i, a in enumerate(word, start=1):
        if workloads.seq_contains(spec, i):
            if a != _step(breakpoints, _count(spec, i)):
                return "position %d carries %d, not its step value" % (i, a)
        elif not 1 <= a <= m_cap:
            return "free digit %d at position %d outside [1, %d]" % (a, i, m_cap)
    return None


def check_certify(plan, outputs):
    """Reasons per op index (same order as the worker's round) for every wrong output."""
    bad = {}
    i = 0
    for pipe in plan["pipelines"]:
        sched, onset, point = outputs[i], outputs[i + 1], outputs[i + 2]
        sizes = outputs[i + 3:i + 3 + len(pipe["words"])]
        pairs_at = i + 3 + len(pipe["words"])
        pairs, holder = outputs[pairs_at], outputs[pairs_at + 1]
        if sched is None:
            bad[i] = "no schedule"
        else:
            bad[i] = _check_schedule(pipe, sched)
            if onset is not None:
                bad[i + 1] = _check_onset(pipe, sched["n"], onset)
            if point is not None:
                if len(point) != pipe["depth"]:
                    bad[i + 2] = "point has %d digits, asked for %d" % (len(point), pipe["depth"])
                else:
                    bad[i + 2] = _admissible(pipe["seq"], sched["n"], point, 1)
            for k, (template, rep) in enumerate(zip(pipe["words"], sizes)):
                if rep is None or point is None:
                    continue
                word = [point[j] if t == 0 else t for j, t in enumerate(template)]
                onset_c = rep["onset_certified"]
                if onset_c is None or len(word) < onset_c:
                    msg = "word of length %d is not past the certified onset %r" % (
                        len(word), onset_c)
                elif not rep["ok"]:
                    msg = "size bound fails on an admissible word past the onset"
                elif Fraction(rep["lhs"]) != _cylinder_length(word):
                    msg = "cylinder length %s disagrees with the continuant" % rep["lhs"]
                else:
                    msg = None
                bad[i + 3 + k] = msg
            if pairs is not None:
                msg = None
                if len(pairs) != pipe["pairs"]:
                    msg = "%d pairs, asked for %d" % (len(pairs), pipe["pairs"])
                for x, y in pairs:
                    msg = msg or _admissible(pipe["seq"], sched["n"], x, pipe["M"])
                    msg = msg or _admissible(pipe["seq"], sched["n"], y, pipe["M"])
                bad[pairs_at] = msg
            if holder is not None:
                verdicts = [ok for ok, _ in holder]
                if False in verdicts:
                    bad[pairs_at + 1] = "a Holder pair fails: %r" % (holder,)
                elif True not in verdicts:
                    bad[pairs_at + 1] = "no Holder pair was checked: %r" % (holder,)
        for k in range(i + 1, pairs_at + 2):
            if outputs[k] is None and bad.get(k) is None:
                bad[k] = "no result"
        i = pairs_at + 2
    for sep in plan["separations"]:
        rep = outputs[i]
        if rep is None:
            bad[i] = "no result"
        else:
            pre = sep["prefix"]
            gap = abs(_value(pre + sep["x"]) - _value(pre + sep["y"]))
            base = _cylinder_length(pre) if pre else Fraction(1)
            bound = base / (9 * sep["M"] ** 3)
            if (Fraction(rep["gap"]), Fraction(rep["bound"])) != (gap, bound):
                bad[i] = "gap/bound %s/%s, continuants give %s/%s" % (
                    rep["gap"], rep["bound"], gap, bound)
            elif not rep["ok"] or gap < bound:
                bad[i] = "separation fails: gap %s < bound %s" % (gap, bound)
        i += 1
    return {k: v for k, v in bad.items() if v is not None}


def check_ops(workload, ops, outputs):
    """{op index: reason} for every op of one round whose output is wrong."""
    if workload == "certify":
        return check_certify(ops, outputs)
    check = check_cover if workload == "cover" else check_critical
    bad = {}
    for i, (op, got) in enumerate(zip(ops, outputs)):
        msg = check(op, got)
        if msg is not None:
            bad[i] = msg
    return bad
