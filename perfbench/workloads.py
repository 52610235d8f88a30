"""Seeded inputs for the four benchmark workloads.

Everything here is plain Python with no cfdim import: the benchmark
generates inputs on its side and the program only ever sees them.
Each generator returns the op list of one round; a run repeats that
list, so the seed fixes the work and the clock only decides how many
rounds fit.

Ops are JSON-safe dicts (rationals travel as "p/q" strings) so they can
be handed to a worker process on stdin.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

WORKLOADS = ("cover", "certify", "critical", "cli")

# The 26 command shapes pinned by criterion_09 in tests/test_acceptance.py,
# copied so that digests of exactly these argvs can be compared across trees.
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


def frac_text(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _non_integer_s(rng):
    # a rational strictly inside (0.55, 0.95), where the critical
    # exponents of small floors sit
    while True:
        q = rng.randint(7, 40)
        p = rng.randint(1, q - 1)
        if gcd(p, q) == 1 and Fraction(55, 100) < Fraction(p, q) < Fraction(95, 100):
            return Fraction(p, q)


def level_words(m_floor, levels, cap):
    """Words covering_sum_enumerated visits: odd digits in [1, cap], even in [M, cap]."""
    return cap ** levels * (cap - m_floor + 1) ** (levels - 1)


def _cap_for(m_floor, levels, target, cap_max):
    # the cap whose enumeration size is closest to the target, so every
    # seed puts about the same number of words in each stratum
    return min(range(m_floor, cap_max + 1),
               key=lambda c: abs(level_words(m_floor, levels, c) - target))


# (levels, target words, integer s?)  Integer exponents take mpmath's
# fast power path and cost about half as much per word.  The strata form
# three cost groups: four small ops (both levels-3 strata among them),
# five middle ops and three large ones.  op_p50_s falls inside the middle
# group and op_p90_s inside the large one, so neither sits on the edge
# between two ops of different cost.
_COVER_STRATA = (
    (2, 400, False), (2, 900, False), (3, 900, False), (3, 1800, True),
    (2, 2500, False), (2, 2500, False), (2, 3100, False), (2, 5500, True), (2, 6050, True),
    (2, 10000, False), (2, 10750, False), (2, 11000, False),
)


def _floor_choices(levels, target, cap_max):
    # floors whose nearest cap lands within 2% of the target, or every
    # floor when none does; the cap steps are coarse, so a free choice of
    # M would move a stratum's word count by up to a fifth between seeds.
    # The targets above are set so that the middle and large strata have
    # two such floors each.
    floors = range(2, 7 if levels == 2 else 4)
    close = [m for m in floors
             if abs(level_words(m, levels, _cap_for(m, levels, target, cap_max)) - target)
             <= 0.02 * target]
    return close or list(floors)


def cover_ops(seed):
    rng = random.Random(seed)
    ops = []
    for levels, target, integer_s in _COVER_STRATA:
        cap_max = 24 if levels == 2 else 6
        m_floor = rng.choice(_floor_choices(levels, target, cap_max))
        cap = _cap_for(m_floor, levels, target, cap_max)
        s = Fraction(rng.choice((1, 2))) if integer_s else _non_integer_s(rng)
        ops.append({"kind": "cover", "M": m_floor, "s": frac_text(s),
                    "levels": levels, "cap": cap})
    rng.shuffle(ops)
    return ops


def _log_uniform(rng, lo, hi):
    # integer roughly uniform in log scale on [lo, hi]
    e = rng.uniform(0, 1)
    return max(lo, min(hi, int(round(lo * (hi / lo) ** e))))


def _decimal(rng, lo, hi, places=3):
    return "%.*f" % (places, rng.uniform(lo, hi))


def critical_ops(seed):
    rng = random.Random(seed)
    ops = []
    # Op costs form fixed groups, so every seed's round has the same
    # shape: ten cheap ops (zeta, zeta_tail, level-1 product bounds), a
    # middle group of thirty ops of nearly equal cost (per_level_factor
    # at M >= 100 and covering_condition at M >= 1000 for rule digit
    # sets), eleven dearer hirst ops, then fourteen critical_exponent
    # solves.  op_p50_s falls inside the middle group and op_p90_s inside
    # the ten dps-100 solves, the slowest group.  The solves' floors
    # spread evenly over [10, 10^7] in log scale, because small floors
    # sum more head terms.
    for dps, n in ((100, 10), (50, 4)):
        for i in range(n):
            m_floor = int(10 * 10 ** ((i + rng.random()) * 6 / n))
            ops.append({"kind": "critical", "M": m_floor, "dps": dps})
    for _ in range(15):
        ops.append({"kind": "factor", "M": _log_uniform(rng, 100, 10 ** 6),
                    "s": _decimal(rng, 0.6, 1.4)})
    for _ in range(4):
        ops.append({"kind": "zeta", "z": _decimal(rng, 1.2, 4.0)})
    for _ in range(4):
        ops.append({"kind": "zeta_tail", "start": _log_uniform(rng, 2, 10 ** 4),
                    "z": _decimal(rng, 1.2, 4.0)})
    # hirst on rule digit sets along density-1/2 index sequences, where
    # the floor search lands below its 10^18 cap
    eps_choices = (Fraction(1, 5), Fraction(1, 4), Fraction(3, 10), Fraction(2, 5))
    for _ in range(15):
        ops.append({"kind": "condition", "digits": rng.choice(("all", "geq:%d" % rng.randint(2, 9))),
                    "seq": rng.choice(("even", "arith:%d,2" % rng.randint(1, 9))),
                    "eps": frac_text(rng.choice(eps_choices)),
                    "M": _log_uniform(rng, 10 ** 3, 10 ** 9)})
    for _ in range(7):
        ops.append({"kind": "floor", "digits": rng.choice(("all", "geq:%d" % rng.randint(2, 30))),
                    "seq": rng.choice(("even", "arith:%d,2" % rng.randint(1, 9))),
                    "eps": frac_text(rng.choice(eps_choices))})
    for level in (1, 1, 2, 2, 3, 3):
        ops.append({"kind": "product",
                    "digits": rng.choice(("all", "square", "pow:%d" % rng.randint(2, 5),
                                          "geq:%d" % rng.randint(2, 20))),
                    "seq": rng.choice(("even", "arith:1,3", "arith:2,2")),
                    "M": rng.randint(2, 50), "s": _decimal(rng, 0.8, 1.6), "level": level})
    rng.shuffle(ops)
    return ops


def seq_nth(spec, j):
    """k_j of the two sequences the certify pipelines use."""
    return j * j if spec == "square" else 2 ** j


def seq_contains(spec, i):
    if spec == "square":
        return isqrt(i) ** 2 == i
    return i >= 2 and i & (i - 1) == 0


# One pipeline per (sequence, mode), with fixed constants: the scan
# lengths of choose_schedule and schedule_onset depend steeply on eps,
# c1 and j_max, so fixing them keeps every seed's round the same size.
# The seed picks the digit caps, the words, the Holder pairs and the
# separation prefixes.  Square with eps = 1/10 has known first-step
# values (N_1 = 379, n_1 = 20, onset 380) that the oracle pins.
# (sequence, mode, eps or c1, steps, verify_size_bound words).  The
# size checks of square in c1 mode are the most common op, a third of
# the round, so op_p50_s falls in the middle of that group.
_PIPELINES = (("square", "eps", "1/10", 30, 2), ("pow:2", "eps", "1/10", 30, 2),
              ("square", "c1", "1/30", 4, 14), ("pow:2", "c1", "1/30", 4, 2))
SIZE_EPS = Fraction(1, 10)


def certify_ops(seed):
    """Pipelines of dependent ops: later ops take the schedule the first op returns."""
    rng = random.Random(seed)
    pipelines = []
    for spec, mode, value, j_max, n_words in _PIPELINES:
        m_cap = rng.randint(3, 6)
        # lengths past the certified size-bound onset of every pipeline
        lo, hi = (600, 1000) if spec == "square" else (200, 600)
        lengths = sorted(rng.randint(lo, hi) for _ in range(n_words))
        # free digits of each word; constrained positions (0) are filled
        # from the constructed point inside the worker
        words = [[0 if seq_contains(spec, i) else rng.randint(1, m_cap)
                  for i in range(1, n + 1)] for n in lengths]
        pipelines.append({
            "seq": spec, "mode": mode, "value": value, "j_max": j_max,
            "horizon": 10 ** 4, "M": m_cap, "depth": lengths[-1], "words": words,
            "size_eps": frac_text(SIZE_EPS), "pairs": rng.randint(4, 8),
            "pair_seed": rng.randrange(10 ** 6), "min_prefix": rng.randint(36, 60),
        })
    separations = []
    for _ in range(2):
        m_cap = rng.randint(2, 6)
        prefix = [rng.randint(1, m_cap) for _ in range(rng.randint(0, 12))]
        d1, d2 = rng.sample(range(1, m_cap + 1), 2)
        tails = []
        for first in (d1, d2):
            tail = [first] + [rng.randint(1, m_cap) for _ in range(rng.randint(0, 6))]
            if len(tail) > 1 and tail[-1] == 1:
                tail[-1] = 2  # no boundary alias [.., a, 1] = [.., a + 1]
            tails.append(tail)
        separations.append({"prefix": prefix, "M": m_cap, "x": tails[0], "y": tails[1]})
    return {"pipelines": pipelines, "separations": separations}


def _word(rng, n, hi=9):
    return ",".join(str(rng.randint(1, hi)) for _ in range(n))


def _cli_cover(rng):
    # the cap whose word count is nearest 900, so every seed's cover
    # command costs about the same
    m_floor = rng.randint(2, 4)
    return ["dim", "cover", "--M", str(m_floor), "--s", _decimal(rng, 0.6, 0.95),
            "--levels", "2", "--digit-cap", str(_cap_for(m_floor, 2, 900, 12))]


def _cli_critical(rng):
    # floors of at least 1000, where a solve's cost hardly depends on M
    return ["dim", "critical", "--M", str(_log_uniform(rng, 10 ** 3, 10 ** 6)), "--tol", "1e-12"]


def cli_argvs(seed):
    """One seeded argv per CLI_MATRIX shape, then three more of the slowest shapes.

    The extra commands are ``dim cover --threads 2`` on the first cover
    command's arguments, a second ``dim cover`` and a second ``dim
    critical``.  With them the five commands that do the most work
    (three covers, two solves) are the top sixth of the list, so
    op_p90_s falls among the covers rather than on the edge between
    them and the start-up-bound commands.
    """
    rng = random.Random(seed)
    q = rng.randint(3, 500)
    p = rng.choice([k for k in range(1, q) if gcd(k, q) == 1])
    cover = _cli_cover(rng)
    eps = "1/%d" % rng.randint(8, 12)
    x_first, y_first = rng.sample(range(1, 5), 2)
    argvs = [
        ["cf", "expand", "--rational", "%d/%d" % (p, q)],
        ["cf", "expand", "--decimal",
         "0.%d%s" % (rng.randint(1, 8), _word(rng, 5).replace(",", ""))],
        ["cf", "eval", "--word", _word(rng, rng.randint(3, 8))],
        ["cf", "convergents", "--word", _word(rng, rng.randint(3, 8))],
        ["cf", "cylinder", "--word", _word(rng, rng.randint(2, 8))],
        ["cf", "delete", "--word", _word(rng, rng.randint(5, 12)),
         "--seq", rng.choice(("square", "even", "pow:2"))],
        ["zeta", "value", "--z", _decimal(rng, 1.5, 4.0)],
        ["zeta", "tail", "--start", str(rng.randint(2, 200)), "--z", _decimal(rng, 1.2, 3.0)],
        ["dim", "factor", "--M", str(rng.randint(2, 50)), "--s", _decimal(rng, 0.6, 1.5)],
        _cli_critical(rng),
        ["dim", "asymptotic", "--M", str(_log_uniform(rng, 3, 10 ** 6))],
        ["dim", "reference", "--M", str(_log_uniform(rng, 2, 10 ** 6))],
        ["dim", "jlen", "--word", _word(rng, rng.choice((1, 3, 5))), "--M", str(rng.randint(1, 9))],
        cover,
        ["seq", "density", "--spec", rng.choice(("square", "pow:2", "pow:3", "even")),
         "--horizon", str(rng.randint(100, 2000))],
        ["seq", "tau", "--digits-spec", rng.choice(("square", "all", "pow:3", "geq:7"))],
        ["seq", "count", "--spec", rng.choice(("pow:2", "square", "even", "arith:3,5")),
         "--n", str(_log_uniform(rng, 1, 10 ** 6))],
        ["construct", "schedule", "--seq", "square", "--eps", eps,
         "--j-max", str(rng.randint(1, 3)), "--horizon", "10000"],
        ["construct", "point", "--seq", "square", "--eps", eps, "--j-max", str(rng.randint(1, 3)),
         "--horizon", "10000", "--M", str(rng.randint(2, 5)), "--depth", str(rng.randint(5, 60))],
        ["construct", "verify-sep", "--prefix", _word(rng, rng.randint(1, 6), 4), "--M", "4",
         "--x-tail", "%d,2" % x_first, "--y-tail", "%d,3" % y_first],
        ["construct", "verify-size", "--seq", "square", "--eps", eps,
         "--j-max", str(rng.randint(1, 3)), "--horizon", "10000",
         "--word", ",".join(["1"] * rng.randint(20, 80))],
        ["construct", "holder", "--seq", "square", "--eps", eps, "--j-max", str(rng.randint(1, 3)),
         "--horizon", "10000", "--M", str(rng.randint(3, 6)), "--sample", str(rng.randint(2, 6)),
         "--seed", str(rng.randrange(1000))],
        ["hirst", "dim", "--digits-spec", rng.choice(("square", "all", "pow:2", "geq:4"))],
        ["hirst", "m0", "--digits-spec", "all", "--seq", "even", "--eps",
         rng.choice(("1/5", "1/4", "3/10")), "--M", str(_log_uniform(rng, 10, 10 ** 9))],
        ["hirst", "product", "--digits-spec", rng.choice(("all", "square")), "--seq", "even",
         "--M", str(rng.randint(2, 20)), "--s", _decimal(rng, 0.8, 1.5),
         "--base-level", "0", "--level", str(rng.randint(1, 3))],
        ["hirst", "theorem", "--seq", rng.choice(("even", "square", "pow:3", "arith:2,7"))],
        cover + ["--threads", "2"],
        _cli_cover(rng),
        _cli_critical(rng),
    ]
    return argvs


def ops_for(workload, seed):
    if workload == "cover":
        return cover_ops(seed)
    if workload == "critical":
        return critical_ops(seed)
    if workload == "certify":
        return certify_ops(seed)
    return cli_argvs(seed)


# Fixed small inputs, one per op kind, run once during set-up so that
# lazy imports and mpmath's cached constants are paid before timing.
WARMUP_SEED = 0


def warmup_ops(workload):
    if workload == "cover":
        return [{"kind": "cover", "M": 2, "s": "3/4", "levels": 2, "cap": 4}]
    if workload == "critical":
        return [{"kind": "critical", "M": 100, "dps": 50},
                {"kind": "critical", "M": 100, "dps": 100},
                {"kind": "factor", "M": 5, "s": "0.75"},
                {"kind": "zeta", "z": "2.5"},
                {"kind": "zeta_tail", "start": 10, "z": "1.5"},
                {"kind": "condition", "digits": "all", "seq": "even", "eps": "1/5", "M": 100},
                {"kind": "floor", "digits": "all", "seq": "even", "eps": "1/5"},
                {"kind": "product", "digits": "all", "seq": "even", "M": 2, "s": "1",
                 "level": 1}]
    if workload == "certify":
        plan = certify_ops(WARMUP_SEED)
        small = []
        for p in plan["pipelines"]:
            small.append(dict(p, j_max=1, words=[p["words"][0][:100]], depth=100, pairs=1))
        return {"pipelines": small, "separations": plan["separations"][:1]}
    return cli_argvs(WARMUP_SEED)
