"""The committed digests of library values, and the helper that rewrites them.

    python tests/golden_lib.py                   # rewrite tests/golden_lib.json from this tree
    python tests/golden_lib.py --rows GROUP      # print the rows of one group
    python tests/golden_lib.py --rows GROUP --against DIR  # the rows that differ from DIR's

Each group is a deterministic list of library calls.  A row records one
call and what it gave, exactly: a real as its raw ``_mpf_`` tuple, an int
or a bool as itself, a result record field by field, and a refusal as
the exception's type name and message.  golden_lib.json holds, for each
group, the number of rows and one SHA-256 over them.  test_golden_lib
recomputes every group and compares both, so a change that moves one
bit of any value, or one word of any refusal, names the groups it moved.
``--against DIR`` finds the rows: it runs this file's generators on
``DIR/src`` in a new interpreter and prints the index of each row that
differs, then the row there (``-``) and here (``+``).

The groups:

- ``special.series``: ``zeta`` and ``zeta_tail`` at three contexts,
  with the starts either side of the first cutoff 64 and of the cutoff
  cap 2^16, and the pole-guard, cutoff-cap and input refusals;
- ``dimension.factor``: ``per_level_factor`` at floors either side of
  the same edges, from the divergence and pole refusals up;
- ``dimension.critical``: ``critical_exponent`` at two contexts, with
  the results that find no root below s_max and the ``tol`` and
  ``s_max`` refusals;
- ``dimension.cover``: ``covering_sum_enumerated`` at floors 1 to 6 and
  levels 1 to 3, with the cap at the floor and past it, at integer,
  half-integer, other rational and decimal-text exponents, huge ones
  among them; a grid whose words reach M q_n + q_{n-1} >= 2^16; large
  exponents that are neither integers nor half-integers, on that grid
  too; one small grid at the two other contexts; and every refusal;
- ``hirst.sums``: ``digit_power_sum`` and ``digit_tail_power_sum`` on
  ``all``, ``geq:M``, ``square``, ``pow:b`` and a file set, at floors
  either side of the first cutoff 64 and exponents from the divergent
  ones up, at two contexts; ``estimate_condition_floor`` and
  ``covering_condition`` at the floor it returns and one either side of
  it (or either side of 10^18 when it reports none); ``covering_product_bound``
  at levels 1 to 3; and one row or more for every refusal of hirst;
- ``construction.reals``: ``StepSchedule.c1_value``, ``to_json`` and
  ``from_json`` in both modes, with stored c1 texts either side of the
  1e-9 margin; ``verify_size_bound``, whose ``rhs`` is a real;
  ``choose_schedule`` and ``schedule_onset`` at an explicit c1 near a tie
  that 60 digits separate, that only 200 digits separate and that 200
  digits do not separate; quotients past 2^46 in both modes; and the
  c1 out of the float range;
- ``closed.forms``: ``euler_gamma``, ``tail_integral_approx``,
  ``laurent_zeta_approx``, ``asymptotic_exponent`` and
  ``reference_bounds`` at three contexts, and each of their refusals.

The digests pin the installed mpmath, as golden_cli.jsonl does.
Rewriting the file changes a check: a change that moves a group names
the group and the reason.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "golden_lib.json")


def _raw(value):
    # the exact record of a value: the raw tuple of a real whose type is
    # mpmath.mpf itself (a value of any other mpmath context fails here),
    # ints, Fractions, text, None, and tuples, lists, dicts and records of those
    import mpmath

    from cfdim.errors import FrozenRecord

    if type(value) is mpmath.mpf:
        return value._mpf_
    if isinstance(value, (tuple, list)):
        return tuple(_raw(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _raw(v)) for k, v in value.items())
    if isinstance(value, FrozenRecord):
        return type(value).__name__, _raw(value._values())
    assert value is None or isinstance(value, (int, str, Fraction)), type(value)
    return value


def _row(func, *args):
    """repr of (the call, what it gave or the refusal's (type, message))."""
    from cfdim import ToolkitError

    call = "%s(%s)" % (func.__name__, ", ".join(map(repr, args)))
    try:
        got = _raw(func(*args))
    except ToolkitError as exc:  # a refusal; any other exception is a fault
        got = (type(exc).__name__, str(exc))
    return repr((call, got))


def _contexts():
    from cfdim import PrecisionContext

    return [PrecisionContext(), PrecisionContext(1e-20, 60), PrecisionContext(1e-30, 80)]


def _series():
    from cfdim import PrecisionContext, zeta, zeta_tail

    exponents = ["1.0000000011", "1.1", "1.5", "2", "2.5", "7"]
    starts = [1, 2, 10, 63, 64, 65, 1000, 65536, 65537, 10 ** 12]
    for ctx in _contexts():
        for z in exponents:
            yield _row(zeta, z, ctx)
            for start in starts:
                yield _row(zeta_tail, start, z, ctx)
        # the pole guard, and input the series refuses before it starts
        for z in ["1.000000001", "1.0000000009", "1", "0.5", "-2", "abc", "1e7", True]:
            yield _row(zeta, z, ctx)
        for start in [0, -1, 2.5, "10"]:
            yield _row(zeta_tail, start, "2", ctx)
    # tolerances past the cutoff cap near the pole; far from it the cap is not reached
    for tol, digits in [(1e-60, 100), (1e-90, 200)]:
        ctx = PrecisionContext(tol, digits)
        for z in ["1.0000000011", "1.1", "1.5"]:
            yield _row(zeta, z, ctx)
            yield _row(zeta_tail, 1000, z, ctx)


def _factor():
    from cfdim import per_level_factor

    floors = [2, 3, 10, 63, 64, 65, 1000, 65536, 65537, 10 ** 6, 10 ** 12, 10 ** 40]
    exponents = ["0.5", "0.5000000005", "0.50000000051", "0.6", "0.75", "1", "1.5", "4"]
    for ctx in _contexts()[:2]:
        for s in exponents:
            for m in floors:
                yield _row(per_level_factor, m, s, ctx)
        for m in [1, 0, 2.0]:
            yield _row(per_level_factor, m, "0.75", ctx)
        for s in ["0.4", "-1", "x", "1e7"]:
            yield _row(per_level_factor, 10, s, ctx)


def _critical():
    from cfdim import critical_exponent

    floors = [2, 3, 9, 10, 100, 1000, 10 ** 6, 10 ** 12, 10 ** 40]
    for ctx in _contexts()[:2]:
        tol = ctx.target_abs_tol
        for s_max in [2, "0.9", 8]:
            for m in floors:
                yield _row(critical_exponent, m, tol, s_max, ctx)
        for m in [2, 1000]:
            yield _row(critical_exponent, m, 1e-6, 2, ctx)
        # tol below the context's accuracy, and tol and s_max out of range
        for bad_tol in [tol / 10, 0, -1e-12, float("nan"), float("inf"), "1e-12", True]:
            yield _row(critical_exponent, 10, bad_tol, 2, ctx)
        for s_max in ["0.5", "0.500000001", 9, "x"]:
            yield _row(critical_exponent, 10, tol, s_max, ctx)
    yield _row(critical_exponent, 1, 1e-12)


def _cover():
    from fractions import Fraction

    from cfdim import PrecisionContext, covering_sum_enumerated

    exponents = [1, 2, Fraction(7, 10), Fraction(23, 26), Fraction(1, 2), Fraction(3, 2),
                 "2.5", "0.65"]
    for m in range(1, 7):
        for levels in (1, 2, 3):
            for cap in (m, m + 1 if levels == 3 else m + 2):
                for s in exponents:
                    yield _row(covering_sum_enumerated, m, s, levels, cap)
    # huge exponents, integer and not, where the terms span a million binary orders
    for s in [10 ** 5, "1e5", Fraction(200001, 2)]:
        for m, levels, cap in [(1, 1, 3), (2, 2, 4), (3, 3, 3)]:
            yield _row(covering_sum_enumerated, m, s, levels, cap)
    # 231 of these words have M q + q' >= 2^16 and take one direct power
    # each, as do some of the level-3 words at floor 6 above
    for s in [1, Fraction(17, 20)]:
        yield _row(covering_sum_enumerated, 4, s, 3, 8)
    # large exponents that are neither integers nor half-integers, where a
    # prime below 2^12 takes its kept logarithm; the grid at floor 4 also
    # takes direct powers of q r
    for m, s, levels, cap in [(2, Fraction(1000001, 7), 1, 5), (2, Fraction(100003, 3), 1, 5),
                              (3, Fraction(2999999, 6), 2, 6), (4, Fraction(1000001, 7), 3, 8)]:
        yield _row(covering_sum_enumerated, m, s, levels, cap)
    for ctx in _contexts()[1:]:
        for s in [2, Fraction(7, 10), "2.5"]:
            yield _row(covering_sum_enumerated, 3, s, 2, 5, ctx)
    # the level and digit caps, a cap below the floor, and exponents and
    # arguments the sum refuses
    for args in [(2, 1, 4, 5), (2, 1, 2, 51), (3, 1, 2, 2), (2, 1, 0, 3), (0, 1, 1, 3),
                 (2, 0, 1, 3), (2, -1, 1, 3), (2, "-0.5", 1, 3), (2, "x", 1, 3), (2, "1e7", 1, 3),
                 (True, 1, 1, 3), (2, True, 1, 3), (2, 1, True, 3), (1, 1, 1, True)]:
        yield _row(covering_sum_enumerated, *args)


def _file_set(path, values):
    from cfdim import parse_digit_set

    with open(path, "w", encoding="utf-8") as f:
        f.write("".join("%d\n" % v for v in values))
    return parse_digit_set("file:%s" % path)


def _hirst():
    import tempfile
    from fractions import Fraction

    from cfdim import (IndexSequence, PrecisionContext, covering_condition,
                       covering_product_bound, digit_power_sum, digit_tail_power_sum,
                       estimate_condition_floor, parse_digit_set, parse_index_sequence)

    with tempfile.TemporaryDirectory() as tmp:  # a file set is read once, when parsed
        fibonacci = _file_set(os.path.join(tmp, "fib.txt"), [1, 2, 3, 5, 8, 13, 21, 34, 55, 89])
        seven = _file_set(os.path.join(tmp, "seven.txt"), [7])
    every, geq2, square = (parse_digit_set(t) for t in ("all", "geq:2", "square"))
    sets = [every, parse_digit_set("geq:5"), parse_digit_set("geq:1000"), square,
            parse_digit_set("pow:2"), parse_digit_set("pow:3"), fibonacci]
    # "0.50000000055" puts square's series next to the pole, "1.0000000011" that of all
    exponents = ["-1", "0.5", "0.50000000055", "0.6", "1", "1.0000000011", "1.5", "2.5", "7"]
    for ctx in _contexts()[:2]:
        for digits in sets:
            for z in exponents:
                yield _row(digit_power_sum, digits, z, ctx)
                for floor_m in [2, 63, 64, 65, 1000, 10 ** 12]:
                    yield _row(digit_tail_power_sum, digits, floor_m, z, ctx)
    for digits, floor_m, z in [(every, 0, "2"), (every, True, "2"), (every, 5, "x"),
                               (parse_index_sequence("even"), 5, "2")]:
        yield _row(digit_tail_power_sum, digits, floor_m, z)
    # the series' own refusals, met through the sums: the pole guard and the cutoff cap
    yield _row(digit_power_sum, every, "1.0000000005")
    yield _row(digit_power_sum, every, "1.0000000011", PrecisionContext(1e-60, 100))
    # the estimated floor and the condition either side of it: the estimate
    # holds (all), fails once and doubles (geq:2), meets a finite set's
    # empty tail (fib, seven), or passes 10^18 at once or after doubling
    even, thirds, ones = (parse_index_sequence(t) for t in ("even", "arith:1,3", "all"))
    for digits, seq, eps in [(every, even, Fraction(1, 5)), (every, even, "3/10"),
                             (geq2, even, "2/5"), (sets[1], thirds, "1/10"),
                             (fibonacci, even, "1/5"), (seven, even, "1/5"),
                             (square, even, "1/5"), (square, ones, "37/314"),
                             (every, even, "9/20")]:
        yield _row(estimate_condition_floor, digits, seq, eps)
        floor_m = estimate_condition_floor(digits, seq, eps).value or 10 ** 18
        for m in (floor_m - 1, floor_m, floor_m + 1):
            yield _row(covering_condition, digits, seq, eps, m)
    # eps, the density and the digit set the condition refuses
    for digits, seq, eps, m in [(every, even, 0, 10), (every, even, "x", 10),
                                (every, even, 0.2, 10), (every, even, "1/2", 10),
                                (every, parse_index_sequence("square"), "1/10", 10),
                                (every, IndexSequence("explicit", (), (2, 5)), "1/10", 10),
                                (parse_digit_set("pow:2"), even, "1/5", 10),
                                (even, even, "1/5", 10), (every, even, "1/5", 0),
                                (every, even, "1/5", True)]:
        yield _row(covering_condition, digits, seq, eps, m)
    yield _row(estimate_condition_floor, parse_digit_set("pow:2"), even, "1/5")
    # the product bound from level 0 and from level 1, and its refusals
    for ctx in _contexts()[:2]:
        for digits, m, s in [(every, 2, "0.75"), (square, 3, "0.6"), (sets[4], 2, "0.3"),
                             (fibonacci, 2, "0.75")]:
            for level in (1, 2, 3):
                yield _row(covering_product_bound, digits, even, m, s, 0, level, (), ctx)
        for level in (2, 3):
            yield _row(covering_product_bound, every, even, 2, "0.75", 1, level, (1, 2), ctx)
            yield _row(covering_product_bound, every, thirds, 3, "0.6", 1, level, (4,), ctx)
    for args in [(every, even, 2, "0.75", 1, 1, (1, 2)), (every, even, 2, "0.75", 1, 2, (1,)),
                 (square, even, 2, "0.75", 1, 2, (1, 2)), (every, even, 2, "0.5", 0, 1, ()),
                 (square, even, 2, "0.25", 0, 1, ()), (every, even, 0, "0.75", 0, 1, ()),
                 (every, even, 2, "0.75", -1, 1, ()), (every, even, 2, "0.75", 0, True, ()),
                 (every, even, 2, "x", 0, 1, ()), (even, even, 2, "0.75", 0, 1, ())]:
        yield _row(covering_product_bound, *args)


def c1_value(schedule):
    return schedule.c1_value


def to_json(schedule):
    return schedule.to_json()


def weight_end(eps, c1, p, first, last, e):
    from cfdim.construction import _weight_test

    return _weight_test(eps, c1)(p, first, last, e)


def _near_ties():
    # rationals within 10^-20, 10^-50 and 10^-300 of log(2)/7, below it
    # and above it.  At step 1 on square the weight test at m = 49 weighs
    # 7 log 2 against 49 c1, a near tie that 60 digits separate, that only
    # 200 digits separate, and that 200 digits do not
    import mpmath

    with mpmath.workdps(320):
        rate = mpmath.log(2) / 7
        return [Fraction(int(mpmath.nint(rate * 10 ** d)) + side, 10 ** d)
                for d in (20, 50, 300) for side in (-1, 1)]


def _construction():
    from cfdim import (PartialQuotients, StepSchedule, build_point, choose_schedule,
                       parse_index_sequence, schedule_onset, verify_size_bound)

    square, pow2 = parse_index_sequence("square"), parse_index_sequence("pow:2")
    derived = choose_schedule(square, 30, 10 ** 4, eps="1/10")
    schedules = [derived, choose_schedule(square, 2, 10 ** 4, eps=Fraction(1, 3)),
                 choose_schedule(square, 3, 10 ** 5, c1="1/20"),
                 choose_schedule(pow2, 3, 5000, c1="1/4")]
    for schedule in schedules:
        yield _row(c1_value, schedule)
        yield _row(to_json, schedule)
        yield _row(StepSchedule.from_json, schedule.to_json())
    # eps = 1/10 gives c1 = 0.034657359027997...: a stored c1 within a
    # relative 1e-9 of it loads, and one past that margin, either side, is refused
    for text in ["0.034657359028", "0.03465735906", "0.034657359", "0.03465735907",
                 "0.03465735899", "1/2"]:
        yield _row(StepSchedule.from_json, dict(derived.to_json(), c1=text))
    # the size check's rhs, at the schedule's eps and another, and its refusals
    words = [PartialQuotients((1,) * 34), PartialQuotients((1,) * 111),
             build_point(square, 2, derived, 531)]
    for eps in ["1/10", Fraction(1, 3)]:
        for word in words:
            yield _row(verify_size_bound, eps, square, derived, word)
    for eps, word in [("1/10", (2,) * 5), ("1/10", (1,)), ("0", (1,) * 5), ("1/10", ())]:
        yield _row(verify_size_bound, eps, square, derived, word)
    # near ties at explicit c1, in the search for a threshold and in the
    # onset of a one-step schedule, whose runs 5 to 7 each hold one
    for c1 in _near_ties():
        yield _row(choose_schedule, square, 1, 10 ** 4, c1)
        yield _row(schedule_onset, square, StepSchedule(None, c1, (0,), (100,), 10 ** 4))
    # quotients x = e log p / c1 past 2^46, where a float may miss the
    # integer part: a schedule and its onset, and runs that end at floor(x)
    # with round(x) past them, so the weight test returns floor(x) itself,
    # in both modes (the float reads 6238324625039506 for the first).  At
    # eps, every run holding x has a near tie there, whose exact power is
    # past the cap
    c1 = Fraction(1, 10 ** 15)
    yield _row(choose_schedule, pow2, 2, 10 ** 20, c1)
    yield _row(schedule_onset, pow2, choose_schedule(pow2, 2, 10 ** 20, c1))
    for eps, c1, p, e, x in [(None, c1, 8, 3, 6238324625039507),
                             (None, c1, 3, 1, 1098612288668109),
                             (Fraction(1, 10 ** 14), None, 3, 3, 950977500432693),
                             (Fraction(1, 10 ** 14), None, 7, 1, 561470984411520)]:
        yield _row(weight_end, eps, c1, p, x - 5, x, e)
    yield _row(choose_schedule, pow2, 2, 10 ** 20, None, Fraction(1, 10 ** 14))
    yield _row(choose_schedule, square, 1, 10 ** 4, Fraction(1, 10 ** 400))


def _closed():
    from cfdim import (asymptotic_exponent, euler_gamma, laurent_zeta_approx, reference_bounds,
                       tail_integral_approx)

    for ctx in _contexts():
        yield _row(euler_gamma, ctx)
        for start in [1, 2, 64, 10 ** 12]:
            for s in ["0.5000000001", "0.6", "0.75", "1", "2.5", Fraction(7, 4)]:
                yield _row(tail_integral_approx, start, s, ctx)
        for delta in ["1e-9", "1e-4", "0.1", "0.5", Fraction(1, 3)]:
            yield _row(laurent_zeta_approx, delta, ctx)
        for m in [3, 4, 10, 1000, 10 ** 12, 10 ** 40]:
            yield _row(asymptotic_exponent, m, ctx)
        for m in [2, 3, 7, 8, 19, 20, 999, 1000, 10 ** 12]:
            yield _row(reference_bounds, m, ctx)
    for start, s in [(0, "1"), (-1, "1"), (2.5, "1"), (True, "1"), (5, "0.5"), (5, "0.4"),
                     (5, "-1"), (5, "x"), (5, "1e7"), (5, True)]:
        yield _row(tail_integral_approx, start, s)
    for delta in [0, "0", "-0.1", "0.5000000001", "0.6", "x", True, float("inf")]:
        yield _row(laurent_zeta_approx, delta)
    for m in [2, 1, 0, 3.0, True, "10"]:
        yield _row(asymptotic_exponent, m)
    for m in [1, 0, 2.0, True]:
        yield _row(reference_bounds, m)


GROUPS = {
    "special.series": _series,
    "dimension.factor": _factor,
    "dimension.critical": _critical,
    "dimension.cover": _cover,
    "hirst.sums": _hirst,
    "construction.reals": _construction,
    "closed.forms": _closed,
}


def rows(group):
    return list(GROUPS[group]())


def digest(group_rows):
    """(row count, SHA-256 of the rows, one per line)."""
    h = hashlib.sha256()
    for row in group_rows:
        h.update(row.encode() + b"\n")
    return len(group_rows), h.hexdigest()


def read_table():
    with open(TABLE, encoding="utf-8") as f:
        return json.load(f)


# a child's program: argv holds the tree's src, this directory and the group
_CHILD = "import sys; sys.path[:0] = sys.argv[1:3]; import golden_lib; " \
         "print('\\n'.join(golden_lib.rows(sys.argv[3])))"


def print_moved(group, tree):
    """Print the index, the row in tree and the row here of each row of group that differs."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run([sys.executable, "-B", "-c", _CHILD, os.path.join(tree, "src"), HERE,
                            group], env=env, capture_output=True, text=True)
    if child.returncode:
        sys.stderr.write(child.stderr)
        return child.returncode
    pairs = itertools.zip_longest(child.stdout.splitlines(), rows(group))
    for i, (there, here) in enumerate(pairs):
        if there != here:
            print("%d\n- %s\n+ %s" % (i, there, here))
    return 0


def main(argv):
    if argv[:1] == ["--rows"] and len(argv) == 2 and argv[1] in GROUPS:
        print("\n".join(rows(argv[1])))
        return 0
    if argv[:1] == ["--rows"] and len(argv) == 4 and argv[1] in GROUPS \
            and argv[2] == "--against" and os.path.isdir(os.path.join(argv[3], "src", "cfdim")):
        return print_moved(argv[1], argv[3])
    if argv:
        print("usage: golden_lib.py [--rows {%s} [--against DIR]]" % ",".join(GROUPS),
              file=sys.stderr)
        return 2
    table = {}
    for group in GROUPS:
        count, sha = digest(rows(group))
        table[group] = {"cases": count, "sha256": sha}
    with open(TABLE, "w", encoding="utf-8") as f:
        f.write(json.dumps(table, indent=2) + "\n")
    print("%d groups written to %s" % (len(table), TABLE))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(main(sys.argv[1:]))
