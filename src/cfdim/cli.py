"""Command line front end.

Every leaf subcommand prints one OutputEnvelope: command, echoed
inputs, result record, warnings, version.  Exact rationals are printed
as "p/q" strings and high precision reals as 25 digit decimal strings,
so output is byte-identical across runs.  Exit codes:
0 success, 2 invalid input, 3 non-convergence or insufficient horizon,
4 resource cap.

The subcommands form one table, ``_COMMANDS``.  Each row names its
group and command, lists its flags (built from the flag shapes below)
and holds a handler that returns the library result; ``main`` turns
every result into the envelope's record along the same path.  It
builds leaf parsers only for the group that argv names, and mpmath is
loaded only by the commands that compute a real.  The handlers reach
the library through its layer modules, which the package loads lazily,
so a command compiles and runs only the layers it calls.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from . import __version__, cfcore, construction, dimension, hirst, sequences, special
from .errors import (
    DomainError, ResourceCapError, ToolkitError, is_int, nearest_float, read_fraction, read_int,
    read_ints, read_lines,
)

_REAL_DIGITS = 25

# the library's digit floor m_floor is the CLI's --M
_RENAMED = {"m_floor": "M"}


def _integer(text):
    """An integer flag, read by read_int; a minus sign is left to the library's range checks."""
    digits = text.strip()
    negative = digits[:1] == "-" and digits[1:2].isdigit()
    try:
        n = read_int(digits[1:] if negative else digits, "the value")
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return -n if negative else n


def _word(text):
    return cfcore.PartialQuotients.from_text(text)


def _digits(args):
    return sequences.parse_digit_set(args.digits_spec)


def _context(args):
    # the library's context, with the target tolerance from --tol if given
    if args.tol is None:
        return special.PrecisionContext()
    return special.PrecisionContext(target_abs_tol=nearest_float(read_fraction(args.tol, "--tol")))


def _check_digits(n):
    """Refuse an int whose decimal text would pass the interpreter's digit limit.

    str(), json and csv all raise ValueError past sys.get_int_max_str_digits();
    the limit is decided here, once, so every format refuses the same
    results.  n bits have at most floor(n * log10(2)) + 1 digits, so only
    ints near the limit are converted to decide it.
    """
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() * 30103 // 100000 >= limit:
        try:
            str(n)
        except ValueError:
            raise ResourceCapError(
                "the result holds an integer of more than %d digits, "
                "the most this interpreter prints" % limit
            )


def _ser(v):
    if isinstance(v, Fraction):
        _check_digits(v.numerator)
        _check_digits(v.denominator)
        return str(v)
    if is_int(v):
        _check_digits(v)
        return v
    # no value is an mpf unless the command loaded mpmath to compute it
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None and isinstance(v, mpmath.mpf):
        return mpmath.mp.nstr(v, _REAL_DIGITS)
    if hasattr(v, "_asdict"):  # a library record: its fields, in order
        v = {_RENAMED.get(k, k): x for k, x in v._asdict().items()}
    if isinstance(v, dict):
        return {k: _ser(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_ser(x) for x in v]
    return v


def _flatten(prefix, v, out):
    if isinstance(v, dict):
        for k, x in v.items():
            _flatten("%s.%s" % (prefix, k) if prefix else k, x, out)
    elif isinstance(v, list):
        if v and all(isinstance(x, dict) for x in v):
            for i, x in enumerate(v):
                _flatten("%s[%d]" % (prefix, i), x, out)
        else:
            out.append((prefix, " ".join(str(x) for x in v)))
    else:
        out.append((prefix, v))


def _render(envelope, fmt):
    if fmt == "json":
        return json.dumps(envelope, indent=2, allow_nan=False)
    rows = []
    _flatten("", envelope, rows)
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["field", "value"])
        for key, value in rows:
            writer.writerow([key, "" if value is None else value])
        return buf.getvalue().rstrip("\n")
    width = max(len(k) for k, _ in rows)
    return "\n".join(
        "%-*s  %s" % (width, k, "" if v is None else v) for k, v in rows
    )


def _schedule_from_args(args, seq):
    if getattr(args, "schedule", None):
        try:
            data = json.loads("".join(read_lines(args.schedule, "schedule file")),
                              parse_int=lambda t: read_int(t, "a schedule integer"))
        except json.JSONDecodeError as exc:
            raise DomainError("schedule file %r is not valid JSON: %s" % (args.schedule, exc))
        except RecursionError:
            raise DomainError("schedule file %r nests too deeply to read" % args.schedule)
        return construction.StepSchedule.from_json(data)
    if args.j_max is None or args.horizon is None:
        raise DomainError(
            "give --schedule FILE, or --j-max and --horizon with --eps/--c1 "
            "to construct one"
        )
    return construction.choose_schedule(seq, args.j_max, args.horizon, c1=args.c1, eps=args.eps)


# ---------------------------------------------------------------- handlers
# each returns the library result: a bare value, a NamedTuple record or a
# dict; a "warning" field moves to the envelope's warnings

def _cf_expand(args):
    if args.rational is not None:
        return cfcore.expand_rational(args.rational)
    return cfcore.expand_decimal(args.decimal, args.max_digits)


def _cf_convergents(args):
    word = _word(args.word)
    return {"convergents": [
        {"k": i, "digit": a, **c._asdict()}
        for i, (a, c) in enumerate(zip(word, cfcore.convergents(word)), start=1)
    ]}


def _cf_cylinder(args):
    c = cfcore.cylinder(_word(args.word))
    return {**c._asdict(), "length": c.length}


def _cf_delete(args):
    word = _word(args.word)
    positions = (
        read_ints(args.positions, "a position") if args.positions is not None
        else sequences.parse_index_sequence(args.seq)
    )
    return cfcore.delete_indices(word, positions)


def _dim_critical(args):
    ctx = _context(args)
    return dimension.critical_exponent(args.M, tol=ctx.target_abs_tol, s_max=args.s_max, ctx=ctx)


def _dim_cover(args):
    if args.threads < 1:
        raise DomainError("threads must be an integer >= 1")
    total = dimension.covering_sum_enumerated(args.M, args.s, args.levels, args.digit_cap)
    return {"sum": total, "levels": args.levels, "digit_cap": args.digit_cap}


def _construct_schedule(args):
    seq = sequences.parse_index_sequence(args.seq)
    sched = construction.choose_schedule(seq, args.j_max, args.horizon, c1=args.c1, eps=args.eps)
    if args.onset:
        return {"schedule": sched.to_json(), **construction.schedule_onset(seq, sched)._asdict()}
    return sched.to_json()


def _construct_point(args):
    seq = sequences.parse_index_sequence(args.seq)
    sched = _schedule_from_args(args, seq)
    word = construction.build_point(seq, args.M, sched, args.depth, args.filler)
    return {"digits": word, "value": cfcore.evaluate(word)}


def _eps_of(args, sched):
    """--eps, or else the eps of the schedule (None for no schedule)."""
    eps = args.eps if args.eps is not None or sched is None else sched.eps
    if eps is None:
        raise DomainError("--eps is required when no schedule carries one")
    return eps


def _construct_verify_size(args):
    seq = sequences.parse_index_sequence(args.seq)
    sched = _schedule_from_args(args, seq)
    return construction.verify_size_bound(_eps_of(args, sched), seq, sched, _word(args.word))


def _construct_holder(args):
    seq = sequences.parse_index_sequence(args.seq)
    sched = _schedule_from_args(args, seq) if args.sample is not None or args.schedule else None
    eps = _eps_of(args, sched)
    if args.pairs_file is not None:
        pairs = []
        for line_no, line in enumerate(read_lines(args.pairs_file, "pairs file"), start=1):
            line = line.strip()
            if not line:
                continue
            halves = line.split(";")
            if len(halves) != 2:
                raise DomainError("line %d of %s: expected 'word;word'"
                                  % (line_no, args.pairs_file))
            pairs.append((_word(halves[0]), _word(halves[1])))
    else:
        min_prefix = args.min_prefix
        if min_prefix is None:
            min_prefix = construction.nominal_onset(seq, eps)
        pairs = construction.sample_holder_pairs(
            seq, args.M, sched, args.sample, args.seed, min_prefix)
    reports = construction.holder_check(seq, args.M, eps, pairs)
    return {
        "pairs": reports,
        "checked": sum(1 for r in reports if r.ok is not None),
        "passed": sum(1 for r in reports if r.ok is True),
        "skipped": sum(1 for r in reports if r.ok is None),
    }


def _hirst_m0(args):
    digits = _digits(args)
    seq = sequences.parse_index_sequence(args.seq)
    if args.M is not None:
        return hirst.covering_condition(digits, seq, args.eps, args.M)
    est = hirst.estimate_condition_floor(digits, seq, args.eps)
    warning = "the required floor exceeds 10^18" if est.exceeded else ""
    return {**est._asdict(), "warning": warning}


def _hirst_product(args):
    digits = _digits(args)
    seq = sequences.parse_index_sequence(args.seq)
    return hirst.covering_product_bound(
        digits, seq, args.M, args.s, args.base_level, args.level, _word(args.prefix)
    )


# ---------------------------------------------------------------- table

def _flag(*names, **kw):
    """One argparse flag, as a spec that concatenates with other specs."""
    return ((names, kw),)


def _one_of(*specs):
    """Flags of which exactly one must be given; argparse enforces it."""
    return ((None, sum(specs, ())),)


# flag shapes taken by more than one command
_M = _flag("--M", type=_integer, required=True)
_S = _flag("--s", required=True)
_Z = _flag("--z", required=True)
_WORD = _flag("--word", required=True)
_PREFIX = _flag("--prefix", default="")
_SEQ = _flag("--seq", required=True)
_SPEC = _flag("--spec", required=True)
_HORIZON = _flag("--horizon", type=_integer, required=True)
_DIGIT_SET = _flag("--digits-spec", required=True)
_TOL = _flag("--tol", help="target absolute tolerance")
_SCHEDULE = (
    _flag("--schedule", help="path to a schedule JSON file")
    + _flag("--eps", help="exponent, e.g. 1/10 (derives c1 = eps*log2/2)")
    + _flag("--c1", help="explicit rational weight bound")
    + _flag("--j-max", type=_integer)
    + _flag("--horizon", type=_integer)
)


class _Command(NamedTuple):
    group: str
    cmd: str
    flags: tuple
    run: object  # args -> library result
    # the envelope name of a bare result, or of a record's "value" field
    key: str = "value"


_GROUPS = (
    ("cf", "exact digit-word arithmetic"),
    ("zeta", "zeta values and tails"),
    ("dim", "covering sums and critical exponents"),
    ("seq", "index sequences and digit sets"),
    ("construct", "schedules, points and verification"),
    ("hirst", "dimension values for digit sets"),
)

_COMMANDS = (
    _Command("cf", "expand", _one_of(
        _flag("--rational", help="exact rational in (0,1), e.g. 7/10"),
        _flag("--decimal", help="decimal literal; only certain digits emitted"),
    ) + _flag("--max-digits", type=_integer), _cf_expand, "digits"),
    _Command("cf", "eval", _WORD, lambda a: cfcore.evaluate(_word(a.word))),
    _Command("cf", "convergents", _WORD, _cf_convergents),
    _Command("cf", "cylinder", _WORD, _cf_cylinder),
    _Command("cf", "delete", _WORD + _one_of(
        _flag("--positions", help="comma separated 1-based positions"),
        _flag("--seq", help="index sequence spec, e.g. square"),
    ), _cf_delete, "digits"),
    _Command("zeta", "value", _Z + _TOL, lambda a: special.zeta(a.z, _context(a))),
    _Command("zeta", "tail", _flag("--start", type=_integer, required=True) + _Z + _TOL,
             lambda a: special.zeta_tail(a.start, a.z, _context(a))),
    _Command("dim", "factor", _M + _S, lambda a: dimension.per_level_factor(a.M, a.s), "factor"),
    _Command("dim", "critical", _M + _flag("--tol", default="1e-12")
             + _flag("--s-max", default="2"), _dim_critical),
    _Command("dim", "asymptotic", _M, lambda a: dimension.asymptotic_exponent(a.M)),
    _Command("dim", "reference", _M, lambda a: dimension.reference_bounds(a.M)),
    _Command("dim", "jlen", _WORD + _M,
             lambda a: dimension.j_interval_length(_word(a.word), a.M), "length"),
    _Command("dim", "cover", _M + _S
             + _flag("--levels", type=_integer, required=True)
             + _flag("--digit-cap", type=_integer, required=True)
             + _flag("--threads", type=_integer, default=1,
                     help="accepted for compatibility; has no effect"),
             _dim_cover),
    _Command("seq", "density", _SPEC + _HORIZON,
             lambda a: sequences.density(sequences.parse_index_sequence(a.spec), a.horizon)),
    _Command("seq", "tau", _DIGIT_SET, lambda a: sequences.tau(_digits(a)), "tau"),
    _Command("seq", "count", _SPEC + _flag("--n", type=_integer, required=True),
             lambda a: sequences.parse_index_sequence(a.spec).count(a.n), "count"),
    _Command("construct", "schedule", _SEQ + _flag("--eps") + _flag("--c1")
             + _flag("--j-max", type=_integer, required=True) + _HORIZON
             + _flag("--onset", action="store_true",
                     help="also certify the weight inequality onset"),
             _construct_schedule),
    _Command("construct", "point", _SEQ + _SCHEDULE + _M
             + _flag("--depth", type=_integer, required=True)
             + _flag("--filler", type=_integer, default=1), _construct_point),
    _Command("construct", "verify-size", _SEQ + _SCHEDULE + _WORD, _construct_verify_size),
    _Command("construct", "verify-sep", _PREFIX + _M
             + _flag("--x-tail", required=True) + _flag("--y-tail", required=True),
             lambda a: construction.verify_separation(
                 _word(a.prefix), a.M, _word(a.x_tail), _word(a.y_tail))),
    _Command("construct", "holder", _SEQ + _SCHEDULE + _M + _one_of(
        _flag("--pairs-file", help="lines of 'word;word' with comma separated digits"),
        _flag("--sample", type=_integer, help="generate this many random pairs"),
    ) + _flag("--seed", type=_integer, default=0) + _flag("--min-prefix", type=_integer),
        _construct_holder),
    _Command("hirst", "dim", _DIGIT_SET, lambda a: hirst.hirst_dimension(_digits(a)), "dim"),
    _Command("hirst", "m0", _DIGIT_SET + _SEQ + _flag("--eps", required=True) + _one_of(
        _flag("--M", type=_integer), _flag("--estimate", action="store_true"),
    ), _hirst_m0),
    _Command("hirst", "product", _DIGIT_SET + _SEQ + _M + _S
             + _flag("--base-level", type=_integer, required=True)
             + _flag("--level", type=_integer, required=True) + _PREFIX,
             _hirst_product, "bound"),
    _Command("hirst", "theorem", _SEQ,
             lambda a: hirst.dimension_dichotomy(sequences.parse_index_sequence(a.seq))),
)


# ---------------------------------------------------------------- parser

def _add_flags(p, flags):
    for names, kw in flags:
        if names is None:
            _add_flags(p.add_mutually_exclusive_group(required=True), kw)
        else:
            p.add_argument(*names, **kw)


def build_parser(group=None):
    """The cfdim parser; when ``group`` names a group, only its commands get a parser."""
    root = argparse.ArgumentParser(
        prog="cfdim",
        description="continued fraction cylinders, critical exponents, covering bounds",
    )
    root.add_argument("--version", action="version", version="cfdim " + __version__)
    groups = root.add_subparsers(dest="group", required=True)
    leaves = {
        name: groups.add_parser(name, help=text).add_subparsers(dest="cmd", required=True)
        for name, text in _GROUPS
    }
    for command in _COMMANDS:
        if group in leaves and command.group != group:
            continue
        p = leaves[command.group].add_parser(command.cmd)
        _add_flags(p, command.flags)
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.set_defaults(command=command)
    return root


# --threads has no effect, so it is not echoed as an input
_SKIP_ECHO = ("command", "group", "cmd", "format", "threads")


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # argv[0] names the group unless it is a root flag; the leaves of other
    # groups are never reached, so they are not built
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    inputs = {
        k.replace("_", "-"): v
        for k, v in vars(args).items()
        if k not in _SKIP_ECHO and v is not None
    }
    try:
        result = _ser(args.command.run(args))
    except ToolkitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    if not isinstance(result, dict):
        result = {"value": result}
    result = {args.command.key if k == "value" else k: v for k, v in result.items()}
    warning = result.pop("warning", "")
    envelope = {
        "command": "%s %s" % (args.group, args.cmd),
        "inputs": inputs,
        "result": result,
        "warnings": [warning] if warning else [],
        "version": __version__,
    }
    try:
        print(_render(envelope, args.format), flush=True)
    except BrokenPipeError:
        # the reader is gone: stdout goes to devnull so the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # a critical solve that did not converge still reports its bracket
    return 3 if result.get("converged") is False else 0
