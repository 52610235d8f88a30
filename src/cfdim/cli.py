"""Command line front end.

Every leaf subcommand prints one OutputEnvelope: command, echoed
inputs, result record, warnings, version.  Exact rationals are printed
as "p/q" strings and high precision reals as 25 digit decimal strings,
so output is byte-identical across runs.  Exit codes:
0 success, 2 invalid input, 3 non-convergence or insufficient horizon,
4 resource cap.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from mpmath import mp, mpf

from . import __version__
from .cfcore import (
    PartialQuotients,
    convergents,
    cylinder,
    delete_indices,
    evaluate,
    expand_decimal,
    expand_rational,
)
from .construction import (
    StepSchedule,
    build_point,
    choose_schedule,
    holder_check,
    nominal_onset,
    sample_holder_pairs,
    schedule_onset,
    verify_separation,
    verify_size_bound,
)
from .dimension import (
    asymptotic_exponent,
    covering_sum_enumerated,
    critical_exponent,
    j_interval_length,
    per_level_factor,
    reference_bounds,
)
from .errors import DomainError, ToolkitError
from .hirst import (
    covering_condition,
    covering_product_bound,
    dimension_dichotomy,
    estimate_condition_floor,
    hirst_dimension,
)
from .sequences import density, parse_digit_set, parse_index_sequence, tau
from .special import PrecisionContext

_REAL_DIGITS = 25


def _word(text):
    return PartialQuotients.from_text(text)


def _ints(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise DomainError("expected comma separated integers, got %r" % text)


def _context(args):
    kw = {}
    if getattr(args, "dps", None) is not None:
        kw["working_digits"] = args.dps
    if getattr(args, "tol", None) is not None:
        try:
            kw["target_abs_tol"] = float(args.tol)
        except ValueError:
            raise DomainError("--tol must be a number, got %r" % args.tol)
    return PrecisionContext(**kw) if kw else PrecisionContext()


def _read_text(path, what):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError("cannot read %s %r: %s" % (what, path, exc.strerror))
    except UnicodeDecodeError as exc:
        raise DomainError("%s %r is not text: %s" % (what, path, exc))


def _ser(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, mpf):
        return mp.nstr(v, _REAL_DIGITS)
    if isinstance(v, PartialQuotients):
        return list(v.digits)
    if isinstance(v, float):
        return repr(v)
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
            data = json.loads(_read_text(args.schedule, "schedule file"))
        except json.JSONDecodeError as exc:
            raise DomainError("schedule file %r is not valid JSON: %s" % (args.schedule, exc))
        return StepSchedule.from_json(data)
    if args.j_max is None or args.horizon is None:
        raise DomainError(
            "give --schedule FILE, or --j-max and --horizon with --eps/--c1 "
            "to construct one"
        )
    return choose_schedule(seq, args.j_max, args.horizon, c1=args.c1, eps=args.eps)


def _pair_rows(reports):
    rows = []
    for r in reports:
        rows.append({
            "x": list(r.x.digits),
            "y": list(r.y.digits),
            "prefix_len": r.prefix_len,
            "gap": None if r.gap is None else str(r.gap),
            "image_gap": None if r.image_gap is None else str(r.image_gap),
            "ok": r.ok,
            "reason": r.reason,
        })
    return rows


# ---------------------------------------------------------------- handlers
# each returns (result, warnings, exit_code)

def _cmd_cf_expand(args):
    if args.rational is not None:
        digits = expand_rational(args.rational)
    else:
        digits = expand_decimal(args.decimal, args.max_digits)
    return {"digits": _ser(digits)}, [], 0


def _cmd_cf_eval(args):
    return {"value": _ser(evaluate(_word(args.word)))}, [], 0


def _cmd_cf_convergents(args):
    word = _word(args.word)
    rows = [
        {"k": i, "digit": a, "p": c.p, "q": c.q}
        for i, (a, c) in enumerate(zip(word, convergents(word)), start=1)
    ]
    return {"convergents": rows}, [], 0


def _cmd_cf_cylinder(args):
    c = cylinder(_word(args.word))
    return {
        "word": _ser(c.word),
        "left": _ser(c.left),
        "right": _ser(c.right),
        "left_closed": c.left_closed,
        "right_closed": c.right_closed,
        "length": _ser(c.length),
    }, [], 0


def _cmd_cf_delete(args):
    word = _word(args.word)
    if (args.positions is None) == (args.seq is None):
        raise DomainError("give exactly one of --positions and --seq")
    positions = (
        _ints(args.positions) if args.positions is not None
        else parse_index_sequence(args.seq)
    )
    return {"digits": _ser(delete_indices(word, positions))}, [], 0


def _cmd_zeta_value(args):
    from .special import zeta

    return {"value": _ser(zeta(args.z, _context(args)))}, [], 0


def _cmd_zeta_tail(args):
    from .special import zeta_tail

    return {"value": _ser(zeta_tail(args.start, args.z, _context(args)))}, [], 0


def _cmd_dim_factor(args):
    return {"factor": _ser(per_level_factor(args.M, args.s, _context(args)))}, [], 0


def _cmd_dim_critical(args):
    ctx = _context(args)
    res = critical_exponent(args.M, tol=ctx.target_abs_tol, s_max=args.s_max, ctx=ctx)
    result = {
        "M": res.m_floor,
        "s_star": _ser(res.s_star),
        "residual": _ser(res.residual),
        "bracket": [_ser(res.bracket[0]), _ser(res.bracket[1])],
        "iterations": res.iterations,
        "converged": res.converged,
        "message": res.message,
    }
    return result, [], 0 if res.converged else 3


def _cmd_dim_asymptotic(args):
    return {"value": _ser(asymptotic_exponent(args.M, _context(args)))}, [], 0


def _cmd_dim_reference(args):
    b = reference_bounds(args.M, _context(args))
    return {
        "M": b.m_floor,
        "jarnik_lo": _ser(b.jarnik_lo),
        "jarnik_hi": _ser(b.jarnik_hi),
        "kurzweil_lo": _ser(b.kurzweil_lo),
        "kurzweil_hi": _ser(b.kurzweil_hi),
        "hensley": _ser(b.hensley),
        "good_f_lo": _ser(b.good_f_lo),
        "good_f_hi": _ser(b.good_f_hi),
        "jk_asymptotic": _ser(b.jk_asymptotic),
        "applicable": b.applicable,
    }, [], 0


def _cmd_dim_jlen(args):
    return {"length": _ser(j_interval_length(_word(args.word), args.M))}, [], 0


def _cmd_dim_cover(args):
    if args.threads < 1:
        raise DomainError("threads must be an integer >= 1")
    total = covering_sum_enumerated(
        args.M, args.s, args.levels, args.digit_cap, ctx=_context(args)
    )
    return {
        "sum": _ser(total),
        "levels": args.levels,
        "digit_cap": args.digit_cap,
    }, [], 0


def _cmd_seq_density(args):
    seq = parse_index_sequence(args.spec)
    rep = density(seq, args.horizon)
    return {
        "horizon": rep.horizon,
        "lower_est": _ser(rep.lower_est),
        "upper_est": _ser(rep.upper_est),
        "exact": _ser(rep.exact),
        "zero_certified": rep.zero_certified,
    }, [], 0


def _cmd_seq_tau(args):
    digits = parse_digit_set(args.digits_spec, args.assume_infinite)
    t = tau(digits, _context(args))
    warnings = [t.warning] if t.warning else []
    return {"tau": _ser(t.value), "method": t.method}, warnings, 0


def _cmd_seq_count(args):
    seq = parse_index_sequence(args.spec)
    return {"count": seq.count(args.n)}, [], 0


def _cmd_construct_schedule(args):
    seq = parse_index_sequence(args.seq)
    sched = choose_schedule(seq, args.j_max, args.horizon, c1=args.c1, eps=args.eps)
    if args.onset:
        ons = schedule_onset(seq, sched)
        return {
            "schedule": sched.to_json(),
            "onset": ons.onset,
            "checked_to": ons.checked_to,
        }, [], 0
    return sched.to_json(), [], 0


def _cmd_construct_point(args):
    seq = parse_index_sequence(args.seq)
    sched = _schedule_from_args(args, seq)
    word = build_point(seq, args.M, sched, args.depth, args.filler)
    return {"digits": _ser(word), "value": _ser(evaluate(word))}, [], 0


def _cmd_construct_verify_size(args):
    seq = parse_index_sequence(args.seq)
    sched = _schedule_from_args(args, seq)
    eps = args.eps if args.eps is not None else sched.eps
    if eps is None:
        raise DomainError("--eps is required when the schedule does not carry one")
    rep = verify_size_bound(eps, seq, sched, _word(args.word))
    return {
        "eps": _ser(rep.eps),
        "word": _ser(rep.word),
        "onset": rep.onset,
        "onset_certified": rep.onset_certified,
        "lhs": _ser(rep.lhs),
        "rhs": _ser(rep.rhs),
        "ok": rep.ok,
    }, [], 0


def _cmd_construct_verify_sep(args):
    rep = verify_separation(
        _word(args.prefix), args.M, _word(args.x_tail), _word(args.y_tail)
    )
    return {
        "gap": _ser(rep.gap),
        "bound": _ser(rep.bound),
        "ok": rep.ok,
    }, [], 0


def _cmd_construct_holder(args):
    seq = parse_index_sequence(args.seq)
    if (args.pairs_file is None) == (args.sample is None):
        raise DomainError("give exactly one of --pairs-file and --sample")
    sched = None
    if args.sample is not None or args.schedule:
        sched = _schedule_from_args(args, seq)
    eps = args.eps
    if eps is None and sched is not None:
        eps = sched.eps
    if eps is None:
        raise DomainError("--eps is required when no schedule carries one")
    if args.pairs_file is not None:
        pairs = []
        lines = _read_text(args.pairs_file, "pairs file").splitlines()
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            halves = line.split(";")
            if len(halves) != 2:
                raise DomainError(
                    "line %d of %s: expected 'word;word'" % (line_no, args.pairs_file)
                )
            pairs.append((_word(halves[0]), _word(halves[1])))
    else:
        min_prefix = args.min_prefix
        if min_prefix is None:
            min_prefix = nominal_onset(seq, eps)
        pairs = sample_holder_pairs(
            seq, args.M, sched, args.sample, args.seed, min_prefix
        )
    reports = holder_check(seq, args.M, eps, pairs)
    checked = sum(1 for r in reports if r.ok is not None)
    passed = sum(1 for r in reports if r.ok is True)
    skipped = sum(1 for r in reports if r.ok is None)
    return {
        "pairs": _pair_rows(reports),
        "checked": checked,
        "passed": passed,
        "skipped": skipped,
    }, [], 0


def _cmd_hirst_dim(args):
    digits = parse_digit_set(args.digits_spec, args.assume_infinite)
    h = hirst_dimension(digits, _context(args))
    warnings = [h.warning] if h.warning else []
    return {"dim": _ser(h.value), "method": h.method}, warnings, 0


def _cmd_hirst_m0(args):
    digits = parse_digit_set(args.digits_spec, args.assume_infinite)
    seq = parse_index_sequence(args.seq)
    if (args.M is None) == (not args.estimate):
        raise DomainError("give exactly one of --M and --estimate")
    if args.M is not None:
        res = covering_condition(digits, seq, args.eps, args.M, _context(args))
        return {"lhs": _ser(res.lhs), "ok": res.ok}, [], 0
    est = estimate_condition_floor(digits, seq, args.eps, _context(args))
    warnings = []
    if est.exceeded:
        warnings.append("the required floor exceeds 10^18")
    return {
        "value": est.value,
        "lhs": _ser(est.lhs),
        "ok": est.ok,
        "exceeded": est.exceeded,
    }, warnings, 0


def _cmd_hirst_product(args):
    digits = parse_digit_set(args.digits_spec, args.assume_infinite)
    seq = parse_index_sequence(args.seq)
    value = covering_product_bound(
        digits, seq, args.M, args.s, args.base_level, args.level,
        _word(args.prefix), _context(args),
    )
    return {"bound": _ser(value)}, [], 0


def _cmd_hirst_theorem(args):
    seq = parse_index_sequence(args.seq)
    res = dimension_dichotomy(seq)
    return {"dim": _ser(res.dim), "branch": res.branch}, [], 0


# ---------------------------------------------------------------- parser

def _add_format(p):
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")


def _add_precision(p, tol=False):
    p.add_argument("--dps", type=int, help="working precision in decimal digits")
    if tol:
        p.add_argument("--tol", help="target absolute tolerance")


def _schedule_flags(p):
    p.add_argument("--schedule", help="path to a schedule JSON file")
    p.add_argument("--eps", help="exponent, e.g. 1/10 (derives c1 = eps*log2/2)")
    p.add_argument("--c1", help="explicit rational weight bound")
    p.add_argument("--j-max", type=int, dest="j_max")
    p.add_argument("--horizon", type=int)


def build_parser():
    root = argparse.ArgumentParser(
        prog="cfdim",
        description="continued fraction cylinders, critical exponents, covering bounds",
    )
    root.add_argument("--version", action="version", version="cfdim " + __version__)
    groups = root.add_subparsers(dest="group", required=True)

    cf = groups.add_parser("cf", help="exact digit-word arithmetic")
    cf_sub = cf.add_subparsers(dest="cmd", required=True)
    p = cf_sub.add_parser("expand")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--rational", help="exact rational in (0,1), e.g. 7/10")
    src.add_argument("--decimal", help="decimal literal; only certain digits emitted")
    p.add_argument("--max-digits", type=int, dest="max_digits")
    _add_format(p)
    p.set_defaults(func=_cmd_cf_expand)
    p = cf_sub.add_parser("eval")
    p.add_argument("--word", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_cf_eval)
    p = cf_sub.add_parser("convergents")
    p.add_argument("--word", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_cf_convergents)
    p = cf_sub.add_parser("cylinder")
    p.add_argument("--word", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_cf_cylinder)
    p = cf_sub.add_parser("delete")
    p.add_argument("--word", required=True)
    p.add_argument("--positions", help="comma separated 1-based positions")
    p.add_argument("--seq", help="index sequence spec, e.g. square")
    _add_format(p)
    p.set_defaults(func=_cmd_cf_delete)

    zt = groups.add_parser("zeta", help="zeta values and tails")
    zt_sub = zt.add_subparsers(dest="cmd", required=True)
    p = zt_sub.add_parser("value")
    p.add_argument("--z", required=True)
    _add_precision(p, tol=True)
    _add_format(p)
    p.set_defaults(func=_cmd_zeta_value)
    p = zt_sub.add_parser("tail")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--z", required=True)
    _add_precision(p, tol=True)
    _add_format(p)
    p.set_defaults(func=_cmd_zeta_tail)

    dm = groups.add_parser("dim", help="covering sums and critical exponents")
    dm_sub = dm.add_subparsers(dest="cmd", required=True)
    p = dm_sub.add_parser("factor")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--s", required=True)
    _add_precision(p)
    _add_format(p)
    p.set_defaults(func=_cmd_dim_factor)
    p = dm_sub.add_parser("critical")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--tol", default="1e-12")
    p.add_argument("--s-max", dest="s_max", default="2")
    _add_precision(p)
    _add_format(p)
    p.set_defaults(func=_cmd_dim_critical)
    p = dm_sub.add_parser("asymptotic")
    p.add_argument("--M", type=int, required=True)
    _add_precision(p)
    _add_format(p)
    p.set_defaults(func=_cmd_dim_asymptotic)
    p = dm_sub.add_parser("reference")
    p.add_argument("--M", type=int, required=True)
    _add_precision(p)
    _add_format(p)
    p.set_defaults(func=_cmd_dim_reference)
    p = dm_sub.add_parser("jlen")
    p.add_argument("--word", required=True)
    p.add_argument("--M", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_dim_jlen)
    p = dm_sub.add_parser("cover")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--digit-cap", type=int, dest="digit_cap", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    _add_precision(p)
    _add_format(p)
    p.set_defaults(func=_cmd_dim_cover)

    sq = groups.add_parser("seq", help="index sequences and digit sets")
    sq_sub = sq.add_subparsers(dest="cmd", required=True)
    p = sq_sub.add_parser("density")
    p.add_argument("--spec", required=True)
    p.add_argument("--horizon", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_seq_density)
    p = sq_sub.add_parser("tau")
    p.add_argument("--digits-spec", dest="digits_spec", required=True)
    p.add_argument("--assume-infinite", action="store_true", dest="assume_infinite")
    _add_precision(p)
    _add_format(p)
    p.set_defaults(func=_cmd_seq_tau)
    p = sq_sub.add_parser("count")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_seq_count)

    cn = groups.add_parser("construct", help="schedules, points and verification")
    cn_sub = cn.add_subparsers(dest="cmd", required=True)
    p = cn_sub.add_parser("schedule")
    p.add_argument("--seq", required=True)
    p.add_argument("--eps")
    p.add_argument("--c1")
    p.add_argument("--j-max", type=int, dest="j_max", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--onset", action="store_true",
                   help="also certify the weight inequality onset")
    _add_format(p)
    p.set_defaults(func=_cmd_construct_schedule)
    p = cn_sub.add_parser("point")
    p.add_argument("--seq", required=True)
    _schedule_flags(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--filler", type=int, default=1)
    _add_format(p)
    p.set_defaults(func=_cmd_construct_point)
    p = cn_sub.add_parser("verify-size")
    p.add_argument("--seq", required=True)
    _schedule_flags(p)
    p.add_argument("--word", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_construct_verify_size)
    p = cn_sub.add_parser("verify-sep")
    p.add_argument("--prefix", default="")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--x-tail", dest="x_tail", required=True)
    p.add_argument("--y-tail", dest="y_tail", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_construct_verify_sep)
    p = cn_sub.add_parser("holder")
    p.add_argument("--seq", required=True)
    _schedule_flags(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--pairs-file", dest="pairs_file",
                   help="lines of 'word;word' with comma separated digits")
    p.add_argument("--sample", type=int, help="generate this many random pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-prefix", type=int, dest="min_prefix")
    _add_format(p)
    p.set_defaults(func=_cmd_construct_holder)

    hr = groups.add_parser("hirst", help="dimension values for digit sets")
    hr_sub = hr.add_subparsers(dest="cmd", required=True)
    p = hr_sub.add_parser("dim")
    p.add_argument("--digits-spec", dest="digits_spec", required=True)
    p.add_argument("--assume-infinite", action="store_true", dest="assume_infinite")
    _add_precision(p)
    _add_format(p)
    p.set_defaults(func=_cmd_hirst_dim)
    p = hr_sub.add_parser("m0")
    p.add_argument("--digits-spec", dest="digits_spec", required=True)
    p.add_argument("--assume-infinite", action="store_true", dest="assume_infinite")
    p.add_argument("--seq", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--M", type=int)
    p.add_argument("--estimate", action="store_true")
    _add_precision(p)
    _add_format(p)
    p.set_defaults(func=_cmd_hirst_m0)
    p = hr_sub.add_parser("product")
    p.add_argument("--digits-spec", dest="digits_spec", required=True)
    p.add_argument("--assume-infinite", action="store_true", dest="assume_infinite")
    p.add_argument("--seq", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--base-level", type=int, dest="base_level", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--prefix", default="")
    _add_precision(p)
    _add_format(p)
    p.set_defaults(func=_cmd_hirst_product)
    p = hr_sub.add_parser("theorem")
    p.add_argument("--seq", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_hirst_theorem)

    return root


# --threads has no effect, so it is not echoed as an input
_SKIP_ECHO = ("func", "group", "cmd", "format", "threads")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = {
        k.replace("_", "-"): v
        for k, v in vars(args).items()
        if k not in _SKIP_ECHO and v is not None
    }
    try:
        result, warnings, code = args.func(args)
    except ToolkitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    envelope = {
        "command": "%s %s" % (args.group, args.cmd),
        "inputs": inputs,
        "result": result,
        "warnings": warnings,
        "version": __version__,
    }
    print(_render(envelope, args.format))
    return code
