"""Worker process: imports cfdim fresh, warms up, then runs timed rounds.

Roles (run from the repository root):

  worker.py --role setup --workload W   import the entry point, run one
                                        warm-up op of each kind, print
                                        "ready <import seconds>", exit
  worker.py --role main --workload W    the same, then read one JSON
                                        config line on stdin, run rounds
                                        and print one JSON result line
  worker.py --role refs                 time the re-anchor reference cases
                                        and print them as JSON
  worker.py --role shim --trace-fd N -- ARGV...
                                        run cfdim.cli.main(ARGV) with the
                                        tracer installed and write the
                                        layer aggregates to fd N

For the ``cli`` workload the main role does not time anything: it runs
each argv through ``cfdim.cli.main`` in-process and returns the stdout,
which run.py uses as the reference for the spawned commands.
"""

import os
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

clock = time.perf_counter

# rounds stop at this many seconds whatever the requested length, so
# that a run always ends well inside three minutes
_HARD_CAP_S = 120.0


def _summary_real(x, digits=45):
    from mpmath import mp

    return None if x is None else mp.nstr(x, digits)


class Library:
    """Decoded ops of one library workload and the code that runs a round."""

    def __init__(self, workload, ops):
        from fractions import Fraction

        import cfdim  # noqa: F401  (loads every layer module)

        self.F = Fraction
        self.workload = workload
        self.tracer = None
        self.scaler = None
        if workload == "certify":
            self.plan = self._decode_certify(ops)
        else:
            self.plan = [self._decode(op) for op in ops]

    def _mod(self, layer):
        return sys.modules["cfdim." + layer]

    def _decode(self, op):
        S = self._mod("sequences")
        kind = op["kind"]
        d = dict(op)
        if kind == "critical":
            d["ctx"] = self._mod("special").PrecisionContext(working_digits=op["dps"])
        if kind in ("condition", "floor", "product"):
            d["digits_obj"] = S.parse_digit_set(op["digits"])
            d["seq_obj"] = S.parse_index_sequence(op["seq"])
        if "eps" in op:
            d["eps_f"] = self.F(op["eps"])
        if kind == "cover":
            d["s_f"] = self.F(op["s"])
        return d

    def _decode_certify(self, plan):
        S = self._mod("sequences")
        pipes = []
        for p in plan["pipelines"]:
            p = dict(p)
            p["seq_obj"] = S.parse_index_sequence(p["seq"])
            p["value_f"] = self.F(p["value"])
            p["size_eps_f"] = self.F(p["size_eps"])
            pipes.append(p)
        return {"pipelines": pipes, "separations": plan["separations"]}

    def _call(self, rec, fn, *args, **kwargs):
        """Time one public call; append (latency, result, error) to rec."""
        if self.tracer is not None:
            self.tracer.op_id = len(rec)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            err = None
        except Exception as exc:  # a failed op is counted, the round goes on
            result = None
            err = "%s: %s" % (type(exc).__name__, exc)
        lat = clock() - t0
        self.scaler.after(lat)
        rec.append([lat, result, err])
        return result

    def run_round(self):
        """Run the op list once; return [[latency, summary, error], ...] in op order.

        ``self.scaler`` holds the round's calibration; its ``scaled()``
        latencies are those of the ops that ran, in order.
        """
        import calib  # after cfdim's import, which set-up times

        rec = []
        self.scaler = calib.Scaler()
        self.scaler.start()
        if self.workload == "certify":
            self._certify_round(rec)
        else:
            for op in self.plan:
                self._run_op(rec, op)
        return rec

    def _run_op(self, rec, op):
        D, P, H = self._mod("dimension"), self._mod("special"), self._mod("hirst")
        kind = op["kind"]
        if kind == "cover":
            r = self._call(rec, D.covering_sum_enumerated, op["M"], op["s_f"], op["levels"],
                           op["cap"])
            rec[-1][1] = _summary_real(r)
        elif kind == "critical":
            r = self._call(rec, D.critical_exponent, op["M"], 1e-12, ctx=op["ctx"])
            if r is not None:
                rec[-1][1] = {"s": _summary_real(r.s_star, op["dps"]),
                              "residual": _summary_real(r.residual, 10),
                              "iterations": r.iterations, "converged": r.converged}
        elif kind == "factor":
            r = self._call(rec, D.per_level_factor, op["M"], op["s"])
            rec[-1][1] = _summary_real(r)
        elif kind == "zeta":
            r = self._call(rec, P.zeta, op["z"])
            rec[-1][1] = _summary_real(r)
        elif kind == "zeta_tail":
            r = self._call(rec, P.zeta_tail, op["start"], op["z"])
            rec[-1][1] = _summary_real(r)
        elif kind == "condition":
            r = self._call(rec, H.covering_condition, op["digits_obj"], op["seq_obj"],
                           op["eps_f"], op["M"])
            if r is not None:
                rec[-1][1] = {"lhs": _summary_real(r.lhs), "ok": r.ok}
        elif kind == "floor":
            r = self._call(rec, H.estimate_condition_floor, op["digits_obj"], op["seq_obj"],
                           op["eps_f"])
            if r is not None:
                rec[-1][1] = {"value": r.value, "lhs": _summary_real(r.lhs), "ok": r.ok,
                              "exceeded": r.exceeded}
        elif kind == "product":
            r = self._call(rec, H.covering_product_bound, op["digits_obj"], op["seq_obj"],
                           op["M"], op["s"], 0, op["level"], ())
            rec[-1][1] = _summary_real(r)
        else:
            raise ValueError("unknown op kind %r" % kind)

    def _certify_round(self, rec):
        C = self._mod("construction")
        for p in self.plan["pipelines"]:
            seq = p["seq_obj"]
            mode = {p["mode"]: p["value_f"]}
            sched = self._call(rec, C.choose_schedule, seq, p["j_max"], p["horizon"], **mode)
            if sched is not None:
                rec[-1][1] = {"N": list(sched.thresholds), "n": list(sched.breakpoints)}
            n_ops = 5 + len(p["words"])
            if sched is None:
                rec.extend([0.0, None, "skipped: no schedule"] for _ in range(n_ops - 1))
                continue
            ons = self._call(rec, C.schedule_onset, seq, sched)
            if ons is not None:
                rec[-1][1] = {"onset": ons.onset, "checked_to": ons.checked_to}
            point = self._call(rec, C.build_point, seq, p["M"], sched, p["depth"])
            if point is None:
                rec.extend([0.0, None, "skipped: no point"] for _ in p["words"])
            else:
                digits = point.digits
                rec[-1][1] = list(digits)
                for template in p["words"]:
                    word = [digits[i] if t == 0 else t for i, t in enumerate(template)]
                    rep = self._call(rec, C.verify_size_bound, p["size_eps_f"], seq, sched, word)
                    if rep is not None:
                        rec[-1][1] = {"ok": rep.ok, "onset_certified": rep.onset_certified,
                                      "lhs": str(rep.lhs), "n": len(rep.word)}
            pairs = self._call(rec, C.sample_holder_pairs, seq, p["M"], sched, p["pairs"],
                               p["pair_seed"], p["min_prefix"])
            if pairs is None:
                rec.append([0.0, None, "skipped: no pairs"])
                continue
            rec[-1][1] = [[list(x.digits), list(y.digits)] for x, y in pairs]
            reports = self._call(rec, C.holder_check, seq, p["M"], p["size_eps_f"], pairs)
            if reports is not None:
                rec[-1][1] = [[r.ok, r.reason] for r in reports]
        for s in self.plan["separations"]:
            rep = self._call(rec, C.verify_separation, s["prefix"], s["M"], s["x"], s["y"])
            if rep is not None:
                rec[-1][1] = {"gap": str(rep.gap), "bound": str(rep.bound), "ok": rep.ok}


def _references():
    """The re-anchor baseline cases, one call each in this fresh process."""
    from fractions import Fraction

    import cfdim

    seq = cfdim.parse_index_sequence("square")
    cases = (
        ("ref.cover_2_1_2_50_s", lambda: cfdim.covering_sum_enumerated(2, 1, 2, 50)),
        ("ref.critical_1e6_s", lambda: cfdim.critical_exponent(10 ** 6)),
        ("ref.choose_schedule_square_s",
         lambda: cfdim.choose_schedule(seq, 30, 10 ** 4, eps=Fraction(1, 10))),
    )
    out = {}
    for name, fn in cases:
        t0 = clock()
        fn()
        out[name] = clock() - t0
    return out


def _run_cli_inprocess(argvs):
    import contextlib
    import io

    cli = sys.modules["cfdim.cli"]
    outs = []
    for argv in argvs:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            cli.main(list(argv))
        outs.append(buf.getvalue())
    return outs


def _scaled(rec, scaler):
    """Scaled latencies in op order; ops skipped after a failure keep 0."""
    scaled = iter(scaler.scaled())
    return [0.0 if err is not None and err.startswith("skipped") else next(scaled)
            for _, _, err in rec]


def _enough(rounds, trace, min_rounds):
    plain = [r for r in rounds if not r["traced"]]
    if trace:
        return len(plain) >= 1 and len(rounds) - len(plain) >= 1
    return len(plain) >= min_rounds


def _timed_rounds(lib, cfg):
    """Rounds until the requested seconds are used; traced ones alternate in when asked."""
    trace, seconds = cfg["trace"], cfg["seconds"]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds, first, errors, mismatch, aggregates = [], None, [], [], []
    t_start = clock()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            lib.tracer = tracer
        t0 = clock()
        rec = lib.run_round()
        wall = clock() - t0
        if traced:
            tracer.uninstall()
            lib.tracer = None
            aggregates.append(tracer.collect(cfg.get("spans") if len(aggregates) == 0 else None))
        index = len(rounds)
        rounds.append({"traced": traced, "wall": wall, "lat": [r[0] for r in rec],
                       "scaled": _scaled(rec, lib.scaler),
                       "probe_s": statistics.median(lib.scaler.points)})
        for i, (_, summary, err) in enumerate(rec):
            if err is not None:
                errors.append([index, i, err])
        summaries = [r[1] for r in rec]
        if first is None:
            first = summaries
        else:
            mismatch.extend([index, i] for i, (a, b) in enumerate(zip(first, summaries)) if a != b)
        elapsed = clock() - t_start
        next_cost = max(r["wall"] for r in rounds[-2:])
        if elapsed > _HARD_CAP_S:
            break
        if _enough(rounds, trace, cfg["min_rounds"]) and elapsed + next_cost > seconds:
            break
    return {"rounds": rounds, "outputs": first, "errors": errors, "mismatch": mismatch,
            "trace": aggregates}


def _shim(argv):
    fd = int(argv[argv.index("--trace-fd") + 1])
    cli_argv = argv[argv.index("--") + 1:]
    import json

    import cfdim.cli  # noqa: F401  (the module the tracer patches)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        code = sys.modules["cfdim.cli"].main(cli_argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        agg = tracer.collect(os.environ.get("PERFBENCH_SPANS"))
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(agg))
    return code


def main(argv):
    role = argv[argv.index("--role") + 1]
    if role == "shim":
        return _shim(argv)
    if role == "refs":
        import json

        print(json.dumps(_references()))
        return 0
    workload = argv[argv.index("--workload") + 1]
    t0 = clock()
    if workload == "cli":
        import cfdim.cli  # noqa: F401
    else:
        import cfdim  # noqa: F401
    import_s = clock() - t0

    import workloads

    warm = workloads.warmup_ops(workload)
    if workload == "cli":
        _run_cli_inprocess(warm)
    else:
        Library(workload, warm).run_round()
    print("ready %r" % import_s, flush=True)
    if role == "setup":
        return 0

    import json
    import resource

    cfg = json.loads(sys.stdin.readline())
    if workload == "cli":
        result = {"outs": _run_cli_inprocess(cfg["ops"])}
    else:
        lib = Library(workload, cfg["ops"])
        result = _timed_rounds(lib, cfg)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
