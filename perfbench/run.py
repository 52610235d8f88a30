"""cfdim benchmark runner.

    python3 perfbench/run.py --workload cover --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client, closed loop: a single op (one
library call, or one ``python -m cfdim`` process for the cli workload)
is in flight at a time.  The seed fixes the op list of a round; rounds
repeat until ``--seconds`` are used.  Outputs are checked against the
oracles in oracles.py after the timed region.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The line before it holds the
environment record, sample counts and the failure share.
"""

import argparse
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
PY = sys.executable

SETUPS = 5  # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 3  # timing metrics take per-op medians over at least this many rounds
PROBES = 5  # start-up probes per traced run
SETUP_PASSES = 2  # spawn probes at each calibration point between set-ups


def _env(with_src):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if with_src:
        env["PYTHONPATH"] = SRC
    return env


def run_child(cmd, env, extra_fd=None):
    """Run one process to completion; returns (code, stdout, stderr, extra, wall_s, maxrss_kb).

    ``extra_fd`` is the write end of a pipe the child inherits; its read
    end is drained alongside stdout and stderr.
    """
    extra_r = None
    pass_fds = ()
    if extra_fd is not None:
        extra_r, w = extra_fd
        pass_fds = (w,)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT, pass_fds=pass_fds)
    if extra_fd is not None:
        os.close(extra_fd[1])
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    if extra_r is not None:
        chunks[extra_r] = []
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if extra_r is not None:
        os.close(extra_r)
    out, err = b"".join(chunks[out_fd]), b"".join(chunks[err_fd])
    extra = b"".join(chunks[extra_r]) if extra_r is not None else None
    return proc.returncode, out, err, extra, wall, usage.ru_maxrss


class Worker:
    """A worker process; construction returns once it has printed its ready line."""

    def __init__(self, workload, role):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [PY, WORKER, "--role", role, "--workload", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_env(False), cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line.startswith("ready "):
            self.finish()
            raise RuntimeError("worker did not start: %s" % self.stderr.strip()[-2000:])
        self.import_s = float(line.split()[1])

    def request(self, cfg):
        out, self.stderr = self.proc.communicate(json.dumps(cfg) + "\n")
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError("worker failed: %s" % self.stderr.strip()[-2000:])
        return json.loads(out.strip().splitlines()[-1])

    def finish(self):
        _, self.stderr = self.proc.communicate()
        return self.proc.returncode


def setup_workers(workload):
    """SETUPS fresh interpreters; the last one stays up as the main worker.

    Returns the main worker, the set-up times scaled to the reference
    speed (calib.py), the raw set-up times and the in-process import times.
    """
    walls, imports = [], []
    scaler = calib.Scaler(calib.spawn_s, calib.SPAWN_REF_S, passes=SETUP_PASSES)
    scaler.start()
    for _ in range(SETUPS - 1):
        w = Worker(workload, "setup")
        if w.finish() != 0:
            raise RuntimeError("setup worker failed: %s" % w.stderr.strip()[-2000:])
        walls.append(w.setup_s)
        imports.append(w.import_s)
        scaler.after(w.setup_s)
    main = Worker(workload, "main")
    walls.append(main.setup_s)
    imports.append(main.import_s)
    scaler.after(main.setup_s)
    return main, scaler.scaled(), walls, imports


def _pct(values, p):
    # p-th percentile, linear between closest ranks
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- library workloads

def run_library(workload, seed, seconds, trace, spans):
    ops = workloads.ops_for(workload, seed)
    main, setup_scaled, setup_walls, imports = setup_workers(workload)
    res = main.request({"ops": ops, "seconds": seconds, "trace": trace,
                        "min_rounds": MIN_ROUNDS, "spans": spans})
    import oracles

    bad = oracles.check_ops(workload, ops, res["outputs"])
    failures = {}
    for r, i, msg in res["errors"]:
        failures.setdefault((r, i), msg)
    for r, i in res["mismatch"]:
        failures.setdefault((r, i), "output differs from the first round")
    rounds = res["rounds"]
    n_ops = len(rounds[0]["lat"])
    for i, msg in bad.items():
        for r in range(len(rounds)):
            failures.setdefault((r, i), msg)
    return {"ops": ops, "rounds": rounds, "n_ops": n_ops, "failures": failures,
            "setup": setup_scaled, "setup_raw": setup_walls, "imports": imports,
            "maxrss_kb": res["maxrss_kb"], "trace": res["trace"]}


# ---------------------------------------------------------------- cli workload

def _cli_op(argv, traced, spans):
    if not traced:
        return run_child([PY, "-m", "cfdim"] + argv, _env(True))
    r, w = os.pipe()
    env = _env(False)
    if spans:
        env["PERFBENCH_SPANS"] = spans
    return run_child([PY, WORKER, "--role", "shim", "--trace-fd", str(w), "--"] + argv,
                     env, extra_fd=(r, w))


def run_cli(seed, seconds, trace, spans):
    import tracer

    argvs = workloads.cli_argvs(seed)
    ref, setup_scaled, setup_walls, imports = setup_workers("cli")
    want = ref.request({"ops": argvs})
    rounds, failures, aggregates, maxrss = [], {}, [], 0
    t_start = time.perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        lat, agg = [], tracer.empty()
        scaler = calib.Scaler(calib.spawn_s, calib.SPAWN_REF_S)
        t0 = time.perf_counter()
        scaler.start()
        for i, argv in enumerate(argvs):
            code, out, err, extra, wall, rss = _cli_op(argv, traced, spans)
            lat.append(wall)
            scaler.after(wall)
            if not traced:
                maxrss = max(maxrss, rss)
            if code != 0:
                failures[(len(rounds), i)] = "exit %d: %s" % (code, err.decode()[-300:])
            elif out != want["outs"][i].encode():
                failures[(len(rounds), i)] = "stdout differs from in-process cfdim.cli.main"
            if extra:
                tracer.merge(agg, json.loads(extra))
        wall = time.perf_counter() - t0
        if traced:
            aggregates.append(agg)
        rounds.append({"traced": traced, "wall": wall, "lat": lat, "scaled": scaler.scaled(),
                       "probe_s": statistics.median(scaler.points)})
        elapsed = time.perf_counter() - t_start
        plain = [x for x in rounds if not x["traced"]]
        if trace:
            enough = len(plain) >= 1 and len(rounds) > len(plain)
        else:
            enough = len(plain) >= MIN_ROUNDS
        if elapsed > 120 or (enough and elapsed + max(x["wall"] for x in rounds[-2:]) > seconds):
            break
    return {"ops": argvs, "rounds": rounds, "n_ops": len(argvs), "failures": failures,
            "setup": setup_scaled, "setup_raw": setup_walls, "imports": imports,
            "maxrss_kb": maxrss,
            "trace": aggregates}


# ---------------------------------------------------------------- metrics

def _per_op(rounds, n_ops, key="scaled"):
    # one latency per op of the round: the median of its measurements
    # over the rounds
    return [statistics.median(r[key][i] for r in rounds) for i in range(n_ops)]


def _timings(per_op):
    return {"wall_s": math.fsum(per_op), "op_p50_s": statistics.median(per_op),
            "op_p90_s": _pct(per_op, 90)}


def end_to_end(run):
    plain = [r for r in run["rounds"] if not r["traced"]]
    timings = _timings(_per_op(plain, run["n_ops"]))
    metrics = {"setup_s": _metric(statistics.median(run["setup"]), "s")}
    for name in ("wall_s", "op_p50_s", "op_p90_s"):
        metrics[name] = _metric(timings[name], "s")
    metrics["peak_rss_mb"] = _metric(run["maxrss_kb"] / 1024.0, "MB")
    samples = {"setup_s": len(run["setup"]), "rounds": len(plain), "ops_per_round": run["n_ops"],
               "peak_rss_mb": 1}
    raw = _timings(_per_op(plain, run["n_ops"], "lat"))
    raw["setup_s"] = statistics.median(run["setup_raw"])
    raw["probe_s"] = statistics.median(r["probe_s"] for r in plain)
    return metrics, samples, raw


def _words(workload, ops):
    if workload == "cover":
        return sum(workloads.level_words(op["M"], op["levels"], op["cap"]) for op in ops)
    if workload == "cli":
        total = 0
        for argv in ops:
            if argv[:2] == ["dim", "cover"]:
                m, lv, cap = (int(argv[argv.index(flag) + 1])
                              for flag in ("--M", "--levels", "--digit-cap"))
                total += workloads.level_words(m, lv, cap)
        return total
    return 0


def _probe(code):
    return run_child([PY, "-c", code], _env(False))


def startup_probes():
    interp, mpm = [], []
    for _ in range(PROBES):
        interp.append(_probe("pass")[4])
        out = _probe("import time; t = time.perf_counter(); import mpmath; "
                     "print(time.perf_counter() - t)")[1]
        mpm.append(float(out))
    return statistics.median(interp), statistics.median(mpm)


def cf_eval_reference():
    walls = [run_child([PY, "-m", "cfdim", "cf", "eval", "--word", "1,2,3"], _env(True))[4]
             for _ in range(PROBES)]
    return statistics.median(walls)


def per_layer(workload, run):
    import tracer

    plain = [r for r in run["rounds"] if not r["traced"]]
    traced = [r for r in run["rounds"] if r["traced"]]
    aggs = run["trace"]
    counts = aggs[0]  # counts repeat exactly from one traced round to the next
    words = _words(workload, run["ops"])
    n_ops = run["n_ops"]
    interp_s, mpmath_s = startup_probes()
    m = {
        "startup.interp_s": _metric(interp_s, "s"),
        "startup.import_s": _metric(statistics.median(run["imports"]), "s"),
        "startup.mpmath_import_s": _metric(mpmath_s, "s"),
    }
    for layer in tracer.LAYERS:
        m["%s.calls" % layer] = _metric(counts["calls"][layer], "count")
        m["%s.self_s" % layer] = _metric(
            statistics.median(a["self_s"][layer] for a in aggs), "s")
    m["cfcore.calls_per_word"] = _metric(
        counts["calls"]["cfcore"] / words if words else 0.0, "calls/word")
    m["dimension.words"] = _metric(words, "count")
    solves = tracer.count_of(counts, "dimension.critical_exponent")
    m["dimension.factor_evals_per_solve"] = _metric(
        tracer.count_of(counts, "dimension.per_level_factor", "dimension.critical_exponent")
        / solves if solves else 0.0, "calls/solve")
    m["sequences.calls_per_op"] = _metric(counts["calls"]["sequences"] / n_ops, "calls/op")
    floors = tracer.count_of(counts, "hirst.estimate_condition_floor")
    m["hirst.condition_evals_per_floor"] = _metric(
        tracer.count_of(counts, "hirst.covering_condition", "hirst.estimate_condition_floor")
        / floors if floors else 0.0, "calls/floor")
    m["trace.overhead_frac"] = _metric(
        math.fsum(_per_op(traced, n_ops)) / math.fsum(_per_op(plain, n_ops)) - 1, "frac")
    code, out, err, _, _, _ = run_child([PY, WORKER, "--role", "refs"], _env(False))
    if code != 0:
        raise RuntimeError("reference cases failed: %s" % err.decode()[-2000:])
    refs = json.loads(out)
    for name in ("ref.cover_2_1_2_50_s", "ref.critical_1e6_s", "ref.choose_schedule_square_s"):
        m[name] = _metric(refs[name], "s")
    m["ref.cf_eval_s"] = _metric(cf_eval_reference(), "s")
    samples = {"self_s": len(aggs), "overhead": [len(traced), len(plain)], "startup": PROBES}
    return m, samples


def environment(seed, workload, trace):
    import mpmath
    import mpmath.libmp

    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    backend = mpmath.libmp.BACKEND
    env = {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
           "mpmath_backend": backend, "nproc": os.cpu_count(), "seed": seed,
           "commit": commit, "workload": workload, "trace": trace}
    if backend != "python":
        # gmpy2 changes cover and critical by multiples: such results are
        # not comparable with the pure-python baseline
        env["flag"] = "mpmath backend %r: do not compare with python-backend results" % backend
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="append the first traced round's spans to this file "
                                    "as JSON lines")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cfdim", "__init__.py")):
        print("error: run from the repository root; %s/cfdim is missing" % SRC, file=sys.stderr)
        return 2
    spans = os.path.abspath(args.spans) if args.spans else None
    if args.workload == "cli":
        run = run_cli(args.seed, args.seconds, args.trace, spans)
    else:
        run = run_library(args.workload, args.seed, args.seconds, args.trace, spans)
    plain = [r for r in run["rounds"] if not r["traced"]]
    attempted = sum(len(r["lat"]) for r in plain)
    failed = sum(1 for (r, _) in run["failures"] if not run["rounds"][r]["traced"])
    if args.trace:
        metrics, samples = per_layer(args.workload, run)
        attempted = sum(len(r["lat"]) for r in run["rounds"])
        failed = len(run["failures"])
        raw = None
    else:
        metrics, samples, raw = end_to_end(run)
    detail = {
        "env": environment(args.seed, args.workload, args.trace),
        "samples": samples,
        "raw": raw,
        "rounds_s": [r["wall"] for r in run["rounds"] if not r["traced"]],
        "fail_frac": _metric(failed / attempted, "frac"),
        "failures": sorted("round %d op %d: %s" % (r, i, msg)
                           for (r, i), msg in run["failures"].items())[:20],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
