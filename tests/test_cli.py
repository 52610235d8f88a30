"""Envelope schema, exit codes, formats, and flag validation for the CLI."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfdim.cli import build_parser, main
import golden_cli
from spawn import child_env
from test_acceptance import CLI_MATRIX
from test_construction import C1_NEAR_A_TIE
from test_errors import NOT_NUMBER_TEXT, NUMBER_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_envelope_schema_and_field_order(capsys):
    code, out, _ = run(capsys, "cf", "expand", "--rational", "7/10")
    assert code == 0
    pairs = json.loads(out, object_pairs_hook=list)
    assert [k for k, _ in pairs] == ["command", "inputs", "result", "warnings", "version"]
    env = dict(pairs)
    assert env["command"] == "cf expand"
    assert env["inputs"] == [("rational", "7/10")]
    assert dict(env["result"])["digits"] == [1, 2, 3]
    assert env["warnings"] == []


def test_exact_rationals_are_strings_not_floats(capsys):
    _, out, _ = run(capsys, "cf", "eval", "--word", "1,2,3")
    env = json.loads(out)
    assert env["result"]["value"] == "7/10"
    _, out, _ = run(capsys, "cf", "cylinder", "--word", "2")
    res = json.loads(out)["result"]
    assert res["left"] == "1/3" and res["right"] == "1/2"
    assert res["length"] == "1/6"
    _, out, _ = run(capsys, "seq", "density", "--spec", "even", "--horizon", "10000")
    assert json.loads(out)["result"]["exact"] == "1/2"


def test_high_precision_reals_are_decimal_strings(capsys):
    _, out, _ = run(capsys, "zeta", "value", "--z", "2")
    value = json.loads(out)["result"]["value"]
    assert isinstance(value, str) and value.startswith("1.6449340668")


def test_exit_code_2_on_invalid_input(capsys):
    code, out, err = run(capsys, "cf", "expand", "--rational", "3/2")
    assert code == 2 and out == "" and "error:" in err
    assert run(capsys, "zeta", "value", "--z", "1")[0] == 2
    assert run(capsys, "cf", "eval", "--word", "1,0,3")[0] == 2


# A derived-mode schedule file and edits that must each be refused: a
# stored c1 that is not an exact rational or lies far past the float
# range, and N or n entries that are not integers.
_SCHEDULE = {"c1": None, "eps": "1/10", "horizon": 1000, "N": [0], "n": [5]}
_BAD_SCHEDULES = {
    "C1_TEXT": {"c1": "abc"},
    "C1_LIST": {"c1": [1]},
    "C1_BOOL": {"c1": True},
    "C1_HUGE": {"c1": "1e400"},
    "N_BOOL": {"N": [True]},
    "BREAKPOINT_FLOAT": {"n": [20.9]},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "critical", "--M", "2", "--tol", "abc"],
        ["zeta", "value", "--z", "2", "--tol", "abc"],
        ["construct", "point", "--seq", "square", "--schedule", "MISSING",
         "--M", "3", "--depth", "12"],
        ["construct", "holder", "--seq", "square", "--eps", "1/10", "--M", "5",
         "--pairs-file", "MISSING"],
        ["construct", "point", "--seq", "square", "--schedule", "NOT_JSON",
         "--M", "3", "--depth", "12"],
        ["construct", "point", "--seq", "square", "--schedule", "DEEP_JSON",
         "--M", "3", "--depth", "12"],
        ["construct", "holder", "--seq", "square", "--eps", "1/10", "--M", "5",
         "--pairs-file", "NOT_TEXT"],
        ["seq", "count", "--spec", "file:NOT_INTS", "--n", "2"],
        ["seq", "tau", "--digits-spec", "file:NOT_INTS"],
        ["seq", "count", "--spec", "file:NOT_TEXT", "--n", "2"],
        ["seq", "tau", "--digits-spec", "file:NOT_TEXT"],
        ["dim", "factor", "--M", "3", "--s", "1/0"],
        ["zeta", "value", "--z", "1/0"],
        ["dim", "cover", "--M", "2", "--s", "1/0", "--levels", "1", "--digit-cap", "5"],
        ["hirst", "product", "--digits-spec", "all", "--seq", "even", "--M", "2",
         "--s", "1/0", "--base-level", "0", "--level", "1"],
        ["cf", "expand", "--rational", "abc"],
        ["cf", "expand", "--rational", "1/0"],
        ["cf", "expand", "--decimal", "0.5", "--max-digits", "-1"],
        ["zeta", "value", "--z", "1.2", "--tol", "1e-80"],
        ["dim", "critical", "--M", "1000", "--tol", "1e-80"],
        # integers past the interpreter's 4,300-digit limit on reading one
        ["cf", "eval", "--word", "7" * 5000],
        ["cf", "expand", "--decimal", "0." + "3" * 5000],
        ["construct", "point", "--seq", "square", "--schedule", "BIG_JSON_INT",
         "--M", "3", "--depth", "5"],
        ["seq", "count", "--spec", "file:BIG_LINE", "--n", "2"],
        ["seq", "count", "--spec", "pow:" + "7" * 5000, "--n", "2"],
        ["construct", "schedule", "--seq", "square", "--eps=-1e5000", "--j-max", "1",
         "--horizon", "100"],
        *(["construct", "point", "--seq", "square", "--schedule", key, "--M", "3",
           "--depth", "12"] for key in _BAD_SCHEDULES),
    ],
    ids=["critical-tol", "zeta-tol", "missing-schedule", "missing-pairs", "bad-json",
         "deep-json", "binary-pairs", "count-bad-line", "tau-bad-line", "count-binary", "tau-binary",
         "factor-zero-den", "zeta-zero-den", "cover-zero-den", "product-zero-den",
         "rational-not-a-number", "rational-zero-den", "max-digits-negative",
         "zeta-tol-unreachable", "critical-tol-unreachable", "word-digit-too-long",
         "decimal-too-long", "schedule-int-too-long", "file-line-too-long", "pow-too-long",
         "eps-negative-past-the-int-string-limit",
         *("schedule-" + key.lower().replace("_", "-") for key in _BAD_SCHEDULES)],
)
def test_bad_tol_and_file_inputs_exit_2_with_one_error_line(capsys, tmp_path, argv):
    not_json = tmp_path / "sched.json"
    not_json.write_text("{\"N\": [379],")
    deep_json = tmp_path / "deep.json"  # json.loads recurses once per level
    deep_json.write_text("[" * 200000 + "]" * 200000)
    not_text = tmp_path / "pairs.bin"
    not_text.write_bytes(b"\xff\xfe1,2;3,4\n")
    not_ints = tmp_path / "values.txt"
    not_ints.write_text("1\nx\n3\n")
    # written as text: json.dumps cannot write an int past the int-string limit
    big_json_int = tmp_path / "big.json"
    big_json_int.write_text(json.dumps(_SCHEDULE).replace("[5]", "[%s]" % ("7" * 5000)))
    big_line = tmp_path / "big.txt"
    big_line.write_text("1\n%s\n" % ("7" * 5000))
    paths = {
        "MISSING": str(tmp_path / "absent.json"),
        "NOT_JSON": str(not_json),
        "DEEP_JSON": str(deep_json),
        "NOT_TEXT": str(not_text),
        "NOT_INTS": str(not_ints),
        "BIG_JSON_INT": str(big_json_int),
        "BIG_LINE": str(big_line),
    }
    for key, edit in _BAD_SCHEDULES.items():
        path = tmp_path / ("%s.json" % key.lower())
        path.write_text(json.dumps(dict(_SCHEDULE, **edit)))
        paths[key] = str(path)
    for key, path in paths.items():
        argv = [a.replace(key, path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_X = "x" + "7" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "count", "--spec", "file:BIG_LINE", "--n", "2"],
        ["construct", "point", "--seq", "square", "--schedule", "LONG_C1", "--M", "3",
         "--depth", "5"],
        ["construct", "schedule", "--seq", "square", "--eps", "7" * 5000 + "/3",
         "--j-max", "1", "--horizon", "100"],
        ["cf", "expand", "--rational", _X],
        ["hirst", "m0", "--digits-spec", "all", "--seq", "square", "--eps", _X, "--M", "3"],
        ["cf", "eval", "--word", "1," + _X],
        ["seq", "count", "--spec", "pow:" + _X, "--n", "2"],
        ["seq", "count", "--spec", _X, "--n", "2"],
        ["seq", "tau", "--digits-spec", "arith:" + _X],
        ["cf", "expand", "--decimal", _X],
        ["zeta", "value", "--z", _X],
        ["zeta", "value", "--z", "2", "--tol", _X],
    ],
    ids=["file-line", "schedule-c1", "eps-numerator", "rational", "hirst-eps", "word-digit",
         "pow-base", "spec", "digit-set-spec", "decimal", "real", "tol"],
)
def test_no_refusal_echoes_unbounded_input(capsys, tmp_path, argv):
    big_line = tmp_path / "big.txt"
    big_line.write_text("7" * 5000 + "\n")
    long_c1 = tmp_path / "c1.json"  # a c1 that contradicts eps, in 4,000 digits
    long_c1.write_text(json.dumps(dict(_SCHEDULE, c1="0.0346" + "5" * 4000)))
    code, out, err = run(capsys, *(a.replace("BIG_LINE", str(big_line))
                                   .replace("LONG_C1", str(long_c1)) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err


@pytest.mark.parametrize("value", ["+3", "1_0", "\u0661", "7" * 5000],
                         ids=["plus", "underscore", "arabic-indic-one", "5000-digits"])
@pytest.mark.parametrize("argv", [
    ["dim", "critical", "--M"],
    ["cf", "expand", "--decimal", "0.5", "--max-digits"],
], ids=["M", "max-digits"])
def test_integer_flags_take_decimal_digits_only(capsys, argv, value):
    # the rule read_int keeps for every other integer typed as text; the
    # refusal is argparse's, and quotes at most 40 characters of the value
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "argument %s: the value " % argv[-1] in out.err
    assert len(out.err) < 400, out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "count", "--spec", "pow:1_0", "--n", "100"],
        ["seq", "count", "--spec", "arith:+3,5", "--n", "100"],
        ["cf", "delete", "--word", "1,2,3", "--positions", "+2"],
        ["cf", "delete", "--word", "1,2,3", "--positions", "-1"],
        ["seq", "count", "--spec", "file:PLUS", "--n", "1"],
        ["seq", "count", "--spec", "file:UNDERSCORE", "--n", "1"],
        ["cf", "eval", "--word", "\u0661,2"],
        ["cf", "expand", "--decimal", "0.\u0663"],
    ],
    ids=["pow-underscore", "arith-plus", "position-plus", "position-minus", "file-plus",
         "file-underscore", "word-arabic-indic", "decimal-arabic-indic"],
)
def test_an_integer_typed_as_text_is_ascii_decimal_digits(capsys, tmp_path, argv):
    (tmp_path / "plus.txt").write_text("1\n+4\n")
    (tmp_path / "underscore.txt").write_text("1\n4_0\n")
    argv = [a.replace("PLUS", str(tmp_path / "plus.txt"))
            .replace("UNDERSCORE", str(tmp_path / "underscore.txt")) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "value", "--z", "1e1000"],
        ["zeta", "tail", "--start", "3", "--z", "1e2000"],
        ["dim", "factor", "--M", "5", "--s", "1e300"],
        ["dim", "cover", "--M", "2", "--s", "1e300", "--levels", "2", "--digit-cap", "6"],
    ],
    ids=["zeta", "tail", "factor", "cover"],
)
def test_an_exponent_past_a_million_exits_4_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err.startswith("error: exponent cap is 1000000, got ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "factor", "--M", "3", "--s", "nan"],
        ["dim", "cover", "--M", "2", "--s", "nan", "--levels", "1", "--digit-cap", "5"],
        ["hirst", "product", "--digits-spec", "all", "--seq", "even", "--M", "2",
         "--s", "nan", "--base-level", "0", "--level", "1"],
    ],
    ids=["factor", "cover", "product"],
)
def test_non_finite_exponent_is_rejected_as_such(capsys, argv):
    # nan is outside the number grammar, so as_real refuses the text
    # before mpmath reads it
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: cannot interpret 'nan' as a real exponent\n"


_SCHEDULE_ARGV = ["construct", "schedule", "--seq", "square", "--j-max", "1", "--horizon", "100"]


@pytest.mark.parametrize("argv, message", [
    (_SCHEDULE_ARGV + ["--eps", "1e-10000000"],
     "eps has an exponent past the 4300 digits an integer is read from: '1e-10000000'"),
    (_SCHEDULE_ARGV + ["--c1", "1e-10000000"],
     "c1 has an exponent past the 4300 digits an integer is read from: '1e-10000000'"),
    (["cf", "expand", "--rational", "1e-10000000"],
     "x has an exponent past the 4300 digits an integer is read from: '1e-10000000'"),
    (["zeta", "value", "--z", "\u0662.\u0665"],
     "cannot interpret '\u0662.\u0665' as a real exponent"),
    (_SCHEDULE_ARGV + ["--eps", "\u0661/\u0661\u0660"],
     "eps is not a rational: '\u0661/\u0661\u0660'"),
    (["dim", "factor", "--M", "5", "--s", "0.75L"], "cannot interpret '0.75L' as a real exponent"),
    (["zeta", "value", "--z", "2", "--tol", "1_0e-13"], "--tol is not a rational: '1_0e-13'"),
], ids=["eps-long-exponent", "c1-long-exponent", "rational-long-exponent", "z-arabic-indic",
        "eps-arabic-indic", "s-long-suffix", "tol-underscore"])
def test_a_number_outside_the_grammar_exits_2_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_tol_takes_a_rational_read_to_its_nearest_float(capsys):
    code, out, _ = run(capsys, "zeta", "value", "--z", "2", "--tol", "1/3")
    assert code == 0
    assert json.loads(out)["result"] == json.loads(
        run(capsys, "zeta", "value", "--z", "2", "--tol", repr(1 / 3))[1])["result"]


# each flag read as a number typed as text, on a command that answers in ms
_NUMBER_FLAGS = {
    "--s": ["dim", "factor", "--M", "5"],
    "--z": ["zeta", "value"],
    "--tol": ["zeta", "value", "--z", "2"],
    "--eps": _SCHEDULE_ARGV,
    "--c1": _SCHEDULE_ARGV,
    "--rational": ["cf", "expand"],
    "--s-max": ["dim", "critical", "--M", "2"],
}


@pytest.mark.parametrize("flag", list(_NUMBER_FLAGS))
@settings(max_examples=60)
@given(drawn=st.one_of(NUMBER_TEXT.map(lambda t: (t, True)),
                       NOT_NUMBER_TEXT.map(lambda t: (t, False))))
def test_a_number_flag_exits_with_a_documented_code(flag, drawn):
    # flag=text binds the text even when it starts with a sign
    # (a critical solve that does not converge exits 3 with its envelope)
    text, in_grammar = drawn
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(_NUMBER_FLAGS[flag] + ["%s=%s" % (flag, text)])
    assert code in (0, 2, 3, 4)
    err = err.getvalue()
    assert err == "" or err.startswith("error: ") and err.count("\n") == 1
    assert in_grammar or code == 2 and err


@pytest.mark.parametrize(
    "flag,value,code",
    [("--c1", "1e400", 2), ("--eps", "1e400", 2), ("--c1", "1e-400", 2),
     ("--c1", "1e-200", 3), ("--c1", "1e-160", 3)],
)
def test_c1_past_the_float_range_exits_with_one_error_line(capsys, flag, value, code):
    # a c1 whose float is 0 or overflows is refused; a tiny c1 puts the
    # first threshold past the horizon
    got, out, err = run(capsys, "construct", "schedule", "--seq", "square", flag, value,
                        "--j-max", "1", "--horizon", "100")
    assert got == code and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_c1_that_200_digits_cannot_separate_exits_2_with_one_error_line(capsys):
    code, out, err = run(capsys, "construct", "schedule", "--seq", "square",
                         "--c1", str(C1_NEAR_A_TIE), "--j-max", "1", "--horizon", "10000")
    assert code == 2 and out == ""
    assert err == "error: could not separate log(p) from c1*m at 200 digits (m=49)\n"


def test_threshold_past_a_long_horizon_is_refused_fast(capsys):
    # at c1 = 10^-7 run 10^6 + 1, the first past the horizon, still holds
    # a violator; the search reaches it in 21 probes
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "schedule", "--seq", "square", "--c1", "1e-7",
                         "--j-max", "1", "--horizon", "1000000000000")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == ("error: step 1 has its threshold past the horizon 1000000000000, "
                   "which cannot certify it\n")


def test_cover_rejects_threads_below_one(capsys):
    # the flag has no effect, but it keeps its validation
    code, out, err = run(
        capsys, "dim", "cover", "--M", "2", "--s", "0.7", "--levels", "2",
        "--digit-cap", "4", "--threads", "0",
    )
    assert code == 2 and out == ""
    assert err == "error: threads must be an integer >= 1\n"


def test_exit_code_3_on_ambiguity_and_non_convergence(capsys):
    code, _, err = run(capsys, "cf", "expand", "--decimal", "0.7", "--max-digits", "6")
    assert code == 3 and "certain" in err
    code, out, _ = run(capsys, "dim", "critical", "--M", "2", "--s-max", "0.55")
    assert code == 3
    env = json.loads(out)  # still a full envelope, result explains why
    assert env["result"]["converged"] is False
    code, _, err = run(
        capsys, "construct", "schedule", "--seq", "square", "--eps", "1/10",
        "--j-max", "32", "--horizon", "10000",
    )
    assert code == 3 and "horizon" in err


def test_critical_step_limit_exits_3_with_the_bracket(capsys, monkeypatch):
    # the CLI also sets the zeta tolerance to --tol, so a --tol below the
    # working precision (1e-80) is refused as unreachable before the solver
    # starts; a lower step limit reaches the non-convergence path instead
    monkeypatch.setattr("cfdim.dimension._STEP_LIMIT", 3)
    code, out, _ = run(capsys, "dim", "critical", "--M", "1000")
    assert code == 3
    res = json.loads(out)["result"]
    assert res["converged"] is False and "within 3 steps" in res["message"]
    lo, hi = (Fraction(x) for x in res["bracket"])
    assert lo < hi


# the second program lowers the step limit so that the command's own exit code is 3
_PIPE_PROGRAMS = [
    ["-m", "cfdim", "seq", "tau", "--digits-spec", "square"],
    ["-c", "import sys, cfdim.dimension as d, cfdim.cli as c; d._STEP_LIMIT = 3; "
           "sys.exit(c.main(['dim', 'critical', '--M', '1000']))"],
]


@pytest.mark.parametrize("program", _PIPE_PROGRAMS, ids=["seq-tau", "critical-exit-3"])
def test_closed_stdout_exits_quietly_with_the_normal_code(program):
    normal = subprocess.run([sys.executable] + program, capture_output=True, env=child_env(),
                            timeout=120)
    assert normal.stdout and normal.returncode in (0, 3)
    # stdout is a pipe whose reader is already gone, as after `| head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run([sys.executable] + program, stdout=write_end,
                                stderr=subprocess.PIPE, env=child_env(), timeout=120)
    finally:
        os.close(write_end)
    err = closed.stderr.decode()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert closed.returncode == normal.returncode


def test_exit_code_4_on_resource_caps(capsys):
    code, _, err = run(
        capsys, "dim", "cover", "--M", "2", "--s", "1", "--levels", "4",
        "--digit-cap", "5",
    )
    assert code == 4 and "cap" in err


def test_exact_power_past_the_budget_exits_4_with_one_error_line(capsys):
    # step 1's tie between powers of two is decided from the exponents; the
    # weight tie of step 2 at eps = 1e-12 would form 3^(47 * 2 * 10^12)
    code, out, err = run(
        capsys, "construct", "schedule", "--seq", "pow:2", "--eps", "1/1000000000000",
        "--j-max", "2", "--horizon", "100000000000000000000",
    )
    assert code == 4 and out == "" and "Traceback" not in err
    assert err.startswith("error: eps = 1/1000000000000 ") and err.count("\n") == 1


def test_threshold_probe_forms_no_power_and_exits_3_past_the_horizon(capsys):
    # on square the search probes run k ~ 10^10 with k*log(2); forming 2^k
    # was refused with exit 4, but the threshold simply lies past 10^20
    code, out, err = run(
        capsys, "construct", "schedule", "--seq", "square", "--eps", "1/1000000000000",
        "--j-max", "2", "--horizon", "100000000000000000000",
    )
    assert code == 3 and out == ""
    assert err == ("error: step 1 has its threshold past the horizon 100000000000000000000, "
                   "which cannot certify it\n")


def test_holder_nominal_onset_of_a_progression_reads_three_runs(capsys, tmp_path):
    # the last violator of the onset condition on arith:1,5 at eps 10^-9
    # ends run 666,666,669; walking every run to it did not finish in 30 s
    path = tmp_path / "pairs.txt"
    path.write_text("2,3;2,4\n")
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "construct", "holder", "--seq", "arith:1,5", "--eps", "1/1000000000",
        "--M", "5", "--pairs-file", str(path),
    )
    assert code == 0 and time.perf_counter() - start < 3
    res = json.loads(out)["result"]
    assert res["skipped"] == 1 and res["pairs"][0]["reason"] == "below onset (need 3333333342)"


def test_density_of_square_reads_four_runs(capsys):
    # the least ratio ends run 10^9 - 1, one before the run of the horizon
    start = time.perf_counter()
    code, out, _ = run(capsys, "seq", "density", "--spec", "square", "--horizon", str(10 ** 18))
    assert code == 0 and time.perf_counter() - start < 1
    res = json.loads(out)["result"]
    assert (res["lower_est"], res["upper_est"]) == ("1/1000000001", "707106781/500000000000000000")


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("cmd, ones", [("eval", 20000), ("eval", 25000),
                                       ("cylinder", 25000), ("convergents", 25000)])
def test_result_past_the_int_string_limit_exits_4_in_every_format(capsys, cmd, ones, fmt):
    # q of n ones has about 0.209 n digits: 4,180 at 20,000 still print, and
    # 5,225 at 25,000 pass the 4,300 that str() allows
    code, out, err = run(capsys, "cf", cmd, "--word", ",".join(["1"] * ones),
                         "--format", fmt)
    if ones == 20000:
        assert code == 0 and out and err == ""
    else:
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_csv_format_is_parsable(capsys):
    _, out, _ = run(capsys, "cf", "cylinder", "--word", "1,2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["field", "value"]
    table = {k: v for k, v in rows[1:]}
    assert table["result.length"] == "1/12"
    assert table["command"] == "cf cylinder"


def test_table_format_aligns_key_value(capsys):
    _, out, _ = run(capsys, "seq", "count", "--spec", "square", "--n", "100", "--format", "table")
    lines = out.splitlines()
    assert any(line.startswith("result.count") and line.endswith("10") for line in lines)


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_a_list_of_records_flattens_to_indexed_fields(capsys, fmt):
    code, out, _ = run(capsys, "cf", "convergents", "--word", "2,1,4", "--format", fmt)
    assert code == 0
    if fmt == "csv":
        fields = dict(list(csv.reader(io.StringIO(out)))[1:])
    else:
        fields = {k: v.strip() for k, _, v in (line.partition("  ") for line in out.splitlines())}
    assert [fields["result.convergents[%d].%s" % (i, name)]
            for i in range(3) for name in ("k", "digit", "q")] \
        == ["1", "2", "2", "2", "1", "3", "3", "4", "14"]


@pytest.mark.parametrize("argv, message", [
    (["dim", "cover", "--M", "2", "--s", "0", "--levels", "1", "--digit-cap", "3"],
     "exponent s must be positive"),
    (["cf", "expand", "--decimal", "0.0"],
     "value together with its half-ulp uncertainty must stay inside (0,1)"),
], ids=["cover-s-0", "expand-0.0"])
def test_a_value_on_the_edge_of_its_domain_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("command, extra", [
    ("verify-size", ["--word", ",".join(["1"] * 40)]),
    ("holder", ["--M", "5", "--sample", "3", "--seed", "1"]),
])
def test_size_and_holder_checks_take_eps_from_the_schedule(capsys, tmp_path, command, extra):
    # without --eps, a schedule file's eps is used and a c1 schedule is refused
    path = tmp_path / "sched.json"
    _, out, _ = run(capsys, "construct", "schedule", "--seq", "square", "--eps", "1/10",
                    "--j-max", "30", "--horizon", "10000")
    path.write_text(json.dumps(json.loads(out)["result"]))
    code, out, _ = run(capsys, "construct", command, "--seq", "square", "--schedule", str(path),
                       *extra)
    assert code == 0 and "eps" not in json.loads(out)["inputs"]
    argv = ["construct", command, "--seq", "square", "--c1", "1/30", "--j-max", "4",
            "--horizon", "10000", *extra]
    assert run(capsys, *argv) == (2, "", "error: --eps is required when no schedule carries one\n")


def test_schedule_subcommand_emits_exact_schema(capsys):
    _, out, _ = run(
        capsys, "construct", "schedule", "--seq", "square", "--eps", "1/10",
        "--j-max", "1", "--horizon", "10000",
    )
    res = json.loads(out)["result"]
    assert sorted(res) == ["N", "c1", "eps", "horizon", "n"]
    assert res["N"] == [379] and res["n"] == [20] and res["eps"] == "1/10"


def test_schedule_onset_flag_wraps_schedule(capsys):
    _, out, _ = run(
        capsys, "construct", "schedule", "--seq", "square", "--eps", "1/10",
        "--j-max", "30", "--horizon", "10000", "--onset",
    )
    res = json.loads(out)["result"]
    assert res["onset"] == 380 and res["checked_to"] == 10000
    assert res["schedule"]["n"][-1] == 100


def test_schedule_file_feeds_downstream_commands(capsys, tmp_path):
    _, out, _ = run(
        capsys, "construct", "schedule", "--seq", "square", "--eps", "1/10",
        "--j-max", "30", "--horizon", "10000",
    )
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(json.loads(out)["result"]))
    code, out, _ = run(
        capsys, "construct", "point", "--seq", "square", "--schedule", str(path),
        "--M", "3", "--depth", "12",
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["digits"] == [1] * 12
    assert res["value"] == "144/233"
    code, out, _ = run(
        capsys, "construct", "verify-size", "--seq", "square", "--schedule", str(path),
        "--eps", "1/10", "--word", ",".join(["1"] * 111),
    )
    assert code == 0 and json.loads(out)["result"]["ok"] is True


def test_mutually_exclusive_flag_groups(capsys, tmp_path):
    # each pair is declared with _one_of, so argparse refuses neither and both
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1,2;1,3\n")
    for base, first, second in [
        (["cf", "delete", "--word", "1,2,3"], ["--positions", "1"], ["--seq", "even"]),
        (["construct", "holder", "--seq", "square", "--eps", "1/10", "--M", "5"],
         ["--pairs-file", str(pairs)], ["--sample", "2"]),
        (["hirst", "m0", "--digits-spec", "all", "--seq", "even", "--eps", "1/5"],
         ["--M", "100"], ["--estimate"]),
    ]:
        for argv, message in [
            (base, "one of the arguments %s %s is required" % (first[0], second[0])),
            (base + first + second,
             "argument %s: not allowed with argument %s" % (second[0], first[0])),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out = capsys.readouterr()
            assert out.out == "" and "error: %s\n" % message in out.err
        assert run(capsys, *base, *first)[0] == 0


@pytest.mark.parametrize("flag", [["--estimate"], ["--M", "100"]], ids=["estimate", "M"])
def test_hirst_m0_refuses_a_digit_set_with_tau_zero(capsys, flag):
    # pow:2 is the one digit rule with tau = 0 on an infinite set
    code, out, err = run(capsys, "hirst", "m0", "--digits-spec", "pow:2", "--seq", "even",
                         "--eps", "1/5", *flag)
    assert (code, out) == (2, "")
    assert err == "error: tau = 0 on an infinite digit set makes the full sum diverge\n"


@pytest.mark.parametrize("extra", [[], ["--j-max", "3"], ["--horizon", "2000"]],
                         ids=["neither", "j-max-only", "horizon-only"])
def test_point_needs_a_schedule_or_the_flags_that_choose_one(capsys, extra):
    code, out, err = run(capsys, "construct", "point", "--seq", "square", "--eps", "1/10",
                         "--M", "3", "--depth", "12", *extra)
    assert (code, out) == (2, "")
    assert err == ("error: give --schedule FILE, or --j-max and --horizon with --eps/--c1 "
                   "to construct one\n")


def test_schedule_refuses_an_explicit_list(capsys, tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("1\n4\n9\n")
    code, out, err = run(capsys, "construct", "schedule", "--seq", "file:%s" % path,
                         "--eps", "1/10", "--j-max", "1", "--horizon", "100")
    assert (code, out) == (2, "")
    assert err == ("error: an explicit finite list cannot certify zero density; "
                   "use a rule-based sequence (square, pow:b)\n")


def test_holder_pairs_file(capsys, tmp_path):
    # the shared prefix ends at 36 so the pair differs at the free
    # position 37 (36 itself is constrained for the square sequence)
    prefix = ",".join(["1"] * 36)
    path = tmp_path / "pairs.txt"
    path.write_text("%s,2,5;%s,3,5\n" % (prefix, prefix))
    code, out, _ = run(
        capsys, "construct", "holder", "--seq", "square", "--eps", "1/10",
        "--M", "5", "--pairs-file", str(path),
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["checked"] == 1 and res["passed"] == 1 and res["skipped"] == 0


def test_pairs_file_skips_blank_lines_and_refuses_a_line_without_a_semicolon(capsys, tmp_path):
    prefix = ",".join(["1"] * 36)
    pair = "%s,2,5;%s,3,5" % (prefix, prefix)
    path = tmp_path / "pairs.txt"
    argv = ["construct", "holder", "--seq", "square", "--eps", "1/10", "--M", "5",
            "--pairs-file", str(path)]
    path.write_text("\n%s\n  \n" % pair)
    code, out, _ = run(capsys, *argv)
    result = json.loads(out)["result"]
    assert (code, len(result["pairs"]), result["passed"]) == (0, 1, 1)
    path.write_text("%s\n\n1,2,3\n" % pair)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: line 3 of %s: expected 'word;word'\n" % path


def test_warnings_surface_in_envelope(capsys, tmp_path):
    path = tmp_path / "digits.txt"
    path.write_text("1\n2\n3\n")
    _, out, _ = run(capsys, "seq", "tau", "--digits-spec", "file:%s" % path)
    env = json.loads(out)
    assert env["warnings"] and env["result"]["tau"] == "0"
    _, out, _ = run(
        capsys, "hirst", "m0", "--digits-spec", "all", "--seq", "even",
        "--eps", "9/20", "--estimate",
    )
    env = json.loads(out)
    assert env["result"]["exceeded"] is True
    assert any("10^18" in w for w in env["warnings"])


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_leaf_command_is_in_the_cli_matrix():
    # criterion_09 pins the bytes only of the commands the matrix runs
    leaves = {
        (group, cmd)
        for group, sub in _subcommands(build_parser()).items()
        for cmd in _subcommands(sub)
    }
    assert leaves == {tuple(argv[:2]) for argv in CLI_MATRIX}


def test_every_command_prints_its_committed_output():
    # the rows of golden_cli.jsonl, each run in this process; a change
    # that moves an output on purpose rewrites the table (see golden_cli)
    rows = golden_cli.read_rows()
    assert all(argv in [row["argv"] for row in rows] for argv in CLI_MATRIX)
    assert {2, 3, 4} <= {row["exit"] for row in rows}
    differ = [row["argv"] for row in rows if golden_cli.run(row["argv"]) != row]
    assert differ == []


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["hirst", "product", "--level", "1", "--base-level", "0", "--s", "1",
          "--M", "2", "--seq", "even", "--digits-spec", "all"],
         ["digits-spec", "seq", "M", "s", "base-level", "level", "prefix"]),
        (["construct", "point", "--depth", "12", "--M", "3", "--horizon", "10000",
          "--j-max", "30", "--eps", "1/10", "--seq", "square"],
         ["seq", "eps", "j-max", "horizon", "M", "depth", "filler"]),
    ],
    ids=["hirst-product", "construct-point"],
)
def test_inputs_echo_in_flag_declaration_order(capsys, argv, keys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    inputs = json.loads(out, object_pairs_hook=list)[1][1]
    assert [k for k, _ in inputs] == keys


def _floats(v):
    if isinstance(v, float):
        yield v
    elif hasattr(v, "_asdict"):
        yield from _floats(v._asdict())
    elif isinstance(v, dict):
        for x in v.values():
            yield from _floats(x)
    elif isinstance(v, (list, tuple)):
        for x in v:
            yield from _floats(x)


@pytest.mark.parametrize("argv", CLI_MATRIX, ids=[" ".join(a[:2]) for a in CLI_MATRIX])
def test_matrix_handlers_return_no_float(argv):
    # every real is an exact rational or an mpf, so the serialiser has no
    # float branch to reach
    args = build_parser(argv[0]).parse_args(argv)
    assert list(_floats(args.command.run(args))) == []


@pytest.mark.parametrize("argv", [
    ["seq", "tau", "--digits-spec", "square"],
    ["hirst", "dim", "--digits-spec", "square"],
    ["hirst", "m0", "--digits-spec", "all", "--seq", "even", "--eps", "1/5", "--M", "100"],
    ["hirst", "product", "--digits-spec", "all", "--seq", "even", "--M", "2",
     "--s", "1", "--base-level", "0", "--level", "1"],
], ids=["seq-tau", "hirst-dim", "hirst-m0", "hirst-product"])
def test_assume_infinite_is_a_usage_error(capsys, argv):
    # the digit-set flags hold only --digits-spec: a file: list is a finite set
    assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--assume-infinite"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --assume-infinite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["zeta", "value", "--z", "2"],
    ["zeta", "tail", "--start", "10", "--z", "2.4"],
    ["dim", "factor", "--M", "5", "--s", "0.75"],
    ["dim", "critical", "--M", "100"],
    ["dim", "asymptotic", "--M", "100"],
    ["dim", "reference", "--M", "100"],
    ["dim", "cover", "--M", "2", "--s", "0.7", "--levels", "1", "--digit-cap", "5"],
    ["hirst", "m0", "--digits-spec", "all", "--seq", "even", "--eps", "1/5", "--M", "100"],
    ["hirst", "product", "--digits-spec", "all", "--seq", "even", "--M", "2",
     "--s", "0.8", "--base-level", "0", "--level", "1"],
], ids=lambda argv: "-".join(argv[:2]))
def test_dps_is_a_usage_error(capsys, argv):
    # the command line computes every real at 50 digits; only the library's
    # PrecisionContext takes more
    assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--dps", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dps 100" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # inf and nan are outside the number grammar
    (["dim", "critical", "--M", "1000", "--tol", "inf"], "--tol is not a rational: 'inf'"),
    # nearest_float reads 1e400 as inf, as float() does
    (["dim", "critical", "--M", "1000", "--tol", "1e400"],
     "target_abs_tol must be finite, got inf"),
    (["zeta", "value", "--z", "2", "--tol", "inf"], "--tol is not a rational: 'inf'"),
    (["dim", "critical", "--M", "1000", "--tol", "0"], "target_abs_tol must be positive"),
    (["dim", "critical", "--M", "1000", "--tol", "nan"], "--tol is not a rational: 'nan'"),
    (["zeta", "value", "--z", "2", "--tol=-1e-12"], "target_abs_tol must be positive"),
], ids=["critical-inf", "critical-1e400", "zeta-inf", "critical-zero", "critical-nan",
        "zeta-negative"])
def test_tol_must_be_positive_and_finite(capsys, argv, message):
    # an infinite tolerance would accept a critical solve's first interpolant
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cf", "nonsense"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    from cfdim import __version__

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
