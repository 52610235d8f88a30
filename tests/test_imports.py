"""What a process loads: the lazy package, each command's layers, and the package names.

The load checks run in a fresh interpreter, because the test process
has long since imported everything.
"""

import json
import pickle
import subprocess
import sys

import pytest

from spawn import child_env

_LAYERS = ["cfdim.cfcore", "cfdim.construction", "cfdim.dimension", "cfdim.errors",
           "cfdim.hirst", "cfdim.sequences", "cfdim.special"]

# cli.main on each argv in turn, printing the heavy modules loaded after each
_PROBE = """
import contextlib, io, json, sys
from cfdim import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    print(json.dumps([m for m in ("mpmath", "dataclasses", "inspect") if m in sys.modules]))
"""


def _fresh(*args):
    proc = subprocess.run([sys.executable] + list(args), capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_cfdim_loads_every_layer_module():
    # library callers read the layers out of sys.modules after `import cfdim`;
    # each entry is there at once, though its code runs on first touch
    out = _fresh("-c", "import sys, cfdim; print(sorted(m for m in sys.modules "
                       "if m.startswith('cfdim.')))")
    assert out == [repr(_LAYERS)]


# a schedule with an explicit c1 prints it as given, so only eps needs mpmath
_C1_SCHEDULE = ["construct", "schedule", "--seq", "square", "--c1", "1/30", "--j-max", "3",
                "--horizon", "10000"]


def test_exact_commands_leave_mpmath_unloaded():
    argvs = [
        ["cf", "eval", "--word", "1,2,3"],
        ["seq", "count", "--spec", "pow:2", "--n", "1000"],
        ["hirst", "theorem", "--seq", "even"],
        _C1_SCHEDULE,
        ["dim", "factor", "--M", "5", "--s", "0.75"],
    ]
    loaded = [json.loads(line) for line in _fresh("-c", _PROBE, json.dumps(argvs))]
    assert loaded == [[], [], [], [], ["mpmath"]]


def test_star_import_is_the_union_of_the_layers_names():
    # a lazy package init must keep exactly these names
    import importlib

    names = {}
    exec("from cfdim import *", names)
    layers = [importlib.import_module(m) for m in _LAYERS]
    want = [name for layer in layers for name in layer.__all__]
    assert len(want) == len(set(want))
    assert set(names) - {"__builtins__"} == set(want)


# the layers whose code has run after `import cfdim`, after `from cfdim import
# cli`, and after cli.main on one argv.  A layer not yet touched is not a plain
# module, and type() reads no attribute of it.
_RAN = """
import contextlib, io, json, sys, types
def ran():
    return sorted(m[6:] for m in %r if type(sys.modules[m]) is types.ModuleType)
import cfdim
assert not hasattr(cfdim, "__wrapped__") and not hasattr(cfdim, "_trace")
print(json.dumps(ran()))
from cfdim import cli
print(json.dumps(ran()))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps(ran()))
""" % _LAYERS


# an argv, and the layers that cli.main runs for it
_LOAD_SETS = [
    (["cf", "eval", "--word", "1,2,3"], ["cfcore", "errors"]),
    (["seq", "count", "--spec", "pow:2", "--n", "1000"], ["errors", "sequences"]),
    (["zeta", "value", "--z", "2.5"], ["errors", "special"]),
    (["dim", "factor", "--M", "5", "--s", "0.75"], ["dimension", "errors", "special"]),
    (["construct", "verify-sep", "--prefix", "2,1", "--M", "3", "--x-tail", "1,2",
      "--y-tail", "2,1"], ["cfcore", "construction", "errors"]),
    (["construct", "point", "--seq", "square", "--eps", "1/10", "--j-max", "30",
      "--horizon", "10000", "--M", "3", "--depth", "12"],
     ["cfcore", "construction", "errors", "sequences"]),
    (_C1_SCHEDULE, ["cfcore", "construction", "errors", "sequences"]),
    (["hirst", "theorem", "--seq", "even"], ["errors", "hirst", "sequences", "special"]),
]


@pytest.mark.parametrize("argv, layers", _LOAD_SETS,
                         ids=[" ".join(argv[:2]) for argv, _ in _LOAD_SETS])
def test_each_command_runs_only_the_layers_it_calls(argv, layers):
    out = [json.loads(line) for line in _fresh("-c", _RAN, json.dumps(argv))]
    assert out == [[], ["errors"], layers]


def test_the_package_serves_each_layers_names():
    import importlib

    import cfdim

    for m in _LAYERS:
        layer = importlib.import_module(m)
        assert getattr(cfdim, m.split(".")[1]) is layer
        for name in layer.__all__:
            assert getattr(cfdim, name) is getattr(layer, name), name
    assert set(cfdim.__all__) <= set(dir(cfdim))
    with pytest.raises(AttributeError) as exc:
        cfdim.no_such_name  # noqa: B018
    assert exc.type is AttributeError
    assert str(exc.value) == "module 'cfdim' has no attribute 'no_such_name'"


def test_records_unpickle_in_an_interpreter_that_imported_no_cfdim():
    from fractions import Fraction

    from cfdim import PrecisionContext, StepSchedule, parse_index_sequence

    records = [PrecisionContext(), parse_index_sequence("square"),
               StepSchedule(Fraction(1, 10), None, [0, 5], [1, 3], 100)]
    out = _fresh("-c", "import pickle, sys\n"
                       "print([m for m in sys.modules if m.startswith('cfdim')])\n"
                       "for r in pickle.loads(bytes.fromhex(sys.argv[1])):\n"
                       "    print(repr(r))", pickle.dumps(records).hex())
    assert out == ["[]"] + [repr(r) for r in records]
