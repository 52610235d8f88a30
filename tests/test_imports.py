"""What a process loads: the eager package import and the lazy command line.

Each check runs in a fresh interpreter, because the test process has
long since imported everything.
"""

import json
import subprocess
import sys

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
    # library callers read the layers out of sys.modules after `import cfdim`
    out = _fresh("-c", "import sys, cfdim; print(sorted(m for m in sys.modules "
                       "if m.startswith('cfdim.')))")
    assert out == [repr(_LAYERS)]


def test_exact_commands_leave_mpmath_unloaded():
    argvs = [
        ["cf", "eval", "--word", "1,2,3"],
        ["seq", "count", "--spec", "pow:2", "--n", "1000"],
        ["hirst", "theorem", "--seq", "even"],
        ["dim", "factor", "--M", "5", "--s", "0.75"],
    ]
    loaded = [json.loads(line) for line in _fresh("-c", _PROBE, json.dumps(argvs))]
    assert loaded == [[], [], [], ["mpmath"]]


def test_star_import_is_the_union_of_the_layers_names():
    # a lazy package init must keep exactly these names
    import importlib

    names = {}
    exec("from cfdim import *", names)
    layers = [importlib.import_module(m) for m in _LAYERS]
    want = [name for layer in layers for name in layer.__all__]
    assert len(want) == len(set(want))
    assert set(names) - {"__builtins__"} == set(want)
