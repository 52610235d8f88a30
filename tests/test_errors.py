"""The integer rule in cfdim.errors, and the guard that keeps it the only spelling."""

import ast
from pathlib import Path

import pytest

from cfdim.errors import DomainError, int_at_least, is_int

_SRC = Path(__file__).resolve().parents[1] / "src" / "cfdim"


def test_is_int_refuses_bool_and_non_integers():
    assert is_int(0) and is_int(-3) and is_int(10 ** 30)
    assert not is_int(True) and not is_int(False)
    assert not is_int(1.0) and not is_int("1") and not is_int(None)


def test_int_at_least_returns_its_argument_or_names_it():
    assert int_at_least(5, "depth") == 5
    assert int_at_least(0, "level", 0) == 0
    for bad, text in ((True, "True"), (0, "0"), (2.0, "2.0"), ("3", "'3'")):
        with pytest.raises(DomainError) as exc:
            int_at_least(bad, "depth")
        assert str(exc.value) == "depth must be an integer >= 1, got %s" % text


def _int_isinstance_lines(source):
    # lines of isinstance(x, int) calls, int alone or inside a tuple of types
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(n, ast.Name) and n.id == "int" for n in names):
                yield node.lineno


def test_only_errors_module_spells_the_integer_check():
    assert list(_int_isinstance_lines("isinstance(x, int)\nisinstance(y, (float, int))\n")) == [1, 2]
    assert list(_int_isinstance_lines("isinstance(x, bool)\nisinstance(y, Fraction)\n")) == []
    paths = sorted(_SRC.glob("*.py"))
    assert _SRC / "errors.py" in paths
    assert list(_int_isinstance_lines((_SRC / "errors.py").read_text()))
    offenders = ["%s:%d" % (p.name, line)
                 for p in paths if p.name != "errors.py"
                 for line in _int_isinstance_lines(p.read_text())]
    assert offenders == [], "use cfdim.errors.is_int / int_at_least instead"
