"""The integer rule in cfdim.errors, and the guards that keep it and as_real the only spellings."""

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


def _mpf_numerator_calls(source):
    # (innermost enclosing function or None, line) of each mpf(<expr>.numerator)
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            arg = node.args[0]
            if name == "mpf" and isinstance(arg, ast.Attribute) and arg.attr == "numerator":
                yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)
    return list(visit(ast.parse(source), None))


def test_only_as_real_converts_a_fraction_to_mpf():
    assert _mpf_numerator_calls("def f(x):\n    return mpf(x.numerator) / x.denominator\n") \
        == [("f", 2)]
    assert _mpf_numerator_calls("y = mp.mpf(c.value.numerator)\nmpf(x) + mpf(x.real)\n") \
        == [(None, 1)]
    special = (_SRC / "special.py").read_text()
    assert [func for func, _ in _mpf_numerator_calls(special)] == ["as_real"]
    offenders = ["%s:%d" % (p.name, line)
                 for p in sorted(_SRC.glob("*.py"))
                 for func, line in _mpf_numerator_calls(p.read_text())
                 if (p.name, func) != ("special.py", "as_real")]
    assert offenders == [], "use cfdim.special.as_real instead"


def _eager_imports(source):
    # (module, line) of imports of mpmath run at import time and of any
    # dataclasses import; an import inside a function runs on demand
    def visit(node, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_function = True
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        for name in names:
            top = name.partition(".")[0]
            if top == "dataclasses" or (top == "mpmath" and not in_function):
                yield top, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, in_function)
    return list(visit(ast.parse(source), False))


def test_no_module_imports_mpmath_eagerly_or_dataclasses_at_all():
    assert _eager_imports(
        "import mpmath\nfrom mpmath import mp\nclass C:\n    from mpmath.libmp import bitcount\n"
        "def f():\n    from mpmath import mpf\n    import dataclasses\n"
    ) == [("mpmath", 1), ("mpmath", 2), ("mpmath", 4), ("dataclasses", 7)]
    assert _eager_imports("def f():\n    import mpmath\nfrom .special import mpmath_ish\n") == []
    offenders = ["%s:%d %s" % (p.name, line, name)
                 for p in sorted(_SRC.glob("*.py"))
                 for name, line in _eager_imports(p.read_text())]
    assert offenders == [], "import mpmath inside the function that computes a real"


def _kind_reads(source):
    # (innermost enclosing function or None, line) of each <expr>.kind read
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == "kind":
            yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)
    return list(visit(ast.parse(source), None))


def test_construction_reads_the_rule_kind_only_in_the_nominal_certificate():
    # every other scan in construction works from count, nth and runs, so
    # a new rule needs no construction code beyond _nominal_cert
    assert _kind_reads("def f(s):\n    return s.kind\ng.kind\n") == [("f", 2), (None, 3)]
    reads = _kind_reads((_SRC / "construction.py").read_text())
    assert reads and {func for func, _ in reads} == {"_nominal_cert"}
