"""The integer rule and the input readers in cfdim.errors, and the guards that keep them and
as_real the only spellings."""

import ast
import math
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfdim.errors import (
    DomainError, exact_positive_fraction, int_at_least, is_int, match_number, quoted,
    nearest_float, read_fraction, read_int, read_ints, read_lines,
)
from cfdim.special import as_real, kept_context

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


def test_read_int_takes_ascii_digits_with_blanks_stripped():
    assert read_int("42", "n") == 42 and read_int(" 007\t\n", "n") == 7
    assert read_int("9" * 4300, "n") == 10 ** 4300 - 1
    for bad in ("", " ", "+2", "-1", "1_0", "1.0", "0x10", "\u0661", "\u00b2", "1 2"):
        with pytest.raises(DomainError, match="^n must be written in decimal digits, got "):
            read_int(bad, "n")
    with pytest.raises(DomainError, match="^n has 4301 digits, more than the 4300 an integer"):
        read_int(" " + "9" * 4301, "n")


def test_read_ints_reads_a_comma_separated_list():
    assert read_ints(" 2, 1 ,4 ", "a digit") == (2, 1, 4)
    assert read_ints("", "a digit") == () and read_ints("  ", "a digit") == ()
    for bad in ("2,,1", "2,", ",2", "2;1"):
        with pytest.raises(DomainError, match="^a digit must be written in decimal digits"):
            read_ints(bad, "a digit")


def test_a_refusal_quotes_at_most_40_characters():
    assert quoted("abc") == "'abc'" and quoted((1, 0)) == "(1, 0)"
    assert quoted("x" * 38) == "'%s'" % ("x" * 38)
    assert quoted("x" * 39) == "'%s..." % ("x" * 36)
    for bad in ("x" * 5000, "1/" + "x" * 5000):
        with pytest.raises(DomainError) as exc:
            read_int(bad, "n")
        assert len(str(exc.value)) < 100
        with pytest.raises(DomainError) as exc:
            exact_positive_fraction(bad, "eps")
        assert str(exc.value) == "eps is not a rational: %s" % quoted(bad)


# numbers typed as text: inside the grammar, a sign, then p/q or digits with
# an optional point and exponent, between blanks; outside it, each of these
# with a character the grammar has no place for, or a missing part
_SIGN = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=8)
_MANTISSA = st.one_of(
    _DIGITS,
    st.builds("{}.{}".format, _DIGITS, st.text("0123456789", max_size=8)),
    st.builds(".{}".format, _DIGITS),
)
_EXPONENT = st.one_of(st.just(""), st.builds(
    "{}{}{}".format, st.sampled_from("eE"), _SIGN,
    st.one_of(st.integers(0, 400), st.integers(4000, 10 ** 8))))
_BLANKS = st.sampled_from(["", " ", "\t", " \n"])
_CORE = st.one_of(st.builds("{}{}/{}".format, _SIGN, _DIGITS, _DIGITS),
                  st.builds("{}{}{}".format, _SIGN, _MANTISSA, _EXPONENT))
NUMBER_TEXT = st.builds("{}{}{}".format, _BLANKS, _CORE, _BLANKS)
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
NOT_NUMBER_TEXT = st.one_of(
    # a suffix: the long suffix mpmath takes, an imaginary unit, an underscore
    st.builds("{}{}".format, _CORE, st.sampled_from(["L", "j", "_0", "e", "e+", "/", "x", "%"])),
    st.builds(lambda t: t.replace("1", "1_1"), _CORE.filter(lambda t: "1" in t)),
    st.builds(lambda t: t.translate(_ARABIC_INDIC), _CORE),
    st.sampled_from(["", " ", ".", "+", "-", "e5", "inf", "-inf", "nan", "0x10", "1/2/3", "1.5/2",
                     "1/-2", "1e5/2", "1 2", "\u00bd", "\u00b2", "\uff11", "7" * 5000 + "L"]),
)


def test_one_grammar_for_a_number_typed_as_text():
    for text in ("7", " -3/4\t", "+0.5", "5.", ".5", "1e-3", "2.5E+7", "0/1", "1/0"):
        assert match_number(text), text
    for text in ("", ".", "e5", "1e", "1/", "/2", "1/-2", "1.5/2", "0x10", "1_0", "inf", "nan",
                 "0.75L", "1j", "\u0662.\u0665", "\u0661/\u0661\u0660", "1 2", "--1"):
        assert match_number(text) is None, text


@settings(max_examples=300)
@given(NUMBER_TEXT)
def test_text_in_the_grammar_reads_as_fraction_float_and_mpmath_read_it(text):
    # the readers change no value: Fraction, float() and mpmath are the oracles
    exponent = match_number(text)[1]
    if exponent and abs(int(exponent)) >= 4300:
        with pytest.raises(DomainError, match="an exponent past the 4300 digits"):
            read_fraction(text, "t")
        return
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        want = None
    if want is None:
        with pytest.raises(DomainError, match="^t is not a rational: "):
            read_fraction(text, "t")
    else:
        assert read_fraction(text, "t") == want
        # float() reads no p/q, whose nearest float int division gives
        assert nearest_float(want) == (want.numerator / want.denominator if "/" in text
                                       else float(text))
        with mpmath.mp.workdps(50):
            try:
                real = mpmath.mpf(text)
            except ValueError:  # mpmath misreads a few zeros, such as ".0"
                with pytest.raises(DomainError, match="^cannot interpret "):
                    as_real(text, "value", kept_context(50))
            else:
                assert as_real(text, "value", kept_context(50)) == real
        if want > 0:
            assert exact_positive_fraction(text, "t") == want


@settings(max_examples=200)
@given(NOT_NUMBER_TEXT)
def test_text_outside_the_grammar_is_refused_by_every_reader(text):
    assert match_number(text) is None
    with pytest.raises(DomainError, match="^t is not a rational: "):
        read_fraction(text, "t")
    with pytest.raises(DomainError, match="^t is not a rational: "):
        exact_positive_fraction(text, "t")
    with pytest.raises(DomainError, match="^cannot interpret .* as a real t$"):
        as_real(text, "t", kept_context(50))


def test_an_exponent_past_the_int_string_limit_is_refused_before_its_power_is_built():
    # Fraction("1e-10000000") builds 10^(10^7) first, about 10 s
    start = time.perf_counter()
    for text in ("1e-10000000", "1e10000000", "-1e5000", "1e4300", "1e-4300", "1e" + "9" * 4300):
        with pytest.raises(DomainError, match="^eps has an exponent past the 4300 digits an "
                                              "integer is read from: "):
            exact_positive_fraction(text, "eps")
    assert time.perf_counter() - start < 1
    with pytest.raises(DomainError, match="^the exponent of eps has 4301 digits, more than the "
                                          "4300 an integer is read from"):
        exact_positive_fraction("1e" + "9" * 4301, "eps")
    assert read_fraction("1e4299", "eps") == 10 ** 4299
    assert read_fraction("1e-4299", "eps") == Fraction(1, 10 ** 4299)
    assert read_fraction("0.5e4299", "eps") == 5 * 10 ** 4298
    # mpmath has no such limit, so as_real reads the text and its cap decides
    with mpmath.mp.workdps(50):
        assert as_real("1e-10000000", "value", kept_context(50)) == mpmath.mpf("1e-10000000")


def test_nearest_float_rounds_as_float_does_and_overflows_to_inf():
    assert nearest_float(Fraction(1, 3)) == 1 / 3
    assert nearest_float(read_fraction("1e-12", "tol")) == 1e-12
    assert nearest_float(10 ** 400) == math.inf
    assert nearest_float(Fraction(-10 ** 400, 3)) == -math.inf
    assert nearest_float(Fraction(1, 10 ** 400)) == 0.0


def test_read_lines_streams_a_file_and_refuses_what_it_cannot_read(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("1\n\n2")
    assert list(read_lines(str(path), "a list")) == ["1\n", "\n", "2"]
    lines = read_lines(str(path), "a list")  # lines arrive one at a time
    assert next(lines) == "1\n"
    lines.close()
    with pytest.raises(DomainError, match="^cannot read a list '.*absent': No such file"):
        list(read_lines(str(tmp_path / "absent"), "a list"))
    with pytest.raises(DomainError, match="^cannot read a list '.*': Is a directory"):
        list(read_lines(str(tmp_path), "a list"))
    (tmp_path / "bin").write_bytes(b"1\n\xff\xfe\n")
    with pytest.raises(DomainError, match="^a list '.*bin' is not text"):
        list(read_lines(str(tmp_path / "bin"), "a list"))


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


def _attribute_reads(source, names):
    # (innermost enclosing function or None, line) of each <expr>.<name> read, name in names
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr in names:
            yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)
    return list(visit(ast.parse(source), None))


def _doubling_loops(source):
    # (innermost enclosing function or None, line) of each while loop whose
    # body doubles a value: x *= 2, a shift left, or a product with 2
    def doubles(node):
        if isinstance(node, ast.AugAssign):
            node = ast.BinOp(node.target, node.op, node.value)
        return isinstance(node, ast.BinOp) and (isinstance(node.op, ast.LShift) or (
            isinstance(node.op, ast.Mult) and any(
                isinstance(side, ast.Constant) and side.value == 2
                for side in (node.left, node.right))))

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.While) and any(
                doubles(sub) for stmt in node.body for sub in ast.walk(stmt)):
            yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)
    return list(visit(ast.parse(source), None))


def _calls(source, name, nargs=None):
    # (innermost enclosing function or None, line) of each call of the bare name
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name
                and (nargs is None or len(node.args) + len(node.keywords) == nargs)):
            yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)
    return list(visit(ast.parse(source), None))


def _offenders(name, nargs, allowed):
    return ["%s:%d %s" % (p.name, line, func)
            for p in sorted(_SRC.glob("*.py"))
            for func, line in _calls(p.read_text(), name, nargs)
            if (p.name, func) not in allowed]


def test_construction_reads_no_rule_and_gallops_in_one_place():
    # construction works from exact_density, count, nth and runs, so a new
    # rule needs no construction code; its searches share _last_holding
    assert _attribute_reads("def f(s):\n    return s.kind\ng.params[0]\nh.values\n",
                            {"kind", "params"}) == [("f", 2), (None, 3)]
    assert _doubling_loops(
        "def f(n):\n    while n:\n        n *= 2\nwhile m:\n    m = min(2 * m, c)\n"
        "while k:\n    k <<= 1\nwhile i:\n    i = (i + j) // 2\nwhile n * 2:\n    n += 1\n"
    ) == [("f", 2), (None, 4), (None, 6)]
    source = (_SRC / "construction.py").read_text()
    assert _attribute_reads(source, {"kind", "params"}) == []
    assert sorted(func for func, _ in _calls(source, "_last_holding")) \
        == ["_nominal_onset", "choose_schedule", "sample_holder_pairs"]
    assert [func for func, _ in _doubling_loops(source)] == ["_last_holding"]
    # the nominal onset searches instead of reading window ends, which only
    # density does
    assert [(p.name, func) for p in sorted(_SRC.glob("*.py"))
            for func, _ in _attribute_reads(p.read_text(), {"end_runs"})] \
        == [("sequences.py", "density")]


def _names_imported_from(source, module):
    # the names of each "from .<module> import ..." in the source, and of
    # each "<module>.name" read through the sibling module itself
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            names += [alias.name for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == module):
            names.append(node.attr)
    return names


def test_only_sequences_reads_a_rule():
    # hirst sums a digit set from tau and its members, and construction
    # works from the counting functions, so a new rule touches sequences alone
    assert _names_imported_from(
        "from .sequences import _a, b\nfrom .special import _c\n"
        "def f():\n    from .sequences import d\nfrom sequences import e\n"
        "g = sequences._g(special._h)\n", "sequences"
    ) == ["_a", "b", "d", "_g"]
    offenders = ["%s:%d %s" % (p.name, line, func)
                 for p in sorted(_SRC.glob("*.py")) if p.name != "sequences.py"
                 for func, line in _attribute_reads(p.read_text(), {"kind", "params"})]
    assert offenders == [], "ask a sequence or digit set, not its rule"
    names = _names_imported_from((_SRC / "hirst.py").read_text(), "sequences")
    assert "tau" in names and [n for n in names if n.startswith("_")] == []


def test_one_continuant_kernel_serves_every_layer():
    # cfcore walks the recurrence for (q_n, q_{n-1}) in _denominators and
    # lists every row only in convergents; the other layers take the kernel
    # and the slicing deletion, no other private cfcore name
    assert _names_imported_from(
        "from .cfcore import _a, b\nfrom . import cfcore\n"
        "def f(w):\n    return cfcore._c(w), x.cfcore._d\n", "cfcore"
    ) == ["_a", "b", "_c"]
    source = (_SRC / "cfcore.py").read_text()
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert {"_denominators", "_without", "convergents"} <= defined
    assert not {"_final_row", "_convergent_rows"} & defined
    offenders = ["%s %s" % (p.name, name) for p in sorted(_SRC.glob("*.py"))
                 if p.name != "cfcore.py"
                 for name in _names_imported_from(p.read_text(), "cfcore")
                 if name.startswith("_") and name not in {"_denominators", "_without"}]
    assert offenders == [], "take continuants from cfcore._denominators"


def _identifiers(source):
    # every name the source defines, imports, reads or reads as an attribute
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_one_power_kernel_and_one_exact_sum_serve_every_power_sum():
    # the zeta head and the covering sum are both special's _power_sum,
    # which takes k^(-z) from _wide_neg_power alone and adds the pairs
    # exactly into one integer, rounded once, at every exponent: no rounded
    # kernel, no second accumulator, no mpf_sum, and no power, accumulator
    # or integer-s branch in dimension
    assert _identifiers("from m import a as b, c\ndef f(x):\n    return x.d(e)\n") \
        == {"b", "c", "f", "x", "d", "e"}
    sources = {p.name: _identifiers(p.read_text()) for p in sorted(_SRC.glob("*.py"))}
    assert {"_power_sum", "_wide_neg_power"} <= sources["special.py"]
    assert not {"_neg_power", "_head"} & sources["special.py"]
    assert not {"_wide_neg_power", "_CUTOFF_CAP", "mpf_pow", "from_int", "from_man_exp"} \
        & sources["dimension.py"]
    rounds = [node.lineno for node in ast.walk(ast.parse((_SRC / "special.py").read_text()))
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "from_man_exp"]
    assert len(rounds) == 1, rounds
    assert [name for name, ids in sources.items() if "mpf_sum" in ids] == []
    assert "isint" not in sources["dimension.py"]


def test_only_dimension_reads_the_private_names_of_special():
    # special sets up every series in _series_from; dimension takes the
    # series and the exact power sum, and no set-up of its own
    assert _names_imported_from(
        "from .special import _a, b\nfrom . import special\n"
        "def f(z):\n    return special._c(z), x.special._d\n", "special"
    ) == ["_a", "b", "_c"]
    private = {p.name: sorted(n for n in _names_imported_from(p.read_text(), "special")
                              if n.startswith("_"))
               for p in sorted(_SRC.glob("*.py")) if p.name != "special.py"}
    assert {name: names for name, names in private.items() if names} \
        == {"dimension.py": ["_power_sum", "_series_from"]}


def test_only_read_lines_opens_a_file():
    assert _calls("def f(p):\n    with open(p) as fh:\n        pass\nopen(q, 'w')\n", "open") \
        == [("f", 2), (None, 4)]
    assert _calls("fh.open(p)\nos.open(p, 0)\n", "open") == []
    assert [func for func, _ in _calls((_SRC / "errors.py").read_text(), "open")] \
        == ["read_lines"]
    assert _offenders("open", None, {("errors.py", "read_lines")}) == [], \
        "read files through cfdim.errors.read_lines"


# int() of an mpmath or Fraction value, never of text
_INT_OF_A_NUMBER = {
    ("construction.py", "end"),  # the closure of _weight_test
    ("hirst.py", "estimate_condition_floor"),
}


def test_only_read_int_turns_text_into_an_int():
    assert _calls("def f(t):\n    return int(t), int(t, 16), int(x=t)\n", "int", 1) \
        == [("f", 2), ("f", 2)]
    assert _calls("isinstance(x, int)\nmath.floor(int)\n", "int", 1) == []
    assert [func for func, _ in _calls((_SRC / "errors.py").read_text(), "int", 1)] \
        == ["read_int"]
    offenders = _offenders("int", 1, _INT_OF_A_NUMBER | {("errors.py", "read_int")})
    assert offenders == [], "read integers typed as text through cfdim.errors.read_int"


def _text_conversions(source):
    # (innermost enclosing function or None, line) of each one-argument
    # Fraction() or float() call whose argument is neither an int literal
    # nor arithmetic: the calls that could turn text into a number
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("Fraction", "float")
                and len(node.args) == 1 and not node.keywords):
            arg = node.args[0]
            if not (isinstance(arg, ast.BinOp)
                    or isinstance(arg, ast.Constant) and is_int(arg.value)):
                yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)
    return list(visit(ast.parse(source), None))


def test_only_errors_turns_text_into_a_fraction_or_a_float():
    assert _text_conversions(
        "def f(t):\n    return Fraction(t), float(t.x), Fraction(p, q)\n"
        "Fraction(1) + Fraction(2 ** 9) + Fraction(9 * m ** 3) + float('1')\n"
    ) == [("f", 2), ("f", 2), (None, 3)]
    assert {func for func, _ in _text_conversions((_SRC / "errors.py").read_text())} \
        == {"read_fraction", "nearest_float", "exact_positive_fraction"}
    # construction's weight test takes the float of eps and c1 through nearest_float too
    offenders = ["%s:%d %s" % (p.name, line, func)
                 for p in sorted(_SRC.glob("*.py")) if p.name != "errors.py"
                 for func, line in _text_conversions(p.read_text())]
    assert offenders == [], "read numbers typed as text through cfdim.errors"


def test_as_real_hands_mpmath_text_only_after_the_grammar_check():
    tree = ast.parse((_SRC / "special.py").read_text())
    (func,) = [n for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and n.name == "as_real"]
    calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
    checks = [n.lineno for n in calls if getattr(n.func, "id", None) == "match_number"]
    reads = [n.lineno for n in calls if getattr(n.func, "attr", None) == "mpf"
             and isinstance(n.args[0], ast.Name) and n.args[0].id == "x"]
    assert checks and reads and max(checks) < min(reads)
    # mpmath alone reads the long suffix, non-ASCII digits and underscores
    for text in ("0.75L", "\u0662.\u0665", "1_0"):
        assert mpmath.mpf(text)
        with pytest.raises(DomainError, match="^cannot interpret .* as a real value$"):
            as_real(text, "value", kept_context(50))


def _precision_state(source):
    # (line, name) of each workdps or workprec, and of each read or write of
    # prec or dps on mpmath's process-wide context, spelled mp or mpmath.mp
    for node in ast.walk(ast.parse(source)):
        names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else \
            [getattr(node, "id", getattr(node, "attr", None))]
        for name in names:
            if name in ("workdps", "workprec"):
                yield node.lineno, name
        if isinstance(node, ast.Attribute) and node.attr in ("prec", "dps"):
            owner = node.value
            if getattr(owner, "id", getattr(owner, "attr", None)) == "mp":
                yield node.lineno, "mp." + node.attr


def test_no_layer_reads_or_sets_the_process_wide_precision():
    # every real is computed on a kept private context: a result depends
    # neither on other threads nor on the caller's mpmath precision
    assert sorted(_precision_state(
        "from mpmath import workprec\nwith mp.workdps(50):\n    p = mp.prec\n"
        "mpmath.mp.dps = 15\nmpc.prec, ctx.dps, x.workdps\n")) \
        == [(1, "workprec"), (2, "workdps"), (3, "mp.prec"), (4, "mp.dps"), (5, "workdps")]
    offenders = ["%s:%d %s" % (p.name, line, name)
                 for p in sorted(_SRC.glob("*.py"))
                 for line, name in _precision_state(p.read_text())]
    assert offenders == [], "compute on special.kept_context instead"
