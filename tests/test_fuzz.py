"""Fuzz of the outside input paths: command-line expressions, matrix literals
and JSON documents.

Every input must give an answer or a clean refusal (exit status 2, or
``ParseError`` from ``element_from_json``) in bounded time, with no traceback.
Inputs are built from fragments of the expression and literal grammars, with
exponents, indices and sums far beyond what the kernel can expand densely.
"""

import contextlib
import io
import time

from hypothesis import given, settings, strategies as st

from hecke2d import HeckeElement, ParseError, element_from_json
from hecke2d.cli import main

BUDGET_S = 5.0
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

_big = st.sampled_from([1000, 4097, 100000, 10**9])
_small = st.integers(-3, 3)
# small values and exponents are drawn most often, so that most inputs parse
# and reach the kernel
_index = st.one_of(_small, _small, _small, _big, _big.map(lambda n: -n))
_sheet = st.sampled_from([1, 2, 1, 2, 0, 3])
_exponent = st.one_of(
    st.integers(-3, 4).map(str),
    st.integers(-3, 4).map(str),
    _big.map(str),
    _big.map(lambda n: f"-{n}"),
    st.sampled_from(["m", "-m", "(2*m)", "(-3*m)", "(1000000*m)"]),
)
_bound = st.one_of(_index.map(str), st.sampled_from(["inf", "-inf", "+inf"]))


def _call(name, *args):
    return f"{name}({','.join(str(a) for a in args)})"


_atom = st.one_of(
    st.builds(_call, st.just("chi"), _sheet, _index, _index),
    st.builds(_call, st.just("chi"), _sheet, _index, _small),
    st.builds(_call, st.just("theta"), *[st.sampled_from([-1, 0, 1, 2])] * 2),
    st.sampled_from(["iota", "phi0", "phi1", "phi2", "phi3", "q", "s", "m", "2", "0"]),
    st.one_of(_small, _big).map(str),
    st.sampled_from(["", ")", "(", "^", "*", "@", ",", ".."]),
)


def _strip(a, j, lo, hi, body):
    return f"strip({a},{j},{lo}..{hi}: {body})"


def _extend(inner):
    binary = st.builds(lambda x, op, y: f"{x} {op} {y}", inner, st.sampled_from("+-*/"), inner)
    return st.one_of(
        binary,
        binary,
        st.builds(lambda x, e: f"({x})^{e}", inner, _exponent),
        st.builds(lambda x, e: f"{x}^{e}", inner, _exponent),
        inner.map(lambda x: f"-({x})"),
        st.builds(_strip, _sheet, _small, _bound, _bound, inner),
    )


# an operand that starts with "-" would reach argparse as an option
expressions = st.recursive(_atom, _extend, max_leaves=6).map(lambda x: f" {x}")

# products of powers inside a power, ({x}^{e}*{x}^{f})^{g}: degrees add under
# * and multiply under ^, so no single ^ chain shows the degree.  theta(0,-1)
# is left out: its powers are rays whose polynomials in m grow with the power,
# and (theta(0,-1)^4*theta(0,-1)^4)^2 is within the degree cap but not the budget
_element = st.one_of(
    st.builds(_call, st.just("chi"), st.sampled_from([1, 2]), _small, _small),
    st.sampled_from(["theta(-1,0)", "theta(1,0)", "theta(0,1)"]),
    st.sampled_from(["iota", "phi0", "phi1", "phi2"]),
)
nested_powers = st.builds(
    lambda x, e, f, g: f"({x}^{e}*{x}^{f})^{g}", _element, *[st.integers(0, 12)] * 3
)
# integer literals past the 4300 digits that CPython converts by default
long_integers = st.integers(4301, 5000).map(lambda n: "7" * n + "*chi(1,0,0)")

_literal_factor = st.one_of(
    st.sampled_from(["t1", "t2", "0", "1", "2", "7"]),
    st.builds(
        lambda t, e: f"{t}^{e}",
        st.sampled_from(["t1", "t2"]),
        st.one_of(_small, _big, _big.map(lambda n: -n)).map(str),
    ),
    st.sampled_from(["t3", "q", "(", "^^", "..", ""]),
)
_literal_term = st.builds(
    lambda sign, factors: sign + "*".join(factors),
    st.sampled_from(["", "", "-", "--"]),
    st.lists(_literal_factor, min_size=1, max_size=3),
)
_literal_sum = st.builds(
    lambda op, terms: op.join(terms),
    st.sampled_from([" + ", "-", " - -"]),
    st.lists(_literal_term, min_size=1, max_size=4),
)
_literal_entry = st.one_of(
    _literal_sum, _literal_sum, _literal_sum, _literal_term.map(lambda t: "+".join([t] * 300))
)
_brackets = st.sampled_from([("[", "]"), ("[", "]"), ("", "]"), ("[", ""), ("[[", "]")])
# a leading space keeps a literal that starts with "-" from reaching argparse as an option
literals = st.one_of(
    st.sampled_from(["[[1,1],[t1,1+t1]]", "[[0,t2],[-t2^-1,0]]", "[[t1*t2,0],[0,t1^-1*t2^-1]]"]),
    st.builds(
        lambda br, a, b, c, d: f" {br[0]}[{a},{b}],[{c},{d}]{br[1]}",
        _brackets,
        *[_literal_entry] * 4,
    ),
)

argvs = st.one_of(
    st.builds(lambda x, y: ["mul", x, y], expressions, expressions),
    st.builds(lambda x, y: ["mul", x, y, "--json"], expressions, expressions),
    st.builds(
        lambda x, a, i, j: ["coeff", x, "--at", f"{a},{i},{j}"],
        expressions,
        _sheet,
        _index,
        _index,
    ),
    st.builds(lambda m, q: ["classify", m, "--q", q], literals, st.sampled_from("235")),
    st.builds(
        lambda x: ["coeff", x, "--at", "1,0,0"],
        st.one_of(nested_powers, nested_powers, long_integers),
    ),
)


def run_cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert code != 2 or err.getvalue(), argv
    assert elapsed < BUDGET_S, (argv, elapsed)


@FUZZ
@given(argvs)
def test_cli_expressions_answer_or_refuse_in_bounded_time(argv):
    run_cli(argv)


# -- JSON documents -----------------------------------------------------------

_scalar_text = st.one_of(
    st.sampled_from(["1", "-1", "q - 1", "s", "1 - q^-1", "2/3"]),
    expressions,
    _big.map(lambda e: f"s^{e} + 1"),
    _big.map(lambda e: f"(s + 1)^{e}"),
)
_term = st.fixed_dictionaries(
    {
        "e": st.sampled_from([-2, 0, 2, 4097, -(10**9)]),
        "poly": st.lists(_scalar_text, min_size=1, max_size=2),
    }
)
_bound_value = st.one_of(_index, st.sampled_from(["-inf", "+inf"]))
_strip_doc = st.fixed_dictionaries(
    {"lo": _bound_value, "hi": _bound_value, "terms": st.lists(_term, min_size=1, max_size=2)}
)
_row = st.fixed_dictionaries(
    {"a": _sheet, "j": _small, "strips": st.lists(_strip_doc, min_size=1, max_size=2)}
)
documents = st.fixed_dictionaries({"rows": st.lists(_row, max_size=2)})
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.integers(-(10**12), 10**12),
    st.just([]),
    st.just({}),
)


def _containers(node) -> list:
    out = [node] if node else []
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            out += _containers(child)
    return out


def _mutate(doc: dict, data) -> None:
    """Delete or replace one entry of one object or list in the document."""
    nodes = _containers(doc)
    if not nodes:
        return
    node = data.draw(st.sampled_from(nodes))
    key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    if isinstance(node, dict) and data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(_junk)


@FUZZ
@given(documents, st.integers(0, 2), st.data())
def test_json_documents_answer_or_refuse_in_bounded_time(doc, mutations, data):
    for _ in range(mutations):
        _mutate(doc, data)
    start = time.perf_counter()
    try:
        assert isinstance(element_from_json(doc), HeckeElement)
    except ParseError:
        pass
    assert time.perf_counter() - start < BUDGET_S, doc
