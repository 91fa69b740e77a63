"""Expression language and command-line behavior."""

import functools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hecke2d import chi, cli, element_from_json, iota, mul, mul_basis, phi, theta, zero_element
from hecke2d import text
from hecke2d.cli import ExprError, format_element, main, parse_element
from hecke2d.suites import _atom_pool


def test_parse_scalar_weighted_atom():
    assert parse_element("q*chi(1,0,0)") == iota()
    assert parse_element("iota") == iota()
    assert parse_element("phi2") == phi(2)
    assert parse_element("theta(0,-1)") == theta(0, -1)
    assert parse_element("chi(2,-1,3)") == chi(2, -1, 3)


def test_parse_arithmetic():
    x = parse_element("2*chi(1,1,0) - chi(2,0,1)/q + (q - 1)*chi(1,0,0)")
    assert x.coefficient_at((1, 0), 1) == parse_element("2*chi(1,1,0)").coefficient_at((1, 0), 1)
    assert parse_element("chi(1,0,0) + chi(1,0,0)") == parse_element("2*chi(1,0,0)")
    assert parse_element("-chi(1,0,0)") == chi(1, 0, 0).scale(-1)
    # a factor takes any run of signs
    for signs in ("+-", "-+"):
        assert parse_element(signs + "chi(1,0,0)") == parse_element("-chi(1,0,0)")
    assert parse_element("--chi(1,0,0)") == chi(1, 0, 0)
    assert parse_element("0") == zero_element()


def test_star_binds_tighter_than_sum():
    got = parse_element("chi(1,1,1)*chi(1,0,1) + chi(2,0,2)")
    want = mul(chi(1, 1, 1), chi(1, 0, 1)) + chi(2, 0, 2)
    assert got == want


def test_convolution_and_powers():
    assert parse_element("theta(1,0)*theta(-1,0)") == iota()
    assert parse_element("chi(2,0,0)^2") == mul(chi(2, 0, 0), chi(2, 0, 0))
    # a chain of powers within the cap still answers
    assert parse_element("(chi(1,1,0)^4)^4") == parse_element("chi(1,1,0)^16")
    # so does a product of powers whose degrees add up to the cap
    assert parse_element("theta(-1,0)^8*theta(-1,0)^8") == parse_element("theta(-1,0)^16")


def test_strip_literal():
    got = parse_element("strip(2,-2,1..inf: ((1 - q^-1))*q^m)")
    assert got == mul(phi(2), phi(2))
    assert parse_element("strip(2,-2,1..inf: ((1 - q^-1))*s^(2*m))") == got
    assert parse_element("strip(1,0,0..3: 1)") == sum(
        (chi(1, m, 0) for m in range(1, 4)), chi(1, 0, 0)
    )
    assert parse_element("strip(1,1,-inf..0: m - m)") == zero_element()
    assert parse_element("strip(1,0,0..5: 0)") == zero_element()
    # an m-term divided by a scalar
    assert parse_element("strip(1,0,0..1: m/2)") == parse_element("strip(1,0,0..1: (1/2)*m)")
    # a bound takes a '+', and an exponent in m a '-' with or without parentheses
    assert parse_element("strip(1,0,+1..2: 1)") == parse_element("strip(1,0,1..2: 1)")
    bare, parenthesized, scaled = (
        parse_element(f"strip(1,0,0..2: s^{e})") for e in ("-m", "(-m)", "(-1*m)"))
    assert bare == parenthesized == scaled


def test_parse_errors_carry_position():
    for text, fragment in [
        ("chi(3,0,0)", "sheet must be 1 or 2"),
        ("q", "denotes a scalar"),
        ("chi(1,0,0) + q", "cannot add"),
        ("m", "inside strip"),
        ("chi(1,0,0", "expected"),
        ("theta(2,0)", "theta is defined for"),
        ("chi(1,0,0) @", "unexpected character"),
        ("strip(1,1,0..inf: 1)", "level"),
        ("strip(1,0,0..1: m*chi(1,0,0))", "cannot multiply an element by a term in m"),
        ("chi(1,0,0)/chi(1,0,0)", "division is only defined by a scalar"),
        ("strip(1,0,0..1: q^(2*q))", "expected 'm' after '*'"),
        ("strip(1,0,0..1: m^0)", "must be positive"),
        ("strip(1,0,0..1: (q+1)^m)", "bare q or s"),
        ("strip(1,0,x..1: 1)", "expected an integer or 'inf'"),
        # a zero body gets the range and level-shape checks of the body 1
        ("strip(1,0,5..2: 0)", "empty strip [5, 2] (column 1)"),
        ("strip(1,0,-inf..inf: 0)", "a strip cannot be infinite on both sides (column 1)"),
        ("strip(1,1,0..inf: 0)", "level 1 > 0 row must be bounded above (column 1)"),
        ("strip(1,0,0..inf: m-m)", "level 0 row must have finite support (column 1)"),
    ]:
        with pytest.raises(ExprError) as err:
            parse_element(text)
        assert "column" in str(err.value)
        assert fragment in str(err.value), (text, str(err.value))


_LONG = "7" * 4301
_ERROR_TABLE = [
    # the tokenizer: a bad character or an over-long integer, the first one
    # in the text, comes before any grammar error
    ("element", "chi(1,0,0) @", "unexpected character '@' (column 12)"),
    ("element", "chi(1,0 @", "unexpected character '@' (column 9)"),
    ("element", ") . 2", "unexpected character '.' (column 3)"),
    ("element", "x\u00e9", "unexpected character 'é' (column 2)"),
    ("element", _LONG + "*chi(1,0,0)", "integer literal longer than 4300 digits (column 1)"),
    ("element", ") " + _LONG, "integer literal longer than 4300 digits (column 3)"),
    ("element", "chi(1,0,0) + " + _LONG + " @", "integer literal longer than 4300 digits (column 14)"),
    ("element", "chi(1,0,0) @ " + _LONG, "unexpected character '@' (column 12)"),
    # the grammar
    ("element", "chi(1,0,0) + q", "cannot add a scalar to an element (column 12)"),
    ("element", "strip(1,0,0..1: m*chi(1,0,0))", "cannot multiply an element by a term in m (column 18)"),
    ("element", "chi(1,0,0)/chi(1,0,0)", "division is only defined by a scalar (column 11)"),
    ("element", "chi(1,0,0)/(q-q)", "division by zero scalar (column 11)"),
    ("element", "phi2^17", "degree 17 is above 16 (column 5)"),
    ("element", "phi2^8 * phi2^9", "degree 17 is above 16 (column 8)"),
    ("element", "chi(1,0,0", "expected ')' before end of input (column 10)"),
    ("element", "chi(1,0,0 \u3000 ", "expected ')' before end of input (column 13)"),
    ("element", "chi(1 0,0)", "expected ',', found '0' (column 7)"),
    ("element", "chi(1,0,0) chi(1,0,0)", "unexpected 'chi' after expression (column 12)"),
    ("element", "strip(1,0,0..1: q^(2*q))", "expected 'm' after '*' in an exponent (column 22)"),
    ("element", "q^x", "malformed exponent (column 3)"),
    ("element", "q^", "malformed exponent (column 3)"),
    ("element", "(q-q)^-1*iota", "division by zero scalar (column 6)"),
    ("element", "chi(1,0,0)^-1", "negative powers of elements are not defined (column 11)"),
    ("element", "strip(1,0,0..1: m^0)", "powers of a term in m must be positive (column 18)"),
    ("element", "q^m*iota", "an exponent in m is only allowed inside strip(...) (column 2)"),
    ("element", "strip(1,0,0..1: (q+1)^m)", "an exponent in m must sit on a bare q or s (column 22)"),
    ("element", "chi(1,0,0) +", "unexpected end of input (column 13)"),
    ("element", ")", "unexpected ')' (column 1)"),
    ("element", "m", "'m' is only defined inside strip(...) (column 1)"),
    ("element", "foo", "unknown name 'foo' (column 1)"),
    ("element", "chi(3,0,0)", "sheet must be 1 or 2, got 3 (column 1)"),
    ("element", "iota + theta(2,0)", "theta is defined for (+-1,0) and (0,+-1), got (2, 0) (column 8)"),
    ("element", "chi(x,0,0)", "expected an integer (column 5)"),
    ("element", "strip(1,0,x..1: 1)", "expected an integer or 'inf' (column 11)"),
    ("element", "strip(1,0,0..1: chi(1,0,0))", "a strip body must be scalar in m (column 1)"),
    ("element", "strip(1,0,5..2: 0)", "empty strip [5, 2] (column 1)"),
    ("element", "iota - strip(1,1,0..inf: 1)", "level 1 > 0 row must be bounded above (column 8)"),
    ("element", "q", "expression denotes a scalar, not an element (column 1)"),
    # the strip context: it ends with its strip, and a nested strip restores it
    ("element", "strip(1,0,0..2: strip(1,0,0..1: 1) + m)", "cannot add a scalar to an element (column 36)"),
    ("element", "strip(1,0,0..2: 1) + m", "'m' is only defined inside strip(...) (column 22)"),
    ("element", "strip(1,0,0..2: s^m) + s^m", "an exponent in m is only allowed inside strip(...) (column 25)"),
    # where a sign may stand: no '+' before an integer or an exponent, one sign at most
    ("element", "chi(+1,0,0)", "expected an integer (column 5)"),
    ("element", "strip(1,0,--1..2: 1)", "expected an integer or 'inf' (column 12)"),
    ("element", "strip(1,0,0..2: s^(2*-m))", "expected 'm' after '*' in an exponent (column 22)"),
    ("scalar", "q^+2", "malformed exponent (column 3)"),
    ("scalar", "q^(-)", "malformed exponent (column 5)"),
    ("scalar", "q^(2", "expected ')' before end of input (column 5)"),
    ("scalar", "iota", "expression denotes an element, not a scalar (column 1)"),
    ("scalar", "1/(s-s)", "division by zero scalar (column 2)"),
    ("scalar", "", "unexpected end of input (column 1)"),
    ("scalar", "   ", "unexpected end of input (column 4)"),
    # matrix literals and their entries
    ("matrix", "[[x,0],[0,1]]", "expected an integer, t1 or t2 (column 3)"),
    ("matrix", "[[1,0],[0,1]", "expected ']' before end of input (column 13)"),
    ("matrix", "[[1,0],[0,1]] x", "unexpected 'x' after expression (column 15)"),
    ("matrix", "[(1,0],[0,1]]", "expected '[', found '(' (column 2)"),
    ("matrix", "[[1,0],[0,1 @ 2]]", "unexpected character '@' (column 13)"),
    ("field", "+".join(["1"] * 257), "an entry may have at most 256 terms (column 513)"),
    ("field", "t1^x", "expected an integer (column 4)"),
    ("field", "", "expected an integer, t1 or t2 (column 1)"),
]


@pytest.mark.parametrize("entry,source,message", _ERROR_TABLE, ids=[m for _, _, m in _ERROR_TABLE])
def test_every_parse_error_names_its_message_and_column(entry, source, message):
    parse = {
        "element": parse_element,
        "scalar": text.parse_scalar,
        "matrix": lambda s: text.parse_matrix(s, 3),
        "field": lambda s: text.parse_field_elem(s, 3),
    }[entry]
    with pytest.raises(ExprError) as err:
        parse(source)
    assert str(err.value) == message
    assert f"(column {err.value.pos + 1})" in message


def test_format_text_round_trip():
    for text in [
        "iota",
        "theta(-1,0)",
        "theta(0,-1)",
        "phi0",
        "theta(0,-1)*theta(0,-1)",
        "phi2*phi2",
        "chi(2,0,1)*chi(1,0,1)",
        "q*chi(1,0,0) - s*chi(2,1,0)",
    ]:
        x = parse_element(text)
        assert parse_element(format_element(x)) == x


def test_format_json_matches_schema():
    x = mul(theta(0, -1), theta(0, -1))
    blob = json.loads(format_element(x, "json"))
    assert element_from_json(blob) == x
    assert format_element(zero_element(), "json") == '{"rows": []}'


def test_format_latex_headers():
    assert "\\sum_{m >= 1}" in format_element(mul(phi(2), phi(2)), "latex")
    assert "\\sum_{m <= 0}" in format_element(mul(chi(2, 0, 1), chi(1, 0, 1)), "latex")
    assert format_element(iota(), "latex") == "(q) \\chi^{(1)}_{0,0}"
    assert format_element(zero_element(), "latex") == "0"
    # a constant term, a two-term ray body and an odd power of s
    ray = parse_element("strip(1,-1,0..inf: 1 + m*s^m)")
    assert format_element(ray, "latex") == "\\sum_{m >= 0} ((1) + (m) s^{m}) \\chi^{(1)}_{m,-1}"
    assert format_element(parse_element("s^3*chi(1,0,0)"), "latex") == "(s^{3}) \\chi^{(1)}_{0,0}"
    with pytest.raises(ValueError):
        format_element(iota(), "html")


def test_cli_mul(capsys):
    assert main(["mul", "theta(1,0)", "theta(-1,0)"]) == 0
    assert capsys.readouterr().out.strip() == "(s^2)*chi(1,0,0)"
    assert main(["mul", "q*chi(1,0,0)", "phi0", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert element_from_json(blob) == phi(0)


def test_cli_coeff(capsys):
    assert main(["coeff", "phi2*phi2", "--at", "2,3,-2"]) == 0
    assert capsys.readouterr().out.strip() == "s^6 - s^4"
    assert main(["coeff", "iota", "--at", "2,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_classify(capsys):
    assert main(["classify", "[[1,1],[t1,1+t1]]", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "(1,0,0)"
    assert main(["classify", "[[0,t1*t2],[-t1^-1*t2^-1,0]]", "--q", "3"]) == 0
    assert capsys.readouterr().out.strip() == "(2,1,1)"


def test_cli_reps(capsys):
    assert main(["reps", "1", "1", "--q", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["reps", "2", "0", "--q", "3"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_cli_oracle(capsys):
    assert main(["oracle", "2,0", "2,0", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "(1,0,0): oracle 1  table 1" in out
    assert "(2,0,0): oracle 1/2  table 1/2" in out
    assert "MISMATCH" not in out


def test_cli_oracle_flags_a_perturbed_table(capsys, monkeypatch):
    monkeypatch.setattr(cli, "mul_basis", functools.partial(mul_basis, perturbation="flip-1e"))
    assert main(["oracle", "1,0", "1,-1", "--q", "2"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_cli_oracle_compares_exactly_in_q(capsys, monkeypatch):
    # (q-2)*chi(1,0,0) vanishes at q = 2, so only an exact comparison sees it
    extra = parse_element("(q-2)*chi(1,0,0)")
    monkeypatch.setattr(cli, "mul_basis", lambda x, y: mul_basis(x, y) + extra)
    assert main(["oracle", "1,0", "1,0", "--q", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "MISMATCH" in line] == ["(1,0,0): oracle 1/2  table 1/2  MISMATCH"]


def test_cli_verify(capsys):
    assert main(["verify", "im_relations"]) == 0
    assert "[PASS]" in capsys.readouterr().out
    assert main(["verify", "shape_fuzz", "--range", "2", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["failures"] == []
    assert main(["verify", "center", "--range", "16"]) == 0


def test_cli_verify_reports_failure(capsys):
    assert main(["verify", "identity_assoc"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "q,message",
    [
        ("2,,3", "error: --q must be comma-separated integers, got '2,,3'\n"),
        ("2,x", "error: --q must be comma-separated integers, got '2,x'\n"),
        ("3,", "error: --q must be comma-separated integers, got '3,'\n"),
        ("", "error: qs must name at least one q\n"),
    ],
)
def test_cli_verify_names_a_malformed_q_list(q, message, capsys):
    assert main(["verify", "table_oracle", "--q", q]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", message)


def test_cli_error_exit_codes(capsys):
    assert main(["mul", "chi(9,0,0)", "iota"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["classify", "[[1,1],[t1,1]]", "--q", "2"]) == 2
    assert main(["verify", "nonsense"]) == 2
    assert main(["coeff", "iota", "--at", "1,0"]) == 2
    assert main(["reps", "1", "9", "--q", "2"]) == 2
    assert main(["oracle", "1,x", "1,0", "--q", "2"]) == 2
    assert main(["verify", "im_relations", "--q", ""]) == 2
    capsys.readouterr()
    # a third sheet is refused by the one label check; stderr echoes what was typed
    for argv in (["oracle", "3,1", "1,-1", "--q", "4"], ["coeff", "iota", "--at", "3,0,0"],
                 ["mul", "strip(3,0,0..1: 0)", "iota"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "got 3" in err and "BasisIndex" not in err


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["mul", "iota"])  # missing operand
    assert err.value.code == 2


_USAGE = "usage: hecke2d [-h] {mul,coeff,classify,reps,oracle,verify} ...\n"
_CHOICES = "(choose from 'mul', 'coeff', 'classify', 'reps', 'oracle', 'verify')"
_MUL_USAGE = "usage: hecke2d mul [-h] [--json] left right\n"
_REPS_USAGE = "usage: hecke2d reps [-h] --q Q [--count-only] a i\n"
_HELP = _USAGE + """
Exact products, coset classification, and verification suites for the rank-two
Iwahori-Hecke kernel.

positional arguments:
  {mul,coeff,classify,reps,oracle,verify}
    mul                 multiply two element expressions
    coeff               print one basis coefficient of an expression
    classify            print the double-coset label of a matrix
    reps                list the level-zero coset representatives
    oracle              compare the counting oracle with the symbolic product
    verify              run a verification suite

options:
  -h, --help            show this help message and exit
"""
_MUL_HELP = _MUL_USAGE + """
positional arguments:
  left
  right

options:
  -h, --help  show this help message and exit
  --json      print the normal form as JSON
"""
_PHI2_PHI1_JSON = (
    '{"rows": [{"a": 1, "j": -1, "strips": [{"hi": 1, "lo": 1, "terms": [{"e": 0, "poly": ["s^2"]}]}]},'
    ' {"a": 2, "j": -1, "strips": [{"hi": 0, "lo": 0, "terms": [{"e": 0, "poly": ["s^2 - 1"]}]}]}]}\n'
)

#: (argv, exit code, stdout, stderr): each usage refusal, the help texts, and the
#: abbreviated, `=`-joined, negative and `--`-escaped forms that argparse accepts
_USAGE_TABLE = [
    ([], 2, "", _USAGE + "hecke2d: error: the following arguments are required: command\n"),
    (["-h"], 0, _HELP, ""),
    (["--nope"], 2, "", _USAGE + "hecke2d: error: the following arguments are required: command\n"),
    (["frob"], 2, "", _USAGE + f"hecke2d: error: argument command: invalid choice: 'frob' {_CHOICES}\n"),
    (["multiply"], 2, "", _USAGE + f"hecke2d: error: argument command: invalid choice: 'multiply' {_CHOICES}\n"),
    (["--", "mul", "a", "b"], 2, "", _USAGE + f"hecke2d: error: argument command: invalid choice: '--' {_CHOICES}\n"),
    (["mul"], 2, "", _MUL_USAGE + "hecke2d mul: error: the following arguments are required: left, right\n"),
    (["mul", "iota"], 2, "", _MUL_USAGE + "hecke2d mul: error: the following arguments are required: right\n"),
    (["mul", "-phi1", "phi2"], 2, "", _MUL_USAGE + "hecke2d mul: error: the following arguments are required: right\n"),
    (["mul", "phi2", "phi1", "extra"], 2, "", _USAGE + "hecke2d: error: unrecognized arguments: extra\n"),
    (["classify", "[[1,0],[0,1]]", "--q", "2", "zz"], 2, "", _USAGE + "hecke2d: error: unrecognized arguments: zz\n"),
    (["mul", "phi2", "phi1", "--bogus"], 2, "", _USAGE + "hecke2d: error: unrecognized arguments: --bogus\n"),
    (["mul", "-h"], 0, _MUL_HELP, ""),
    (["coeff", "phi2"], 2, "", "usage: hecke2d coeff [-h] --at a,i,j expr\n"
     "hecke2d coeff: error: the following arguments are required: --at\n"),
    (["reps", "1", "x", "--q", "3"], 2, "", _REPS_USAGE + "hecke2d reps: error: argument i: invalid int value: 'x'\n"),
    (["reps", "1", "2"], 2, "", _REPS_USAGE + "hecke2d reps: error: the following arguments are required: --q\n"),
    (["mul", "phi2", "phi1", "--js"], 0, _PHI2_PHI1_JSON, ""),
    (["reps", "1", "1", "--q", "2", "--count"], 0, "4\n", ""),
    (["verify", "im_relations", "--se", "3"], 0, "suite im_relations: 44 cases, 0 failures [PASS]\n", ""),
    (["coeff", "phi2*phi2", "--at=2,3,-2"], 0, "s^6 - s^4\n", ""),
    (["reps", "1", "-2", "--q", "3", "--count-only"], 0, "81\n", ""),
    (["mul", "--", "-phi1", "phi2"], 0, "(-s^2 + 1)*chi(2,0,-1)\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", _USAGE_TABLE,
                         ids=[" ".join(row[0]) or "no arguments" for row in _USAGE_TABLE])
def test_cli_usage_refusals_and_help_are_pinned(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal's width
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    got = capsys.readouterr()
    assert (status, got.out, got.err) == (code, out, err)


def test_main_without_argv_reads_sys_argv_on_both_routes(capsys, monkeypatch):
    # a subcommand first goes to that subcommand's parser, anything else to the top level
    monkeypatch.setattr(sys, "argv", ["hecke2d", "reps", "1", "1", "--q", "2", "--count-only"])
    assert main() == 0
    assert capsys.readouterr() == ("4\n", "")
    for argv, message in ((["frob"], f"argument command: invalid choice: 'frob' {_CHOICES}"),
                          (["mul", "phi2", "phi1", "extra"], "unrecognized arguments: extra")):
        monkeypatch.setattr(sys, "argv", ["hecke2d", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"{_USAGE}hecke2d: error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["reps", "1", "4", "--q", "17", "--count-only"],
        ["reps", "2", "3", "--q", "7", "--count-only"],
        ["oracle", "1,3", "2,3", "--q", "7"],
        ["verify", "table_oracle", "--range", "4", "--q", "17"],
        ["classify", "[[" + "+".join(f"t1^{k}" for k in range(8000)) + ",0],[0,1]]", "--q", "3"],
        ["verify", "table_oracle", "--range", "5"],
        ["verify", "shape_fuzz", "--range", "17"],  # an index bound is at most 16
        ["verify", "center", "--range", "1000000000"],
    ],
)
def test_cli_refuses_oversized_enumerations_quickly(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_literal_entries_up_to_the_term_cap_reach_the_determinant_check(capsys):
    entry = "+".join(f"t1^{k}" for k in range(256))
    start = time.perf_counter()
    assert main(["classify", f"[[{entry},0],[0,{entry}]]", "--q", "3"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "determinant" in capsys.readouterr().err
    assert main(["classify", f"[[{entry}+t2,0],[0,1]]", "--q", "3"]) == 2
    assert "at most 256 terms (column" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr",
    [
        "(s+1)^100000 * chi(1,0,0)",  # a dense power of degree 100000
        "2^1000000000 * chi(1,0,0)",  # an integer of 10^9 bits
        "(s^100000 + 1) * chi(1,0,0)",  # a dense sum of width 100000
        "chi(1,1,0)^100000",  # 100000 convolutions
        "strip(1,-1,0..inf: m^100000)",  # a polynomial in m of degree 100000
        "(1/((s+1)^200 + 1) + 1/((s+2)^200 + 1))*chi(1,0,0)",  # a gcd at degree 200
        "(theta(-1,0)^16)^4",  # exponents multiplying to 64 along a chain
        "(chi(1,1,0)^16)^16",  # and to 256
        "(theta(-1,0)^8*theta(-1,0)^8)^2",  # a product of powers inside a power: degree 32
        "phi2^16*phi2^16",  # a product whose degrees add to 32
        "theta(-1,0)^16*theta(-1,0)^16*theta(-1,0)^16*theta(-1,0)^16",  # and to 64
        "(chi(1,0,0)^0)^1000000",  # a power of x^0 counts x^0 as degree 1
        "strip(1,-1,0..inf: m^4)^8",  # a strip counts its body's degree in m: 32
        "strip(1,-1,0..inf: m^16)^16",  # and 256
    ],
)
def test_cli_refuses_oversized_powers_quickly(expr, capsys):
    start = time.perf_counter()
    assert main(["coeff", expr, "--at", "1,0,0"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_monomial_powers_stay_unbounded(capsys):
    assert main(["coeff", "s^100000 * chi(1,0,0) + s^-100000 * chi(2,0,0)", "--at", "2,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "1/s^100000"
    assert main(["coeff", "(s^60000 + 1)*chi(1,0,0)", "--at", "1,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "s^60000 + 1"


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "7" * 5000 + "*chi(1,0,0)", "--at", "1,0,0"],
        ["classify", "[[" + "7" * 5000 + ",0],[0,1]]", "--q", "3"],
    ],
    ids=["expression", "matrix-literal"],
)
def test_cli_refuses_overlong_integer_literals_with_a_column(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "digits (column" in err and "set_int_max_str_digits" not in err


def _fresh_call(argv):
    """(exit status, stdout, stderr) of hecke2d run in a new interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "hecke2d.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_repeated_calls_in_one_process_print_what_fresh_calls_print(capsys):
    calls = [
        ["mul", "theta(1,0)", "phi2", "--json"],
        ["mul", "theta(1,0)", "phi2"],
        ["mul", "iota"],  # usage error
        ["mul", "chi(1,1,0)", "chi(1,-1,0)"],
        ["verify", "im_relations"],
        ["coeff", "phi2*phi2", "--at", "2,3,-2"],
    ]
    for argv in calls:
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        out = capsys.readouterr()
        assert (status, out.out, out.err) == _fresh_call(argv), argv


_OLD_TOKEN_RE = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|\.\.|[-+*/^(),:\[\]]")


def _reference_tokenize(s):
    """The per-character tokenizer that text._tokenize replaced, as a reference:
    (kind, text, column) for each token and for the end."""
    out, pos = [], 0
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        match = _OLD_TOKEN_RE.match(s, pos)
        if match is None:
            raise ExprError(f"unexpected character {s[pos]!r}", pos)
        lexeme = match.group()
        if lexeme[0].isdigit():
            if len(lexeme) > text._MAX_DIGITS:
                raise ExprError(f"integer literal longer than {text._MAX_DIGITS} digits", pos)
            kind = "int"
        elif lexeme[0].isalpha():
            kind = "name"
        else:
            kind = "op"
        out.append((kind, lexeme, pos))
        pos = match.end()
    out.append(("end", "", len(s)))
    return out


def _parser_tokens(s):
    """(kind, text, column) for each token text._tokenize gives, the kind read
    off its text and the column found as the parser finds it on an error."""
    def kind(tok):
        if not tok:
            return "end"
        if tok[0].isdecimal():
            return "int"
        return "name" if tok[0].isascii() and tok[0].isalpha() else "op"

    return [(kind(tok), tok, text._column(s, at)) for at, tok in enumerate(text._tokenize(s))]


def _tokens_or_error(tokenize, s):
    try:
        return tokenize(s)
    except ExprError as err:
        return str(err)


def _readme_arguments():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [ln for ln in readme.read_text().splitlines() if ln.startswith("hecke2d ")]
    return [arg for ln in lines for arg in re.findall(r"'([^']*)'", ln)]


_TOKENIZER_CASES = [
    "[[t1*t2,0],[0,t1^-1*t2^-1]]",
    "[[1,1],[t1,1+t1]]",
    "[[2*t1^1*t2^-2,2*t1^1*t2^-2 + 2*t1*t1^1*t2^-2],[0,2*t1^-1*t2^2]]",
    "[[0,t2],[-t2^-1,0]] ",
    "chi(1,0,0)\u00a0+\u2003chi(2,0,0)\u3000\u2028",
    "\u2028phi2\x1c*\x1fphi1\u0085\t\n",
    "chi(1,0,0)\u200b",  # zero width space is not whitespace
    "chi(1,0,0) # note",
    "strip(1,0,0..2: 1)",
    "strip(1,0,0...2: 1)",
    "1..2 . 3",
    "\u0663*chi(1,0,0)",  # a digit outside ASCII
    "x\u00e9",
    "",
    "   ",
    "1" * 4300 + "*chi(1,0,0)",
    "1" * 4301 + "*chi(1,0,0)",
    "chi(1,0,0) + " + "7" * 4301 + " @",
    "chi(1,0,0) @ " + "7" * 4301,
    "t" + "1" * 5000,
]


def test_tokenizer_matches_its_reference_on_readme_products_and_literals():
    readme = _readme_arguments()
    assert "phi2 * phi2" in readme and "[[0,t2],[-t2^-1,0]]" in readme
    pool = [x for _, x in _atom_pool()]
    products = [format_element(mul(x, y)) for x in pool for y in pool]
    for s in [*readme, *products, *_TOKENIZER_CASES]:
        want = _tokens_or_error(_reference_tokenize, s)
        assert _tokens_or_error(_parser_tokens, s) == want, s
    errors = [s for s in _TOKENIZER_CASES if isinstance(_tokens_or_error(_parser_tokens, s), str)]
    assert len(errors) == 8


def test_import_loads_neither_dataclasses_nor_inspect():
    # together they cost about a sixth of start-up when no bytecode cache is written
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, hecke2d, hecke2d.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
