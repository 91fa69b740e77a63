"""Expression language and command-line behavior."""

import json
import time

import pytest

from hecke2d import chi, element_from_json, iota, mul, phi, theta, zero_element
from hecke2d.cli import ExprError, format_element, main, parse_element


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
    assert parse_element("0") == zero_element()


def test_star_binds_tighter_than_sum():
    got = parse_element("chi(1,1,1)*chi(1,0,1) + chi(2,0,2)")
    want = mul(chi(1, 1, 1), chi(1, 0, 1)) + chi(2, 0, 2)
    assert got == want


def test_convolution_and_powers():
    assert parse_element("theta(1,0)*theta(-1,0)") == iota()
    assert parse_element("chi(2,0,0)^2") == mul(chi(2, 0, 0), chi(2, 0, 0))


def test_strip_literal():
    got = parse_element("strip(2,-2,1..inf: ((1 - q^-1))*q^m)")
    assert got == mul(phi(2), phi(2))
    assert parse_element("strip(2,-2,1..inf: ((1 - q^-1))*s^(2*m))") == got
    assert parse_element("strip(1,0,0..3: 1)") == sum(
        (chi(1, m, 0) for m in range(1, 4)), chi(1, 0, 0)
    )
    assert parse_element("strip(1,1,-inf..0: m - m)") == zero_element()


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
    ]:
        with pytest.raises(ExprError) as err:
            parse_element(text)
        assert "column" in str(err.value)
        assert fragment in str(err.value), (text, str(err.value))


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


def test_cli_verify(capsys):
    assert main(["verify", "im_relations"]) == 0
    assert "[PASS]" in capsys.readouterr().out
    assert main(["verify", "shape_fuzz", "--range", "2", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["failures"] == []


def test_cli_verify_reports_failure(capsys):
    assert main(["verify", "identity_assoc"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_error_exit_codes(capsys):
    assert main(["mul", "chi(9,0,0)", "iota"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["classify", "[[1,1],[t1,1]]", "--q", "2"]) == 2
    assert main(["verify", "nonsense"]) == 2
    assert main(["coeff", "iota", "--at", "1,0"]) == 2
    assert main(["reps", "1", "9", "--q", "2"]) == 2


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["mul", "iota"])  # missing operand
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["reps", "1", "4", "--q", "17", "--count-only"],
        ["reps", "2", "3", "--q", "7", "--count-only"],
        ["oracle", "1,3", "2,3", "--q", "7"],
        ["verify", "table_oracle", "--range", "4", "--q", "17"],
    ],
)
def test_cli_refuses_oversized_enumerations_quickly(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "expr",
    [
        "(s+1)^100000 * chi(1,0,0)",  # a dense power of degree 100000
        "2^1000000000 * chi(1,0,0)",  # an integer of 10^9 bits
        "(s^100000 + 1) * chi(1,0,0)",  # a dense sum of width 100000
        "chi(1,1,0)^100000",  # 100000 convolutions
        "strip(1,-1,0..inf: m^100000)",  # a polynomial in m of degree 100000
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
