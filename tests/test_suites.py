"""Verification suite runner: reports, coverage, and the negative control."""

import json

import pytest

from hecke2d import SUITES, chi, iota, mul, phi, run_suite, suites
from hecke2d.suites import Report
from hecke2d.text import parse_element


def test_suite_names():
    assert set(SUITES) == {
        "table_oracle",
        "identity_assoc",
        "bernstein",
        "subalgebra",
        "center",
        "im_relations",
        "weyl",
        "shape_fuzz",
    }


def test_report_shape():
    report = run_suite("subalgebra")
    assert isinstance(report, Report)
    assert report.suite == "subalgebra"
    assert report.cases > 0
    assert report.passed
    assert report.failures == []
    assert report.text().endswith("[PASS]")
    blob = json.loads(report.json_text())
    assert blob == report.to_json()
    assert blob["suite"] == "subalgebra"
    assert blob["cases"] == report.cases
    assert blob["failures"] == []


def test_subalgebra_catches_monomial_images_that_coincide(monkeypatch):
    # every (i, j) sent to iota: the images are all equal, so the distinctness
    # check must fail too, not only the image checks
    monkeypatch.setattr(suites, "theta_monomial", lambda i, j: iota())
    report = run_suite("subalgebra")
    failed = [case for case, _, _ in report.failures]
    assert "monomial images pairwise distinct" in failed
    assert len(failed) == 13


def test_passing_suites_small_bounds():
    for name in ("bernstein", "center", "im_relations"):
        report = run_suite(name, index_bound=1, level_bound=1)
        assert report.passed, report.text()


def test_table_oracle_small_run():
    report = run_suite("table_oracle", index_bound=1, qs=(2,))
    assert report.passed, report.text()


@pytest.mark.parametrize("bound, qs", [(3, (2, 3)), (2, (5,)), (1, (7,))])
def test_table_oracle_wider_coverage(bound, qs):
    report = run_suite("table_oracle", index_bound=bound, qs=qs)
    assert report.cases and not report.failures, report.text()


def test_weyl_suite():
    report = run_suite("weyl", qs=(2,), cases=20, seed=3)
    assert report.passed, report.text()


def test_shape_fuzz_sampled():
    report = run_suite("shape_fuzz", cases=150, seed=9)
    assert report.passed, report.text()


def test_identity_assoc_reports_genuine_failures():
    # associativity genuinely fails across level annihilation; the suite
    # must say so rather than hide it
    report = run_suite("identity_assoc", cases=40, seed=0)
    assert not report.passed
    failing = [case for case, _, _ in report.failures]
    assert "assoc [chi(2,1,0)]*[chi(2,1,0)]*[chi(2,0,-1)]" in failing
    assert "assoc [phi0]*[phi0]*[phi2]" in failing
    assert "assoc [chi(2,-1,1)]*[chi(1,-1,0)]*[chi(2,-1,1)]" in failing
    # every recorded failure is an association triple; the identity half is clean
    assert all(case.startswith("assoc ") for case in failing)


def test_identity_assoc_failure_lines_reparse():
    # each rendered witness is valid input and denotes the element compared
    report = run_suite("identity_assoc")
    assert report.failures
    for case, expected, actual in report.failures:
        names = case.removeprefix("assoc [").removesuffix("]").split("]*[")
        x, y, z = (parse_element(name) for name in names)
        assert parse_element(expected) == mul(mul(x, y), z), case
        assert parse_element(actual) == mul(x, mul(y, z)), case


def test_negative_control_catches_perturbation():
    clean = run_suite("table_oracle", index_bound=2, qs=(2,))
    assert clean.passed
    bent = run_suite("table_oracle", index_bound=2, qs=(2,), perturbation="flip-1e")
    assert not bent.passed
    assert any("(1,-2,0)" in case for case, _, _ in bent.failures)


def test_an_unknown_suite_lists_exactly_the_suite_names():
    with pytest.raises(ValueError) as err:
        run_suite("appendix_oracle")
    text = str(err.value)
    assert text.startswith("unknown suite 'appendix_oracle'; valid names: ")
    assert text.split("valid names: ")[1].split(", ") == sorted(SUITES)


def test_seed_determinism():
    one = run_suite("shape_fuzz", cases=60, seed=4).json_text()
    two = run_suite("shape_fuzz", cases=60, seed=4).json_text()
    assert one == two


def test_run_suite_argument_errors():
    with pytest.raises(ValueError):
        run_suite("not_a_suite")
    with pytest.raises(ValueError):
        run_suite("weyl", index_bound=-1)
    with pytest.raises(ValueError, match="level_bound must be nonnegative"):
        run_suite("weyl", level_bound=-1)
    with pytest.raises(ValueError, match="cases must be nonnegative"):
        run_suite("weyl", cases=-1)
    # an empty qs would divide by zero, or pass with no census checked
    for name in ("weyl", "table_oracle"):
        with pytest.raises(ValueError, match="qs"):
            run_suite(name, qs=())


def test_report_text_lists_failures():
    report = run_suite("identity_assoc", cases=30, seed=1)
    text = report.text(max_failures=2)
    assert "[FAIL]" in text
    assert "expected:" in text and "actual:" in text


def test_actual_shape_names_stray_levels_and_mixed_infinite_rows():
    assert suites._actual_shape(parse_element("chi(1,0,1) + chi(1,0,2)"), 1) == "levels [1, 2]"
    mixed = mul(phi(2), phi(2)) + chi(1, 0, -2)
    assert suites._actual_shape(mixed, -2) == "mixed rows with infinite support"
