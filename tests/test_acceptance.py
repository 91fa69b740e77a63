"""Acceptance gate: one test and one printed verdict line per criterion.

Every check is exact; there are no numeric tolerances anywhere.  Criterion 3
runs the associativity sweep as written; the truncated product is genuinely
non-associative across level annihilation, so that criterion reports FAIL
with explicit witnesses (see the repository notes for the analysis).
"""

import random
import time

from hecke2d import (
    BasisIndex,
    Coeff,
    ExpPolyTerm,
    HeckeElement,
    IndexPoly,
    Strip,
    chi,
    coeff_of_product,
    mul,
    run_suite,
)
from hecke2d.element import NEG_INF, POS_INF
from hecke2d.product import _record


def _verdict(n: int, ok: bool, desc: str, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {n:2d}: {desc}", flush=True)
    if detail and not ok:
        print(detail, flush=True)
    assert ok, f"criterion {n}: {desc}"


def test_criterion_01_level_zero_oracle_equivalence():
    started = time.monotonic()
    report = run_suite("table_oracle", index_bound=2, qs=(2, 3))
    elapsed = time.monotonic() - started
    ok = report.passed and elapsed < 300.0
    _verdict(
        1,
        ok,
        f"counting oracle matches the symbolic table, exactly in q, on all pairs "
        f"|i|,|k|<=2 with levels j in {{0,+-1}} and l = 0, census checked at "
        f"q in {{2,3}} ({report.cases} cases, {elapsed:.1f}s)",
        report.text(),
    )


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


_ALL_BRANCHES = {f"p{n}" for n in range(1, 8)} | {f"q{n}" for n in range(1, 9)}


def _targets(x: HeckeElement, rng: random.Random) -> list[BasisIndex]:
    out = []
    for key, series in x.rows:
        lo, hi = series.support_min, series.support_max
        anchor = int(hi) if lo == NEG_INF else int(lo)
        for delta in (-1, 0, 2):
            out.append(BasisIndex(key.a, anchor + delta, key.j))
        out.append(BasisIndex(3 - key.a, anchor, key.j))
    if not out:
        j = rng.choice((-1, 0, 1))
        out = [BasisIndex(rng.choice((1, 2)), rng.randint(-2, 2), j)]
    return out


def _two_path_check(x: HeckeElement, y: HeckeElement, rng: random.Random) -> list[str]:
    prod = mul(x, y)
    bad = []
    for t in _targets(prod, rng):
        direct = coeff_of_product(x, y, t)
        via_mul = prod.coefficient_at(t.key, t.i)
        if direct != via_mul:
            bad.append(f"at {tuple(t)}: {direct} vs {via_mul}")
    return bad


def _random_ray(rng: random.Random, j: int) -> HeckeElement:
    a = rng.choice((1, 2))
    e = rng.choice((-2, 0, 2))
    poly = IndexPoly((rng.randint(-2, 2), rng.randint(0, 1)))
    if poly.is_zero():
        poly = IndexPoly.constant(Coeff.integer(1))
    edge = rng.randint(-2, 2)
    if j > 0:
        lo, hi = NEG_INF, edge
    elif j < 0:
        lo, hi = edge, POS_INF
    else:
        lo, hi = edge, edge + rng.randint(0, 3)
    return HeckeElement([((a, j), (Strip(lo, hi, (ExpPolyTerm(e, poly),)),))])


def test_criterion_02_two_path_product_agreement():
    rng = random.Random(20260822)
    seen: set[str] = set()
    pairs = 0
    problems: list[str] = []

    for a in (1, 2):
        for b in (1, 2):
            for i in range(-2, 3):
                for k in range(-2, 3):
                    for j in (-1, 0, 1):
                        for l in (-1, 0, 1):
                            if j * l < 0:
                                continue
                            signs = (_sign(j), _sign(l), 1 if i >= 0 else -1, 1 if k >= 0 else -1)
                            seen.add(_record(a, *signs).name)
                            bad = _two_path_check(chi(a, i, j), chi(b, k, l), rng)
                            problems.extend(bad)
                            pairs += 1

    for levels in ((1, 1), (-1, -1), (1, 0), (0, -1)):
        for _ in range(25):
            x = _random_ray(rng, levels[0])
            y = _random_ray(rng, levels[1])
            problems.extend(_two_path_check(x, y, rng))
            pairs += 1

    ok = pairs >= 500 and seen == _ALL_BRANCHES and not problems
    _verdict(
        2,
        ok,
        f"coefficient-query and full-product routes agree on {pairs} pairs "
        f"covering all {len(_ALL_BRANCHES)} table branches",
        "\n".join(problems[:8]) or f"missing branches: {_ALL_BRANCHES - seen}",
    )


def test_criterion_03_identity_and_associativity():
    report = run_suite("identity_assoc", seed=0)
    _verdict(
        3,
        report.passed,
        "identity is two-sided and 200+ fuzzed triples associate",
        report.text(max_failures=4),
    )


def test_criterion_04_support_shape():
    report = run_suite("shape_fuzz", index_bound=4, level_bound=3)
    _verdict(
        4,
        report.passed,
        f"product support has the predicted ray/finite shape on all basis "
        f"pairs |i|,|k|<=4, |j|,|l|<=3 ({report.cases} cases)",
        report.text(),
    )


def test_criterion_05_commuting_generator_monomials():
    report = run_suite("bernstein")
    _verdict(
        5,
        report.passed,
        "monomial closed forms and negative-level leading terms hold "
        "(the i<0, j=0 corner is reported, not asserted)",
        report.text(),
    )


def test_criterion_06_commutative_subalgebra():
    report = run_suite("subalgebra")
    _verdict(
        6,
        report.passed,
        "generators commute, X*X^-1 = iota, Y*Z = 0, monomial map is injective",
        report.text(),
    )


def test_criterion_07_center():
    report = run_suite("center")
    _verdict(
        7,
        report.passed,
        "zeta commutes with every basis vector on the grid and the exclusion "
        "identities hold",
        report.text(),
    )


def test_criterion_08_normalized_involution_relations():
    report = run_suite("im_relations")
    _verdict(
        8,
        report.passed,
        "phi quadratic relations, annihilation rules, and the phi2 tail hold",
        report.text(),
    )


def test_criterion_09_reflection_model_and_classifier():
    report = run_suite("weyl", cases=100)
    _verdict(
        9,
        report.passed,
        "reflection relations, label injectivity, 100 sandwich round-trips, "
        "and representative counts q^(2i) hold",
        report.text(),
    )


def test_criterion_10_negative_control():
    bent = run_suite("table_oracle", index_bound=2, qs=(2,), perturbation="flip-1e")
    caught = not bent.passed
    _verdict(
        10,
        caught,
        "an injected table perturbation is caught by the oracle suite "
        f"({len(bent.failures)} failing cases)",
        "perturbed run unexpectedly passed" if not caught else "",
    )
