"""Structured verification runs over the whole algebra surface.

Each suite re-derives a block of expected facts and compares them against
the engines, exactly (coefficients in Q(s), no tolerances).  A Report keeps
one line per failed comparison with a rendered expected/actual pair, so a
red run points at the first concrete counterexample rather than a boolean.
Elements are rendered by ``format_element``, so a witness can be pasted back
into ``hecke2d mul``.

The table_oracle suite is the independent cross-check: basis products
recomputed by counting cosets, an identity in q, for a left factor at level
0 or +-1 times a right factor at level 0, against the product table.  At
each listed q it first checks the census that counting reads against the
literal coset representatives.  It accepts the engine's perturbation hook so a
deliberately corrupted multiplication table is provably caught (the
negative control); nothing else about the suites knows about perturbations.

The identity_assoc suite fuzzes triples drawn from basis atoms and named
elements across mixed levels.  It is expected to report genuine
counterexamples: a level-0 x level-+-l product lacks the off-level mass
that counting finds, and a product of opposite nonzero levels is 0 in every
route.  The suite reports what it finds and does not special-case the
known witnesses.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from typing import Callable, NamedTuple, Optional

from .coeff import Coeff, ONE, Q, S, one_minus_qinv
from .element import (
    BasisIndex,
    ExpPolyTerm,
    HeckeElement,
    IndexPoly,
    NEG_INF,
    POS_INF,
    Strip,
    zero_element,
)
from .oracle import (
    _census,
    classify,
    counted_product,
    enumerate_reps,
    eta_matrix,
    iwahori_sample,
    valuation,
)
from .presets import (
    FIXED_PRESET_NAMES,
    WeylElement,
    chi,
    iota,
    phi,
    preset,
    theta,
    theta_monomial,
    weyl_identity,
    weyl_word,
)
from .product import mul, mul_basis
from .text import format_element

__all__ = ["Report", "SUITES", "run_suite"]

_QINV = Coeff.q_power(-1)
_SINV = Coeff.s_power(-1)


class Report:
    """Outcome of one suite: case count plus rendered failures."""

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.cases = 0
        self.failures: list[tuple[str, str, str]] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, case: str, ok: bool, expected: object, actual: object) -> None:
        self.cases += 1
        if not ok:
            self.failures.append((case, _describe(expected), _describe(actual)))

    def equal(self, case: str, expected: object, actual: object) -> None:
        self.record(case, expected == actual, expected, actual)

    def note(self, case: str) -> None:
        # informational case, counted but never failing
        self.cases += 1

    def text(self, *, max_failures: int = 10) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"suite {self.suite}: {self.cases} cases,"
            f" {len(self.failures)} failures [{status}]"
        ]
        for case, expected, actual in self.failures[:max_failures]:
            lines.append(f"  FAIL {case}")
            lines.append(f"    expected: {expected}")
            lines.append(f"    actual:   {actual}")
        hidden = len(self.failures) - max_failures
        if hidden > 0:
            lines.append(f"  ... and {hidden} more failures")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failures": [
                {"case": c, "expected": e, "actual": a} for c, e, a in self.failures
            ],
        }

    def json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _describe(x: object) -> str:
    if isinstance(x, HeckeElement):
        return format_element(x)
    return str(x)


class _Params(NamedTuple):
    index_bound: Optional[int]
    level_bound: Optional[int]
    qs: tuple[int, ...]
    seed: int
    cases: Optional[int]
    perturbation: Optional[str]

    def bound(self, default: int) -> int:
        return self.index_bound if self.index_bound is not None else default

    def levels(self, default: int) -> int:
        return self.level_bound if self.level_bound is not None else default


# ---------------------------------------------------------------------------
# table_oracle: the table against counting, an identity in q


def _suite_table_oracle(report: Report, p: _Params) -> None:
    n = p.bound(2)
    for q in p.qs:  # first the census that counting reads, against literal cosets
        for b, k in itertools.product((1, 2), range(-n, n + 1)):
            tally = Counter(tuple(map(valuation, z.entries())) for z in enumerate_reps(b, k, q))
            report.equal(f"census ({b},{k},0) q={q}", dict(tally), _census(b, k, q))
    for a, b in itertools.product((1, 2), repeat=2):
        for i, k in itertools.product(range(-n, n + 1), repeat=2):
            for j in (0, 1, -1):
                x, y = BasisIndex(a, i, j), BasisIndex(b, k, 0)
                want = mul_basis(x, y, perturbation=p.perturbation)
                report.equal(f"counts ({a},{i},{j})*({b},{k},0)", want, counted_product(x, y))


# ---------------------------------------------------------------------------
# identity_assoc: two-sided identity, then regrouping under fuzzed triples


def _atom_pool() -> list[tuple[str, HeckeElement]]:
    pool = [(name, preset(name)) for name in FIXED_PRESET_NAMES]
    for a in (1, 2):
        for i in range(-2, 3):
            for j in range(-2, 3):
                pool.append((f"chi({a},{i},{j})", chi(a, i, j)))
    return pool

_FIXED_TRIPLES: tuple[tuple[str, str, str], ...] = (
    ("chi(1,1,0)", "chi(2,-1,0)", "chi(2,0,0)"),
    ("chi(1,-2,0)", "chi(1,1,0)", "chi(2,2,0)"),
    ("chi(2,1,0)", "chi(2,-1,0)", "chi(1,1,0)"),
    ("iota", "theta(0,-1)", "chi(2,0,-1)"),
    ("theta(1,0)", "theta(-1,0)", "theta(0,1)"),
    ("theta(0,1)", "theta(0,-1)", "theta(0,1)"),
    ("chi(1,0,1)", "chi(1,0,-1)", "chi(1,1,1)"),
    ("chi(2,0,1)", "chi(2,1,-1)", "chi(2,0,1)"),
    ("chi(2,1,0)", "chi(2,1,0)", "chi(2,0,-1)"),
    ("phi0", "phi0", "phi2"),
    ("phi0", "phi1", "phi2"),
    ("chi(2,-1,1)", "chi(1,-1,0)", "chi(2,-1,1)"),
)


def _suite_identity_assoc(report: Report, p: _Params) -> None:
    pool = _atom_pool()
    by_name = dict(pool)
    io = iota()
    for name, e in pool:
        report.equal(f"left identity on {name}", e, mul(io, e))
        report.equal(f"right identity on {name}", e, mul(e, io))
    rng = random.Random(p.seed)
    total = p.cases if p.cases is not None else 200
    triples: list[tuple[str, str, str]] = list(_FIXED_TRIPLES[: max(0, total)])
    while len(triples) < total:
        triples.append(tuple(rng.choice(pool)[0] for _ in range(3)))
    for nx, ny, nz in triples:
        x, y, z = by_name[nx], by_name[ny], by_name[nz]
        left = mul(mul(x, y), z)
        right = mul(x, mul(y, z))
        report.equal(f"assoc [{nx}]*[{ny}]*[{nz}]", left, right)


# ---------------------------------------------------------------------------
# bernstein: closed forms and leading data of the commuting monomials


def _suite_bernstein(report: Report, p: _Params) -> None:
    for i in range(0, 4):
        for j in range(0, 4):
            want = chi(1, i, j).scale(Coeff.q_power(-(i + j - 1)))
            report.equal(f"monomial ({i},{j})", want, theta_monomial(i, j))
    for i in range(-3, 0):
        for j in range(1, 4):
            want = chi(1, i, j).scale(Coeff.q_power(-(i + j - 1)))
            report.equal(f"monomial ({i},{j})", want, theta_monomial(i, j))
    report.note("monomial (i<0, 0): expanded power retained, no closed form asserted")
    for i in range(-2, 3):
        for j in (1, 2):
            e = theta_monomial(-i, -j)
            lead = Coeff.q_power(-(i + j - 1))
            c1 = e.coefficient_at((1, -j), -i)
            c2 = e.coefficient_at((2, -j), -i)
            report.equal(f"leading sheet-1 coefficient at (-{i},-{j})", lead, c1)
            report.equal(
                f"leading sheet-2 coefficient at (-{i},-{j})", -(Q - ONE) * lead, c2
            )
            rest = e - chi(1, -i, -j).scale(c1) - chi(2, -i, -j).scale(c2)
            ok = all(key.j == -j for key, _ in rest.rows) and all(
                series.support_min > -i for _, series in rest.rows
            )
            report.record(
                f"tail support of monomial (-{i},-{j})",
                ok,
                f"rows at level {-j} supported on m > {-i}",
                _describe(rest),
            )


# ---------------------------------------------------------------------------
# subalgebra: the commuting generators and their relation lattice


def _suite_subalgebra(report: Report, p: _Params) -> None:
    gens = {
        "theta(1,0)": theta(1, 0),
        "theta(-1,0)": theta(-1, 0),
        "theta(0,1)": theta(0, 1),
        "theta(0,-1)": theta(0, -1),
    }
    names = list(gens)
    for nx, ny in itertools.combinations(names, 2):
        report.equal(
            f"[{nx}, {ny}] = 0", mul(gens[nx], gens[ny]), mul(gens[ny], gens[nx])
        )
    report.equal("theta(1,0)*theta(-1,0) = iota", iota(), mul(gens["theta(1,0)"], gens["theta(-1,0)"]))
    report.equal(
        "theta(0,1)*theta(0,-1) = 0",
        zero_element(),
        mul(gens["theta(0,1)"], gens["theta(0,-1)"]),
    )
    report.equal(
        "theta(0,-1)*theta(0,1) = 0",
        zero_element(),
        mul(gens["theta(0,-1)"], gens["theta(0,1)"]),
    )
    seen: set[HeckeElement] = set()
    grid = [
        (i, j)
        for i in range(-2, 3)
        for j in range(0, 3)
        if not (j == 0 and i < 0)
    ]
    for i, j in grid:
        e = theta_monomial(i, j)
        want = chi(1, i, j).scale(Coeff.q_power(-(i + j - 1)))
        report.equal(f"monomial image ({i},{j})", want, e)
        seen.add(e)
    report.record(
        "monomial images pairwise distinct",
        len(seen) == len(grid),
        f"{len(grid)} distinct images",
        f"{len(seen)} distinct images",
    )


# ---------------------------------------------------------------------------
# center: commutation with the full basis range plus the obstruction data


def _suite_center(report: Report, p: _Params) -> None:
    n = p.bound(2)
    lb = p.levels(2)
    zeta = theta(1, 0) + theta(-1, 0)
    for a in (1, 2):
        for i in range(-n, n + 1):
            for j in range(-lb, lb + 1):
                x = chi(a, i, j)
                report.equal(f"central on chi({a},{i},{j})", mul(zeta, x), mul(x, zeta))
    for i in range(-2, 3):
        for j in (1, 2):
            report.equal(
                f"sheet step up at ({i},{j})",
                chi(2, i, j),
                mul(chi(1, i, j), chi(2, 0, 0)).scale(Q),
            )
        for j in (-1, -2):
            report.equal(
                f"translation step at ({i},{j})",
                chi(1, i + 1, j).scale(Q) + chi(1, i - 1, j).scale(_QINV),
                mul(chi(1, i, j), zeta),
            )
            report.equal(
                f"sheet step down at ({i},{j})",
                chi(2, i, j),
                mul(chi(1, i, j), chi(2, 0, 0)) - chi(1, i, j).scale(one_minus_qinv()),
            )
    probe = chi(2, 0, 0)
    for i in (-1, 0, 1):
        for j in (1, 2):
            report.equal(
                f"probe left of chi(1,{i},{j})",
                chi(1, i, j).scale(one_minus_qinv()),
                mul(probe, chi(1, i, j)),
            )
            report.equal(
                f"probe right of chi(1,{i},{j})",
                chi(2, i, j).scale(_QINV),
                mul(chi(1, i, j), probe),
            )
            report.equal(
                f"probe left of chi(2,{i},{j})",
                chi(2, i, j).scale(one_minus_qinv()),
                mul(probe, chi(2, i, j)),
            )
            report.equal(
                f"probe right of chi(2,{i},{j})",
                chi(1, i, j) + chi(2, i, j).scale(one_minus_qinv()),
                mul(chi(2, i, j), probe),
            )
        for j in (-1, -2):
            for a in (1, 2):
                report.equal(
                    f"probe kills chi({a},{i},{j}) from the left",
                    zero_element(),
                    mul(probe, chi(a, i, j)),
                )
            report.equal(
                f"probe right of chi(1,{i},{j})",
                chi(1, i, j).scale(one_minus_qinv()) + chi(2, i, j),
                mul(chi(1, i, j), probe),
            )
            report.equal(
                f"probe right of chi(2,{i},{j})",
                chi(1, i, j).scale(_QINV),
                mul(chi(2, i, j), probe),
            )
        for j in (1, 2, -1, -2):
            cand = chi(1, i, j) + chi(2, i, j)
            comm = mul(cand, probe) - mul(probe, cand)
            report.record(
                f"off-level candidate ({i},{j}) obstructed",
                not comm.is_zero(),
                "nonzero commutator with the sheet-2 unit probe",
                _describe(comm),
            )


# ---------------------------------------------------------------------------
# im_relations: quadratic relations, the braid substitute, annihilations


def _suite_im_relations(report: Report, p: _Params) -> None:
    smsi = S - _SINV
    io = iota()
    for k in (0, 1):
        f = phi(k)
        report.equal(f"phi{k} quadratic", f.scale(smsi) + io, mul(f, f))
    word = phi(0)
    for k in (1, 2, 0, 1):
        word = mul(word, phi(k))
    report.equal("five-letter word returns phi2", phi(2), word)
    for a in (1, 2):
        for i in range(-2, 3):
            for j in (-1, -2):
                report.equal(
                    f"phi0 annihilates chi({a},{i},{j})",
                    zero_element(),
                    mul(phi(0), chi(a, i, j)),
                )
            for j in (1, 2):
                report.equal(
                    f"phi1 annihilates chi({a},{i},{j})",
                    zero_element(),
                    mul(phi(1), chi(a, i, j)),
                )
    tail = HeckeElement(
        [
            (
                (2, -2),
                (Strip(1, POS_INF, (ExpPolyTerm(2, IndexPoly.constant(one_minus_qinv())),)),),
            )
        ]
    )
    report.equal("phi2 squared is the geometric ray", tail, mul(phi(2), phi(2)))


# ---------------------------------------------------------------------------
# weyl: presentation relations, label bijection, random sandwiches, counts


def _suite_weyl(report: Report, p: _Params) -> None:
    e = weyl_identity()
    for s in ("s0", "s1", "s2"):
        report.equal(f"{s} is an involution", e, weyl_word([s, s]))
    report.equal("(s0 s1 s2)^2 = e", e, weyl_word(["s0", "s1", "s2", "s0", "s1", "s2"]))
    grid = [
        (flip, i, j)
        for flip in (False, True)
        for i in range(-2, 3)
        for j in range(-2, 3)
    ]
    labels = {WeylElement(flip, i, j).basis_index() for flip, i, j in grid}
    report.record(
        "label map is injective on the grid",
        len(labels) == len(grid),
        f"{len(grid)} labels",
        f"{len(labels)} labels",
    )
    for q in p.qs:
        for a in (1, 2):
            for i in (-2, 0, 2):
                for j in (-1, 0, 1):
                    got = classify(eta_matrix(a, i, j, q))
                    report.equal(f"standard representative ({a},{i},{j}) q={q}", BasisIndex(a, i, j), got)
    rng = random.Random(p.seed)
    total = p.cases if p.cases is not None else 100
    for nth in range(total):
        q = p.qs[nth % len(p.qs)]
        g = iwahori_sample(rng, q)
        h = iwahori_sample(rng, q)
        a = rng.choice((1, 2))
        i = rng.randrange(-2, 3)
        j = rng.randrange(-2, 3)
        got = classify(g * eta_matrix(a, i, j, q) * h)
        report.equal(f"sandwich #{nth} around ({a},{i},{j}) q={q}", BasisIndex(a, i, j), got)
    for q in p.qs:
        for i in range(0, 4):
            report.equal(
                f"coset count at ({i},0) q={q}", q ** (2 * i), len(enumerate_reps(1, i, q))
            )


# ---------------------------------------------------------------------------
# shape_fuzz: support profile of every basis product


def _expected_shape(x: tuple[int, int, int], y: tuple[int, int, int]) -> str:
    a, i, j = x
    b, k, l = y
    if j * l < 0:
        return "0"
    if a == 2 and j == 0 and ((i >= 0 and l < 0) or (i < 0 and l > 0)):
        return "0"
    if a == 2 and j > 0 and l > 0:
        return f"sheet {b} level {j + l} support -inf..{i + k}"
    if a == 2 and j < 0 and l < 0:
        return f"sheet {b} level {j + l} support {i + k + 1}..+inf"
    return f"finite at level {j + l}"


def _actual_shape(p: HeckeElement, level: int) -> str:
    if p.is_zero():
        return "0"
    rows = sorted(p.rows)
    if any(key.j != level for key, _ in rows):
        return f"levels {sorted({key.j for key, _ in rows})}"
    infinite = [
        (key, series)
        for key, series in rows
        if series.support_min == NEG_INF or series.support_max == POS_INF
    ]
    if not infinite:
        return f"finite at level {level}"
    if len(rows) == 1:
        (key, series), = rows
        lo = "-inf" if series.support_min == NEG_INF else str(series.support_min)
        hi = "+inf" if series.support_max == POS_INF else str(series.support_max)
        return f"sheet {key.a} level {key.j} support {lo}..{hi}"
    return "mixed rows with infinite support"


def _shape_case(report: Report, x: tuple[int, int, int], y: tuple[int, int, int]) -> None:
    prod = mul_basis(BasisIndex(*x), BasisIndex(*y))
    want = _expected_shape(x, y)
    got = _actual_shape(prod, x[2] + y[2])
    report.equal(f"shape {x}*{y}", want, got)


def _suite_shape_fuzz(report: Report, p: _Params) -> None:
    ib = p.bound(4)
    lb = p.levels(3)
    if p.cases is None:
        for a, b in itertools.product((1, 2), repeat=2):
            for i, k in itertools.product(range(-ib, ib + 1), repeat=2):
                for j, l in itertools.product(range(-lb, lb + 1), repeat=2):
                    _shape_case(report, (a, i, j), (b, k, l))
        return
    rng = random.Random(p.seed)
    for _ in range(p.cases):
        x = (rng.choice((1, 2)), rng.randint(-ib, ib), rng.randint(-lb, lb))
        y = (rng.choice((1, 2)), rng.randint(-ib, ib), rng.randint(-lb, lb))
        _shape_case(report, x, y)


# ---------------------------------------------------------------------------


SUITES: dict[str, Callable[[Report, _Params], None]] = {
    "table_oracle": _suite_table_oracle,
    "identity_assoc": _suite_identity_assoc,
    "bernstein": _suite_bernstein,
    "subalgebra": _suite_subalgebra,
    "center": _suite_center,
    "im_relations": _suite_im_relations,
    "weyl": _suite_weyl,
    "shape_fuzz": _suite_shape_fuzz,
}

_ALIASES = {"appendix_oracle": "table_oracle"}


def run_suite(
    name: str,
    *,
    index_bound: Optional[int] = None,
    level_bound: Optional[int] = None,
    qs: tuple[int, ...] = (2, 3),
    seed: int = 0,
    cases: Optional[int] = None,
    perturbation: Optional[str] = None,
) -> Report:
    """Run one named suite and return its Report.

    Results are deterministic for a fixed seed and parameter set.  Bounds
    default per suite, and index_bound is at most 16 so that every run ends
    in bounded time; qs only matters for the counting suites.
    """
    key = _ALIASES.get(name, name)
    if key not in SUITES:
        valid = ", ".join(sorted([*SUITES, *_ALIASES]))
        raise ValueError(f"unknown suite {name!r}; valid names: {valid}")
    if index_bound is not None and index_bound < 0:
        raise ValueError("index_bound must be nonnegative")
    if index_bound is not None and index_bound > 16:  # shape_fuzz takes (2r+1)^2 cases
        raise ValueError("index_bound must be at most 16")
    if level_bound is not None and level_bound < 0:
        raise ValueError("level_bound must be nonnegative")
    if cases is not None and cases < 0:
        raise ValueError("cases must be nonnegative")
    qs = tuple(qs)
    if not qs:
        raise ValueError("qs must name at least one q")
    params = _Params(
        index_bound=index_bound,
        level_bound=level_bound,
        qs=qs,
        seed=seed,
        cases=cases,
        perturbation=perturbation,
    )
    report = Report(suite=key)
    SUITES[key](report, params)
    return report
