"""Convolution products: frozen counted values, bilinearity, and both routes.

Level-zero expectations were frozen from the finite-field counting oracle;
everything else is pinned by closed forms checked through two independent
evaluation paths.
"""

import functools
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hecke2d import (
    BasisIndex,
    Coeff,
    ExpPolyTerm,
    HeckeElement,
    IndexPoly,
    InfiniteSupportError,
    ShapeError,
    Strip,
    chi,
    coeff_of_product,
    element_to_json,
    iota,
    mul,
    mul_basis,
    one_minus_qinv,
    phi,
    theta,
    theta_monomial,
    weyl_mul,
    zero_element,
)
from hecke2d import element, oracle, product
from hecke2d.coeff import ONE, Q, S, ZERO
from hecke2d.element import NEG_INF, POS_INF, _atoms, _normal_rows, normalize_strips
from hecke2d.product import (
    PERTURBATIONS,
    CaseTableError,
    _I,
    _K,
    _N,
    _antiderivative,
    _between,
    _bound,
    _limits,
    _pieces,
    _point_pair,
    _put,
    _record,
    _split,
    _strip_pair,
    _strip_terms,
    _subst,
    _sum,
    _summand,
)
from hecke2d.suites import _atom_pool
from hecke2d.text import format_element, parse_element

_OMQ = one_minus_qinv()


def _ray(a, j, lo, hi, e, poly):
    return HeckeElement([((a, j), (Strip(lo, hi, (ExpPolyTerm(e, poly),)),))])


def test_counted_level_zero_products():
    # values frozen from coset counting at q = 2 and q = 3
    assert mul(chi(1, 1, 0), chi(1, -1, 0)) == (
        chi(1, 0, 0).scale(Q) + chi(2, 0, 0).scale(Q - ONE) + chi(2, 1, 0).scale(_OMQ)
    )
    assert mul(chi(2, 0, 0), chi(2, 0, 0)) == chi(1, 0, 0) + chi(2, 0, 0).scale(_OMQ)
    assert mul(chi(2, 1, 0), chi(2, 1, 0)) == chi(1, 0, 0).scale(Q**2) + _ray(
        2, 0, 0, 2, -2, IndexPoly.constant(Q**2 - Q)
    )
    assert mul(chi(2, 1, 0), chi(1, 0, 0)) == chi(2, 1, 0).scale(Coeff.q_power(-1))


def test_vanishing_on_opposite_level_signs():
    assert mul(chi(1, 0, 1), chi(1, 0, -1)).is_zero()
    assert mul(chi(2, 2, -1), chi(2, 0, 2)).is_zero()
    assert mul(chi(2, 1, 0) + chi(1, 0, 1), chi(1, 0, -1)) == mul(
        chi(2, 1, 0), chi(1, 0, -1)
    )


def test_level_additivity():
    for x, y in [
        (chi(1, 1, 1), chi(2, -1, 2)),
        (chi(2, 0, -1), chi(1, 2, -2)),
        (chi(1, 0, 2), chi(1, 0, 0)),
    ]:
        prod = mul(x, y)
        want = x.levels()[0] + y.levels()[0]
        assert prod.levels() == (want,)


def test_ray_times_point_closed_form():
    # (sum_{m<=0} q^{-m} chi^(2)_{m,1}) * chi^(1)_{0,1}
    ray = _ray(2, 1, NEG_INF, 0, -2, IndexPoly.constant(ONE))
    for n in (0, -1, -2, -5):
        want = _OMQ * Coeff.q_power(-n) * Coeff.integer(1 - n)
        assert coeff_of_product(ray, chi(1, 0, 1), BasisIndex(1, n, 2)) == want
    assert coeff_of_product(ray, chi(1, 0, 1), BasisIndex(1, 1, 2)).is_zero()
    assert coeff_of_product(ray, chi(1, 0, 1), BasisIndex(2, 0, 2)).is_zero()


def test_basis_ray_products():
    assert mul(chi(2, 0, 1), chi(1, 0, 1)) == _ray(
        1, 2, NEG_INF, 0, -2, IndexPoly.constant(_OMQ)
    )
    assert mul(chi(1, 0, -1), chi(2, 0, -1)) == chi(2, 0, -2).scale(Coeff.q_power(-1))
    assert mul(phi(2), phi(2)) == _ray(2, -2, 1, POS_INF, 2, IndexPoly.constant(_OMQ))


def test_two_path_agreement_on_infinite_rows():
    pairs = [
        (theta(0, -1), theta(0, -1)),
        (mul(chi(2, 0, 1), chi(1, 0, 1)), chi(2, 1, 1)),
        (phi(2), mul(phi(2), phi(2))),
    ]
    targets = [BasisIndex(a, m, j) for a in (1, 2) for m in (-3, 0, 2) for j in (-4, -2, 2)]
    checked = 0
    for x, y in pairs:
        prod = mul(x, y)
        for t in targets:
            assert coeff_of_product(x, y, t) == prod.coefficient_at(t.key, t.i)
            checked += 1
    assert checked == 54


def test_associativity_failure_witnesses():
    # the truncated product is not associative; these pin the known failures
    x = chi(2, 1, 0)
    left = mul(mul(x, x), chi(2, 0, -1))
    right = mul(x, mul(x, chi(2, 0, -1)))
    assert left == chi(2, 0, -1).scale(Q)
    assert right.is_zero()

    u, v = chi(2, -1, 1), chi(1, -1, 0)
    diff = mul(mul(u, v), u) - mul(u, mul(v, u))
    assert diff == _ray(2, 2, -2, -1, -2, IndexPoly.constant((Q - ONE) * Coeff.q_power(-3)))


def test_associativity_holds_at_level_zero():
    atoms = [chi(a, i, 0) for a in (1, 2) for i in (-2, -1, 0, 1, 2)]
    rng_pairs = [(a, b, c) for a in atoms[:4] for b in atoms[4:7] for c in atoms[7:]]
    for x, y, z in rng_pairs[:30]:
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_associativity_census_on_the_basis_box():
    # every triple of chi(a,i,j) with |i| <= 2, |j| <= 1, by the signs of the
    # three levels: a finding of the table as it stands, not a goal
    labels = [(a, i, j) for a in (1, 2) for i in range(-2, 3) for j in (-1, 0, 1)]
    basis = {x: chi(*x) for x in labels}
    pair = {(x, y): mul_basis(x, y) for x in labels for y in labels}
    left = functools.lru_cache(maxsize=None)(lambda p, z: mul(p, basis[z]))
    right = functools.lru_cache(maxsize=None)(lambda x, p: mul(basis[x], p))
    sign = lambda v: (v > 0) - (v < 0)
    cases, failures, witness = Counter(), Counter(), {}
    for x, y, z in itertools.product(labels, repeat=3):
        cls = (sign(x[2]), sign(y[2]), sign(z[2]))
        cases[cls] += 1
        if left(pair[x, y], z) != right(x, pair[y, z]):
            failures[cls] += 1
            witness.setdefault(cls, (x, y, z))
    assert sum(cases.values()) == 27000 and set(cases.values()) == {1000}
    assert failures == {(0, 0, 1): 490, (0, 0, -1): 490, (1, 0, 1): 700, (-1, 0, -1): 700}
    assert witness == {
        (-1, 0, -1): ((1, -2, -1), (1, 1, 0), (1, -2, -1)),
        (0, 0, -1): ((1, -2, 0), (1, 1, 0), (1, -2, -1)),
        (1, 0, 1): ((1, -2, 1), (1, -2, 0), (1, -2, 1)),
        (0, 0, 1): ((1, 1, 0), (1, -2, 0), (1, -2, 1)),
    }
    # each witness, written by format_element, parses back to both groupings
    for x, y, z in witness.values():
        fx, fy, fz = (format_element(basis[v]) for v in (x, y, z))
        xy_z, x_yz = left(pair[x, y], z), right(x, pair[y, z])
        assert parse_element(f"({fx}*{fy})*{fz}") == xy_z
        assert parse_element(f"{fx}*({fy}*{fz})") == x_yz
        assert parse_element(format_element(xy_z - x_yz)) == xy_z - x_yz != zero_element()


@given(st.sampled_from([(1, 1, 1), (2, 0, -1), (1, -2, 2), (2, 2, 0)]),
       st.sampled_from([(1, 0, 1), (2, -1, -1), (1, 2, 2), (2, 0, 0)]),
       st.sampled_from([(1, 0, 1), (2, 1, -1), (1, -1, 0)]))
@settings(max_examples=40, deadline=None)
def test_bilinearity(ix, iy, iz):
    x, y, z = chi(*ix), chi(*iy), chi(*iz)
    assert mul(x + y, z) == mul(x, z) + mul(y, z)
    assert mul(z, x + y) == mul(z, x) + mul(z, y)
    assert mul(x.scale(Q), y) == mul(x, y).scale(Q)


def test_mul_basis_matches_mul():
    for xi in [(1, 1, 0), (2, -1, 1), (1, 0, -2)]:
        for yi in [(1, -2, 0), (2, 0, 1), (2, 1, -1)]:
            xb, yb = BasisIndex(*xi), BasisIndex(*yi)
            if xb.j * yb.j < 0:
                continue
            assert mul_basis(xb, yb) == mul(chi(*xi), chi(*yi))


def test_the_sheet_of_weyl_mul_holds_only_its_point():
    # on the sheet of t = weyl_mul(x, y), the label of eta_x * eta_y, mul_basis
    # puts nothing or the one point at t: its sheet, index and level
    box = [BasisIndex(a, i, j) for a in (1, 2) for i in range(-4, 5) for j in range(-3, 4)]
    carried = 0
    for x, y in itertools.product(box, repeat=2):
        t = weyl_mul(x, y)
        on_sheet = [(key, s.lo, s.hi) for key, row in mul_basis(x, y).rows if key.a == t.a
                    for s in row.strips]
        assert on_sheet in ([], [(t.key, t.i, t.i)]), (x, y, t)
        carried += bool(on_sheet)
    assert (len(box) ** 2, carried) == (15876, 6156)


@pytest.mark.parametrize(
    "x, y, message",
    [
        ((1, True, 0), (1, 0, 0), "bound must be an integer or +-inf, got True"),
        ((1, 0, 0), (1, False, 0), "bound must be an integer or +-inf, got False"),
        ((1, 0, 1), (2, 0, True), "level must be an integer, got True"),
        ((True, 0, 0), (2, 1, 0), "sheet must be 1 or 2, got True"),
        ((1, 1.5, 0), (1, 0, 0), "bound must be an integer or +-inf, got 1.5"),
        ((1, 0, 1.0), (1, 0, 0), "level must be an integer, got 1.0"),
        ((1, 0), (1, 0, 0), "a label is a sheet 1 or 2 and two integers, got (1, 0)"),
        (5, (1, 0, 0), "a label is a sheet 1 or 2 and two integers, got 5"),
    ],
)
def test_mul_basis_refuses_non_integer_indices(x, y, message):
    # refused at the input: bool is an int subclass, and the table would read True as 1
    with pytest.raises(ShapeError) as err:
        mul_basis(x, y)
    assert str(err.value) == message


def test_a_malformed_target_and_a_third_sheet_are_refused():
    with pytest.raises(ShapeError, match=r"a label is a sheet 1 or 2 and two integers, got \(1, 0\)"):
        coeff_of_product(chi(1, 0, 0), chi(1, 0, 0), (1, 0))
    # the table has no record for sheet 3
    with pytest.raises(ShapeError, match="sheet must be 1 or 2, got 3"):
        mul_basis((3, 0, 0), (1, 0, 0))


def _table_runs(x, y, perturbation):
    """mul_basis(x, y) and the runs its table emits, each as one checked Strip."""
    runs = []
    add_run = product._add_run

    def recorded(points, swept, key, lo, hi, e, c):
        runs.append((key, [Strip(lo, hi, (ExpPolyTerm(e, IndexPoly.constant(c)),))]))
        add_run(points, swept, key, lo, hi, e, c)

    product._add_run = recorded
    try:
        return mul_basis(x, y, perturbation=perturbation), runs
    finally:
        product._add_run = add_run


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.sampled_from((1, 2)), st.integers(-6, 6), st.integers(-2, 2)),
    st.tuples(st.sampled_from((1, 2)), st.integers(-6, 6), st.integers(-2, 2)),
    st.sampled_from(PERTURBATIONS),
)
def test_mul_basis_rows_equal_its_table_runs_summed_through_the_checked_constructor(x, y, p):
    built, runs = _table_runs(x, y, p)
    assert built == HeckeElement(runs)


def test_identity_element():
    for x in (chi(1, 2, -1), theta(0, -1), mul(phi(2), phi(2)), zero_element()):
        assert mul(iota(), x) == x
        assert mul(x, iota()) == x


def test_perturbation_negative_control():
    assert PERTURBATIONS == (None, "flip-1e")
    with pytest.raises(ValueError, match="unknown perturbation 'nope'"):
        mul(chi(1, 0, 0), chi(1, 0, 0), perturbation="nope")
    xb, yb = BasisIndex(1, 1, 0), BasisIndex(1, -2, 0)
    clean = mul_basis(xb, yb)
    bent = mul_basis(xb, yb, perturbation="flip-1e")
    assert clean != bent
    assert clean == chi(1, -1, 0).scale(Q) + _ray(
        2, 0, 1, 2, -2, IndexPoly.constant(Q**2 - Q)
    )
    assert bent == chi(1, -1, 0).scale(Q**2) + _ray(
        2, 0, 1, 2, -2, IndexPoly.constant(Q**2 - Q)
    )
    # pairs outside the perturbed case are untouched
    assert mul_basis(BasisIndex(1, 1, 0), BasisIndex(1, 1, 0), perturbation="flip-1e") == mul_basis(
        BasisIndex(1, 1, 0), BasisIndex(1, 1, 0)
    )
    # mul and mul_basis read one definition, min(2i, -2k-1), split where its
    # own forms cross: at k = -i it is 2i-1, the unperturbed exponent
    for i in (1, 2, 3):
        x, y = (1, i, 0), (1, -i, 0)
        bent = mul(chi(*x), chi(*y), perturbation="flip-1e")
        assert bent == mul_basis(x, y, perturbation="flip-1e") == mul_basis(x, y), i


def test_infinite_support_error_exists():
    assert issubclass(InfiniteSupportError, ArithmeticError)


def test_two_path_agreement_on_multi_strip_factors():
    # factors with a point next to a ray, and rays with polynomial terms
    factors = [
        mul(theta(0, -1), theta(-1, 0)),
        mul(phi(2), theta(0, -1)),
        mul(theta(0, 1), theta(-1, 0)),
        theta_monomial(-2, 1),
        mul(phi(2), phi(2)),
        theta_monomial(-2, -2),
    ]
    # in normal form: a point mass, then a ray whose term has degree 1
    point, ray = factors[-1].row((1, -2)).strips
    assert point.lo == point.hi == -2 and ray.hi == POS_INF and ray.terms[0].poly.degree == 1
    checked = 0
    for x in factors:
        for y in factors:
            prod = mul(x, y)
            targets = {
                BasisIndex(key.a, m, key.j)
                for key, row in prod.rows
                for s in row.strips
                for edge in (s.lo, s.hi)
                if isinstance(edge, int)
                for m in range(edge - 2, edge + 3)
            }
            for t in sorted(targets):
                assert coeff_of_product(x, y, t) == prod.coefficient_at(t.key, t.i), (x, y, t)
                checked += 1
    assert checked >= 90  # 164 distinct targets over the 20 nonzero products


def _point(m, c):
    return Strip(m, m, (ExpPolyTerm(0, IndexPoly.constant(c)),))


def _rows(emitted):
    # the emitted strips summed per sheet, in normal form, zero rows dropped
    sheets = {sheet for sheet, *_ in emitted}
    rows = {
        sheet: normalize_strips(Strip(lo, hi, st) for s, lo, hi, st in emitted if s == sheet)
        for sheet in sheets
    }
    return {sheet: strips for sheet, strips in rows.items() if strips}


def _engine(pieces, sx, sy, out):
    # every index summed, point masses included: the reference for both routes
    for piece in pieces:
        terms, indices = _summand(piece, sx, sy), [_K, _I]
        forms = [*_limits(sx, _I), *_limits(sy, _K), *piece.forms]
        if piece.tk is not None:  # n = i + tk*k fixes k = tk*(n - i)
            at = (-piece.tk, 0, piece.tk, 0)
            terms = _put(terms, _K, at)
            forms, indices = [_subst(f, _K, at) for f in forms], [_I]
        _sum(terms, indices, forms, piece.sheet, out)


def test_engine_matches_point_kernel_on_point_strips():
    # mul sends point pairs to _point_pair; summation must still agree on them
    cx, cy = Coeff.s_power(3), Coeff.s_power(2) - ONE
    checked = 0
    for a in (1, 2):
        for b in (1, 2):
            for js, ls in [(-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1)]:
                for i in range(-3, 4):
                    for k in range(-3, 4):
                        signs = (1 if i >= 0 else -1, 1 if k >= 0 else -1)
                        # each distinct kernel once: flip-1e changes one family only
                        kernels = {_pieces(a, b, js, ls, *signs, p) for p in PERTURBATIONS}
                        sx, sy = _point(i, cx), _point(k, cy)
                        for pieces in kernels:
                            engine, points, swept = [], {}, {}
                            _engine(pieces, sx, sy, engine)
                            _point_pair(pieces, i, k, cx * cy, js + ls, points, swept)
                            kernel = {key.a: row.strips for key, row in _normal_rows(points, swept)}
                            assert _rows(engine) == kernel, (a, b, js, ls, i, k, pieces)
                            checked += bool(points or swept)
    assert checked == 1286  # 1274 nonzero pairs plus 12 under flip-1e


def _routed(pieces, sx, sy, out):
    # the pieces of a pair with a ray, as mul routes them
    for piece in pieces:
        _strip_pair(piece, sx, sy, out)


def _engine_rows(run):
    # the sheet rows of one kernel's emitted strips, or the error they raise
    emitted = []
    try:
        run(emitted)
        return _rows(emitted)
    except (InfiniteSupportError, ShapeError) as err:
        return type(err).__name__


def test_pinned_kernel_matches_the_engine_on_ray_point_strips():
    # mul pins the point's index for ray x point pairs; summing over every
    # index, the point's too, must agree with it
    c = Coeff.s_power(2) - ONE
    terms = (
        ExpPolyTerm(-2, IndexPoly((Q, ONE))),
        ExpPolyTerm(1, IndexPoly((ONE, Coeff.s_power(-1), Coeff.integer(3)))),
    )
    outcomes = Counter()
    for a in (1, 2):
        for b in (1, 2):
            for js, ls in [(-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1)]:
                for isg in (1, -1):
                    for ksg in (1, -1):
                        kernels = {_pieces(a, b, js, ls, isg, ksg, p) for p in PERTURBATIONS}
                        for pieces in kernels:
                            for ray_on_x in (True, False):
                                sign = isg if ray_on_x else ksg
                                point = _point(sign, c)
                                for lo, hi in [(sign * 2, POS_INF), (NEG_INF, sign * 2)]:
                                    ray = Strip(lo, hi, terms)
                                    sx, sy = (ray, point) if ray_on_x else (point, ray)
                                    want = _engine_rows(lambda out: _engine(pieces, sx, sy, out))
                                    got = _engine_rows(lambda out: _routed(pieces, sx, sy, out))
                                    assert got == want, (a, b, js, ls, isg, ksg, pieces, sx, sy)
                                    outcomes[want if isinstance(want, str) else bool(want)] += 1
    # 113 kernels (flip-1e changes one), two sides and two directions each; a
    # ray against its level's direction leaves a span sum unbounded on both routes
    assert outcomes == {True: 356, False: 40, "InfiniteSupportError": 56}


_SCALARS = [ONE, -ONE, Q - ONE, Coeff.s_power(-3), Coeff.rational(1, 2), ONE / (S + ONE)]


def _value(p, at):
    # the engine summand p, a dict {(ei, ek, en, di, dk, dn): c}, at integer (i, k, n)
    total = ZERO
    for (ei, ek, en, di, dk, dn), c in p.items():
        e = ei * at[0] + ek * at[1] + en * at[2]
        total = total + c * Coeff.s_power(e) * (at[0] ** di * at[1] ** dk * at[2] ** dn)
    return total


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([_I, _K, _N]),
    st.integers(-2, 2),
    st.dictionaries(st.integers(0, 3), st.sampled_from(_SCALARS), min_size=1),
    st.lists(st.integers(-6, 6), min_size=2, max_size=2),
)
def test_antiderivative_between_integer_bounds_is_the_direct_sum(var, alpha, poly, ends):
    # sum_{v=lo..hi} P(v) s^(alpha v) for P of degree <= 3 in one index, alpha = 0 included
    lo, hi = sorted(ends)
    p = {}
    for d, c in poly.items():
        key = [0] * 6
        key[var], key[3 + var] = alpha, d
        p[tuple(key)] = c
    want = ZERO
    for v in range(lo, hi + 1):
        want = want + sum((c * v**d for d, c in poly.items()), ZERO) * Coeff.s_power(alpha * v)
    got = _between(_antiderivative(p, var), var, (0, 0, 0, lo), (0, 0, 0, hi))
    assert got == ({(0,) * 6: want} if want else {})


_STEPS = st.tuples(*[st.integers(-2, 2)] * 3)
_DEGREES = st.tuples(*[st.integers(0, 2)] * 3)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.tuples(_STEPS, _DEGREES).map(lambda t: t[0] + t[1]), st.sampled_from(_SCALARS),
                    min_size=1, max_size=4),
    st.sampled_from([_I, _K, _N]),
    st.tuples(*[st.integers(-2, 2)] * 4),
    st.tuples(*[st.integers(-4, 4)] * 3),
)
def test_substitution_commutes_with_evaluation(p, var, aff, at):
    aff = tuple(0 if v == var else c for v, c in enumerate(aff))
    put = list(at)
    put[var] = sum(c * x for c, x in zip(aff, (*at, 1)))
    assert _value(_put(p, var, aff), at) == _value(p, put)


@pytest.mark.parametrize("tk", [1, -1])
@pytest.mark.parametrize("di", [2, 1, -1, -2], ids=lambda di: f"di={di}")
def test_split_windows_match_the_lesser_exponent(tk, di):
    # a point whose q-exponent is min(f1, f2), split on n = i + tk*k; a tie goes to f1.
    # Written records list the form in i first (di > 0); the other order is di < 0.
    for d0 in range(-3, 4):
        f1, f2 = (di + 1, tk * di - 1, d0), (1, -1, 0)
        w1, w2 = product._split(f1, f2, tk)
        for n in range(-8, 9):
            i, k = n - 3 * tk, 3  # any (i, k) with i + tk*k = n
            e1, e2 = (f[0] * i + f[1] * k + f[2] for f in (f1, f2))
            first = (Q**e1).eval_at_q(2) <= (Q**e2).eval_at_q(2)
            inside = [all(cn * n + c0 >= 0 for _, _, cn, c0 in w) for w in (w1, w2)]
            assert inside == [first, not first], (f1, f2, n)


def test_finite_products_skip_the_engine(monkeypatch):
    calls = {"_antiderivative": 0, "_active_pairs": 0}

    def counted(name):
        fn = getattr(product, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    square = theta(-1, 0) * theta(-1, 0)
    for name in calls:
        monkeypatch.setattr(product, name, counted(name))
    assert mul(square, theta(-1, 0)) == theta_monomial(-3, 0)
    assert calls == {"_antiderivative": 0, "_active_pairs": 0}
    # a ray times a point pins the point's index: a point piece takes no sum
    ray = mul(chi(2, 0, 1), chi(1, 0, 1))
    for sg in (1, -1):
        assert all(piece.tk is not None for piece in _pieces(1, 1, 1, 1, sg, -sg, None))
    for x, y in [(ray, chi(1, 0, 1)), (chi(1, 0, 1), ray)]:
        prod = mul(x, y)
        assert prod.levels() == (3,)
        for n in (-3, 0, 1):
            assert prod.coefficient_at((1, 3), n) == coeff_of_product(x, y, BasisIndex(1, n, 3))
    assert calls == {"_antiderivative": 0, "_active_pairs": 0}
    # a factor with a ray still goes through the engine
    assert not mul(theta(0, -1), chi(1, 0, -1)).is_zero()
    assert min(calls.values()) >= 1


def test_point_products_skip_the_row_sweep(monkeypatch):
    calls = {"_atoms": 0, "__new__": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    square, ray = theta(-1, 0) * theta(-1, 0), theta(0, -1)
    x, cube = theta(-1, 0), theta_monomial(-3, 0)
    counted(element, "_atoms")  # the sweep that cuts a row into stretches at piece ends
    counted(Strip, "__new__")  # the checking constructor; element._point skips it
    assert mul(square, x) == cube
    assert mul_basis((1, 2, 0), (1, -3, 0)).levels() == (0,)
    assert calls == {"_atoms": 0, "__new__": 0}
    # a product that is one ray is kept as it is
    tail = _ray(2, 2, NEG_INF, 1, -2, IndexPoly.constant(_OMQ * Q))
    assert mul_basis((2, 1, 1), (2, 0, 1)) == tail
    assert calls["_atoms"] == 0
    # one ray with values inside its span is walked with the values in place
    assert not mul(ray, chi(1, 1, 0)).is_zero()
    assert calls["_atoms"] == 0 and calls["__new__"] >= 1
    # two engine strips in one row are swept
    assert not mul(ray, ray).is_zero()
    assert calls["_atoms"] >= 1


def test_no_point_value_reaches_the_sweep_as_a_piece(monkeypatch):
    swept_strips, cut = {}, []

    def rows(points, swept):
        swept_strips.update((id(s), s) for strips in swept.values() for s in strips)
        return _normal_rows(points, swept)

    monkeypatch.setattr(product, "_normal_rows", rows)
    monkeypatch.setattr(element, "_normal_rows", rows)
    monkeypatch.setattr(element, "_atoms", lambda pieces: cut.append(pieces) or _atoms(pieces))
    pool = [x for _, x in _atom_pool()]
    for x in pool:
        for y in pool:
            mul(x, y)
            x + y
    # every piece cut into stretches is a strip to sweep, none a value of the map
    assert cut and all(swept_strips.get(id(p)) is p for pieces in cut for p in pieces)


def _products_in_new_process(pairs, perturbation):
    code = (
        "import json, sys\n"
        "from hecke2d import element_from_json as read, element_to_json as write, mul\n"
        "pairs, p = json.load(sys.stdin)\n"
        "print(json.dumps([write(mul(read(x), read(y), perturbation=p)) for x, y in pairs]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps([[[element_to_json(x), element_to_json(y)] for x, y in pairs], perturbation]),
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout)


def test_memoised_pieces_keep_perturbations_apart():
    # interleaved in one process, each perturbation's products are those of a
    # process that only ever saw that perturbation
    pairs = [
        (chi(a, i, 0), chi(b, k, 0))
        for a in (1, 2) for b in (1, 2) for i in (1, 2) for k in (-1, -2)
    ] + [(theta(1, 0), theta(-1, 0)), (phi(0), phi(1))]
    got = {p: [] for p in PERTURBATIONS}
    for x, y in pairs:
        for p in (*PERTURBATIONS, *PERTURBATIONS[::-1]):
            got[p].append(element_to_json(mul(x, y, perturbation=p)))
    for p in PERTURBATIONS:
        assert got[p][::2] == got[p][1::2] == _products_in_new_process(pairs, p)
    assert got[None] != got["flip-1e"]


_SIGNATURES = list(itertools.product((-1, 0, 1), (-1, 0, 1), (-1, 1), (-1, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda: _record(3, 0, 0, 1, 1), "no record covers sheet 3 with signs (1, 0, 1, 0)"),
    (lambda: _strip_terms({(2, 0, 0, 0, 0, 0): ONE}), "unsummed index in output term"),
    (lambda: _split((1, 0, 0), (0, 0, 0), 1), "a point's exponents must differ by a multiple of n"),
    (lambda: _split((1, 1, 0), (1, 1, -1), 1), "a point's exponents must differ by a multiple of n"),
    (lambda: _bound((3, 0, 1, 0), _I), "bound comparison outside the supported geometry"),
    (lambda: _bound((1, 2, 0, 0), _K), "bound comparison outside the supported geometry"),
])
def test_malformed_table_data_is_a_case_table_error(call, message):
    with pytest.raises(CaseTableError) as err:
        call()
    assert str(err.value) == message


def test_every_signature_has_a_record_and_opposite_levels_have_empty_ones():
    # (js, ls, isg, ksg) on either left sheet; p8 and q9 state the zero product
    for a in (1, 2):
        for js, ls, isg, ksg in _SIGNATURES:
            rec = product._record(a, js, ls, isg, ksg)
            assert (rec.name in ("p8", "q9")) == (js * ls < 0), (a, js, ls, isg, ksg, rec.name)
            if js * ls < 0:
                assert rec.name == ("p8" if a == 1 else "q9")
                assert all(_pieces(a, b, js, ls, isg, ksg, p) == () for b in (1, 2) for p in PERTURBATIONS)


def _instances(rec, ls):
    # the pairs |i|,|k| <= 2, j in {0, +-1}, l in ls whose product reads rec
    for b, i, j, k, l in itertools.product((1, 2), range(-2, 3), (-1, 0, 1), range(-2, 3), ls):
        signs = ((j > 0) - (j < 0), (l > 0) - (l < 0), 1 if i >= 0 else -1, 1 if k >= 0 else -1)
        if j * l >= 0 and product._record(rec.a, *signs) is rec:
            yield BasisIndex(rec.a, i, j), BasisIndex(b, k, l)


def _shifted(term):
    # the term with the constant of its (first) exponent form raised by 1; a
    # run's top is its exponent and its upper bound, so both move
    if isinstance(term, product._Run):
        return term._replace(top=term.top + "+1")
    first, *rest = term.exps.split(",")
    return term._replace(exps=",".join([first + "+1", *rest]))


def _twin(rec):
    """The record that sigma derives from the written record rec: the one on
    rec's negated signs."""
    for js, ls, isg, ksg in itertools.product((-1, 0, 1), (-1, 0, 1), (-1, 1), (-1, 1)):
        if js * ls >= 0 and product._record(rec.a, js, ls, isg, ksg) is rec:
            return product._record(rec.a, -js, -ls, -isg, -ksg)


def _shifts_caught(n, rec, pair_sets, differs):
    """Each written term of rec = _TABLE[n] shifted in turn: (b, term, and for
    each list in pair_sets, its pairs on right sheet b where differs(x, y)
    under the shift).  A twin's terms are derived, so they shift with rec's."""
    found = []
    for b, terms in rec.out.items():
        for t, term in enumerate(terms):
            out = {**rec.out, b: (*terms[:t], _shifted(term), *terms[t + 1:])}
            product._TABLE[n] = rec._replace(out=out)
            product._pieces.cache_clear()
            try:
                caught = [[(x, y) for x, y in ps if y.a == b and differs(x, y)] for ps in pair_sets]
                found.append((b, term, caught))
            finally:
                product._TABLE[n] = rec
                product._pieces.cache_clear()
    return found


def test_counting_catches_a_shifted_exponent_in_every_record_it_reaches():
    reached, unreached = set(), set()
    counted_differs = lambda x, y: oracle.counted_product(x, y) != mul_basis(x, y)
    for n, rec in enumerate(product._TABLE):
        pairs = list(_instances(rec, (0,)))
        (reached if pairs else unreached).add(rec.name)
        if rec.out is None or not pairs:
            continue
        pair_sets = [pairs, list(_instances(_twin(rec), (0,)))] if rec.twin else [pairs]
        for b, term, caught in _shifts_caught(n, rec, pair_sets, counted_differs):
            assert all(caught), (rec.name, b, term)
    assert reached == {"p1", "p2", "p4", "p5", "p6", "p7", "q3", "q4", "q5", "q8"}
    # no level-0 right factor reaches these: a shifted exponent there goes uncounted
    # (p8 and q9, at opposite levels, have no terms to shift)
    assert unreached - reached == {"p3", "p8", "q1", "q2", "q6", "q7", "q9"}


def _frozen(name, x, y):
    """The basis products of the records that counting misses, written out
    term by term at level j + l (q6 is zero); each right sheet b gets:"""
    (_, i, j), (b, k, l) = x, y
    if name == "p3":  # a point q^(2|i|-1) at i + k
        return chi(b, i + k, l).scale(Coeff.q_power(2 * abs(i) - 1))
    if name == "q1":  # (1 - 1/q) q^(i+k-m) at each m <= i + k
        c = _OMQ * Coeff.q_power(i + k)
        return _ray(b, j + l, NEG_INF, i + k, -2, IndexPoly.constant(c))
    if name == "q2":  # (1 - 1/q) q^(m-i-k-1) at each m >= i + k + 1
        c = _OMQ * Coeff.q_power(-i - k - 1)
        return _ray(b, j + l, i + k + 1, POS_INF, 2, IndexPoly.constant(c))
    if name == "q7":  # (1 - 1/q) q^(i+k-m) at each k - i <= m <= k + i
        run, exp = range(k - i, k + i + 1), lambda m: i + k - m
    else:  # q8 at j = 0: (1 - 1/q) q^(m-i-k-1) at each k + i + 1 <= m <= k - i - 1
        run, exp = range(k + i + 1, k - i), lambda m: m - i - k - 1
    return sum((chi(b, m, l).scale(_OMQ * Coeff.q_power(exp(m))) for m in run), zero_element())


def test_frozen_forms_catch_a_shifted_exponent_in_every_record_counting_misses():
    checked = set()
    for n, rec in enumerate(product._TABLE):
        if rec.name not in ("p3", "q1", "q7") or rec.out is None:
            continue
        twin = _twin(rec)  # p3, q2 and q8 at j = 0
        pair_sets = [list(_instances(r, (-2, -1, 1, 2))) for r in (rec, twin)]
        frozen = {
            (x, y): _frozen(r.name, x, y) for r, pairs in zip((rec, twin), pair_sets) for x, y in pairs
        }
        for (x, y), want in frozen.items():
            assert mul_basis(x, y) == want, (x, y)
        frozen_differs = lambda x, y: mul_basis(x, y) != frozen[x, y]
        for b, term, caught in _shifts_caught(n, rec, pair_sets, frozen_differs):
            assert all(caught), (rec.name, b, term)
            checked.add((rec.name, twin.name, b))
    # q2's ray on right sheet 1 and q1's on sheet 2 are among them
    written = (("p3", "p3"), ("q1", "q2"), ("q7", "q8"))
    assert checked == {(name, twin, b) for name, twin in written for b in (1, 2)}


def _sigma(x):
    """Conjugation by Pi = [[0,1],[t1,0]], which normalises the Iwahori subgroup.

    On row (a, j) the index m goes to -m-(a-1) and the level to -j, so a ray's
    term p(m) s^(e*m) becomes p(-m-c) s^(-e*c) s^(-e*m), with c = a - 1.
    """
    rows = []
    for (a, j), row in x.rows:
        c = a - 1
        strips = []
        for s in row.strips:
            parts = []
            for e, p in s.terms:
                moved = IndexPoly()
                for coef in reversed(p.coeffs):  # p(-m-c), by Horner
                    moved = moved * IndexPoly([-c, -1]) + IndexPoly.constant(coef)
                parts.append((-e, moved * Coeff.s_power(-e * c)))
            strips.append(Strip(-s.hi - c, -s.lo - c, element.merge_terms(parts)))
        rows.append(((a, -j), strips))
    return HeckeElement(rows)


_SIGMA_BOX = [BasisIndex(a, i, j) for a in (1, 2) for i in range(-4, 5) for j in range(-2, 3)]


def _sigma_basis(x):
    return BasisIndex(x.a, -x.i - (x.a - 1), -x.j)


def test_conjugation_by_the_iwahori_normaliser_is_an_automorphism():
    # sigma(chi(a,m,j)) = chi(a,-m-(a-1),-j) swaps phi0 and phi1 and commutes
    # with the product, so each table record must be the mirror of its twin
    assert _sigma(phi(0)) == phi(1) and _sigma(phi(1)) == phi(0)
    nonzero = rays = 0
    for x, y in itertools.product(_SIGMA_BOX, repeat=2):
        prod = mul_basis(x, y)
        assert mul_basis(_sigma_basis(x), _sigma_basis(y)) == _sigma(prod), (x, y)
        nonzero += not prod.is_zero()
        rays += any(NEG_INF in (s.lo, s.hi) or POS_INF in (s.lo, s.hi)
                    for _, row in prod.rows for s in row.strips)
    assert (len(_SIGMA_BOX) ** 2, nonzero, rays) == (8100, 5184, 1296)
    # whole elements, rays included, through the strip engine
    pool = [x for _, x in _atom_pool()]
    for x, y in itertools.product(pool, repeat=2):
        assert mul(_sigma(x), _sigma(y)) == _sigma(mul(x, y)), (x, y)
    assert len(pool) ** 2 == 3364


def test_flip_1e_breaks_the_mirror_symmetry():
    # the negative control: the perturbation edits one record, not its twin
    broken = [
        (x, y)
        for x, y in itertools.product(_SIGMA_BOX, repeat=2)
        if mul_basis(_sigma_basis(x), _sigma_basis(y), perturbation="flip-1e")
        != _sigma(mul_basis(x, y, perturbation="flip-1e"))
    ]
    assert len(broken) == 20
