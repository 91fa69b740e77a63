"""Finite-field counting oracle: field arithmetic, classification, enumeration."""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hecke2d import (
    BasisIndex,
    EnumerationError,
    FieldElem2,
    LocalFieldMatrix,
    ShapeError,
    chi,
    classify,
    coeff_of_product,
    enumerate_reps,
    mul_basis,
    oracle,
    product_counts,
    valuation,
    weyl_mul,
    zero_element,
)
from hecke2d.oracle import (
    INFINITE,
    count_reps,
    eta_matrix,
    identity_matrix,
    in_iwahori,
    iwahori_sample,
)
from hecke2d.text import ExprError, _entry_text, format_matrix, parse_field_elem, parse_matrix


def _mono(e1, e2, c=1, q=2):
    return FieldElem2.monomial(q, e1, e2, c)


_exps = st.integers(-3, 3)
_field_elems = st.builds(
    lambda pairs: sum(
        (_mono(e1, e2, c, 3) for (e1, e2), c in pairs.items()),
        FieldElem2.zero(3),
    ),
    st.dictionaries(st.tuples(_exps, _exps), st.integers(1, 2), max_size=4),
)


@given(_field_elems, _field_elems, _field_elems)
def test_field_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert x - x == FieldElem2.zero(3)


@given(_field_elems, _field_elems)
def test_valuation_is_multiplicative(x, y):
    vx, vy = valuation(x), valuation(y)
    if vx == INFINITE or vy == INFINITE:
        assert valuation(x * y) == INFINITE
    else:
        assert valuation(x * y) == (vx[0] + vy[0], vx[1] + vy[1])


@given(_field_elems, _field_elems)
def test_valuation_of_sum(x, y):
    def key(v):
        return (float("inf"), float("inf")) if v == INFINITE else (v[1], v[0])

    assert key(valuation(x + y)) >= min(key(valuation(x)), key(valuation(y)))


def test_valuation_ordering_is_right_lexicographic():
    assert valuation(_mono(5, 0)) == (5, 0)
    assert valuation(_mono(5, 0) + _mono(-9, 1)) == (5, 0)
    assert valuation(_mono(0, -1) + _mono(1, 0)) == (0, -1)
    assert valuation(FieldElem2.zero(2)) == INFINITE


def test_coefficients_reduce_mod_q():
    assert _mono(0, 0, 2, 2) == FieldElem2.zero(2)
    assert _mono(1, 1, 5, 3) == _mono(1, 1, 2, 3)


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        _mono(0, 0, 1, 2) + _mono(0, 0, 1, 3)


@pytest.mark.parametrize("exponents", [(0.5, 0), (0, 1.0), (True, 0), (0, False), ("1", 0)])
def test_non_integer_exponents_rejected(exponents):
    # a truncating int() would make {(0.5, 0): 1} the field's one
    with pytest.raises(ValueError, match=r"exponents must be integers, got \("):
        FieldElem2(3, {exponents: 1})
    with pytest.raises(ValueError, match="exponents must be integers"):
        FieldElem2(3, {exponents: 3})  # refused though its coefficient vanishes mod q


@pytest.mark.parametrize("c", [1.5, 3.0, True, False, Fraction(1, 1), "1"])
def test_non_integer_coefficients_rejected(c):
    # one int test per term: floats, bools and Fractions equal to integers alike
    with pytest.raises(ValueError, match="coefficients must be integers"):
        FieldElem2(3, {(0, 0): c})


@pytest.mark.parametrize("key", [5, None, (0,), (0, 0, 0)])
def test_exponent_keys_that_are_not_pairs_rejected(key):
    with pytest.raises(ValueError, match="exponents must be integers, got "):
        FieldElem2(3, {key: 1})


def test_parse_field_elem():
    assert parse_field_elem("t1*t2", 2) == _mono(1, 1)
    assert parse_field_elem("1+t1", 2) == _mono(0, 0) + _mono(1, 0)
    assert parse_field_elem("t1^-2*t2 + 2", 3) == _mono(-2, 1, 1, 3) + _mono(0, 0, 2, 3)
    with pytest.raises(ValueError):
        parse_field_elem("t3", 2)


def test_parse_matrix_and_determinant():
    m = parse_matrix("[[t1*t2,0],[0,t1^-1*t2^-1]]", 2)
    assert m == eta_matrix(1, 1, 1, 2)
    with pytest.raises(ValueError):
        parse_matrix("[[1,1],[t1,1]]", 2)  # determinant t1 short of 1


@given(_field_elems)
def test_field_elem_text_round_trips(x):
    assert parse_field_elem(_entry_text(x), 3) == x


@pytest.mark.parametrize("q", [2, 3])
def test_reprs_wrap_a_literal_that_parses_back(q):
    elems = [FieldElem2.zero(q), FieldElem2.one(q), _mono(-2, 1, 1, q) + _mono(0, 3, q - 1, q)]
    for x in elems:
        q_text, literal = re.fullmatch(r"FieldElem2\(q=(\d+), (.*)\)", repr(x)).groups()
        assert (int(q_text), parse_field_elem(literal, q)) == (q, x), repr(x)
    g = eta_matrix(1, -2, 1, q) * iwahori_sample(random.Random(q), q)
    for m in (identity_matrix(q), eta_matrix(2, 1, -1, q), g):
        q_text, literal = re.fullmatch(r"LocalFieldMatrix\(q=(\d+), (.*)\)", repr(m)).groups()
        assert (int(q_text), parse_matrix(literal, q)) == (q, m), repr(m)


@pytest.mark.parametrize("q", [2, 3])
def test_every_printed_rep_parses_back(q):
    # so every line of `hecke2d reps` is valid `hecke2d classify` input
    for a in (1, 2):
        for i in range(-2, 3):
            for z in enumerate_reps(a, i, q):
                assert parse_matrix(format_matrix(z), q) == z


@pytest.mark.parametrize(
    "text",
    ["[[1,1],[t1,1+t1]", "[[t1^,0],[0,1]]", "[[t1t2,0],[0,1]]", "[[1,1],[t1,1+t1]]junk"],
)
def test_malformed_literals_name_a_column(text):
    with pytest.raises(ExprError, match="column"):
        parse_matrix(text, 2)


def test_matrix_group_structure():
    q = 3
    e = identity_matrix(q)
    g = eta_matrix(2, 1, -1, q)
    assert g * g.inverse() == e
    assert (g * g).inverse() == g.inverse() * g.inverse()
    with pytest.raises(ValueError):
        LocalFieldMatrix(_mono(0, 0), _mono(0, 0), _mono(0, 0), _mono(0, 0))
    with pytest.raises(ValueError, match="sheet must be 1 or 2, got 3"):
        eta_matrix(3, 0, 0, 2)


def test_eta_matrices_have_their_own_labels():
    for q in (2, 3):
        for a in (1, 2):
            for i in (-2, 0, 1, 2):
                for j in (-1, 0, 1):
                    assert classify(eta_matrix(a, i, j, q)) == BasisIndex(a, i, j)


def test_classify_literal_example():
    assert classify(parse_matrix("[[1,1],[t1,1+t1]]", 2)) == BasisIndex(1, 0, 0)


def test_classify_rejects_singular_input():
    with pytest.raises(ValueError):
        parse_matrix("[[0,0],[0,0]]", 2)


def test_iwahori_membership():
    q = 2
    assert in_iwahori(identity_matrix(q))
    assert in_iwahori(parse_matrix("[[1,1],[t1,1+t1]]", q))
    assert not in_iwahori(eta_matrix(1, 1, 0, q))  # diagonal below the lattice
    assert not in_iwahori(parse_matrix("[[1,0],[1,1]]", q))  # unit lower-left corner


def test_rep_counts():
    for q in (2, 3):
        for i in range(0, 4):
            assert len(enumerate_reps(1, i, q)) == q ** (2 * i)
            assert len(enumerate_reps(2, i, q)) == q ** (2 * i + 1)
        for i in range(-3, 0):
            assert len(enumerate_reps(1, i, q)) == q ** (-2 * i)
            assert len(enumerate_reps(2, i, q)) == q ** (-2 * i - 1)


def test_count_reps_equals_the_enumeration():
    for q in (2, 3):
        for a in (1, 2):
            for i in range(-4, 5):
                assert count_reps(a, i, q) == len(enumerate_reps(a, i, q)), (a, i, q)


def _refusal(call) -> str:
    with pytest.raises(EnumerationError) as err:
        call()
    return str(err.value)


def test_count_reps_refuses_with_the_enumeration_text():
    # past the index limit or the cap (q^(2|i|) on sheet 1, q^|2i+1| on sheet 2)
    # both refuse alike; under them the count is that closed form, not enumerated
    refused = 0
    for q in (5, 7, 17):
        for a in (1, 2):
            for i in range(-5, 6):
                n = q ** (2 * abs(i) if a == 1 else abs(2 * i + 1))
                if abs(i) > 4 or n > 200_000:
                    text = _refusal(lambda: count_reps(a, i, q))
                    assert text == _refusal(lambda: enumerate_reps(a, i, q)), (a, i, q)
                    refused += 1
                else:
                    assert count_reps(a, i, q) == n, (a, i, q)
    assert refused == 29
    for a, i, q in [(0, 0, 2), (3, 0, 2), (True, 0, 2), (1.0, 0, 2), (1, True, 2), (1, 0.5, 2),
                    (1, 0, 4), (1, 0, 6)]:
        assert _refusal(lambda: count_reps(a, i, q)) == _refusal(lambda: enumerate_reps(a, i, q))


def test_reps_classify_home():
    for a in (1, 2):
        for i in (-2, -1, 0, 1, 2):
            for z in enumerate_reps(a, i, 2):
                assert classify(z) == BasisIndex(a, i, 0)


def test_reps_pairwise_inequivalent():
    # distinct representatives must not differ by a right Iwahori factor
    for a, i in [(1, 1), (1, -1), (2, 0), (2, 1), (2, -1)]:
        reps = enumerate_reps(a, i, 2)
        for n, z in enumerate(reps):
            for w in reps[n + 1 :]:
                assert not in_iwahori(w * z.inverse())
                assert not in_iwahori(z * w.inverse())
                # distinct cosets I*z, all inside the one coset eta*I
                assert in_iwahori(z.inverse() * w)


def test_enumeration_domain_errors():
    with pytest.raises(EnumerationError):
        enumerate_reps(3, 0, 2)
    with pytest.raises(EnumerationError):
        enumerate_reps(1, 9, 2)
    with pytest.raises(EnumerationError):
        enumerate_reps(1, 0, 4)  # not a supported residue size
    # the left factor's sheet is checked like the right one's
    with pytest.raises(EnumerationError):
        product_counts((3, 0, 0), (1, 0, 0), 2)
    with pytest.raises(EnumerationError):
        product_counts((0, 0, 0), (1, 1, 0), 2)


@pytest.mark.parametrize(
    "count",
    [
        lambda: oracle.counted_product((3, 0, 0), (1, 0, 0)),
        lambda: oracle.counted_product((1, 0.5, 0), (1, 0, 0)),
        lambda: oracle.counted_product((True, 0, 0), (1, 0, 0)),
        lambda: oracle.counted_product((1, 0, 0), (3, 0, 0)),
        lambda: product_counts((1, 0.5, 0), (1, 0, 0), 2),
        lambda: product_counts((1, 0, 0), (1, 1.5, 0), 2),
        lambda: oracle.counted_product((1, 0), (1, 0, 0)),
        lambda: oracle.counted_product(5, (1, 0, 0)),
        lambda: product_counts((1, 0, 0), (1, 0), 2),
    ],
    ids=["counted-sheet", "counted-float", "counted-bool", "counted-right-sheet",
         "counts-float", "counts-right-float", "counted-short", "counted-not-a-label",
         "counts-right-short"],
)
def test_counting_refuses_bad_labels(count):
    # a label is a sheet 1 or 2 and two integers, on either side
    with pytest.raises(EnumerationError, match="a label is"):
        count()


def test_product_counts_frozen_example():
    x = BasisIndex(2, 0, 0)
    assert product_counts(x, x, 2) == {
        BasisIndex(1, 0, 0): Fraction(1),
        BasisIndex(2, 0, 0): Fraction(1, 2),
    }
    assert product_counts(x, x, 3) == {
        BasisIndex(1, 0, 0): Fraction(1),
        BasisIndex(2, 0, 0): Fraction(2, 3),
    }


def test_product_counts_requires_level_zero():
    with pytest.raises(EnumerationError):
        product_counts(BasisIndex(1, 0, 1), BasisIndex(1, 0, 0), 2)


def test_iwahori_sample_stays_in_iwahori():
    rng = random.Random(11)
    for q in (2, 3):
        for _ in range(25):
            g = iwahori_sample(rng, q)
            assert in_iwahori(g)


def test_classification_is_coset_invariant():
    rng = random.Random(5)
    for _ in range(40):
        q = rng.choice((2, 3))
        a, i, j = rng.choice((1, 2)), rng.randint(-2, 2), rng.randint(-1, 1)
        g, h = iwahori_sample(rng, q), iwahori_sample(rng, q)
        assert classify(g * eta_matrix(a, i, j, q) * h) == BasisIndex(a, i, j)


def _literal_counts(x, y, q):
    # the counting rule with every matrix built: classify(eta(c,m,0) * z^{-1})
    (a, i, _), (b, k, _) = x, y
    inverses = [z.inverse() for z in enumerate_reps(b, k, q)]
    out = {}
    span = abs(i) + abs(k) + 1
    for c in (1, 2):
        for m in range(-span, span + 1):
            eta = eta_matrix(c, m, 0, q)
            n = sum(1 for zi in inverses if classify(eta * zi) == (a, i, 0))
            if n:
                out[BasisIndex(c, m, 0)] = Fraction(n, q)
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_product_counts_match_literal_matrix_counts(q):
    for a in (1, 2):
        for b in (1, 2):
            for i in range(-2, 3):
                for k in range(-2, 3):
                    x, y = (a, i, 0), (b, k, 0)
                    got = product_counts(x, y, q)
                    want = _literal_counts(x, y, q)
                    assert list(got.items()) == list(want.items()), (x, y, q)
                    counted = {
                        BasisIndex(c, point.lo, j): point.value_at(point.lo).eval_at_q(q)
                        for (c, j), row in oracle.counted_product(x, y).rows
                        for point in row.strips  # counted rows are point masses
                    }
                    assert counted == want, (x, y, q)


@pytest.mark.parametrize("q, bound", [(2, 3), (3, 3), (5, 2)])
def test_census_matches_enumerated_valuations(q, bound):
    for b in (1, 2):
        for k in range(-bound, bound + 1):
            tally = Counter(tuple(map(valuation, z.entries())) for z in enumerate_reps(b, k, q))
            assert oracle._census(b, k, q) == tally, (b, k, q)


def test_counts_match_the_table_for_every_q():
    # q = s^2 symbolic: each count is a polynomial in q, so this is an
    # identity in q, not a check at sample values; 676 level-0 pairs, then
    # 1296 with the left factor at level j != 0
    checked = 0
    for indices, levels in [(range(-6, 7), (0,)), (range(-4, 5), (-2, -1, 1, 2))]:
        for a, b in itertools.product((1, 2), repeat=2):
            for i, k in itertools.product(indices, repeat=2):
                for j in levels:
                    x, y = BasisIndex(a, i, j), BasisIndex(b, k, 0)
                    assert oracle.counted_product(x, y) == mul_basis(x, y), (x, y)
                    checked += 1
    assert checked == 676 + 1296


def _inverse(t):
    # the label of g^-1 for g in the double coset t: (1, i, j)^-1 = (1, -i, -j), (2, i, j)^-1 = (2, i, j)
    a, i, j = t
    return BasisIndex(1, -i, -j) if a == 1 else BasisIndex(2, i, j)


def test_counting_a_level_zero_left_factor_agrees_with_the_table_on_level():
    """chi_x * chi_y for x at level 0 and y at level l, counted as chi_{y^-1} * chi_{x^-1}
    with each target t read at t^-1.  This assumes the Haar measure is invariant under
    inversion, so that f -> f(g^-1) reverses products and keeps the 1/q normalisation
    of the left-coset and right-coset sums.  Only the level-l part is compared: the
    mass counting puts off level (on sheet 3 - b, at level -l) is not in the table."""
    checked = 0
    for a, b in itertools.product((1, 2), repeat=2):
        for i, k in itertools.product(range(-2, 3), repeat=2):
            for l in (-2, -1, 1, 2):
                x, y = BasisIndex(a, i, 0), BasisIndex(b, k, l)
                on_level = zero_element()
                for (c, j), row in oracle.counted_product(_inverse(y), _inverse(x)).rows:
                    for point in row.strips:  # counted rows are point masses
                        t = _inverse((c, point.lo, j))
                        if t.j == l:
                            on_level = on_level + point.value_at(point.lo) * chi(*t)
                assert on_level == mul_basis(x, y), (x, y)
                checked += 1
    assert checked == 400


def test_the_eta_product_label_is_weyl_mul_and_the_table_is_nonzero_there():
    # the coset z = eta_y counts towards chi_x * chi_y at t = eta_x * eta_y, so its
    # coefficient there is at least 1/q; checked where the table has it today
    small = range(-2, 3)
    for x, y in itertools.product(itertools.product((1, 2), small, small), repeat=2):
        assert classify(eta_matrix(*x, 2) * eta_matrix(*y, 2)) == weyl_mul(x, y), (x, y)
    checked = 0
    for x, y in itertools.product(itertools.product((1, 2), range(-3, 4), small), repeat=2):
        if y[2] == 0 or (x[0] == 1 and x[2] * y[2] >= 0):
            t = weyl_mul(x, y)
            assert not mul_basis(x, y).coefficient_at((t.a, t.j), t.i).is_zero(), (x, y, t)
            checked += 1
    assert checked == 2156


def _level_class(j, l):
    if l == 0:
        return "j x 0"
    if j == 0:
        return "0 x l"
    return "same signs" if j * l > 0 else "opposite signs"


def test_the_table_misses_the_eta_product_label_by_level_class():
    # where mul_basis is 0 at the eta product's label, as (misses, pairs) by left
    # sheet and level class; the classes with no miss are the 2156 pairs checked above
    tally = Counter()
    for x, y in itertools.product(itertools.product((1, 2), range(-3, 4), range(-2, 3)), repeat=2):
        t = weyl_mul(x, y)
        missed = mul_basis(x, y).coefficient_at((t.a, t.j), t.i).is_zero()
        tally[x[0], _level_class(x[2], y[2]), missed] += 1
    assert tally == {
        (1, "j x 0", False): 490, (1, "0 x l", False): 392, (1, "same signs", False): 784,
        (1, "opposite signs", True): 784,
        (2, "j x 0", False): 490, (2, "0 x l", True): 392, (2, "same signs", True): 784,
        (2, "opposite signs", True): 784,
    }


def _iota(x):
    # f -> f(g^-1) on an element of point masses: chi(t) goes to chi(t^-1)
    return sum(
        (point.value_at(point.lo) * chi(*_inverse((a, point.lo, j))) for (a, j), row in x.rows for point in row.strips),
        zero_element(),
    )


def test_inversion_reverses_level_zero_products():
    """iota(f)(g) = f(g^-1) reverses products, iota(chi_x * chi_y) = chi_{y^-1} * chi_{x^-1},
    when the Haar measure is invariant under inversion.  Checked where the table
    has it, at level 0 x 0."""
    labels = [BasisIndex(a, i, 0) for a in (1, 2) for i in range(-4, 5)]
    for x, y in itertools.product(labels, repeat=2):
        assert _iota(mul_basis(x, y)) == mul_basis(_inverse(y), _inverse(x)), (x, y)


def _has_ray(x):
    return any(s.lo != s.hi for _, row in x.rows for s in row.strips)


def test_inversion_violations_off_level_zero_are_pinned_by_level_signs():
    """iota(chi_x * chi_y) = chi_{iota(y)} * chi_{iota(x)} on both sheets, |i|, |k|, |j|, |l| <= 2.
    A pair with a ray on either side is skipped; of the 1900 finite pairs, the failures
    are counted by (left sheet, sign of j, sign of l), and no other class fails."""
    labels = [BasisIndex(a, i, j) for a in (1, 2) for i in range(-2, 3) for j in range(-2, 3)]
    skipped, failed = 0, Counter()
    for x, y in itertools.product(labels, repeat=2):
        xy, yx = mul_basis(x, y), mul_basis(_inverse(y), _inverse(x))
        if _has_ray(xy) or _has_ray(yx):
            skipped += 1
        elif _iota(xy) != yx:
            failed[x.a, (x.j > 0) - (x.j < 0), (y.j > 0) - (y.j < 0)] += 1
    assert skipped == 600
    assert failed == {
        (1, 1, 1): 100, (1, -1, -1): 100, (1, 1, 0): 70, (1, -1, 0): 70, (1, 0, 1): 40, (1, 0, -1): 40,
        (2, 1, -1): 100, (2, -1, 1): 100, (2, 0, 1): 100, (2, 0, -1): 100, (2, 1, 0): 70, (2, -1, 0): 70,
    }


def test_product_counts_builds_no_matrix_products(monkeypatch):
    calls = {"mul": 0, "inverse": 0, "classify": 0, "matrix": 0, "field": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    M, F = oracle.LocalFieldMatrix, oracle.FieldElem2
    monkeypatch.setattr(M, "__mul__", counted("mul", M.__mul__))
    monkeypatch.setattr(M, "inverse", counted("inverse", M.inverse))
    monkeypatch.setattr(oracle, "classify", counted("classify", oracle.classify))
    monkeypatch.setattr(M, "__init__", counted("matrix", M.__init__))
    monkeypatch.setattr(F, "__init__", counted("field", F.__init__))
    assert product_counts((1, 2, 0), (2, -2, 0), 3)
    assert product_counts((2, 4, 0), (1, -3, 0), 5)
    assert calls == {"mul": 0, "inverse": 0, "classify": 0, "matrix": 0, "field": 0}
    # the wrappers are live: the literal route goes through all five
    oracle.classify(eta_matrix(1, 0, 0, 3) * identity_matrix(3).inverse())
    assert min(calls.values()) == 1


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: chi(True, 0, 0), ShapeError),
        (lambda: chi(1, 0, True), ShapeError),
        (lambda: enumerate_reps(True, 0, 2), EnumerationError),
        (lambda: enumerate_reps(1, True, 2), EnumerationError),
        (lambda: product_counts((True, 0, 0), (1, 0, 0), 2), EnumerationError),
        (lambda: product_counts((1, 0, 0), (1, False, 0), 2), EnumerationError),
    ],
    ids=["chi-sheet", "chi-level", "reps-sheet", "reps-index", "counts-left", "counts-right"],
)
def test_bool_sheets_and_indices_rejected(build, error):
    with pytest.raises(error):
        build()


_RULE = "a label is a sheet 1 or 2 and two integers"
# each malformed label with the per-field reason element's check gives for it
_BAD_LABELS = {
    "sheet-0": ((0, 0, 0), "sheet must be 1 or 2, got 0"),
    "sheet-3": ((3, 0, 0), "sheet must be 1 or 2, got 3"),
    "sheet-True": ((True, 0, 0), "sheet must be 1 or 2, got True"),
    "sheet-1.0": ((1.0, 0, 0), "sheet must be 1 or 2, got 1.0"),
    "index-True": ((1, True, 0), "bound must be an integer or +-inf, got True"),
    "index-0.5": ((1, 0.5, 0), "bound must be an integer or +-inf, got 0.5"),
    "level-True": ((1, 0, True), "level must be an integer, got True"),
    "level-1.0": ((1, 0, 1.0), "level must be an integer, got 1.0"),
    "pair": ((1, 0), f"{_RULE}, got (1, 0)"),
    "non-label": (5, f"{_RULE}, got 5"),
}
_TRIPLES = [k for k, (x, _) in _BAD_LABELS.items() if isinstance(x, tuple) and len(x) == 3]
_ONE = (1, 0, 0)
# name: (call on a label, the error class, the inputs it takes); chi and
# eta_matrix take three arguments, enumerate_reps a sheet and an index
_LABEL_ENTRY_POINTS = {
    "chi": (lambda x: chi(*x), ShapeError, _TRIPLES),
    "mul_basis-left": (lambda x: mul_basis(x, _ONE), ShapeError, list(_BAD_LABELS)),
    "mul_basis-right": (lambda x: mul_basis(_ONE, x), ShapeError, list(_BAD_LABELS)),
    "weyl_mul-left": (lambda x: weyl_mul(x, _ONE), ShapeError, list(_BAD_LABELS)),
    "weyl_mul-right": (lambda x: weyl_mul(_ONE, x), ShapeError, list(_BAD_LABELS)),
    "coeff_of_product": (lambda x: coeff_of_product(chi(*_ONE), chi(*_ONE), x), ShapeError, list(_BAD_LABELS)),
    "eta_matrix": (lambda x: eta_matrix(*x, 2), ShapeError, _TRIPLES),
    "counted_product-left": (lambda x: oracle.counted_product(x, _ONE), EnumerationError, list(_BAD_LABELS)),
    "counted_product-right": (lambda x: oracle.counted_product(_ONE, x), EnumerationError, list(_BAD_LABELS)),
    "product_counts-left": (lambda x: product_counts(x, _ONE, 2), EnumerationError, list(_BAD_LABELS)),
    "product_counts-right": (lambda x: product_counts(_ONE, x, 2), EnumerationError, list(_BAD_LABELS)),
    "enumerate_reps": (lambda x: enumerate_reps(x[0], x[1], 2), EnumerationError,
                       [k for k in _TRIPLES if not k.startswith("level")]),
}


@pytest.mark.parametrize(
    "entry, label",
    [(e, k) for e, (_, _, takes) in _LABEL_ENTRY_POINTS.items() for k in takes],
    ids=lambda v: v,
)
def test_every_label_entry_point_refuses_through_one_check(entry, label):
    # one rule, one reason text; the counting side names the rule once before it
    call, error, _ = _LABEL_ENTRY_POINTS[entry]
    x, reason = _BAD_LABELS[label]
    with pytest.raises(error) as err:
        call(x)
    assert type(err.value) is error
    text = str(err.value)
    if error is ShapeError or reason.startswith(_RULE):
        assert text == reason
    else:
        assert text == f"{_RULE}: {reason}"
    assert text.count(_RULE) <= 1


def test_enumeration_refuses_more_than_the_rep_cap():
    # q^(2|i|) on sheet 1 and q^|2i+1| on sheet 2, each over 200 000
    for a, i, q in [(1, 4, 17), (2, 3, 7), (2, -4, 7), (1, -4, 7)]:
        with pytest.raises(EnumerationError, match="cosets"):
            enumerate_reps(a, i, q)


def test_counted_product_needs_a_level_zero_right_factor():
    with pytest.raises(EnumerationError, match="level zero"):
        oracle.counted_product((1, 0, 0), (1, 0, 1))


def test_field_elements_and_matrices_hash_by_value():
    q = 3
    x, y = _mono(1, 0, 1, q), FieldElem2(q, {(1, 0): 4})  # 4 = 1 mod 3
    assert x == y and hash(x) == hash(y)
    assert FieldElem2(q, {(0, 0): 3}).is_zero() and not x.is_zero()
    g, h = eta_matrix(2, 1, -1, q), eta_matrix(2, 1, -1, q)
    assert g.q == q and g == h and hash(g) == hash(h)
    assert len({g, h, identity_matrix(q)}) == 2


def test_field_elements_and_matrices_are_unequal_to_other_types():
    assert (FieldElem2.one(2) == 1) is False
    assert (FieldElem2.one(2) != 1) is True
    assert (identity_matrix(2) == "x") is False


def _point_values(h, q):
    # {label: coefficient at q} of an element whose rows are finite, in label order
    return {BasisIndex(c, m, j): v.eval_at_q(q)
            for (c, j), row in h.rows for s in row.strips
            for m in range(s.lo, s.hi + 1) if (v := s.value_at(m))}


def _within_cap(b, k, q):
    try:
        return count_reps(b, k, q) > 0
    except EnumerationError:
        return False


def test_one_count_two_views():
    # product_counts at q is counted_product's polynomial in q read at q, wherever
    # the cap lets the right factor in: both views read the same memoised count
    checked = 0
    for a, b in itertools.product((1, 2), repeat=2):
        for i, k in itertools.product(range(-3, 4), repeat=2):
            x, y = BasisIndex(a, i, 0), BasisIndex(b, k, 0)
            exact = oracle.counted_product(x, y)
            for q in (2, 3, 5, 7):
                if _within_cap(b, k, q):
                    want = _point_values(exact, q)
                    assert list(product_counts(x, y, q).items()) == list(want.items()), (x, y, q)
                    checked += 1
    assert checked == 770  # (2, 3) at q = 7 is the one right factor over the cap


def test_count_is_the_same_cold_and_warm():
    pairs = [(BasisIndex(a, i, j), BasisIndex(b, k, 0))
             for a, b in itertools.product((1, 2), repeat=2)
             for i, k in itertools.product(range(-3, 4), repeat=2) for j in (-1, 0, 2)]
    oracle._count.cache_clear()
    oracle._census_keys.cache_clear()
    cold = [oracle._count(x, y) for x, y in pairs]
    assert oracle._count.cache_info().misses == len(pairs)
    warm = [oracle._count(x, y) for x, y in pairs]
    assert oracle._count.cache_info().hits == len(pairs)
    assert warm == cold == [oracle._count.__wrapped__(x, y) for x, y in pairs]


# the counting rows of the label refusal table, then each level, index, cap and q refusal
_COUNTING_REFUSALS = {
    f"{entry}/{label}": (lambda call=call, x=_BAD_LABELS[label][0]: call(x))
    for entry, (call, _, takes) in _LABEL_ENTRY_POINTS.items()
    if entry.startswith(("product_counts-", "counted_product-"))
    for label in takes
} | {
    "counts-left-level": lambda: product_counts((1, 0, 1), (1, 0, 0), 2),
    "counts-right-level": lambda: product_counts((1, 0, 0), (2, 0, -1), 2),
    "counted-right-level": lambda: oracle.counted_product((1, 0, 0), (1, 0, 1)),
    "counts-left-index": lambda: product_counts((1, 5, 0), (1, 0, 0), 2),
    "counts-right-index": lambda: product_counts((1, 0, 0), (2, -5, 0), 2),
    "counts-cap-17^8": lambda: product_counts((1, 0, 0), (1, 4, 0), 17),
    "counts-cap-7^7": lambda: product_counts((2, 1, 0), (2, 3, 0), 7),
    "counts-q-4": lambda: product_counts((1, 0, 0), (1, 0, 0), 4),
}


@pytest.mark.parametrize("case", list(_COUNTING_REFUSALS))
def test_counting_refuses_before_reading_the_count_cache(case):
    oracle.counted_product((1, 1, 0), (2, 0, 0))  # one entry at least
    before = oracle._count.cache_info()
    with pytest.raises(EnumerationError):
        _COUNTING_REFUSALS[case]()
    assert oracle._count.cache_info() == before


def test_product_counts_builds_no_matrix_products_on_a_cache_miss(monkeypatch):
    oracle._count.cache_clear()
    oracle._census_keys.cache_clear()
    calls = {"mul": 0, "inverse": 0, "classify": 0, "matrix": 0, "field": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    M, F = oracle.LocalFieldMatrix, oracle.FieldElem2
    monkeypatch.setattr(M, "__mul__", counted("mul", M.__mul__))
    monkeypatch.setattr(M, "inverse", counted("inverse", M.inverse))
    monkeypatch.setattr(oracle, "classify", counted("classify", oracle.classify))
    monkeypatch.setattr(M, "__init__", counted("matrix", M.__init__))
    monkeypatch.setattr(F, "__init__", counted("field", F.__init__))
    assert product_counts((1, 2, 0), (2, -2, 0), 3)
    assert product_counts((2, 4, 0), (1, -3, 0), 5)
    assert oracle._count.cache_info().misses == 2 and oracle._count.cache_info().hits == 0
    assert calls == {"mul": 0, "inverse": 0, "classify": 0, "matrix": 0, "field": 0}
