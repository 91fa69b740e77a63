"""Element representation: strips, rows, arithmetic, and JSON round-trips."""

import json
import time

import pytest
from hypothesis import assume, given, strategies as st

from hecke2d import (
    Coeff,
    ExpPolyTerm,
    HeckeElement,
    IndexPoly,
    ParseError,
    ShapeError,
    Strip,
    add,
    chi,
    coefficient_at,
    element_from_json,
    element_to_json,
    equals,
    iota,
    level_projection,
    mul,
    phi,
    scale,
    theta,
    zero_element,
)
from hecke2d.cli import main, parse_element
from hecke2d.coeff import ONE, Q
from hecke2d.element import NEG_INF, POS_INF, RowSeries, merge_terms, normalize_strips
from hecke2d.text import format_element

polys = st.builds(
    lambda cs: IndexPoly(tuple(Coeff.integer(c) for c in cs)),
    st.lists(st.integers(-5, 5), min_size=0, max_size=4),
)


@given(polys, polys, st.integers(-6, 6))
def test_index_poly_arithmetic_matches_pointwise(p, r, m):
    assert (p + r).eval(m) == p.eval(m) + r.eval(m)
    assert (p * r).eval(m) == p.eval(m) * r.eval(m)
    assert (-p).eval(m) == -p.eval(m)


@given(polys)
def test_index_poly_text_round_trip(p):
    # the zero polynomial has no terms to print, so nothing to round-trip
    assume(not p.is_zero())
    assert IndexPoly.parse_descending(p.text_descending()) == p


def test_index_poly_scalar_product():
    p = IndexPoly((1, 2))
    assert (p * Q).eval(3) == Q * 7
    assert p.degree == 1
    assert IndexPoly(()).is_zero()


def _ray(a, j, lo, hi, e=0, poly=None):
    terms = (ExpPolyTerm(e, poly if poly is not None else IndexPoly.constant(ONE)),)
    return HeckeElement([((a, j), (Strip(lo, hi, terms),))])


def test_strip_validation():
    ok = Strip(0, 5, (ExpPolyTerm(0, IndexPoly.constant(ONE)),))
    assert ok.value_at(3) == ONE
    assert ok.value_at(9).is_zero()
    with pytest.raises(ShapeError):
        Strip(3, 1, (ExpPolyTerm(0, IndexPoly.constant(ONE)),))
    with pytest.raises(ShapeError):
        Strip(NEG_INF, POS_INF, (ExpPolyTerm(0, IndexPoly.constant(ONE)),))
    with pytest.raises(ShapeError):
        Strip(0, 1, ())
    with pytest.raises(ShapeError):
        Strip(0, 1, (ExpPolyTerm(0, IndexPoly(())),))
    with pytest.raises(ShapeError):
        Strip(
            0,
            1,
            (
                ExpPolyTerm(2, IndexPoly.constant(ONE)),
                ExpPolyTerm(0, IndexPoly.constant(ONE)),
            ),
        )


def test_row_shape_constraints():
    # positive levels extend down, negative levels extend up, level 0 is finite
    _ray(1, 1, NEG_INF, 4)
    _ray(1, -1, 0, POS_INF)
    _ray(2, 0, -3, 3)
    with pytest.raises(ShapeError):
        _ray(1, 1, 0, POS_INF)
    with pytest.raises(ShapeError):
        _ray(1, -1, NEG_INF, 0)
    with pytest.raises(ShapeError):
        _ray(1, 0, 0, POS_INF)
    # raw keys are checked before rows merge: True would join row (1, 0)
    one = Strip(0, 0, (ExpPolyTerm(0, IndexPoly.constant(ONE)),))
    with pytest.raises(ShapeError):
        HeckeElement([((1, 0), [one]), ((True, 0), [one])])
    with pytest.raises(ShapeError):
        HeckeElement([((1, 0), [one]), ((1, False), [one])])
    with pytest.raises(ShapeError):
        HeckeElement([((3, 0), [])])


def test_strip_rejects_bool_bounds():
    # bool is an int subclass, but True is not an index
    one = (ExpPolyTerm(0, IndexPoly.constant(ONE)),)
    with pytest.raises(ShapeError):
        Strip(True, 3, one)
    with pytest.raises(ShapeError):
        Strip(0, False, one)


def test_element_linear_structure():
    x, y = chi(1, 2, -1), chi(2, 0, 3)
    assert add(x, y) == y + x
    assert x - x == zero_element()
    assert (x - x).is_zero()
    assert scale(Q, x) == x.scale(Q)
    assert x.scale(0).is_zero()
    assert equals(x + x, x.scale(2))
    assert -(-x) == x


def test_adjacent_strips_merge_semantically():
    left = _ray(1, 0, 0, 2)
    right = _ray(1, 0, 3, 5)
    assert left + right == _ray(1, 0, 0, 5)
    assert (left + right).rows == _ray(1, 0, 0, 5).rows


def test_coefficient_lookup():
    x = theta(0, -1)
    assert coefficient_at(x, (1, -1), 0) == ONE
    assert coefficient_at(x, (2, -1), 3) == -(Q - ONE) * Q**3
    assert coefficient_at(x, (2, -1), -1).is_zero()
    assert coefficient_at(x, (1, 5), 0).is_zero()


def test_levels_and_projection():
    x = chi(1, 0, 2) + chi(2, 1, -1) + chi(1, 3, 2)
    assert x.levels() == (-1, 2)
    assert level_projection(x, 2) == chi(1, 0, 2) + chi(1, 3, 2)
    assert level_projection(x, 0).is_zero()


def test_power_rebuilds_from_identity():
    x = chi(2, 0, 0)
    assert x**0 == iota()
    assert x**2 == mul(x, x)
    with pytest.raises(ValueError):
        x**-1


def test_equality_is_structural_on_the_normal_form():
    split = _ray(2, -1, 0, 0) + _ray(2, -1, 1, POS_INF)
    whole = _ray(2, -1, 0, POS_INF)
    assert split == whole
    assert not (split - whole)
    assert split != whole + chi(1, 0, 0)


def test_json_round_trip():
    for x in (
        zero_element(),
        iota(),
        theta(-1, 0),
        theta(0, -1),
        mul(phi(2), phi(2)),
        mul(chi(2, 0, 1), chi(1, 0, 1)),
    ):
        blob = element_to_json(x)
        assert element_from_json(json.loads(json.dumps(blob))) == x


def test_json_bounds_spelling():
    blob = element_to_json(mul(phi(2), phi(2)))
    (row,) = blob["rows"]
    assert row["a"] == 2 and row["j"] == -2
    assert row["strips"][0]["hi"] == "+inf"
    blob2 = element_to_json(mul(chi(2, 0, 1), chi(1, 0, 1)))
    assert blob2["rows"][0]["strips"][0]["lo"] == "-inf"


def test_json_rejects_malformed():
    with pytest.raises(ParseError):
        element_from_json({})
    with pytest.raises(ParseError):
        element_from_json(
            {"rows": [{"a": 1, "j": 0, "strips": [{"lo": "oops", "hi": 0, "terms": []}]}]}
        )


def _json_doc(row=(), strip=(), term=()):
    # the JSON of chi(1,0,0), with some fields overridden
    t = {"e": 0, "poly": ["1"], **dict(term)}
    s = {"lo": 0, "hi": 0, "terms": [t], **dict(strip)}
    return {"rows": [{"a": 1, "j": 0, "strips": [s], **dict(row)}]}


_MALFORMED_JSON = {
    "not an object": [],
    "missing key": {"rows": [{"a": 1, "strips": []}]},
    "rows not a list": {"rows": "x"},
    "poly entry not a string": _json_doc(term={"poly": [1]}),
    "poly is a string": _json_doc(term={"poly": "12"}),
    "poly divides by zero": _json_doc(term={"poly": ["1/0"]}),
    "sheet is a bool": _json_doc(row={"a": True}),
    "sheet is a float": _json_doc(row={"a": 1.0}),
    "step is a bool": _json_doc(term={"e": True}),
    "bound is a bool": _json_doc(strip={"lo": True}),
    "sheet out of range": _json_doc(row={"a": 3}),
}


@pytest.mark.parametrize("doc", list(_MALFORMED_JSON.values()), ids=list(_MALFORMED_JSON))
def test_json_malformed_documents_raise_parse_error(doc):
    assert element_from_json(_json_doc()) == chi(1, 0, 0)
    with pytest.raises(ParseError):
        element_from_json(doc)


# -- the normal form ----------------------------------------------------------

_terms = st.lists(
    st.tuples(st.sampled_from((-2, 0, 2)), polys), min_size=1, max_size=2
).map(merge_terms).filter(bool)


def _as_points(p, ms):
    values = [(m, p.value_at(m)) for m in ms]
    return [Strip(m, m, ((0, IndexPoly.constant(c)),)) for m, c in values if not c.is_zero()]


@st.composite
def _row_and_recut(draw):
    """Strips of a random row, and the same row cut at random indices, with
    ray ends respelled as points and optionally a cancelling pair added."""
    whole = []
    if draw(st.booleans()):
        end, terms = draw(st.integers(-5, 5)), draw(_terms)
        whole.append(Strip(end, POS_INF, terms) if draw(st.booleans()) else Strip(NEG_INF, end, terms))
    for m, c in draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 3)), max_size=4)):
        whole.append(Strip(m, m, ((0, IndexPoly.constant(c)),)))
    for lo, width in draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 5)), max_size=3)):
        whole.append(Strip(lo, lo + width, draw(_terms)))
    pieces = list(whole)
    if draw(st.booleans()):
        lo, terms = draw(st.integers(-8, 8)), draw(_terms)
        hi = draw(st.sampled_from((lo + draw(st.integers(0, 6)), POS_INF)))
        pieces += [Strip(lo, hi, terms), Strip(lo, hi, tuple((e, -p) for e, p in terms))]
    cuts = sorted(set(draw(st.lists(st.integers(-10, 10), max_size=4))))
    recut = []
    for p in pieces:
        # respell the finite end of a ray as point masses with the same values
        r = draw(st.integers(0, 3))
        if p.hi == POS_INF:
            recut += _as_points(p, range(p.lo, p.lo + r))
            p = Strip(p.lo + r, POS_INF, p.terms)
        elif p.lo == NEG_INF:
            recut += _as_points(p, range(p.hi - r + 1, p.hi + 1))
            p = Strip(NEG_INF, p.hi - r, p.terms)
        lo = p.lo
        for c in cuts:
            if lo < c <= p.hi:
                recut.append(Strip(lo, c - 1, p.terms))
                lo = c
        recut.append(Strip(lo, p.hi, p.terms))
    return whole, recut


def _level_for(row):
    # the level sign that admits the row's support shape
    if row and row[0].lo == NEG_INF:
        return 1
    return -1 if row and row[-1].hi == POS_INF else 0


@given(_row_and_recut())
def test_normal_form_depends_only_on_values(data):
    whole, recut = data
    form = normalize_strips(whole)
    assert normalize_strips(recut) == form
    assert normalize_strips(form) == form
    for m in range(-20, 21):
        assert RowSeries(form).value_at(m) == sum((p.value_at(m) for p in whole), Coeff())
    # every strip ends on a nonzero value, and finite strips are point masses
    for piece in form:
        assert not piece.value_at(piece.hi if piece.lo == NEG_INF else piece.lo).is_zero()
        if piece.lo != NEG_INF and piece.hi != POS_INF:
            assert piece.lo == piece.hi and piece.terms[0].e == 0
    key = (1, _level_for(form))
    x, y = HeckeElement([(key, whole)]), HeckeElement([(key, recut)])
    assert x.rows == y.rows and hash(x) == hash(y)


def test_ray_reaches_inward_and_starts_on_a_nonzero_value():
    one = ((0, IndexPoly.constant(ONE)),)
    # a point mass with the ray's value there joins the ray
    assert normalize_strips([Strip(0, POS_INF, one), Strip(-1, -1, one)]) == (
        Strip(-1, POS_INF, one),
    )
    # 1 + m vanishes at -1 and 1 - m at 1, so those rays start one step further out
    up, down = ((0, IndexPoly((1, 1))),), ((0, IndexPoly((1, -1))),)
    assert normalize_strips([Strip(-1, POS_INF, up)]) == (Strip(0, POS_INF, up),)
    assert normalize_strips([Strip(NEG_INF, 1, down)]) == (Strip(NEG_INF, 0, down),)


def test_bracketings_print_identically():
    left = parse_element("iota*(theta(0,-1)*theta(-1,0))")
    right = parse_element("(iota*theta(0,-1))*theta(-1,0)")
    assert format_element(left) == format_element(right)
    assert left.rows == right.rows and hash(left) == hash(right)


def test_finite_part_is_capped():
    assert len(_ray(1, 0, 0, 1023).row((1, 0)).strips) == 1024
    with pytest.raises(ShapeError):
        _ray(1, 0, 0, 5000)
    blob = element_to_json(chi(1, 0, 0))
    blob["rows"][0]["strips"][0]["hi"] = 5000
    with pytest.raises(ParseError):
        element_from_json(blob)


def test_cli_refuses_wide_finite_rows_quickly(capsys):
    start = time.perf_counter()
    assert main(["mul", "strip(1,0,0..5000: 1)", "chi(1,0,0)"]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("n,status,budget", [(200, 0, 5.0), (600, 2, 10.0)])
def test_wide_level_zero_products_finish_quickly(n, status, budget, capsys):
    # every point of the finite part is evaluated with s-powers near s^(4n)
    start = time.perf_counter()
    assert main(["mul", f"chi(1,{n},0)", f"chi(1,-{n},0)"]) == status
    assert time.perf_counter() - start < budget
    assert "Traceback" not in capsys.readouterr().err


def test_wide_level_zero_product_is_refused_within_a_second(capsys):
    start = time.perf_counter()
    assert main(["mul", "chi(1,600,0)", "chi(1,-600,0)"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
