"""Element representation: strips, rows, arithmetic, and JSON round-trips."""

import json

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
    canonicalize,
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
from hecke2d.coeff import ONE, Q
from hecke2d.element import NEG_INF, POS_INF

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
    assert canonicalize(left + right).rows == _ray(1, 0, 0, 5).rows


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


def test_equality_is_semantic_not_structural():
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
