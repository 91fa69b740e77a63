"""Element representation: strips, rows, arithmetic, and JSON round-trips."""

import json
import random
import re
import time
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

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
from hecke2d import element
from hecke2d.cli import main, parse_element
from hecke2d.coeff import ONE, Q, ZERO
from hecke2d.element import (
    _MAX_POINTS,
    NEG_INF,
    POS_INF,
    RowSeries,
    _atoms,
    _element,
    _normal_rows,
    _sum,
    merge_terms,
    normalize_strips,
    terms_value,
)
from hecke2d.presets import theta_monomial
from hecke2d.product import _add_run
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


def test_index_polys_are_immutable_trimmed_tuples():
    p = IndexPoly((1, Fraction(1, 2), 0, 0))
    cs = (ONE, Coeff.rational(1, 2))
    # trailing zeros are trimmed, and coeffs is the polynomial itself
    assert p == cs and p.coeffs is p and len(p) == 2 and p.degree == 1
    assert IndexPoly((0, 0)) == () and IndexPoly((0, 0)).is_zero()
    # the hash of its coefficient tuple, so hash(HeckeElement) is what it was
    assert hash(p) == hash(cs) and hash(IndexPoly()) == hash(())
    assert repr(p) == "IndexPoly[(1/2)*m + 1]" and repr(IndexPoly()) == "IndexPoly[0]"
    for name in ("coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, cs)


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


def _containers(rows: dict) -> list:
    # a mapping, read through the Mapping check, or (key, strips) pairs in a
    # list, a tuple or a generator
    pairs = list(rows.items())
    return [rows, types.MappingProxyType(rows), pairs, tuple(pairs), (pair for pair in pairs)]


def test_constructor_takes_rows_in_every_container():
    one = (ExpPolyTerm(0, IndexPoly.constant(ONE)),)
    rows = {(1, 0): [Strip(-1, -1, one), Strip(2, 3, one)], (2, -1): [Strip(0, POS_INF, one)],
            (1, 2): (Strip(NEG_INF, 1, one), Strip(4, 4, one))}
    built = [HeckeElement(form) for form in _containers(rows)]
    assert built[0].levels() == (-1, 0, 2)
    assert all(x == built[0] for x in built)
    for bad, reason in [((3, 0), "sheet must be 1 or 2, got 3"), ((1, 0.5), "level must be an integer, got 0.5")]:
        for form in _containers({**rows, bad: [Strip(0, 0, one)]}):
            with pytest.raises(ShapeError) as err:
                HeckeElement(form)
            assert str(err.value) == reason


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
    assert chi(1, 0, 0) * 2 == chi(1, 0, 0).scale(2)
    assert chi(1, 0, 0) * Fraction(1, 2) == chi(1, 0, 0).scale(Fraction(1, 2))
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


@pytest.mark.parametrize(
    "key, m, error",
    [
        ((2, -1), 2.5, "bound must be an integer or +-inf, got 2.5"),
        ((2, -1), 3.0, "bound must be an integer or +-inf, got 3.0"),
        ((2, -1), True, "bound must be an integer or +-inf, got True"),
        ((True, -1), 0, "sheet must be 1 or 2, got True"),
        ((2, -1.0), 0, "level must be an integer, got -1.0"),
    ],
)
def test_coefficient_at_refuses_a_float_or_bool_index(key, m, error):
    # refused by the label check, not read as a malformed scalar or another row
    with pytest.raises(ShapeError, match=re.escape(error)):
        theta(0, -1).coefficient_at(key, m)
    assert theta(0, -1).coefficient_at((2, -1), 3) == -(Q - ONE) * Q**3


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


_MALFORMED_JSON = {  # each document, and the refusal it must reach
    "not an object": ([], "an object with a 'rows' field"),
    "missing key": ({"rows": [{"a": 1, "strips": []}]}, "an object with a 'j' field"),
    "rows not a list": ({"rows": "x"}, "'rows' must be of type list"),
    "poly entry not a string": (_json_doc(term={"poly": [1]}), "'poly' must be a list of strings"),
    "poly is a string": (_json_doc(term={"poly": "12"}), "'poly' must be of type list"),
    "poly divides by zero": (_json_doc(term={"poly": ["1/0"]}), "division by zero"),
    "poly is empty": (_json_doc(term={"poly": []}), "empty coefficient list"),
    "sheet is a bool": (_json_doc(row={"a": True}), "'a' must be of type int, got True"),
    "sheet is a float": (_json_doc(row={"a": 1.0}), "'a' must be of type int, got 1.0"),
    "step is a bool": (_json_doc(term={"e": True}), "'e' must be of type int, got True"),
    "bound is a bool": (_json_doc(strip={"lo": True}), "bad bound True"),
    "sheet out of range": (_json_doc(row={"a": 3}), "sheet must be 1 or 2, got 3"),
    "row with rays both ways": (_json_doc(row={"j": 1, "strips": [
        {"lo": "-inf", "hi": 0, "terms": [{"e": 0, "poly": ["1"]}]},
        {"lo": 5, "hi": "+inf", "terms": [{"e": 0, "poly": ["1"]}]},
    ]}), "a row cannot be infinite on both sides"),
}


@pytest.mark.parametrize("doc, refusal", list(_MALFORMED_JSON.values()), ids=list(_MALFORMED_JSON))
def test_json_malformed_documents_raise_parse_error(doc, refusal):
    assert element_from_json(_json_doc()) == chi(1, 0, 0)
    with pytest.raises(ParseError, match=re.escape(refusal)):
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


@st.composite
def _strip_lists(draw):
    """Overlapping, cancelling strips whose summed finite width is often exactly
    _MAX_POINTS or one more, far enough apart to span past it; sometimes a ray."""
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(-700, 700))
        pieces.append(Strip(lo, lo + draw(st.integers(0, 3)), draw(_terms)))
    if draw(st.booleans()):
        p = draw(st.sampled_from(pieces))
        pieces.append(Strip(p.lo, p.hi, tuple((e, -q) for e, q in p.terms)))
    width = sum(p.hi - p.lo + 1 for p in pieces)
    pad = draw(st.sampled_from((0, _MAX_POINTS, _MAX_POINTS + 1))) - width
    if pad > 0:
        lo = draw(st.integers(-700, 700))
        pieces.append(Strip(lo, lo + pad - 1, draw(_terms)))
    if draw(st.booleans()):
        end, terms = draw(st.integers(-20, 20)), draw(_terms)
        pieces.append(Strip(end, POS_INF, terms) if draw(st.booleans()) else Strip(NEG_INF, end, terms))
    return draw(st.permutations(pieces))


def _expected_points(pieces, window):
    """The indices of the window the normal form must hold as point masses."""
    f = {m: sum((p.value_at(m) for p in pieces), Coeff()) for m in window}
    rays = [p for p in pieces if p.lo == NEG_INF or p.hi == POS_INF]  # all on one side
    terms = merge_terms(t for p in rays for t in p.terms)
    if not terms:
        return [m for m in window if f[m]]
    # the ray covers everything outward of the row's last difference from its
    # tail, moved outward past zeros of the tail
    up = rays[0].hi == POS_INF
    ms = window[::-1] if up else window
    step = 1 if up else -1
    start = next(m for m in ms if f[m] != terms_value(terms, m)) + step
    while terms_value(terms, start).is_zero():
        start += step
    return [m for m in window if f[m] and (m < start if up else m > start)]


@settings(max_examples=40, deadline=None)
@given(_strip_lists())
def test_normal_form_sums_pieces_and_refuses_exactly_at_the_cap(pieces):
    ends = [b for p in pieces for b in (p.lo, p.hi) if b not in (NEG_INF, POS_INF)]
    window = list(range(min(ends) - 12, max(ends) + 13))
    points = _expected_points(pieces, window)
    if points and points[-1] - points[0] >= _MAX_POINTS:
        with pytest.raises(ShapeError, match="spans more than"):
            normalize_strips(pieces)
        return
    row = RowSeries(normalize_strips(pieces))
    for m in window:
        assert row.value_at(m) == sum((p.value_at(m) for p in pieces), Coeff())
    finite = [s for s in row.strips if s.lo != NEG_INF and s.hi != POS_INF]
    assert [s.lo for s in finite] == points
    assert all(s.lo == s.hi and not s.value_at(s.lo).is_zero() for s in finite)


def _json_row(*strips):
    return {
        "rows": [
            {"a": 1, "j": 0, "strips": [
                {"lo": lo, "hi": hi, "terms": [{"e": 0, "poly": [c]}]} for lo, hi, c in strips
            ]}
        ]
    }


@pytest.mark.parametrize(
    "doc,want",
    [
        # each strip is narrow, but together they cover 4 million indices
        (_json_row(*((0, 1000, c) for _ in range(2000) for c in ("1", "-1"))), zero_element()),
        (_json_row((0, 10**6, "s"), (0, 10**6, "-s"), (7, 7, "3")), 3 * chi(1, 7, 0)),
        (_json_row((0, 10**6, "1")), None),
    ],
)
def test_wide_or_many_cancelling_json_strips_answer_within_a_second(doc, want):
    start = time.perf_counter()
    if want is None:
        with pytest.raises(ParseError, match="spans more than 1024 indices"):
            element_from_json(doc)
    else:
        assert element_from_json(doc) == want
    assert time.perf_counter() - start < 1.0


_values = st.sampled_from(
    [ONE, -ONE, Q - ONE, Coeff.s_power(-3), Coeff.rational(1, 2), ONE / (Coeff.s_power(1) + ONE)]
)


@st.composite
def _runs(draw, widths=(1, 2, 5, _MAX_POINTS - 1, _MAX_POINTS, _MAX_POINTS + 1)):
    """Geometric runs (key, lo, hi, e, c): widths around _MAX_POINTS, runs that
    cancel to zero or to a few indices at one end, and at most one ray.

    All runs share one step e: values s^(e*m) with unlike steps over a
    thousand indices are dense polynomials of degree ~4000, slow to sum.
    """
    runs = []
    e = draw(st.sampled_from((-2, 0, 2)))
    for _ in range(draw(st.integers(1, 4))):
        key = (draw(st.sampled_from((1, 2))), draw(st.integers(-1, 1)))
        lo = draw(st.integers(-40, 40))
        width, c = draw(st.sampled_from(widths)), draw(_values)
        runs.append((key, lo, lo + width - 1, e, c))
        if draw(st.booleans()):
            runs.append((key, lo + draw(st.integers(0, min(3, width - 1))), lo + width - 1, e, -c))
    if draw(st.booleans()):  # on the side its level allows
        key = (draw(st.sampled_from((1, 2))), draw(st.sampled_from((-1, 1))))
        end = draw(st.integers(-20, 20))
        lo, hi = (end, POS_INF) if key[1] < 0 else (NEG_INF, end)
        runs.append((key, lo, hi, e, draw(_values)))
    return draw(st.permutations(runs))


def _checked(runs):
    return HeckeElement(
        (key, [Strip(lo, hi, ((e, IndexPoly.constant(c)),))]) for key, lo, hi, e, c in runs
    )


@settings(max_examples=60, deadline=None)
@given(_runs())
def test_point_map_rows_match_the_checked_constructor(runs):
    points, swept = {}, {}
    for run in runs:
        _add_run(points, swept, *run)
    try:
        want = _checked(runs)
    except ShapeError as err:
        with pytest.raises(ShapeError) as got:
            _normal_rows(points, swept)
        assert str(got.value) == str(err)
        return
    assert _element(_normal_rows(points, swept)) == want


@settings(max_examples=40, deadline=None)
@given(
    _runs(widths=(1, 2, 5)),
    st.sampled_from(
        [theta(0, -1), theta_monomial(-2, -2), mul(phi(2), theta(0, -1)), mul(phi(2), phi(2))]
    ),
    _values,
)
def test_scale_keeps_the_normal_form(runs, ray, c):
    try:
        x = _checked(runs) + ray
    except ShapeError:
        assume(False)
    renormalised = HeckeElement(
        (key, [Strip(s.lo, s.hi, tuple((e, p * c) for e, p in s.terms)) for s in row.strips])
        for key, row in x.rows
    )
    assert x.scale(c) == renormalised


def test_row_with_a_monic_gcd_builds_within_a_second():
    # each value is c*s^(2m) + c*s^(-2m), whose gcd with s + 1 is taken at full degree
    c = ONE / (Coeff.s_power(1) + ONE)
    start = time.perf_counter()
    terms = ((-2, IndexPoly.constant(c)), (2, IndexPoly.constant(c)))
    x = HeckeElement([((1, 0), [Strip(0, 255, terms)])])
    assert time.perf_counter() - start < 1.0
    for m in (0, 1, 100, 255):
        assert x.coefficient_at((1, 0), m) == c * (Coeff.s_power(-2 * m) + Coeff.s_power(2 * m))
    assert x.coefficient_at((1, 0), 256).is_zero()


_ray_polys = st.lists(st.integers(-2, 2), min_size=1, max_size=3).filter(any)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-3, 3),
    st.booleans(),
    st.lists(st.tuples(st.integers(-2, 2), _ray_polys), min_size=1, max_size=3,
             unique_by=lambda t: t[0]),
    st.booleans(),
)
def test_lone_ray_rows_equal_their_swept_normal_form(end, up, parts, vanish_at_end):
    # a lone ray is kept as it is only where the sweep would return it unchanged
    poly = lambda cs: IndexPoly(tuple(Coeff.integer(v) for v in cs))
    terms = merge_terms((e, poly(cs)) for e, cs in parts)
    if vanish_at_end:  # times (m - end), so the ray's first value is zero
        terms = merge_terms((e, p * poly((-end, 1))) for e, p in terms)
    ray = Strip(end, POS_INF, terms) if up else Strip(NEG_INF, end, terms)
    key = (1, -1 if up else 1)
    ((_, row),) = _normal_rows({}, {key: [ray]})
    assert row.strips == normalize_strips([ray])
    assert (row.strips == (ray,)) == (not terms_value(terms, end).is_zero())


def test_strips_and_rows_are_immutable_named_tuples():
    one = IndexPoly.constant(ONE)
    t = ((0, one),)
    s, p = Strip(1, POS_INF, t), Strip(-1, -1, t)
    row = RowSeries((p, s))
    # the frozen-dataclass hashes, so hash(HeckeElement) is what it was
    assert hash(s) == hash((1, POS_INF, s.terms)) and hash(row) == hash(((p, s),))
    assert repr(p) == "Strip(lo=-1, hi=-1, terms=(ExpPolyTerm(e=0, poly=IndexPoly[1]),))"
    assert repr(RowSeries(())) == "RowSeries(strips=())"
    for obj, name in [(s, "lo"), (s, "terms"), (s, "other"), (row, "strips")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    refused = [
        (lambda: Strip(2, 1, t), "empty strip [2, 1]"),
        (lambda: Strip(NEG_INF, POS_INF, t), "a strip cannot be infinite on both sides"),
        (lambda: Strip(0.5, 1, t), "bound must be an integer or +-inf, got 0.5"),
        (lambda: Strip(0, 1, ()), "strip with no terms"),
        (lambda: Strip(0, 1, ((1, one), (0, one))), "strip terms must have distinct ascending steps"),
        (lambda: Strip(0, 1, ((0, IndexPoly()),)), "strip term with zero polynomial"),
        (lambda: RowSeries((Strip(0, 2, t), Strip(2, 3, t))), "row strips must be disjoint and ascending"),
    ]
    for build, text in refused:
        with pytest.raises(ShapeError) as err:
            build()
        assert str(err.value) == text


def _cut(monkeypatch):
    """Record the pieces of every row that is cut into stretches by element._atoms."""
    cut = []
    monkeypatch.setattr(element, "_atoms", lambda pieces: cut.append(pieces) or _atoms(pieces))
    return cut


@pytest.mark.parametrize("seed", range(8))
def test_a_ray_grows_over_the_points_that_continue_it_without_the_sweep(seed, monkeypatch):
    rng = random.Random(seed)
    cut = _cut(monkeypatch)
    poly = lambda: IndexPoly(tuple(Coeff.integer(rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))))
    grown = 0
    for _ in range(25):
        terms = ()
        while not terms:
            terms = merge_terms((rng.randint(-2, 2), poly()) for _ in range(rng.randint(1, 2)))
        end, up = rng.randint(-3, 3), rng.random() < 0.5
        ray = Strip(end, POS_INF, terms) if up else Strip(NEG_INF, end, terms)
        inward = -1 if up else 1
        # values that continue the ray's terms, one that may break off, then any values
        ms = [end + d * inward for d in range(1, 10)]
        run = rng.randint(0, 4)
        acc = {m: terms_value(terms, m) for m in ms[:run]}
        acc[ms[run]] = terms_value(terms, ms[run]) + Coeff.integer(rng.choice([0, 1, -3]))
        for m in rng.sample(ms[run + 1:], 3):
            acc[m] = rng.choice([Coeff.integer(rng.randint(-2, 2)), terms_value(terms, m)])
        key = (1, -1 if up else 1)
        ((_, row),) = _normal_rows({key: acc}, {key: [ray]})
        assert not cut  # a lone ray is walked with its values in place
        points = [Strip(m, m, ((0, IndexPoly((c,))),)) for m, c in acc.items() if not c.is_zero()]
        assert row.strips == normalize_strips([ray, *points])
        cut.clear()
        out = row.strips[-1] if up else row.strips[0]
        grown += out.lo < end if up else out.hi > end
    assert grown


def test_a_ray_plus_points_off_its_span_is_summed_without_the_sweep(monkeypatch):
    # theta(0, -1) has the ray [0, inf) on sheet 2 and a point at 0 on sheet 1
    off = [theta(0, -1), 3 * chi(2, -5, -1), chi(2, -1, -1), chi(1, 4, -1)]
    inside = [theta(0, -1), 3 * chi(2, 5, -1)]
    want = [_summed_by_the_constructor(xs).rows for xs in (off, inside)]
    cut = _cut(monkeypatch)
    # a point inside the ray's span is read off the map in place too
    assert [_sum(off).rows, _sum(inside).rows] == want and not cut


def test_a_lone_ray_row_evaluates_its_terms_once(monkeypatch):
    rays = [
        (key, s)
        for x in (theta(0, -1), mul(phi(2), phi(2)), mul(phi(2), theta(0, -1)), theta_monomial(-2, -2))
        for key, row in x.rows
        for s in row.strips
        if s.lo == NEG_INF or s.hi == POS_INF
    ]
    assert len(rays) >= 4
    calls = []
    monkeypatch.setattr(element, "terms_value", lambda t, m: calls.append(m) or terms_value(t, m))
    cut = _cut(monkeypatch)
    for key, ray in rays:
        calls.clear()
        ((_, got),) = _normal_rows({}, {key: [ray]})
        assert got.strips == (ray,) and len(calls) == 1
    assert not cut


@st.composite
def _rays_and_values(draw):
    """A row key, 2-4 strips of which one or two are rays, and a map {m: value}
    with values inside and outside the first ray's span.  Some values continue
    the ray's terms from its end, across a zero of them; some are zero, so that
    the ray can still grow over the values past its end."""
    end, terms, up = draw(st.integers(-4, 4)), draw(_terms), draw(st.booleans())
    inward = -1 if up else 1
    if draw(st.booleans()):  # times (m - z), so the terms vanish just inward of the end
        z = end + inward * draw(st.integers(1, 3))
        terms = merge_terms((e, p * IndexPoly((-z, 1))) for e, p in terms)
    strips = [Strip(end, POS_INF, terms) if up else Strip(NEG_INF, end, terms)]
    if draw(st.integers(0, 3)) == 0:
        other, more = draw(st.integers(-4, 4)), draw(_terms)
        strips.append(Strip(other, POS_INF, more) if draw(st.booleans()) else Strip(NEG_INF, other, more))
    for _ in range(draw(st.integers(2 - len(strips), 4 - len(strips)))):
        # anywhere, or inward of the values that continue the ray
        lo = draw(st.one_of(st.integers(-8, 8), st.just(end + inward * draw(st.integers(7, 9)))))
        strips.append(Strip(lo, lo + draw(st.integers(0, 3)), draw(_terms)))
    run = [end + inward * d for d in range(1, draw(st.integers(0, 5)) + 1)]
    values = {m: terms_value(terms, m) for m in run}
    for d in draw(st.lists(st.integers(0, 5), min_size=1, max_size=2, unique=True)):
        m = end - inward * d
        values[m] = draw(st.sampled_from([ZERO, -terms_value(terms, m), ONE, Q - ONE]))
    for m in draw(st.lists(st.integers(-8, 8), max_size=2, unique=True)):
        ray_value = terms_value(terms, m)
        values.setdefault(m, draw(st.sampled_from([ray_value, -ray_value, ZERO, ONE])))
    assume(any((m < end if up else m > end) for m in values))
    # mostly the level the first ray's side allows, sometimes one it does not
    key = (draw(st.sampled_from((1, 2))), inward * draw(st.sampled_from((1, 1, 1, 0, -1))))
    return key, draw(st.permutations(strips)), values


@settings(max_examples=150, deadline=None)
@given(_rays_and_values())
def test_a_map_over_swept_strips_equals_the_strips_with_point_masses(data):
    key, strips, values = data
    points = [Strip(m, m, ((0, IndexPoly((c,))),)) for m, c in values.items() if not c.is_zero()]
    try:
        want = HeckeElement([(key, [*strips, *points])])
    except ShapeError as err:
        with pytest.raises(ShapeError) as got:
            _normal_rows({key: values}, {key: strips})
        assert str(got.value) == str(err)
        return
    got = _element(_normal_rows({key: values}, {key: strips}))
    assert got == want
    assert got.row(key).strips == normalize_strips([*strips, *points])
    # and both against the values themselves, index by index
    window = list(range(-20, 21))
    row = got.row(key)
    for m in window:
        assert row.value_at(m) == sum((p.value_at(m) for p in (*strips, *points)), Coeff())
    finite = [s.lo for s in row.strips if s.lo != NEG_INF and s.hi != POS_INF]
    assert finite == _expected_points([*strips, *points], window)


@pytest.mark.parametrize(
    "hi,values,refused",
    [(1025, {0: -1, 1: -1}, False), (1025, {0: -1}, True), (10**6, {0: -1}, True)],
)
def test_a_wide_strip_under_the_map_is_capped_within_a_second(hi, values, refused):
    key, strip = (1, 0), Strip(0, hi, ((0, IndexPoly.constant(ONE)),))
    values = {m: Coeff.integer(c) for m, c in values.items()}
    start = time.perf_counter()
    if refused:
        with pytest.raises(ShapeError, match="spans more than 1024 indices"):
            _normal_rows({key: values}, {key: [strip]})
    else:
        ((_, row),) = _normal_rows({key: values}, {key: [strip]})
        assert [s.lo for s in row.strips] == list(range(2, 1026))
    assert time.perf_counter() - start < 1.0


_SUMMANDS = [
    theta(0, -1), mul(phi(2), phi(2)), theta(-1, 0), theta_monomial(-2, -2),
    mul(phi(2), theta(0, -1)), chi(2, 3, -2), 3 * chi(1, 0, 0), chi(2, 1, 0),
]


def _summed_by_the_constructor(xs):
    # the sum's strips, normalised again by the checked constructor
    return HeckeElement([(k, r.strips) for x in xs for k, r in x.rows])


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_one_pass_sum_equals_pairwise_sums_and_the_checked_constructor(n):
    for start in range(len(_SUMMANDS)):
        xs = (_SUMMANDS * 2)[start:start + n]
        got = _sum(xs)
        pairwise = xs[0]
        for x in xs[1:]:
            pairwise = pairwise + x
        assert got.rows == pairwise.rows == _summed_by_the_constructor(xs).rows


def test_one_pass_sums_that_cancel_reach_zero():
    for x in _SUMMANDS:
        assert _sum([x, -x]).is_zero() and (x - x).is_zero()
    ray, rr = theta(0, -1), mul(phi(2), phi(2))
    assert _sum([ray, rr, -ray]) == rr
    assert _sum([ray, chi(2, 5, -1), -ray, -chi(2, 5, -1)]).rows == ()
    assert _sum([]).is_zero()


@settings(max_examples=40, deadline=None)
@given(_runs(widths=(1, 2, 5)), _runs(widths=(1, 2, 5)))
def test_one_pass_sum_of_random_rows_matches_the_checked_constructor(runs, more):
    try:
        xs = [_checked(runs), _checked(more), _checked(runs[:1])]
    except ShapeError:
        assume(False)
    try:
        want = _summed_by_the_constructor(xs)
    except ShapeError as err:
        with pytest.raises(ShapeError) as got:
            _sum(xs)
        assert str(got.value) == str(err)
        return
    assert _sum(xs).rows == want.rows


def test_a_long_sum_is_normalised_once(monkeypatch):
    calls = []
    text = " + ".join(f"{n % 3 + 1}*chi({n % 2 + 1},{n - 10},0)" for n in range(19)) + " + phi2"
    want = parse_element(text)
    monkeypatch.setattr(element, "_normal_rows", lambda *a: calls.append(a) or _normal_rows(*a))
    assert parse_element(text) == want
    assert len(calls) == 1


def test_a_sum_too_wide_is_refused_when_its_expression_ends(capsys):
    assert main(["coeff", "chi(1,0,0) + chi(1,600,0) + chi(1,1100,0)", "--at", "1,0,0"]) == 2
    assert capsys.readouterr().err == (
        "error: finite part of a row spans more than 1024 indices\n"
    )
    # the whole expression is read before its sum is built: a later error wins,
    # and a wide stretch that cancels before the end is no error
    assert main(["coeff", "chi(1,0,0) + chi(1,1100,0) + q", "--at", "1,0,0"]) == 2
    assert "cannot add a scalar to an element (column 28)" in capsys.readouterr().err
    assert main(["coeff", "chi(1,0,0) + chi(1,1100,0) - chi(1,1100,0)", "--at", "1,0,0"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_elements_are_immutable_and_print_their_levels():
    x = chi(1, 0, 1) + chi(2, 1, -1)
    with pytest.raises(AttributeError, match="immutable"):
        x.rows = ()
    assert repr(x) == "HeckeElement[2 rows at levels (-1, 1)]"
    assert repr(zero_element()) == "HeckeElement[0]"


def test_arithmetic_with_a_string_is_a_type_error():
    x = chi(1, 0, 0)
    for op in (lambda: x + "chi(1,0,0)", lambda: x - "chi(1,0,0)", lambda: x * "2",
               lambda: "2" * x, lambda: "chi(1,0,0)" + x):
        with pytest.raises(TypeError):
            op()
    assert (x == "chi(1,0,0)") is False


def test_a_ray_in_minus_m_prints_and_parses_back():
    poly = IndexPoly((Coeff.integer(3), -ONE))  # 3 - m
    assert str(poly) == "-m + 3"
    for lo, hi, j in ((NEG_INF, 0, 1), (0, POS_INF, -1)):
        x = HeckeElement([((1, j), (Strip(lo, hi, ((2, poly),)),))])
        text = format_element(x)
        assert "(-m + 3)*s^(2*m)" in text
        assert parse_element(text) == x
