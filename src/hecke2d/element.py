"""Element model: per-(sheet, level) rows of basis coefficients on Z.

A row stores a locally finite coefficient function through disjoint strips.
On a strip [lo, hi] the coefficient at index m is a finite sum of terms
poly(m) * s^(e*m), an exponential polynomial in m.  Support shapes follow the
level sign: bounded above for positive level, bounded below for negative,
finite at level zero.  This class of rows contains every generator and is
closed under convolution, which is what makes exact computation possible.

Every row is kept in one normal form, which depends only on its values: a
point mass chi(a, m, j) with a scalar for each nonzero value of the finite
part, and at most one ray, whose terms are the unique ones of the row's tail.
Equal elements therefore have equal rows, so equality is structural and
elements are hashable.  The constructor, and so every sum, and a product add
their point masses into one map of values, in one pass.  A row that is only
such values is read straight off that map; every row with a strip is cut into
stretches at its pieces' ends and walked once, the walk reading the map where
it lies.  A nonzero multiple of a normal form is one.

Index polynomials are immutable tuples, and terms, strips and rows immutable
named tuples.  Strip and RowSeries check their shape when called; the
normal-form builders here skip the checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .coeff import ZERO, Coeff, CoeffError, ParseError

__all__ = [
    "NEG_INF", "POS_INF", "Bound", "ShapeError", "IndexPoly", "ExpPolyTerm", "Strip",
    "RowKey", "RowSeries", "BasisIndex", "HeckeElement", "zero_element", "add", "scale",
    "equals", "coefficient_at", "level_projection", "element_to_json", "element_from_json",
]

NEG_INF = float("-inf")
POS_INF = float("inf")
Bound = Union[int, float]


class ShapeError(ValueError):
    """A row violates its level's support-shape constraint."""


def _is_finite(b: Bound) -> bool:
    return isinstance(b, int)


def _is_int(v: object) -> bool:
    # bool is an int subclass, but True is not an index
    return isinstance(v, int) and not isinstance(v, bool)


def _check_bound(b: Bound) -> Bound:
    if _is_int(b):
        return b
    if b == NEG_INF or b == POS_INF:
        return b
    raise ShapeError(f"bound must be an integer or +-inf, got {b!r}")


# ---------------------------------------------------------------------------


class IndexPoly(tuple):
    """Polynomial in the row index m with Coeff coefficients, lowest degree
    first: an immutable tuple of them with trailing zeros trimmed."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[Union[Coeff, int, Fraction]] = ()) -> "IndexPoly":
        cs = [c if isinstance(c, Coeff) else Coeff._coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        return tuple.__new__(cls, cs)

    @property
    def coeffs(self) -> tuple[Coeff, ...]:
        """The coefficients, lowest degree first: the polynomial itself."""
        return self

    @staticmethod
    def constant(c: Union[Coeff, int, Fraction]) -> "IndexPoly":
        return IndexPoly((c,))

    @property
    def degree(self) -> int:
        return len(self) - 1

    def is_zero(self) -> bool:
        return not self

    def __add__(self, other: "IndexPoly") -> "IndexPoly":
        a, b = (self, other) if len(self) >= len(other) else (other, self)
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return IndexPoly(out)

    def __neg__(self) -> "IndexPoly":
        return IndexPoly(-c for c in self)

    def __mul__(self, other: Union["IndexPoly", Coeff, int, Fraction]) -> "IndexPoly":
        if not isinstance(other, IndexPoly):
            c = other if isinstance(other, Coeff) else Coeff._coerce(other)
            return IndexPoly(x * c for x in self)
        if not self or not other:
            return IndexPoly()
        out = [ZERO] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            for j, b in enumerate(other):
                out[i + j] = out[i + j] + a * b
        return IndexPoly(out)

    __rmul__ = __mul__

    def eval(self, m: int) -> Coeff:
        acc = self[-1] if self else ZERO
        for c in reversed(self[:-1]):
            acc = acc * m + c
        return acc

    def text_descending(self) -> list[str]:
        return [str(c) for c in reversed(self)]

    @staticmethod
    def parse_descending(texts: Sequence[str]) -> "IndexPoly":
        if not texts:
            raise ParseError("empty coefficient list")
        return IndexPoly(Coeff.parse(t) for t in reversed(texts))

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self[d]
            if c.is_zero():
                continue
            mono = "" if d == 0 else ("m" if d == 1 else f"m^{d}")
            cs = str(c)
            if mono and cs == "1":
                parts.append(mono)
            elif mono and cs == "-1":
                parts.append(f"-{mono}")
            elif mono:
                cs = f"({cs})" if ("+" in cs or " - " in cs or "/" in cs) else cs
                parts.append(f"{cs}*{mono}")
            else:
                parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"IndexPoly[{self}]"


class ExpPolyTerm(NamedTuple):
    e: int
    poly: IndexPoly


Terms = tuple[ExpPolyTerm, ...]


def merge_terms(parts: Iterable[tuple[int, IndexPoly]]) -> Terms:
    """Combine (e, poly) parts: sum polynomials with equal e, drop zeros."""
    acc: dict[int, IndexPoly] = {}
    for e, p in parts:
        acc[e] = acc[e] + p if e in acc else p
    return tuple(
        ExpPolyTerm(e, p) for e, p in sorted(acc.items()) if not p.is_zero()
    )


def terms_value(terms: Terms, m: int) -> Coeff:
    acc = ZERO
    for e, p in terms:
        v = p.eval(m)
        acc = acc + (v * Coeff.s_power(e * m) if e * m else v)
    return acc


# ---------------------------------------------------------------------------


class _StripFields(NamedTuple):
    lo: Bound
    hi: Bound
    terms: Terms


class Strip(_StripFields):
    __slots__ = ()

    def __new__(cls, lo: Bound, hi: Bound, terms: Iterable) -> "Strip":
        lo, hi = _check_bound(lo), _check_bound(hi)
        if not _is_finite(lo) and not _is_finite(hi):
            raise ShapeError("a strip cannot be infinite on both sides")
        if lo > hi:
            raise ShapeError(f"empty strip [{lo}, {hi}]")
        terms = tuple(t if isinstance(t, ExpPolyTerm) else ExpPolyTerm(*t) for t in terms)
        if not terms:
            raise ShapeError("strip with no terms")
        es = [t.e for t in terms]
        if es != sorted(set(es)):
            raise ShapeError("strip terms must have distinct ascending steps")
        if any(t.poly.is_zero() for t in terms):
            raise ShapeError("strip term with zero polynomial")
        return tuple.__new__(cls, (lo, hi, terms))

    def value_at(self, m: int) -> Coeff:
        if self.lo <= m <= self.hi:
            return terms_value(self.terms, m)
        return ZERO


#: Widest finite part a row may span, in indices: finite runs are stored as
#: one point per value, so a wider row is refused instead of expanded.
_MAX_POINTS = 1024


def _atoms(pieces: list[Strip]) -> list[tuple[Bound, Bound, Terms]]:
    """Cut the line at every finite strip end; (lo, hi, merged terms) per stretch.

    The first and last stretch are unbounded; uncovered stretches have no terms.
    """
    ends = [p.lo for p in pieces] + [p.hi + 1 for p in pieces]
    edges = [NEG_INF, *sorted({e for e in ends if _is_finite(e)}), POS_INF]
    pending = sorted(pieces, key=lambda p: p.lo, reverse=True)
    active: list[Strip] = []
    out = []
    for lo, nxt in zip(edges, edges[1:]):
        at = lo if _is_finite(lo) else nxt - 1
        while pending and pending[-1].lo <= at:
            active.append(pending.pop())
        active = [p for p in active if p.hi >= at]
        out.append((lo, nxt - 1, merge_terms(t for p in active for t in p.terms)))
    return out


def _walk(atoms: list[tuple[Bound, Bound, Terms]], values: Mapping[int, Coeff]) -> tuple[Strip, ...]:
    """The normal form of the row that the stretches (lo, hi, merged terms) of
    _atoms and the values {m: value} sum to, reading the map where it lies.

    The ray takes the terms of the row's unbounded end.  From the outermost
    value of the map inside the stretches that carry them, or else from the
    first index past those, it walks inward while the row agrees with its terms,
    then backs out past their zeros.  The walk is short: an exponential polynomial
    with N = sum of (deg poly + 1) coefficients that vanishes at N consecutive
    integers is zero (a confluent Vandermonde matrix over Q(s) in the bases s^e
    is nonsingular).  Every other nonzero value is a point mass; a stretch value
    where the map holds nothing cannot cancel, so two of them _MAX_POINTS apart
    refuse the row before a wide stretch is walked to its end.
    """
    up, down = bool(atoms[-1][2]), bool(atoms[0][2])
    if up and down:
        raise ShapeError("a row cannot be infinite on both sides")
    lo, hi, ray = NEG_INF, POS_INF, ()  # the finite part lies in [lo, hi]
    if up or down:
        seq, step = (atoms[::-1], -1) if up else (atoms, 1)  # step is inward
        terms, k = seq[0][2], 0
        while seq[k + 1][2] == terms:  # stops at the other end, whose terms are empty
            k += 1
        edge = seq[k][0 if up else 1]
        spanned = values and [m for m in values if (m >= edge if up else m <= edge)]
        m = (max if up else min)(spanned) if spanned else edge + step
        # with no values, the empty far end can agree only at zeros of terms, backed out below
        for a_lo, a_hi, t in seq if values else seq[:-1]:
            while a_lo <= m <= a_hi and terms_value(t, m) + values.get(m, ZERO) == terms_value(terms, m):
                m += step
            if a_lo <= m <= a_hi:
                break
        end = m - step
        while terms_value(terms, end).is_zero():
            end -= step
        if up:
            hi, ray = end - 1, (tuple.__new__(Strip, (end, POS_INF, terms)),)
        else:
            lo, ray = end + 1, (tuple.__new__(Strip, (NEG_INF, end, terms)),)
    row = {m: c for m, c in values.items() if lo <= m <= hi} if values else {}
    first = None
    for a_lo, a_hi, t in atoms:
        if not t:
            continue
        for m in range(max(a_lo, lo), min(a_hi, hi) + 1):
            v = terms_value(t, m)
            if m in row:
                row[m] = row[m] + v
            elif not v.is_zero():
                row[m] = v
                if first is None:
                    first = m
                elif m - first >= _MAX_POINTS:
                    raise ShapeError(f"finite part of a row spans more than {_MAX_POINTS} indices")
    return (*_point_row(row), *ray) if up else (*ray, *_point_row(row))


def _point(m: int, c: Coeff) -> Strip:
    """The point mass Strip(m, m, c) for a nonzero c, built without the checks.

    A strip, its terms and their polynomials are immutable tuples, so a point
    is one nested tuple.__new__.  Every point of a normal form is
    Strip(m, m, ((0, (c,)),)), so its value is terms[0].poly[0]."""
    return tuple.__new__(Strip, (m, m, (tuple.__new__(ExpPolyTerm, (0, tuple.__new__(IndexPoly, (c,)))),)))


def _point_row(acc: Mapping[int, Coeff]) -> tuple[Strip, ...]:
    """One point mass per nonzero value of {m: value}, refusing a span past _MAX_POINTS."""
    if not acc:
        return ()
    ms = sorted([m for m, c in acc.items() if not c.is_zero()])
    if ms and ms[-1] - ms[0] >= _MAX_POINTS:
        raise ShapeError(f"finite part of a row spans more than {_MAX_POINTS} indices")
    return tuple([_point(m, acc[m]) for m in ms])


def _add_run(points: dict, swept: dict, key: tuple, lo: Bound, hi: Bound, e: int, c: Coeff) -> None:
    """Add c * s^(e*n) at each lo <= n <= hi of row key: index by index into
    points, or as one strip to sweep if the run is a ray or wider than _MAX_POINTS."""
    if hi - lo >= _MAX_POINTS:  # a ray's width is inf
        swept.setdefault(key, []).append(Strip(lo, hi, (ExpPolyTerm(e, IndexPoly.constant(c)),)))
        return
    row = points.setdefault(key, {})
    for n in range(lo, hi + 1):
        v = c * Coeff.s_power(e * n) if e * n else c
        row[n] = row[n] + v if n in row else v


def normalize_strips(pieces: Iterable[Strip], values: Optional[Mapping] = None) -> tuple[Strip, ...]:
    """The normal form of the row that the (possibly overlapping) strips and the
    values {m: value} sum to.

    It depends only on the row's values: a point mass Strip(m, m, c) per
    nonzero value of the finite part, and at most one ray, carrying the
    unique terms of the row's tail, that reaches inward as far as it agrees
    with the row and starts on a nonzero value.  Raises ShapeError for a row
    infinite on both sides or a finite part wider than _MAX_POINTS indices.

    Every row is walked once by _walk, reading the values where they lie: a
    lone piece as its own stretches, any other list cut into stretches at the
    pieces' ends by _atoms.
    """
    pieces, values = list(pieces), values or {}
    if len(pieces) != 1:
        return _walk(_atoms(pieces), values)
    lo, hi, terms = pieces[0]
    atoms = [(NEG_INF, lo - 1, ())] if _is_finite(lo) else []
    atoms.append((lo, hi, terms))
    if _is_finite(hi):
        atoms.append((hi + 1, POS_INF, ()))
    return _walk(atoms, values)


class RowKey(NamedTuple):
    a: int
    j: int


class BasisIndex(NamedTuple):
    a: int
    i: int
    j: int

    @property
    def key(self) -> RowKey:
        return RowKey(self.a, self.j)


class _RowFields(NamedTuple):
    strips: tuple[Strip, ...]


class RowSeries(_RowFields):
    __slots__ = ()

    def __new__(cls, strips: Iterable[Strip]) -> "RowSeries":
        strips = tuple(strips)
        for prev, s in zip(strips, strips[1:]):
            if s.lo <= prev.hi:
                raise ShapeError("row strips must be disjoint and ascending")
        return tuple.__new__(cls, (strips,))

    def value_at(self, m: int) -> Coeff:
        for s in self.strips:
            if s.lo <= m <= s.hi:
                return terms_value(s.terms, m)
        return ZERO

    @property
    def support_min(self) -> Bound:
        return self.strips[0].lo if self.strips else POS_INF

    @property
    def support_max(self) -> Bound:
        return self.strips[-1].hi if self.strips else NEG_INF


def _check_key(key: RowKey) -> None:
    a, j = key
    if not _is_int(a) or a not in (1, 2):
        raise ShapeError(f"sheet must be 1 or 2, got {a!r}")
    if not _is_int(j):
        raise ShapeError(f"level must be an integer, got {j!r}")


def _check_row_shape(j: int, strips: tuple[Strip, ...]) -> None:
    for s in strips:
        if j > 0 and not _is_finite(s.hi):
            raise ShapeError(f"level {j} > 0 row must be bounded above")
        if j < 0 and not _is_finite(s.lo):
            raise ShapeError(f"level {j} < 0 row must be bounded below")
        if j == 0 and not (_is_finite(s.lo) and _is_finite(s.hi)):
            raise ShapeError("level 0 row must have finite support")


def _check_basis(a: object, i: object, j: object) -> None:
    """Refuse a bool or non-integer index, sheet or level with the error that a
    point mass Strip(i, i, ...) in row (a, j) raises."""
    if type(a) is int and type(i) is int and type(j) is int and a in (1, 2):
        return
    if not _is_int(i):
        _check_bound(i)
        raise ShapeError("a strip cannot be infinite on both sides")
    _check_key(RowKey(a, j))


_LABEL = "a label is a sheet 1 or 2 and two integers"


def _label(x: object) -> BasisIndex:
    """x as a BasisIndex, refused with _check_basis's errors: the one label check."""
    try:  # unpacks as BasisIndex(*x) does, without its Python-level __new__
        b = tuple.__new__(BasisIndex, x)
    except TypeError:  # not iterable
        raise ShapeError(f"{_LABEL}, got {x!r}") from None
    if len(b) != 3:
        raise ShapeError(f"{_LABEL}, got {x!r}")
    _check_basis(*b)
    return b


def _normal_rows(points: Mapping, swept: Mapping) -> tuple[tuple[RowKey, RowSeries], ...]:
    """The rows, sorted by (level, sheet), that sum points[key], a map {m: value},
    and the strips swept[key] at each checked (sheet, level) key.  A row with no
    strip is read straight off its values; any other row goes to normalize_strips
    with its values as the map.  Rows with a strip get their level's shape
    check; none needs RowSeries' check again."""
    built = []
    for j, a in sorted([(j, a) for a, j in points.keys() | swept.keys()]):
        if (a, j) in swept:
            strips = normalize_strips(swept[a, j], points.get((a, j)))
            _check_row_shape(j, strips)
        else:
            strips = _point_row(points[a, j])
        if strips:
            built.append((tuple.__new__(RowKey, (a, j)), tuple.__new__(RowSeries, (strips,))))
    return tuple(built)


def _sum(xs: Iterable["HeckeElement"]) -> "HeckeElement":
    """The sum of elements in one constructor call, in time linear in their number:
    point masses add up in one map and each row with a strip is walked once."""
    return HeckeElement([(key, row.strips) for x in xs for key, row in x.rows])


def _element(rows: tuple[tuple[RowKey, RowSeries], ...]) -> HeckeElement:
    """The element with these rows, which must be sorted and in normal form."""
    out = object.__new__(HeckeElement)
    object.__setattr__(out, "rows", rows)
    return out


class HeckeElement:
    """Immutable algebra element: a finite family of rows keyed by (sheet, level)."""

    __slots__ = ("rows",)

    rows: tuple[tuple[RowKey, RowSeries], ...]

    def __init__(
        self,
        rows: Union[
            Mapping[tuple[int, int], Iterable[Strip]],
            Iterable[tuple[tuple[int, int], Iterable[Strip]]],
        ] = (),
    ):
        items = rows.items() if type(rows) not in (list, tuple) and isinstance(rows, Mapping) else rows
        points: dict[RowKey, dict[int, Coeff]] = {}
        swept: dict[RowKey, list[Strip]] = {}
        for raw_key, strips in items:
            # checked before merging: True == 1 would otherwise join row (1, j)
            key = RowKey(*raw_key)
            _check_key(key)
            for s in strips:
                if s.lo == s.hi:  # a point mass adds its value into the map
                    acc, c = points.setdefault(key, {}), terms_value(s.terms, s.lo)
                    acc[s.lo] = acc[s.lo] + c if s.lo in acc else c
                else:
                    swept.setdefault(key, []).append(s)
        built = _normal_rows(points, swept)
        object.__setattr__(self, "rows", built)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HeckeElement is immutable")

    # -- queries ------------------------------------------------------------

    def row(self, key: tuple[int, int]) -> RowSeries:
        return dict(self.rows).get(RowKey(*key), RowSeries(()))

    def coefficient_at(self, key: tuple[int, int], m: int) -> Coeff:
        a, j = key
        _check_basis(a, m, j)  # a float or bool index or key is refused, not read
        return self.row(key).value_at(m)

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self) -> bool:
        return not self.is_zero()

    def levels(self) -> tuple[int, ...]:
        return tuple(sorted({k.j for k, _ in self.rows}))

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return _sum((self, other))

    def __neg__(self) -> "HeckeElement":
        return self.scale(Coeff.integer(-1))

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Union[Coeff, int, Fraction]) -> "HeckeElement":
        c = c if isinstance(c, Coeff) else Coeff._coerce(c)
        if c.is_zero():
            return HeckeElement()
        # a nonzero multiple of a normal form is one: same ends, no new zeros
        return _element(tuple(
            (key, RowSeries(tuple(
                _point(s.lo, s.terms[0].poly[0] * c) if s.lo == s.hi
                else Strip(s.lo, s.hi, tuple((e, p * c) for e, p in s.terms))
                for s in row.strips
            )))
            for key, row in self.rows
        ))

    def __rmul__(self, c: Union[Coeff, int, Fraction]) -> "HeckeElement":
        if isinstance(c, (Coeff, int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other: object) -> "HeckeElement":
        if isinstance(other, (Coeff, int, Fraction)):
            return self.scale(other)
        if isinstance(other, HeckeElement):
            from .product import mul

            return mul(self, other)
        return NotImplemented

    def __pow__(self, n: int) -> "HeckeElement":
        if n < 0:
            raise ValueError("negative powers are not defined")
        from .presets import iota

        out = iota()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        if self.is_zero():
            return "HeckeElement[0]"
        return f"HeckeElement[{len(self.rows)} rows at levels {self.levels()}]"


# ---------------------------------------------------------------------------
# module-level operation surface


def zero_element() -> HeckeElement:
    return HeckeElement()


def add(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    return x + y


def scale(c: Union[Coeff, int, Fraction], x: HeckeElement) -> HeckeElement:
    return x.scale(c)


def equals(x: HeckeElement, y: HeckeElement) -> bool:
    return x == y


def coefficient_at(x: HeckeElement, key: tuple[int, int], m: int) -> Coeff:
    return x.coefficient_at(key, m)


def level_projection(x: HeckeElement, j: int) -> HeckeElement:
    return HeckeElement([(k, s.strips) for k, s in x.rows if k.j == j])


# ---------------------------------------------------------------------------
# JSON serialization of the normal form: equal elements give equal
# documents, and element_from_json(element_to_json(x)) == x


def _bound_to_json(b: Bound) -> Union[int, str]:
    if _is_finite(b):
        return b
    return "-inf" if b == NEG_INF else "+inf"


def _bound_from_json(v: object) -> Bound:
    if _is_int(v):
        return v
    if v == "-inf":
        return NEG_INF
    if v == "+inf":
        return POS_INF
    raise ParseError(f"bad bound {v!r}")


def _json_get(obj: object, key: str, kind: type = object) -> Any:
    if not isinstance(obj, Mapping) or key not in obj:
        raise ParseError(f"expected an object with a {key!r} field")
    v = obj[key]
    if not (_is_int(v) if kind is int else isinstance(v, kind)):
        raise ParseError(f"{key!r} must be of type {kind.__name__}, got {v!r}")
    return v


def element_to_json(x: HeckeElement) -> dict:
    return {
        "rows": [
            {
                "a": key.a,
                "j": key.j,
                "strips": [
                    {
                        "lo": _bound_to_json(s.lo),
                        "hi": _bound_to_json(s.hi),
                        "terms": [
                            {"e": t.e, "poly": t.poly.text_descending()}
                            for t in s.terms
                        ],
                    }
                    for s in series.strips
                ],
            }
            for key, series in x.rows
        ]
    }


def _strip_from_json(s: object) -> Strip:
    terms = []
    for t in _json_get(s, "terms", list):
        poly = _json_get(t, "poly", list)
        if not all(isinstance(c, str) for c in poly):
            raise ParseError(f"'poly' must be a list of strings, got {poly!r}")
        terms.append(ExpPolyTerm(_json_get(t, "e", int), IndexPoly.parse_descending(poly)))
    lo, hi = _json_get(s, "lo"), _json_get(s, "hi")
    return Strip(_bound_from_json(lo), _bound_from_json(hi), tuple(terms))


def element_from_json(data: object) -> HeckeElement:
    """Rebuild an element from ``element_to_json`` output.

    Every malformed document raises :class:`ParseError`: a missing field, a
    field of the wrong type, a bad or oversized coefficient, or a bad row shape.
    """
    try:
        return HeckeElement(
            [
                (
                    (_json_get(row, "a", int), _json_get(row, "j", int)),
                    [_strip_from_json(s) for s in _json_get(row, "strips", list)],
                )
                for row in _json_get(data, "rows", list)
            ]
        )
    except (ShapeError, CoeffError) as err:
        raise ParseError(str(err)) from err
