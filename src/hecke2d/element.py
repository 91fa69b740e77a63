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
elements are hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping, NamedTuple, Sequence, Union

from .coeff import Coeff, CoeffError, ParseError

__all__ = [
    "NEG_INF",
    "POS_INF",
    "Bound",
    "ShapeError",
    "IndexPoly",
    "ExpPolyTerm",
    "Strip",
    "RowKey",
    "RowSeries",
    "BasisIndex",
    "HeckeElement",
    "zero_element",
    "add",
    "scale",
    "equals",
    "coefficient_at",
    "level_projection",
    "values_at_q",
    "element_to_json",
    "element_from_json",
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


class IndexPoly:
    """Polynomial in the row index m with Coeff coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Coeff, ...]

    def __init__(self, coeffs: Iterable[Union[Coeff, int, Fraction]] = ()):
        cs = [c if isinstance(c, Coeff) else Coeff._coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IndexPoly is immutable")

    @staticmethod
    def constant(c: Union[Coeff, int, Fraction]) -> "IndexPoly":
        return IndexPoly((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "IndexPoly") -> "IndexPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return IndexPoly(out)

    def __neg__(self) -> "IndexPoly":
        return IndexPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["IndexPoly", Coeff, int, Fraction]) -> "IndexPoly":
        if not isinstance(other, IndexPoly):
            c = other if isinstance(other, Coeff) else Coeff._coerce(other)
            return IndexPoly(tuple(x * c for x in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return IndexPoly()
        out = [Coeff() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return IndexPoly(out)

    __rmul__ = __mul__

    def eval(self, m: int) -> Coeff:
        acc = Coeff()
        for c in reversed(self.coeffs):
            acc = acc * m + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def text_descending(self) -> list[str]:
        return [str(c) for c in reversed(self.coeffs)]

    @staticmethod
    def parse_descending(texts: Sequence[str]) -> "IndexPoly":
        if not texts:
            raise ParseError("empty coefficient list")
        return IndexPoly(tuple(Coeff.parse(t) for t in reversed(texts)))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
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
    acc = Coeff()
    for e, p in terms:
        v = p.eval(m)
        if not v.is_zero():
            acc = acc + v * Coeff.s_power(e * m)
    return acc


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Strip:
    lo: Bound
    hi: Bound
    terms: Terms

    def __post_init__(self) -> None:
        lo, hi = _check_bound(self.lo), _check_bound(self.hi)
        if not _is_finite(lo) and not _is_finite(hi):
            raise ShapeError("a strip cannot be infinite on both sides")
        if lo > hi:
            raise ShapeError(f"empty strip [{lo}, {hi}]")
        terms = tuple(
            t if isinstance(t, ExpPolyTerm) else ExpPolyTerm(*t) for t in self.terms
        )
        if not terms:
            raise ShapeError("strip with no terms")
        es = [t.e for t in terms]
        if es != sorted(set(es)):
            raise ShapeError("strip terms must have distinct ascending steps")
        if any(t.poly.is_zero() for t in terms):
            raise ShapeError("strip term with zero polynomial")
        object.__setattr__(self, "terms", terms)

    def value_at(self, m: int) -> Coeff:
        if self.lo <= m <= self.hi:
            return terms_value(self.terms, m)
        return Coeff()


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


def _ray(atoms: list[tuple[Bound, Bound, Terms]]) -> Strip:
    """The row's one unbounded strip, reaching inward while it agrees with the row.

    Both walks are short: an exponential polynomial with N = sum of (deg poly
    + 1) coefficients that vanishes at N consecutive integers is zero (a
    confluent Vandermonde matrix over Q(s) in the bases s^e is nonsingular).
    """
    up = bool(atoms[-1][2])
    seq = atoms[::-1] if up else atoms
    step = -1 if up else 1  # inward
    terms = seq[0][2]
    k = 0
    while seq[k + 1][2] == terms:  # stops at the other end, whose terms are empty
        k += 1
    m = seq[k][0 if up else 1] + step
    for lo, hi, t in seq[k + 1 :]:
        while lo <= m <= hi and terms_value(t, m) == terms_value(terms, m):
            m += step
        if lo <= m <= hi:
            break
    end = m - step
    while terms_value(terms, end).is_zero():
        end -= step
    return Strip(end, POS_INF, terms) if up else Strip(NEG_INF, end, terms)


def _points(atoms: list[tuple[Bound, Bound, Terms]], lo: Bound, hi: Bound) -> list[Strip]:
    """One point mass per nonzero value in [lo, hi]."""
    out: list[Strip] = []
    for a_lo, a_hi, terms in atoms:
        if not terms:
            continue
        for m in range(max(a_lo, lo), min(a_hi, hi) + 1):
            c = terms_value(terms, m)
            if c.is_zero():
                continue
            if out and m - out[0].lo >= _MAX_POINTS:
                raise ShapeError(f"finite part of a row spans more than {_MAX_POINTS} indices")
            out.append(Strip(m, m, (ExpPolyTerm(0, IndexPoly.constant(c)),)))
    return out


def normalize_strips(pieces: Iterable[Strip]) -> tuple[Strip, ...]:
    """The normal form of the row that the (possibly overlapping) strips sum to.

    It depends only on the row's values: a point mass Strip(m, m, c) per
    nonzero value of the finite part, and at most one ray, carrying the
    unique terms of the row's tail, that reaches inward as far as it agrees
    with the row and starts on a nonzero value.  Raises ShapeError for a row
    infinite on both sides or a finite part wider than _MAX_POINTS indices.
    """
    atoms = _atoms(list(pieces))
    if atoms[0][2] and atoms[-1][2]:
        raise ShapeError("a row cannot be infinite on both sides")
    if not atoms[0][2] and not atoms[-1][2]:
        return tuple(_points(atoms, NEG_INF, POS_INF))
    ray = _ray(atoms)
    if _is_finite(ray.lo):
        return (*_points(atoms, NEG_INF, ray.lo - 1), ray)
    return (ray, *_points(atoms, ray.hi + 1, POS_INF))


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


@dataclass(frozen=True)
class RowSeries:
    strips: tuple[Strip, ...]

    def __post_init__(self) -> None:
        prev_hi: Bound = NEG_INF
        for idx, s in enumerate(self.strips):
            if idx > 0 and s.lo <= prev_hi:
                raise ShapeError("row strips must be disjoint and ascending")
            prev_hi = s.hi

    def value_at(self, m: int) -> Coeff:
        for s in self.strips:
            if s.lo <= m <= s.hi:
                return terms_value(s.terms, m)
        return Coeff()

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


class HeckeElement:
    """Immutable algebra element: a finite family of rows keyed by (sheet, level)."""

    __slots__ = ("rows", "_lookup")

    rows: tuple[tuple[RowKey, RowSeries], ...]

    def __init__(
        self,
        rows: Union[
            Mapping[tuple[int, int], Iterable[Strip]],
            Iterable[tuple[tuple[int, int], Iterable[Strip]]],
        ] = (),
    ):
        items = rows.items() if isinstance(rows, Mapping) else rows
        acc: dict[RowKey, list[Strip]] = {}
        for raw_key, strips in items:
            # checked before merging: True == 1 would otherwise join row (1, j)
            key = RowKey(*raw_key)
            _check_key(key)
            acc.setdefault(key, []).extend(strips)
        built: list[tuple[RowKey, RowSeries]] = []
        for key in sorted(acc, key=lambda k: (k.j, k.a)):
            strips = normalize_strips(acc[key])
            if not strips:
                continue
            _check_row_shape(key.j, strips)
            built.append((key, RowSeries(strips)))
        object.__setattr__(self, "rows", tuple(built))
        object.__setattr__(self, "_lookup", dict(built))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HeckeElement is immutable")

    # -- queries ------------------------------------------------------------

    def row(self, key: tuple[int, int]) -> RowSeries:
        return self._lookup.get(RowKey(*key), RowSeries(()))

    def coefficient_at(self, key: tuple[int, int], m: int) -> Coeff:
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
        return HeckeElement([(k, r.strips) for src in (self, other) for k, r in src.rows])

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
        return HeckeElement(
            (key, [Strip(s.lo, s.hi, tuple((e, p * c) for e, p in s.terms)) for s in row.strips])
            for key, row in self.rows
        )

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


def values_at_q(x: HeckeElement, q: int) -> dict[BasisIndex, Fraction]:
    """The nonzero coefficients of x at a numeric q; x must have finite support."""
    return {
        BasisIndex(key.a, m, key.j): st.value_at(m).eval_at_q(q)
        for key, series in x.rows
        for st in series.strips
        for m in range(st.lo, st.hi + 1)  # a point: normal forms hold no zeros
    }


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
