"""Ground truth by counting: exact arithmetic over F_q((t1))((t2)).

Matrices and fields here work at a concrete prime q and are independent of
the symbolic product table.  Field elements are Laurent polynomials in t1,
t2 with coefficients mod q; every matrix this module touches stays inside
that dense subring, so valuations, coset classification, and convolution
counts are all exact.  Structure coefficients come out of a count over the
right factor's cosets, which reads their entry valuations and multiplicities
from a closed-form census and applies classify's chamber rule to them
shifted by each target's monomial representative, so no matrix is built.
The census's multiplicities are polynomials in q, so counted_product's
coefficients are an identity in q, for a left factor at any level times a
right factor at level 0; product_counts gives them at a concrete q, both
factors at level 0.  Matrix literals are read and written by hecke2d.text,
which owns every text format.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterator, Mapping, Union

from . import element
from .coeff import Coeff
from .element import _LABEL, BasisIndex, HeckeElement, ShapeError, _check_basis, _element, _normal_rows

__all__ = [
    "EnumerationError",
    "FieldElem2",
    "INFINITE",
    "LocalFieldMatrix",
    "classify",
    "count_reps",
    "counted_product",
    "enumerate_reps",
    "eta_matrix",
    "identity_matrix",
    "in_iwahori",
    "iwahori_sample",
    "product_counts",
    "valuation",
]

_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17))

#: Most coset representatives enumerate_reps builds in one call.
_MAX_REPS = 200_000

#: Largest |i| that enumerate_reps and product_counts take.
_MAX_INDEX = 4

#: Elementary matrices multiplied in one iwahori_sample.
_SAMPLE_FACTORS = 4

#: Valuation of the zero element; compares above every finite pair.
INFINITE = float("inf")

Valuation = Union[tuple[int, int], float]


class EnumerationError(ValueError):
    """Representative enumeration asked for outside its supported range."""


def _check_q(q: int) -> None:
    if q not in _PRIMES:
        raise EnumerationError(f"q must be a prime at most 17, got {q}")


class FieldElem2:
    """A Laurent polynomial sum c * t1^e1 * t2^e2 with coefficients mod q."""

    __slots__ = ("q", "_coeffs")

    def __init__(self, q: int, coeffs: Mapping[tuple[int, int], int] = ()):
        _check_q(q)
        self.q = q
        cleaned = {}
        for e, c in dict(coeffs).items():
            e1, e2 = e if type(e) is tuple and len(e) == 2 else (e, None)  # a pair, or refused
            if type(e1) is not int or type(e2) is not int:  # a bool is refused too
                raise ValueError(f"exponents must be integers, got {e!r}")
            if type(c) is not int:
                raise ValueError(f"coefficients must be integers, got {c!r}")
            c %= q
            if c:
                cleaned[e1, e2] = c
        self._coeffs = cleaned

    @classmethod
    def zero(cls, q: int) -> "FieldElem2":
        return cls(q)

    @classmethod
    def one(cls, q: int) -> "FieldElem2":
        return cls(q, {(0, 0): 1})

    @classmethod
    def monomial(cls, q: int, e1: int, e2: int, c: int = 1) -> "FieldElem2":
        return cls(q, {(e1, e2): c})

    def is_zero(self) -> bool:
        return not self._coeffs

    def _match(self, other: "FieldElem2") -> None:
        if self.q != other.q:
            raise ValueError(f"mixed moduli {self.q} and {other.q}")

    def __add__(self, other: "FieldElem2") -> "FieldElem2":
        self._match(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return FieldElem2(self.q, out)

    def __neg__(self) -> "FieldElem2":
        return FieldElem2(self.q, {e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "FieldElem2") -> "FieldElem2":
        return self + (-other)

    def __mul__(self, other: "FieldElem2") -> "FieldElem2":
        self._match(other)
        out: dict[tuple[int, int], int] = {}
        for (a1, a2), ca in self._coeffs.items():
            for (b1, b2), cb in other._coeffs.items():
                e = (a1 + b1, a2 + b2)
                out[e] = out.get(e, 0) + ca * cb
        return FieldElem2(self.q, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElem2):
            return NotImplemented
        return self.q == other.q and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.q, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        from .text import _entry_text

        return f"FieldElem2(q={self.q}, {_entry_text(self)})"


def valuation(x: FieldElem2) -> Valuation:
    """Right-lex (t2 first) minimum of the exponents present; INFINITE for zero."""
    return min(x._coeffs, key=_val_key, default=INFINITE)


def _val_key(v: Valuation) -> tuple[float, float]:
    if v == INFINITE:
        return (INFINITE, INFINITE)
    return (v[1], v[0])


def _at_least(x: FieldElem2, bound: tuple[int, int]) -> bool:
    return _val_key(valuation(x)) >= _val_key(bound)


class LocalFieldMatrix:
    """A 2x2 matrix over the field with determinant 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: FieldElem2, b: FieldElem2, c: FieldElem2, d: FieldElem2):
        if a * d - b * c != FieldElem2.one(a.q):
            raise ValueError("determinant is not 1")
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def q(self) -> int:
        return self.a.q

    def entries(self) -> tuple[FieldElem2, FieldElem2, FieldElem2, FieldElem2]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "LocalFieldMatrix") -> "LocalFieldMatrix":
        return LocalFieldMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "LocalFieldMatrix":
        # adjugate; valid because the determinant is 1
        return LocalFieldMatrix(self.d, -self.b, -self.c, self.a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalFieldMatrix):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        from .text import format_matrix

        return f"LocalFieldMatrix(q={self.q}, {format_matrix(self)})"


def identity_matrix(q: int) -> LocalFieldMatrix:
    one, zero = FieldElem2.one(q), FieldElem2.zero(q)
    return LocalFieldMatrix(one, zero, zero, one)


def _eta(a: int, i: int, j: int) -> tuple:
    # entries of eta(a, i, j): None for zero, (e1, e2, c) for c*t1^e1*t2^e2 (-1 is q - 1)
    return ((i, j, 1), None, None, (-i, -j, 1)) if a == 1 else (None, (i, j, 1), (-i, -j, -1), None)


def _fill(q: int, entries: tuple) -> list[FieldElem2]:
    return [FieldElem2(q, {} if e is None else {e[:2]: e[2]}) for e in entries]


def eta_matrix(a: int, i: int, j: int, q: int) -> LocalFieldMatrix:
    """The standard representative of the (a, i, j) double coset."""
    _check_basis(a, i, j)
    return LocalFieldMatrix(*_fill(q, _eta(a, i, j)))


def in_iwahori(x: LocalFieldMatrix) -> bool:
    """Entries integral and the lower-left one vanishing mod t1."""
    return (
        _at_least(x.a, (0, 0))
        and _at_least(x.b, (0, 0))
        and _at_least(x.d, (0, 0))
        and _at_least(x.c, (1, 0))
    )


def classify(x: LocalFieldMatrix) -> BasisIndex:
    """The double-coset label of x: the chamber rule on its entries' valuation keys."""
    return _chamber(*(_val_key(valuation(e)) for e in x.entries()))


def _chamber(ka: tuple, kb: tuple, kc: tuple, kd: tuple) -> BasisIndex:
    # the chamber rule: the label read off the keys (t2, t1) of the valuations
    # of a, b, c, d, zero being (inf, inf); the entry it reads is never zero
    if ka <= kb and ka < kc:
        return BasisIndex(1, ka[1], ka[0])
    if kb < ka and kb < kd:
        return BasisIndex(2, kb[1], kb[0])
    if kc <= ka and kc <= kd:
        return BasisIndex(2, -kc[1], -kc[0])
    if kd <= kb and kd < kc:
        return BasisIndex(1, -kd[1], -kd[0])
    raise ValueError("no chamber matched; determinant invariant violated")


# ---------------------------------------------------------------------------
# coset representatives at level zero


def _check_index(i: int) -> None:
    if abs(i) > _MAX_INDEX:
        raise EnumerationError(f"|i| = {abs(i)} exceeds the enumeration limit {_MAX_INDEX}")


def _check_cell(a: int, i: int, q: int) -> int:
    # (a, i) is a checked label: checks q and the index, returns the capped coset count
    _check_q(q)
    _check_index(i)
    if (count := q ** (2 * abs(i) if a == 1 else abs(2 * i + 1))) > _MAX_REPS:
        raise EnumerationError(f"({a},{i}) has {count} cosets at q={q}, over the cap {_MAX_REPS}")
    return count


def _families(a: int, i: int) -> Iterator[tuple[tuple, int, int]]:
    # The (a, i, 0) double coset as families (entries, slot, degree), entries as
    # in _eta; the one in slot is multiplied by every unit lift of degree.  Eta
    # comes first (degree 0); each other one fills a zero entry with sign*t1^e.
    eta = _eta(a, i, 0)
    yield eta, 0, 0
    top = i if i >= 0 else -i - 1
    slot, sign, lo = {(1, True): (2, 1, 1 - i), (1, False): (1, 1, i),
                      (2, True): (3, -1, -i), (2, False): (0, 1, i + 1)}[a, i >= 0]
    for e in range(lo, top + 1):
        yield tuple((e, 0, sign) if n == slot else f for n, f in enumerate(eta)), slot, top + 1 - e


def _unit_lifts(q: int, degree: int) -> Iterator[FieldElem2]:
    # polynomials in t1 of degree < degree with nonzero constant term: one lift
    # per unit of the degree-truncated quotient ring (just 1 at degree 0)
    lifts = itertools.product(range(1, q), *[range(q)] * (degree - 1)) if degree else [(1,)]
    return (FieldElem2(q, {(n, 0): c for n, c in enumerate(cs)}) for cs in lifts)


def enumerate_reps(a: int, i: int, q: int) -> list[LocalFieldMatrix]:
    """One representative z of each coset I*z in the level-zero (a, i) double coset.

    For two representatives u, v, v*u^-1 is not in I, so their cosets I*z
    differ, while u^-1*v is in I: all of them lie in eta*I.  The list starts
    with the standard representative eta; the rest expand each family of
    _families by its unit lifts.  Only level zero is enumerable.  The list
    has q^{2|i|} entries on sheet 1 and q^{|2i+1|} on sheet 2, so the index
    and that count are capped before anything is built; count_reps returns it
    and counting products read the families through _census, building nothing.
    """
    _label((a, i, 0))
    _check_cell(a, i, q)
    reps = []
    for entries, slot, degree in _families(a, i):
        fixed = _fill(q, entries)
        for u in _unit_lifts(q, degree):
            reps.append(LocalFieldMatrix(*(f * u if n == slot else f for n, f in enumerate(fixed))))
    return reps


def count_reps(a: int, i: int, q: int) -> int:
    """len(enumerate_reps(a, i, q)), with its refusals, from the closed form."""
    _label((a, i, 0))
    return _check_cell(a, i, q)


@lru_cache(maxsize=1024)  # read by every left factor of one right factor; never mutated
def _census(b: int, k: int, q):
    # {entry valuations: multiplicity} of enumerate_reps(b, k, q), uncapped; a
    # family of degree d has (q-1)*q^(d-1) members. q may be Coeff.q_power(1).
    return {
        tuple(INFINITE if e is None else e[:2] for e in entries):
            (q - 1) * q ** (degree - 1) if degree else 1
        for entries, _, degree in _families(b, k)
    }


def _count(x: BasisIndex, y: BasisIndex, q) -> dict:
    # q * (chi_x * chi_y) at targets of x's level j, y at level zero, for any q that
    # _census takes; a key times t1^m*t2^j gains (j, m), and zero's stays (inf, inf)
    a, i, j = x
    out: dict = {}
    for vals, count in _census(y[0], y[1], q).items():
        ka, kb, kc, kd = [_val_key(v) for v in vals]
        # z^{-1} = [[d, -b], [-c, a]]; eta(c, m, j) scales its rows by
        # t1^m*t2^j and t1^-m*t2^-j, and for c = 2 also swaps them
        for c, (k0, k1, k2, k3) in ((1, (kd, kb, kc, ka)), (2, (kc, ka, kd, kb))):
            # the chamber rule reads x's index off one entry of row 1, which m
            # raises, or minus one of row 2, which m lowers: m is one of two
            up, down = (k0, k3) if a == 1 else (k1, k2)
            for m in {i - sg * k[1] for sg, k in ((1, up), (-1, down)) if k[1] != INFINITE}:
                shifted = ((k0[0] + j, k0[1] + m), (k1[0] + j, k1[1] + m),
                           (k2[0] - j, k2[1] - m), (k3[0] - j, k3[1] - m))
                if _chamber(*shifted) == x:
                    out[c, m] = out.get((c, m), 0) + count
    return {BasisIndex(c, m, j): n for (c, m), n in sorted(out.items())}


def _label(x: BasisIndex) -> BasisIndex:
    # element's label check, its refusal raised as EnumerationError
    try:
        return element._label(x)
    except ShapeError as err:
        reason = str(err)  # a per-field reason, or the whole rule for a non-label
        raise EnumerationError(reason if reason.startswith(_LABEL) else f"{_LABEL}: {reason}") from None


def counted_product(x: BasisIndex, y: BasisIndex) -> HeckeElement:
    """chi_x * chi_y by counting, exactly in q, for x at any level j and y at level 0.

    The census's multiplicities are polynomials in q = Coeff.q_power(1), and
    the sum runs over y's cosets, so the rows are finite and sit at level j.
    """
    x, y = _label(x), _label(y)
    if y.j != 0:
        raise EnumerationError("counting needs the right factor at level zero")
    points: dict = {}
    for t, n in _count(x, y, Coeff.q_power(1)).items():
        points.setdefault((t.a, t.j), {})[t.i] = Coeff.q_power(-1) * n
    return _element(_normal_rows(points, {}))


def _level_zero_pair(x: BasisIndex, y: BasisIndex, q: int) -> tuple[BasisIndex, BasisIndex]:
    # x and y as labels in product_counts's domain at q, else EnumerationError
    x, y = _label(x), _label(y)
    if x.j != 0 or y.j != 0:
        raise EnumerationError("counting products requires both levels zero")
    _check_index(x.i)
    _check_cell(y.a, y.i, q)
    return x, y


def product_counts(x: BasisIndex, y: BasisIndex, q: int) -> dict[BasisIndex, Fraction]:
    """Convolution coefficients of two level-zero basis functions, by counting at q.

    The coefficient at a target label is 1/q times the number of
    representatives z of the right factor whose adjusted product
    eta(target) * z^{-1} classifies into the left factor's coset.  As
    eta(c, m, 0) is monomial, the chamber rule runs on z's entry valuations,
    shifted, taken with their multiplicities from the census: no
    representative and no matrix is built.  The right factor must lie in
    enumerate_reps's domain, whose cap bounds the domain, not the work.
    Keys are emitted in sorted label order and zero coefficients are dropped.
    This numeric view of counted_product is kept for the oracle_count
    benchmark workload and the tests against literal matrices.
    """
    x, y = _level_zero_pair(x, y, q)
    return {t: Fraction(n, q) for t, n in _count(x, y, q).items()}


# ---------------------------------------------------------------------------
# random integral sandwiches


def iwahori_sample(rng: Random, q: int) -> LocalFieldMatrix:
    """A random product of _SAMPLE_FACTORS elementary matrices lying in the Iwahori subgroup."""
    one, zero = FieldElem2.one(q), FieldElem2.zero(q)
    out = identity_matrix(q)
    for _ in range(_SAMPLE_FACTORS):
        kind = rng.randrange(3)
        if kind == 0:
            f = _random_integral(rng, q, (0, 0))
            step = LocalFieldMatrix(one, f, zero, one)
        elif kind == 1:
            f = _random_integral(rng, q, (1, 0))
            step = LocalFieldMatrix(one, zero, f, one)
        else:
            u = rng.randrange(1, q)
            step = LocalFieldMatrix(
                FieldElem2.monomial(q, 0, 0, u),
                zero,
                zero,
                FieldElem2.monomial(q, 0, 0, pow(u, -1, q)),
            )
        out = out * step
    return out


def _random_integral(
    rng: Random, q: int, bound: tuple[int, int]
) -> FieldElem2:
    # a short random polynomial all of whose terms sit above the bound
    coeffs: dict[tuple[int, int], int] = {}
    for _ in range(rng.randrange(3)):
        e2 = rng.randrange(0, 3)
        e1 = rng.randrange(bound[0], 3) if e2 == bound[1] else rng.randrange(-2, 3)
        if (e2, e1) >= (bound[1], bound[0]):
            coeffs[(e1, e2)] = rng.randrange(q)
    return FieldElem2(q, coeffs)
