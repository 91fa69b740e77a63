"""Named elements and the double affine Weyl group.

The generators X = theta(1, 0), Y = theta(0, 1), Z = theta(0, -1) together
with theta(-1, 0) = X^{-1} span a large commutative subalgebra subject to
Y * Z = 0.  The phi elements are normalized characteristic functions of the
three reflection cosets.  The Weyl group is modeled abstractly as
Z^2 semidirect {+-1}: monomial matrices up to diagonal units, so the sign
produced by multiplying two antidiagonal matrices is dropped.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .coeff import Coeff, ONE
from .element import (
    BasisIndex,
    ExpPolyTerm,
    HeckeElement,
    IndexPoly,
    POS_INF,
    RowKey,
    RowSeries,
    Strip,
    _check_basis,
    _element,
    _normal_rows,
    _point,
)

__all__ = [
    "WeylElement", "chi", "iota", "theta", "phi", "preset", "theta_monomial",
    "weyl_identity", "weyl_mul", "weyl_word", "FIXED_PRESET_NAMES",
]

_Q = Coeff.q_power(1)
_QM1 = _Q - ONE


def chi(a: int, i: int, j: int) -> HeckeElement:
    """The characteristic function of one double coset, as an element."""
    _check_basis(a, i, j)
    return _element(((RowKey(a, j), RowSeries((_point(i, ONE),))),))


def iota() -> HeckeElement:
    """The identity element q * chi(1, 0, 0)."""
    return chi(1, 0, 0).scale(_Q)


def theta(i: int, j: int) -> HeckeElement:
    if (i, j) == (1, 0):
        return chi(1, 1, 0)
    if (i, j) == (0, 1):
        return chi(1, 0, 1)
    if (i, j) == (-1, 0):
        # chi(1,-1,0) - (q-1) chi(2,-1,0) - (q-1) chi(2,0,0) + (q-1)^2 chi(1,0,0)
        points = {(1, 0): {-1: ONE, 0: _QM1 * _QM1}, (2, 0): {-1: -_QM1, 0: -_QM1}}
        return _element(_normal_rows(points, {}))
    if (i, j) == (0, -1):
        # chi(1,0,-1) minus (q-1) q^m on the sheet-2 ray m >= 0
        tail = Strip(0, POS_INF, (ExpPolyTerm(2, IndexPoly.constant(-_QM1)),))
        return chi(1, 0, -1) + HeckeElement([((2, -1), (tail,))])
    raise ValueError(f"theta is defined for (+-1,0) and (0,+-1), got {(i, j)}")


def phi(k: int) -> HeckeElement:
    """phi(0), phi(1), phi(2): s times the sheet-2 functions at (0,0), (-1,0), (0,-1)."""
    if k not in (0, 1, 2):
        raise ValueError(f"phi index must be 0, 1 or 2, got {k}")
    a, i, j = [(2, 0, 0), (2, -1, 0), (2, 0, -1)][k]
    return chi(a, i, j).scale(Coeff.s_power(1))


FIXED_PRESET_NAMES: tuple[str, ...] = (
    "iota",
    "theta(1,0)",
    "theta(-1,0)",
    "theta(0,1)",
    "theta(0,-1)",
    "phi0",
    "phi1",
    "phi2",
)

def preset(name: str) -> HeckeElement:
    """Look up a named element: chi(a,i,j), iota, theta(i,j), phi0/phi1/phi2.

    Names are read by the expression grammar, so a bad name raises its
    ``ExprError``, a ``ValueError``.
    """
    from .text import parse_element

    return parse_element(name)


def theta_monomial(i: int, j: int) -> HeckeElement:
    """Left-to-right product of |i| first-axis and then |j| second-axis generators.

    For j > 0 (any i), and for j = 0 with i >= 0, this equals
    q^{-(i+j-1)} chi(1, i, j).  For j = 0 with i < 0 the expanded power of
    theta(-1, 0) is returned as computed; no closed form is asserted there.
    """
    out = iota()
    gen_i = theta(1, 0) if i >= 0 else theta(-1, 0)
    for _ in range(abs(i)):
        out = out * gen_i
    if j != 0:
        gen_j = theta(0, 1) if j > 0 else theta(0, -1)
        for _ in range(abs(j)):
            out = out * gen_j
    return out


# ---------------------------------------------------------------------------
# the double affine Weyl group


class WeylElement(NamedTuple):
    """Monomial matrix class (flip, i, j): antidiagonal iff flip."""

    flip: bool
    i: int
    j: int

    def basis_index(self) -> BasisIndex:
        return BasisIndex(2 if self.flip else 1, self.i, self.j)


def weyl_identity() -> WeylElement:
    return WeylElement(False, 0, 0)


def weyl_mul(u: WeylElement, v: WeylElement) -> WeylElement:
    # (f1, w1)(f2, w2) = (f1 xor f2, w1 + (-1)^{f1} w2); the sign from
    # antidiag * antidiag lies in T(O) and is dropped
    sign = -1 if u.flip else 1
    return WeylElement(u.flip != v.flip, u.i + sign * v.i, u.j + sign * v.j)


_LETTERS = {
    "s0": WeylElement(True, 0, 0),
    "s1": WeylElement(True, -1, 0),
    "s2": WeylElement(True, 0, -1),
}


def weyl_word(letters: Iterable[str]) -> WeylElement:
    """Fold a word in the generators s0, s1, s2 into a group element."""
    out = weyl_identity()
    for name in letters:
        try:
            out = weyl_mul(out, _LETTERS[name])
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None
    return out
