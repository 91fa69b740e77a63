"""Named elements and the double affine Weyl group.

The generators X = theta(1, 0), Y = theta(0, 1), Z = theta(0, -1) together
with theta(-1, 0) = X^{-1} span a large commutative subalgebra subject to
Y * Z = 0.  The phi elements are normalized characteristic functions of the
three reflection cosets.  The double affine Weyl group W = Z^2 semidirect
{+-1} indexes the basis: its elements are the labels (a, i, j), sheet 2 the
antidiagonal monomial matrices, taken up to diagonal units, so the sign
produced by multiplying two antidiagonal matrices is dropped.  weyl_mul is
W's product, the label of eta_x * eta_y, and the product table reads from it
where a point mass sits.
"""

from __future__ import annotations

from typing import Iterable, Union

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
    _label,
    _normal_rows,
    _point,
)

__all__ = [
    "chi", "iota", "theta", "phi", "preset", "theta_monomial",
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
    ij = (i, j) if type(i) is type(j) is int else None  # True and 1.0 equal 1: refused
    if ij == (1, 0):
        return chi(1, 1, 0)
    if ij == (0, 1):
        return chi(1, 0, 1)
    if ij == (-1, 0):
        # chi(1,-1,0) - (q-1) chi(2,-1,0) - (q-1) chi(2,0,0) + (q-1)^2 chi(1,0,0)
        points = {(1, 0): {-1: ONE, 0: _QM1 * _QM1}, (2, 0): {-1: -_QM1, 0: -_QM1}}
        return _element(_normal_rows(points, {}))
    if ij == (0, -1):
        # chi(1,0,-1) minus (q-1) q^m on the sheet-2 ray m >= 0
        tail = Strip(0, POS_INF, (ExpPolyTerm(2, IndexPoly.constant(-_QM1)),))
        return chi(1, 0, -1) + HeckeElement([((2, -1), (tail,))])
    raise ValueError(f"theta is defined for (+-1,0) and (0,+-1), got {(i, j)}")


def phi(k: int) -> HeckeElement:
    """phi(0), phi(1), phi(2): s times the sheet-2 functions at (0,0), (-1,0), (0,-1)."""
    if type(k) is not int or k not in (0, 1, 2):
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


def weyl_identity() -> BasisIndex:
    return BasisIndex(1, 0, 0)


def weyl_mul(x: Union[BasisIndex, tuple], y: Union[BasisIndex, tuple]) -> BasisIndex:
    """The label of eta_x * eta_y: the sheets compose as flips, sheet 2 the
    antidiagonal one, and (i, j) + (-1)^(a-1) (k, l); the sign from
    antidiag * antidiag lies in T(O) and is dropped."""
    (a, i, j), (b, k, l) = _label(x), _label(y)
    sign = 1 if a == 1 else -1
    return BasisIndex(1 if a == b else 2, i + sign * k, j + sign * l)


_LETTERS = {
    "s0": BasisIndex(2, 0, 0),
    "s1": BasisIndex(2, -1, 0),
    "s2": BasisIndex(2, 0, -1),
}


def weyl_word(letters: Iterable[str]) -> BasisIndex:
    """Fold a word in the generators s0, s1, s2 into its label."""
    out = weyl_identity()
    for name in letters:
        try:
            out = weyl_mul(out, _LETTERS[name])
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None
    return out
