"""Exact scalars: the field Q(s) of rational functions in one variable s.

Every coefficient in the algebra lives here.  The cardinality parameter q is
the even power s^2, so integer powers of q and half-integer powers q^{1/2}
are both just monomials in s.  A value is s^k times a reduced fraction of
integer polynomials prime to s, so monomials cost O(1) whatever k is; no
floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Union

__all__ = [
    "Coeff",
    "CoeffError",
    "CoeffDivisionError",
    "PoleError",
    "ParseError",
    "ONE",
    "ZERO",
    "Q",
    "S",
    "one_minus_qinv",
]


class CoeffError(ArithmeticError):
    pass


class CoeffDivisionError(CoeffError, ZeroDivisionError):
    """Division of a scalar by the zero scalar."""


class PoleError(CoeffError):
    """Evaluation of a scalar at a zero of its denominator."""


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer polynomial helpers; a polynomial is a tuple of ints, ascending
# degree, with no trailing zeros; () is the zero polynomial

_PZERO: tuple[int, ...] = ()
_PONE: tuple[int, ...] = (1,)
_MONE: tuple[int, ...] = (-1,)


def _ptrim(cs: Iterable[int]) -> tuple[int, ...]:
    out = list(cs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-c for c in a)


def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return _PZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _ptrim(out)


def _pprim(a: tuple[int, ...]) -> tuple[int, ...]:
    c = gcd(*a)
    if c in (0, 1):
        return a
    return tuple(x // c for x in a)


def _pdiv_exact(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # exact division in Z[s]; caller guarantees divisibility
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lb, nonzero = b[-1], [(j, cb) for j, cb in enumerate(b) if cb]
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        if c % lb != 0:
            raise CoeffError("inexact polynomial division")
        out[k] = c // lb
        for j, cb in nonzero:
            rem[k + j] -= out[k] * cb
    if any(rem):
        raise CoeffError("inexact polynomial division")
    return _ptrim(out)


def _ppseudo_rem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # pseudo remainder: lc(b)^(deg a - deg b + 1) * a mod b
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    rem = list(a)
    for k in range(da - db, -1, -1):
        c = rem[k + db]
        if lb != 1:
            rem = [x * lb for x in rem]
        for j, cb in enumerate(b):
            rem[k + j] -= c * cb
    return _ptrim(rem[:db] if db > 0 else [])


def _pgcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """gcd in Z[s] of nonzero a and b, with positive leading coefficient."""
    content = gcd(*a, *b)
    a, b = _pprim(a), _pprim(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        a, b = b, _pprim(_ppseudo_rem(a, b))
    g = _pmul((content,), a)
    return _pneg(g) if g[-1] < 0 else g


def _cancel(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """a/g and b/g for g = gcd(a, b), a and b nonzero and prime to s: a constant
    shares only an integer with the other, so only two non-constants need _pgcd."""
    if len(a) == 1 or len(b) == 1:
        g = gcd(*a, *b)
        if g == 1:
            return a, b
        return tuple(c // g for c in a), tuple(c // g for c in b)
    if min(len(a), len(b)) > _MAX_GCD_DEGREE + 1:
        raise CoeffError(f"gcd too large: degrees {len(a) - 1} and {len(b) - 1}")
    g = _pgcd(a, b)
    if g == _PONE:
        return a, b
    return _pdiv_exact(a, g), _pdiv_exact(b, g)


def _ppow(a: tuple[int, ...], e: int) -> tuple[int, ...]:
    out = _PONE
    while e:  # repeated squaring
        if e & 1:
            out = _pmul(out, a)
        e >>= 1
        if e:
            a = _pmul(a, a)
    return out


def _exact(x: Union[int, Fraction], var: str) -> Fraction:
    """x as a Fraction; a float (inexact) or a bool (a truth value) is refused."""
    if isinstance(x, (float, bool)):
        raise ValueError(f"{var} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


def _eval(k: int, n: tuple[int, ...], d: tuple[int, ...], x: Fraction, var: str) -> Fraction:
    """var^k * n/d at var = x = p/r, in integers: Horner on p carrying powers of r gives
    r^e * a(p/r) for a of degree e, ending on r^(e+1); var^k moves p^k over r^k."""
    p, r = x.numerator, x.denominator
    num, rn = 0, 1
    for c in reversed(n):
        num, rn = num * p + c * rn, rn * r
    den, rd = 0, 1
    for c in reversed(d):
        den, rd = den * p + c * rd, rd * r
    up, down = max(k, 0), max(-k, 0)
    num, den = num * rd * p**up * r**down, den * rn * r**up * p**down
    if not den:
        raise PoleError(f"denominator vanishes at {var} = {x}")
    return Fraction(num, den)


def _pstr(a: tuple[int, ...], shift: int = 0) -> str:
    """The text of s^shift * a, highest degree first."""
    if not a:
        return "0"
    parts: list[str] = []
    for i in range(len(a) - 1, -1, -1):
        c, d = a[i], i + shift
        if c == 0:
            continue
        if d == 0:
            body = str(abs(c))
        elif d == 1:
            body = "s" if abs(c) == 1 else f"{abs(c)}*s"
        else:
            body = f"s^{d}" if abs(c) == 1 else f"{abs(c)}*s^{d}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# Refused before they are built: a power whose exponent times its base's size
# (deg n + deg d + bit length of the largest coefficient - 1, so 0 for +-s^k)
# passes _MAX_POWER_SIZE, a sum of terms more than _MAX_GAP powers of s apart,
# and a gcd (worse than cubic) of two polynomials of degree over _MAX_GCD_DEGREE.
_MAX_POWER_SIZE = 1024
_MAX_GAP = 1 << 16
_MAX_GCD_DEGREE = 64

# ---------------------------------------------------------------------------


class Coeff:
    """An element of Q(s), stored as s^k * n/d with n, d in Z[s].

    Canonical form: n and d are prime to s (nonzero constant terms), d has
    positive leading coefficient and gcd(n, d) = 1 in Z[s]; zero is s^0 * 0/1.
    Construction always reduces and values are never modified afterwards, so
    structural equality and hashing agree with equality in the field; a
    monomial c * s^k costs O(1) whatever k is, and so does a power of +-s^k.
    """

    __slots__ = ("_v",)

    _v: tuple[int, tuple[int, ...], tuple[int, ...]]  # (k, n, d)

    def __init__(self, num: Iterable[int] = (), den: Iterable[int] = (1,)):
        n, d = _ptrim(num), _ptrim(den)
        if not d:
            raise CoeffDivisionError("zero denominator")
        if not n:
            self._v = (0, _PZERO, _PONE)
            return
        vn, vd = (next(i for i, c in enumerate(p) if c) for p in (n, d))  # powers of s
        n, d = _cancel(n[vn:], d[vd:])
        if d[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        self._v = (vn - vd, n, d)

    @property
    def num(self) -> tuple[int, ...]:
        """The reduced numerator as a full polynomial in s."""
        k, n, _ = self._v
        return (0,) * k + n if k > 0 else n

    @property
    def den(self) -> tuple[int, ...]:
        """The reduced denominator, with positive leading coefficient."""
        k, _, d = self._v
        return (0,) * -k + d if k < 0 else d

    # -- constructors -------------------------------------------------------

    @staticmethod
    def integer(n: int) -> "Coeff":
        return _make(0, (n,), _PONE) if n else ZERO

    @staticmethod
    def rational(n: int, d: int) -> "Coeff":
        return Coeff((n,), (d,))

    @staticmethod
    def from_fraction(f: Fraction) -> "Coeff":
        return _make(0, (f.numerator,), (f.denominator,)) if f else ZERO

    @staticmethod
    def s_power(e: int) -> "Coeff":
        """The monomial s^e; negative e gives 1/s^{|e|}."""
        return _make(e, _PONE, _PONE)

    @staticmethod
    def q_power(e: int) -> "Coeff":
        """The monomial q^e = s^{2e}."""
        return _make(2 * e, _PONE, _PONE)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other: Union["Coeff", int, Fraction]) -> "Coeff":
        if isinstance(other, Coeff):
            return other
        if isinstance(other, int):
            return Coeff.integer(other)
        if isinstance(other, Fraction):
            return Coeff.from_fraction(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        o = Coeff._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._v, o._v
        if not a[1] or not b[1]:
            return o if not a[1] else self
        # s^k1*n1/d1 + s^k2*n2/d2 = s^k1 * (n1*d2 + s^(k2-k1)*n2*d1) / (d1*d2)
        (k1, n1, d1), (k2, n2, d2) = (a, b) if a[0] <= b[0] else (b, a)
        if k2 - k1 > _MAX_GAP:
            raise CoeffError(f"sum too wide: s^{k1} and s^{k2} are {k2 - k1} apart")
        if d1 != d2:
            n1, n2, d1 = _pmul(n1, d2), _pmul(n2, d1), _pmul(d1, d2)
        n = _padd(n1, (0,) * (k2 - k1) + n2)
        if not n:
            return ZERO
        low = next(i for i, c in enumerate(n) if c)  # > 0 if the constant terms cancelled
        n, d1 = _cancel(n[low:], d1) if d1 != _PONE else (n[low:], d1)
        return _make(k1 + low, n, d1)

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        k, n, d = self._v
        return _make(k, _pneg(n), d)

    def __sub__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        o = Coeff._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        o = Coeff._coerce(other)
        return o if o is NotImplemented else o - self

    def __mul__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        o = Coeff._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        (k1, n1, d1), (k2, n2, d2) = self._v, o._v
        if not n1 or not n2:
            return ZERO
        if n2 == d2 == _PONE:  # times a unit monomial s^k2: already canonical
            return _make(k1 + k2, n1, d1)
        if n1 == d1 == _PONE:
            return _make(k1 + k2, n2, d2)
        # cancel across before multiplying: gcd(n1*n2, d1*d2) is then 1
        if d2 != _PONE:
            n1, d2 = _cancel(n1, d2)
        if d1 != _PONE:
            n2, d1 = _cancel(n2, d1)
        return _make(k1 + k2, _pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def _inverse(self) -> "Coeff":
        k, n, d = self._v
        if not n:
            raise CoeffDivisionError("division by zero scalar")
        return _make(-k, _pneg(d), _pneg(n)) if n[-1] < 0 else _make(-k, d, n)

    def __truediv__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        o = Coeff._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        o = Coeff._coerce(other)
        return o if o is NotImplemented else o / self

    def __pow__(self, e: int) -> "Coeff":
        if not e:
            return ONE
        k, n, d = (self if e > 0 else self._inverse())._v
        e = abs(e)
        if d == _PONE and n in (_PONE, _MONE):  # (+-s^k)^e in O(1)
            return _make(k * e, n if e & 1 else _PONE, _PONE)
        size = len(n) + len(d) - 2 + max(abs(c) for c in n + d).bit_length() - 1
        if size * e > _MAX_POWER_SIZE:
            raise CoeffError(f"power too large: exponent {e} on a base of size {size}")
        # gcd(n, d) = 1 gives gcd(n^e, d^e) = 1: no reduction needed
        return _make(k * e, _ppow(n, e), _ppow(d, e))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Coeff._coerce(other)
        if not isinstance(other, Coeff):
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __bool__(self) -> bool:
        return bool(self._v[1])

    def is_zero(self) -> bool:
        return not self._v[1]

    # -- evaluation ---------------------------------------------------------

    def eval_at_s(self, s0: Union[int, Fraction]) -> Fraction:
        return _eval(*self._v, _exact(s0, "s"), "s")

    def eval_at_q(self, q0: Union[int, Fraction]) -> Fraction:
        """Evaluate at a numeric value of q = s^2.

        When only even powers of s occur the substitution is direct and any
        q0 != 0 works; otherwise q0 must have an exact rational square root.
        """
        q0 = _exact(q0, "q")
        k, n, d = self._v
        if k % 2 == 0 and not any(n[1::2]) and not any(d[1::2]):
            return _eval(k // 2, n[::2], d[::2], q0, "q")
        if q0 < 0:
            raise ValueError("odd powers of s require q >= 0")
        rn, rd = isqrt(q0.numerator), isqrt(q0.denominator)
        if rn * rn != q0.numerator or rd * rd != q0.denominator:
            raise ValueError(f"odd powers of s require an exact square root of q = {q0}")
        return self.eval_at_s(Fraction(rn, rd))

    # -- text ---------------------------------------------------------------

    def __str__(self) -> str:
        k, n, d = self._v
        ns = _pstr(n, max(k, 0))
        if k >= 0 and d == _PONE:
            return ns
        ds = _pstr(d, max(-k, 0))
        if sum(1 for c in n if c) > 1:
            ns = f"({ns})"
        # a coefficient inside the denominator would rebind: x/2*s^4 != x/(2*s^4)
        if sum(1 for c in d if c) > 1 or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"Coeff[{self}]"

    @staticmethod
    def parse(text: str) -> "Coeff":
        """Read a scalar written in the expression grammar of ``hecke2d.text``."""
        from .text import parse_scalar

        return parse_scalar(text)


def _make(k: int, n: tuple[int, ...], d: tuple[int, ...]) -> Coeff:
    """A Coeff from parts already in canonical form, without reducing."""
    out = object.__new__(Coeff)
    out._v = (k, n, d)
    return out


ZERO = Coeff()
ONE = Coeff.integer(1)
S = Coeff.s_power(1)
Q = Coeff.q_power(1)
_OMQ = ONE - Coeff.q_power(-1)


def one_minus_qinv() -> Coeff:
    """The ubiquitous factor 1 - q^{-1} = (s^2 - 1)/s^2."""
    return _OMQ
