"""Exact scalars: the field Q(s) of rational functions in one variable s.

Every coefficient in the algebra lives here.  The cardinality parameter q is
the even power s^2, so integer powers of q and half-integer powers q^{1/2}
are both just monomials in s.  Values are kept as reduced fractions of
integer polynomials; no floating point is used anywhere.
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


def _pscale(a: tuple[int, ...], c: int) -> tuple[int, ...]:
    if c == 0:
        return _PZERO
    return tuple(x * c for x in a)


def _pcontent(a: tuple[int, ...]) -> int:
    return gcd(*a)


def _pprim(a: tuple[int, ...]) -> tuple[int, ...]:
    c = _pcontent(a)
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
        rem = [x * lb for x in rem]
        for j, cb in enumerate(b):
            rem[k + j] -= c * cb
    return _ptrim(rem[:db] if db > 0 else [])


def _pgcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Greatest common divisor in Z[s], primitive with positive leading coeff."""
    if not a:
        g = _pprim(b)
    elif not b:
        g = _pprim(a)
    elif a.count(0) == len(a) - 1 or b.count(0) == len(b) - 1:
        # a monomial c*s^k shares with the other only content and a power of s
        low = min(next(i for i, c in enumerate(p) if c) for p in (a, b))
        g = (0,) * low + (gcd(_pcontent(a), _pcontent(b)),)
    else:
        ca, cb = _pcontent(a), _pcontent(b)
        a, b = _pprim(a), _pprim(b)
        while b:
            if len(a) < len(b):
                a, b = b, a
                continue
            a, b = b, _pprim(_ppseudo_rem(a, b))
        g = _pscale(a, gcd(ca, cb))
    if g and g[-1] < 0:
        g = _pneg(g)
    return g if g else _PZERO


def _peval(a: tuple[int, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pstr(a: tuple[int, ...]) -> str:
    if not a:
        return "0"
    parts: list[str] = []
    for d in range(len(a) - 1, -1, -1):
        c = a[d]
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


# ---------------------------------------------------------------------------


class Coeff:
    """An element of Q(s), stored as a reduced fraction num/den over Z[s].

    Canonical form: den is nonzero with positive leading coefficient and
    gcd(num, den) = 1 in Z[s]; the zero value is 0/1.  Construction always
    reduces, so structural equality coincides with equality in the field.
    """

    __slots__ = ("num", "den")

    num: tuple[int, ...]
    den: tuple[int, ...]

    def __init__(self, num: Iterable[int] = (), den: Iterable[int] = (1,)):
        n, d = _ptrim(num), _ptrim(den)
        if not d:
            raise CoeffDivisionError("zero denominator")
        if not n:
            object.__setattr__(self, "num", _PZERO)
            object.__setattr__(self, "den", _PONE)
            return
        g = _pgcd(n, d)
        if len(g) > 1 or g[0] != 1:
            n, d = _pdiv_exact(n, g), _pdiv_exact(d, g)
        if d[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Coeff is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def integer(n: int) -> "Coeff":
        return Coeff((n,))

    @staticmethod
    def rational(n: int, d: int) -> "Coeff":
        return Coeff((n,), (d,))

    @staticmethod
    def from_fraction(f: Fraction) -> "Coeff":
        return Coeff((f.numerator,), (f.denominator,))

    @staticmethod
    def s_power(e: int) -> "Coeff":
        """The monomial s^e; negative e gives 1/s^{|e|}."""
        if e >= 0:
            return Coeff((0,) * e + (1,))
        return Coeff(_PONE, (0,) * (-e) + (1,))

    @staticmethod
    def q_power(e: int) -> "Coeff":
        """The monomial q^e = s^{2e}."""
        return Coeff.s_power(2 * e)

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
        return Coeff(
            _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
            _pmul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        out = object.__new__(Coeff)
        object.__setattr__(out, "num", _pneg(self.num))
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        o = Coeff._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        return (-self) + other

    def __mul__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        o = Coeff._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Coeff(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        o = Coeff._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            raise CoeffDivisionError("division by zero scalar")
        return Coeff(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other: Union["Coeff", int, Fraction]) -> "Coeff":
        return Coeff._coerce(other) / self

    def __pow__(self, e: int) -> "Coeff":
        if e < 0:
            if not self.num:
                raise CoeffDivisionError("inverse of zero scalar")
            base, e = Coeff(self.den, self.num), -e
        else:
            base = self
        out = ONE
        while e:  # repeated squaring
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Coeff._coerce(other)
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    # -- evaluation ---------------------------------------------------------

    def eval_at_s(self, s0: Union[int, Fraction]) -> Fraction:
        s0 = Fraction(s0)
        d = _peval(self.den, s0)
        if d == 0:
            raise PoleError(f"denominator vanishes at s = {s0}")
        return _peval(self.num, s0) / d

    def _even_only(self) -> bool:
        return all(
            c == 0 for p in (self.num, self.den) for i, c in enumerate(p) if i % 2
        )

    def eval_at_q(self, q0: Union[int, Fraction]) -> Fraction:
        """Evaluate at a numeric value of q = s^2.

        When only even powers of s occur the substitution is direct and any
        q0 != 0 works; otherwise q0 must have an exact rational square root.
        """
        q0 = Fraction(q0)
        if self._even_only():
            num = _peval(tuple(self.num[::2]), q0)
            den = _peval(tuple(self.den[::2]), q0)
            if den == 0:
                raise PoleError(f"denominator vanishes at q = {q0}")
            return num / den
        if q0 < 0:
            raise ValueError("odd powers of s require q >= 0")
        rn, rd = isqrt(q0.numerator), isqrt(q0.denominator)
        if rn * rn != q0.numerator or rd * rd != q0.denominator:
            raise ValueError(
                f"odd powers of s require an exact square root of q = {q0}"
            )
        return self.eval_at_s(Fraction(rn, rd))

    # -- text ---------------------------------------------------------------

    def __str__(self) -> str:
        ns = _pstr(self.num)
        if self.den == _PONE:
            return ns
        nterms = sum(1 for c in self.num if c)
        ds = _pstr(self.den)
        dterms = sum(1 for c in self.den if c)
        if nterms > 1:
            ns = f"({ns})"
        # a coefficient inside the denominator would rebind: x/2*s^4 != x/(2*s^4)
        if dterms > 1 or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"Coeff[{self}]"

    @staticmethod
    def parse(text: str) -> "Coeff":
        """Read a scalar written in the expression grammar of ``hecke2d.text``."""
        from .text import parse_scalar

        return parse_scalar(text)


ZERO = Coeff()
ONE = Coeff.integer(1)
S = Coeff.s_power(1)
Q = Coeff.q_power(1)


def one_minus_qinv() -> Coeff:
    """The ubiquitous factor 1 - q^{-1} = (s^2 - 1)/s^2."""
    return ONE - Coeff.q_power(-1)
