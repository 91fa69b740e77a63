"""The text layer: one grammar and one renderer for scalars and elements.

Expressions are sums and differences of scalar-weighted atoms (``chi(a,i,j)``,
``iota``, ``theta(i,j)``, ``phi0``..``phi2``, ``strip(...)`` literals), with
infix ``*`` for convolution and scalars rational in ``q`` and ``s``.
``parse_element`` and ``format_element`` round-trip exactly, so every printed
element is valid input again.  ``parse_scalar`` reads the same grammar and
requires a scalar result; ``Coeff.parse`` is that function.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Callable, NamedTuple, Union

from .coeff import Coeff, CoeffError, ONE, ParseError, Q, S
from .element import (
    Bound,
    ExpPolyTerm,
    HeckeElement,
    IndexPoly,
    NEG_INF,
    POS_INF,
    ShapeError,
    Strip,
    element_to_json,
    merge_terms,
    zero_element,
)
from .presets import chi, iota, phi, theta

__all__ = ["ExprError", "format_element", "parse_element", "parse_scalar"]

# exponents on elements and on terms in m count repeated products
_MAX_EXPONENT = 16

# Intermediate parse values: a scalar, a finished element, or the body of a
# strip literal as a map from s-exponent step e to a polynomial in m.
_MTerms = dict[int, IndexPoly]
_Value = Union[Coeff, HeckeElement, _MTerms]


class ExprError(ParseError):
    """Syntax or type error in an element expression, with its position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


# ---------------------------------------------------------------------------
# tokenizer


class _Token(NamedTuple):
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    pos: int


_TOKEN_RE = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|\.\.|[-+*/^(),:]")


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        lexeme = match.group()
        if lexeme[0].isdigit():
            kind = "int"
        elif lexeme[0].isalpha():
            kind = "name"
        else:
            kind = "op"
        out.append(_Token(kind, lexeme, pos))
        pos = match.end()
    out.append(_Token("end", "", len(text)))
    return out


# ---------------------------------------------------------------------------
# value algebra shared by the grammar rules


def _as_mterms(value: Union[Coeff, _MTerms]) -> _MTerms:
    if isinstance(value, Coeff):
        return {0: IndexPoly.constant(value)}
    return value


def _negate(value: _Value) -> _Value:
    if isinstance(value, dict):
        return {e: -p for e, p in value.items()}
    return -value


def _combine_add(a: _Value, b: _Value, pos: int) -> _Value:
    if isinstance(a, HeckeElement) and isinstance(b, HeckeElement):
        return a + b
    if isinstance(a, HeckeElement) or isinstance(b, HeckeElement):
        raise ExprError("cannot add a scalar to an element", pos)
    if isinstance(a, Coeff) and isinstance(b, Coeff):
        return a + b
    return dict(merge_terms([*_as_mterms(a).items(), *_as_mterms(b).items()]))


def _combine_mul(a: _Value, b: _Value, pos: int) -> _Value:
    if not isinstance(a, dict) and not isinstance(b, dict):
        # scalars and elements: Coeff products, scaling, or convolution
        return a * b
    if isinstance(a, HeckeElement) or isinstance(b, HeckeElement):
        raise ExprError("cannot multiply an element by a term in m", pos)
    pairs = itertools.product(_as_mterms(a).items(), _as_mterms(b).items())
    return dict(merge_terms((e1 + e2, p1 * p2) for (e1, p1), (e2, p2) in pairs))


def _combine_div(a: _Value, b: _Value, pos: int) -> _Value:
    if not isinstance(b, Coeff):
        raise ExprError("division is only defined by a scalar", pos)
    try:
        if isinstance(a, Coeff):
            return a / b
        if isinstance(a, HeckeElement):
            return a.scale(ONE / b)
        return {e: p * (ONE / b) for e, p in a.items()}
    except CoeffError as err:
        raise ExprError(str(err), pos) from err


# ---------------------------------------------------------------------------
# recursive-descent parser


class _ElementParser:
    """One-pass parser over the token stream.

    ``in_strip`` threads the context in which ``m`` and exponents linear in
    ``m`` are meaningful; outside ``strip(...)`` they are rejected.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.at = 0

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def take(self) -> _Token:
        tok = self.tokens[self.at]
        if tok.kind != "end":
            self.at += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expect(self, op: str) -> _Token:
        tok = self.take()
        if tok.kind == "end":
            raise ExprError(f"expected {op!r} before end of input", tok.pos)
        if tok.kind != "op" or tok.text != op:
            raise ExprError(f"expected {op!r}, found {tok.text!r}", tok.pos)
        return tok

    def whole(self) -> _Value:
        """The whole input as one expression, outside any strip."""
        value = self.expr(in_strip=False)
        tail = self.peek()
        if tail.kind != "end":
            raise ExprError(f"unexpected {tail.text!r} after expression", tail.pos)
        return value

    # -- grammar, loosest binding first -------------------------------

    def expr(self, in_strip: bool) -> _Value:
        value = self.term(in_strip)
        while self.at_op("+", "-"):
            tok = self.take()
            rhs = self.term(in_strip)
            if tok.text == "-":
                rhs = _negate(rhs)
            value = _combine_add(value, rhs, tok.pos)
        return value

    def term(self, in_strip: bool) -> _Value:
        value = self.factor(in_strip)
        while self.at_op("*", "/"):
            tok = self.take()
            rhs = self.factor(in_strip)
            if tok.text == "*":
                value = _combine_mul(value, rhs, tok.pos)
            else:
                value = _combine_div(value, rhs, tok.pos)
        return value

    def factor(self, in_strip: bool) -> _Value:
        if self.at_op("-"):
            self.take()
            return _negate(self.factor(in_strip))
        if self.at_op("+"):
            self.take()
            return self.factor(in_strip)
        return self.power(in_strip)

    def power(self, in_strip: bool) -> _Value:
        start = self.at
        head = self.peek()
        base = self.atom(in_strip)
        # an exponent linear in m is only meaningful on a bare q or s
        bare = self.at == start + 1 and head.kind == "name"
        qs_name = head.text if bare and head.text in ("q", "s") else ""
        while self.at_op("^"):
            caret = self.take()
            base = self.apply_exponent(base, caret.pos, in_strip, qs_name)
            qs_name = ""
        return base

    def exponent(self) -> tuple[str, int]:
        # INT, m, k*m, each optionally negated and optionally parenthesized
        if self.at_op("("):
            self.take()
            body = self.exponent_body(parenthesized=True)
            self.expect(")")
            return body
        return self.exponent_body(parenthesized=False)

    def exponent_body(self, parenthesized: bool) -> tuple[str, int]:
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        tok = self.take()
        if tok.kind == "int":
            k = sign * int(tok.text)
            if parenthesized and self.at_op("*"):
                self.take()
                name = self.take()
                if name.kind != "name" or name.text != "m":
                    raise ExprError("expected 'm' after '*' in an exponent", name.pos)
                return ("m", k)
            return ("int", k)
        if tok.kind == "name" and tok.text == "m":
            return ("m", sign)
        raise ExprError("malformed exponent", tok.pos)

    def apply_exponent(
        self, base: _Value, pos: int, in_strip: bool, qs_name: str
    ) -> _Value:
        kind, k = self.exponent()
        if kind == "int":
            if isinstance(base, Coeff):
                try:
                    return base**k
                except CoeffError as err:
                    raise ExprError(str(err), pos) from err
            if k > _MAX_EXPONENT:
                raise ExprError(f"exponent {k} above {_MAX_EXPONENT} on a non-scalar", pos)
            if isinstance(base, HeckeElement):
                if k < 0:
                    raise ExprError("negative powers of elements are not defined", pos)
                return base**k
            if k < 1:
                raise ExprError("powers of a term in m must be positive", pos)
            out = base
            for _ in range(k - 1):
                out = _combine_mul(out, base, pos)
            return out
        if not in_strip:
            raise ExprError("an exponent in m is only allowed inside strip(...)", pos)
        if not qs_name:
            raise ExprError("an exponent in m must sit on a bare q or s", pos)
        e = 2 * k if qs_name == "q" else k
        return {e: IndexPoly.constant(ONE)}

    # -- atoms --------------------------------------------------------

    def atom(self, in_strip: bool) -> _Value:
        tok = self.take()
        if tok.kind == "int":
            return Coeff.integer(int(tok.text))
        if tok.kind == "op" and tok.text == "(":
            value = self.expr(in_strip)
            self.expect(")")
            return value
        if tok.kind == "name":
            return self.named_atom(tok, in_strip)
        if tok.kind == "end":
            raise ExprError("unexpected end of input", tok.pos)
        raise ExprError(f"unexpected {tok.text!r}", tok.pos)

    def named_atom(self, tok: _Token, in_strip: bool) -> _Value:
        name = tok.text
        if name == "q":
            return Q
        if name == "s":
            return S
        if name == "m":
            if not in_strip:
                raise ExprError("'m' is only defined inside strip(...)", tok.pos)
            return {0: IndexPoly((0, 1))}
        if name == "iota":
            return iota()
        if name in ("phi0", "phi1", "phi2"):
            return phi(int(name[3]))
        if name == "chi":
            return self.call(chi, self.int_args(3), tok.pos)
        if name == "theta":
            return self.call(theta, self.int_args(2), tok.pos)
        if name == "strip":
            return self.strip_atom(tok.pos)
        raise ExprError(f"unknown name {name!r}", tok.pos)

    def call(
        self, fn: Callable[..., HeckeElement], args: tuple[int, ...], pos: int
    ) -> HeckeElement:
        try:
            return fn(*args)
        except ValueError as err:
            raise ExprError(str(err), pos) from err

    def int_args(self, count: int) -> tuple[int, ...]:
        self.expect("(")
        out = []
        for n in range(count):
            if n:
                self.expect(",")
            out.append(self.signed_int())
        self.expect(")")
        return tuple(out)

    def signed_int(self) -> int:
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        tok = self.take()
        if tok.kind != "int":
            raise ExprError("expected an integer", tok.pos)
        return sign * int(tok.text)

    def bound(self) -> Bound:
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        elif self.at_op("+"):
            self.take()
        tok = self.take()
        if tok.kind == "int":
            return sign * int(tok.text)
        if tok.kind == "name" and tok.text == "inf":
            return NEG_INF if sign < 0 else POS_INF
        raise ExprError("expected an integer or 'inf'", tok.pos)

    def strip_atom(self, pos: int) -> HeckeElement:
        self.expect("(")
        a = self.signed_int()
        self.expect(",")
        j = self.signed_int()
        self.expect(",")
        lo = self.bound()
        self.expect("..")
        hi = self.bound()
        self.expect(":")
        body = self.expr(in_strip=True)
        self.expect(")")
        if a not in (1, 2):
            raise ExprError("sheet must be 1 or 2", pos)
        if isinstance(body, HeckeElement):
            raise ExprError("a strip body must be scalar in m", pos)
        terms = merge_terms(_as_mterms(body).items())
        if not terms:
            return zero_element()
        try:
            return HeckeElement([((a, j), (Strip(lo, hi, terms),))])
        except ShapeError as err:
            raise ExprError(str(err), pos) from err


def parse_element(text: str) -> HeckeElement:
    """Parse an element expression.

    The expression as a whole must denote an element; ``"0"`` is accepted for
    the zero element.  Raises :class:`ExprError` with the offending column on
    malformed or ill-typed input.
    """
    value = _ElementParser(text).whole()
    if isinstance(value, HeckeElement):
        return value
    if isinstance(value, Coeff) and value.is_zero():
        return zero_element()
    raise ExprError("expression denotes a scalar, not an element", 0)


def parse_scalar(text: str) -> Coeff:
    """Parse an expression that must denote a scalar in Q(s).

    Raises :class:`ExprError` with the offending column on malformed input,
    on division by zero, and on expressions that denote an element.
    """
    value = _ElementParser(text).whole()
    if isinstance(value, Coeff):
        return value
    raise ExprError("expression denotes an element, not a scalar", 0)


# ---------------------------------------------------------------------------
# formatting


def _bound_text(b: Bound) -> str:
    if b == NEG_INF:
        return "-inf"
    if b == POS_INF:
        return "inf"
    return str(b)


def _strip_text(a: int, j: int, st: Strip) -> str:
    if st.lo == st.hi:
        c = st.value_at(st.lo)
        base = f"chi({a},{st.lo},{j})"
        return base if c == ONE else f"({c})*{base}"
    body = " + ".join(
        f"({t.poly})" if t.e == 0 else f"({t.poly})*s^({t.e}*m)" for t in st.terms
    )
    return f"strip({a},{j},{_bound_text(st.lo)}..{_bound_text(st.hi)}: {body})"


def _braced_powers(text: str) -> str:
    return re.sub(r"\^(-?\d+)", r"^{\1}", text)


def _q_form(text: str) -> str:
    # display even s-powers through q = s^2
    def sub(match: re.Match) -> str:
        n = int(match.group(1))
        if n % 2:
            return match.group(0)
        half = n // 2
        return "q" if half == 1 else f"q^{{{half}}}"

    return re.sub(r"s\^\{(-?\d+)\}", sub, text)


def _latex_scalar(c: object) -> str:
    return _q_form(_braced_powers(str(c))).replace("*", " ")


def _term_latex(t: ExpPolyTerm) -> str:
    poly = _latex_scalar(t.poly)
    if t.e == 0:
        return f"({poly})"
    base, exp = ("q", t.e // 2) if t.e % 2 == 0 else ("s", t.e)
    power = {1: "m", -1: "-m"}.get(exp, f"{exp}m")
    return f"({poly}) {base}^{{{power}}}"


def _strip_latex(a: int, j: int, st: Strip) -> str:
    if st.lo == st.hi:
        c = st.value_at(st.lo)
        base = f"\\chi^{{({a})}}_{{{st.lo},{j}}}"
        return base if c == ONE else f"({_latex_scalar(c)}) {base}"
    # in normal form every strip that is not a point is a ray
    ray = f"m <= {st.hi}" if st.lo == NEG_INF else f"m >= {st.lo}"
    body = " + ".join(_term_latex(t) for t in st.terms)
    if len(st.terms) > 1:
        body = f"({body})"
    return f"\\sum_{{{ray}}} {body} \\chi^{{({a})}}_{{m,{j}}}"


def format_element(x: HeckeElement, mode: str = "text") -> str:
    """Render an element as re-parseable text, JSON, or LaTeX.

    Rows are in normal form (``chi`` terms and at most one ray each), so
    equal elements render identically in every mode.
    """
    if mode == "json":
        return json.dumps(element_to_json(x), sort_keys=True)
    if mode not in ("text", "latex"):
        raise ValueError(f"unknown mode {mode!r}")
    piece = _strip_latex if mode == "latex" else _strip_text
    parts = [
        piece(key.a, key.j, st)
        for key, series in sorted(x.rows, key=lambda row: row[0])
        for st in series.strips
    ]
    return " + ".join(parts) if parts else "0"
