"""The text layer: one tokenizer, grammar and renderer for every text input.

Expressions are sums and differences of scalar-weighted atoms (``chi(a,i,j)``,
``iota``, ``theta(i,j)``, ``phi0``..``phi2``, ``strip(...)`` literals), with
infix ``*`` for convolution and scalars rational in ``q`` and ``s``.
Every value the parser builds has a degree: 1 for an element atom and for
``m``, 0 for a scalar, and for a ``strip(...)`` literal its body's degree in
``m`` if that is larger; a sum takes the larger degree, a product adds them and
``^k`` multiplies by |k|, counting an element or a term in ``m`` as at least 1.
A product or power whose degree would exceed 16 is refused before it is built.
The element addends of a sum are added in one pass when the sum ends, so a
k-term sum costs time linear in k, and a power of ``s`` or ``q`` costs O(1).
``parse_element`` and ``format_element`` round-trip exactly, so every printed
element is valid input again.  ``parse_scalar`` reads the same grammar and
requires a scalar result; ``Coeff.parse`` is that function.

Matrix literals ``[[a,b],[c,d]]`` over F_q((t1))((t2)) share the tokenizer; an
entry (``parse_field_elem``) sums at most 256 signed products of integers and
``t1``, ``t2`` powers.  ``parse_matrix`` and ``format_matrix`` round-trip
exactly.  Tokens are plain strings from one regular-expression scan, and the
grammar keeps an index into them; all malformed text raises ``ExprError`` with
its column, which a second scan finds only then.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Callable, Union

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
    _check_key,
    _check_row_shape,
    _sum,
    element_to_json,
    merge_terms,
    zero_element,
)
from .oracle import FieldElem2, LocalFieldMatrix
from .presets import chi, iota, phi, theta

__all__ = [
    "ExprError", "format_element", "format_matrix", "parse_element",
    "parse_field_elem", "parse_matrix", "parse_scalar",
]

# caps the degree of every element and term in m that the parser builds
_MAX_DEGREE = 16

# caps the terms of one matrix-literal entry, and so the determinant check
_MAX_TERMS = 256

# caps an integer literal's length: CPython's default limit on int(str)
_MAX_DIGITS = 4300

# Intermediate parse values: a scalar, a finished element, or the body of a
# strip literal as a map from s-exponent step e to a polynomial in m.
_MTerms = dict[int, IndexPoly]
_Value = Union[Coeff, HeckeElement, _MTerms]
# a grammar rule's result: its value and its degree
_Rule = tuple[_Value, int]


class ExprError(ParseError):
    """Syntax or type error in an element expression, with its position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


# ---------------------------------------------------------------------------
# tokenizer

# A token is its text, which gives its kind: "" is the end, a leading decimal
# digit (str.isdecimal is \d's class) makes an integer, a leading ASCII letter
# a name, anything else an operator.  Whitespace starts no token; any other
# character that starts none is matched by \S and refused by _tokenize.
_LEX_RE = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|\.\.|[-+*/^(),:\[\]]|\S")
_OPS = frozenset(("..", *"-+*/^(),:[]"))


def _tokenize(text: str) -> list[str]:
    toks = _LEX_RE.findall(text)
    for tok in toks:
        if tok in _OPS:
            continue
        # toks.index(tok) is this token: an earlier copy would have been refused
        if tok[0].isdecimal():
            if len(tok) > _MAX_DIGITS:
                raise ExprError(f"integer literal longer than {_MAX_DIGITS} digits",
                                _column(text, toks.index(tok)))
        elif not (tok[0].isascii() and tok[0].isalpha()):
            raise ExprError(f"unexpected character {tok!r}", _column(text, toks.index(tok)))
    toks.append("")
    return toks


def _column(text: str, at: int) -> int:
    # the column of token number at, the end's being len(text): a second scan,
    # made only when an error is raised
    match = next(itertools.islice(_LEX_RE.finditer(text), at, None), None)
    return len(text) if match is None else match.start()


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


# ---------------------------------------------------------------------------
# recursive-descent parser


class _ElementParser:
    """One-pass parser over the token strings; ``at`` indexes the next one.

    Each grammar rule returns its value with its degree, so that ``*`` and
    ``^`` can refuse a degree above the cap before building the result.
    ``in_strip`` threads the context in which ``m`` and exponents linear in
    ``m`` are meaningful; outside ``strip(...)`` they are rejected.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.at = 0

    def error(self, message: str, at: int) -> ExprError:
        # the refusal at token number at, with that token's column
        return ExprError(message, _column(self.text, at))

    def expect(self, op: str) -> None:
        tok = self.toks[self.at]
        if tok == op:
            self.at += 1
        elif tok:
            raise self.error(f"expected {op!r}, found {tok!r}", self.at)
        else:
            raise self.error(f"expected {op!r} before end of input", self.at)

    def whole(self) -> _Value:
        """The whole input as one expression, outside any strip."""
        value, _ = self.expr(in_strip=False)
        self.end()
        return value

    def end(self) -> None:
        tail = self.toks[self.at]
        if tail:
            raise self.error(f"unexpected {tail!r} after expression", self.at)

    # -- value algebra at a token -------------------------------------

    def combine_add(self, a: _Value, b: _Value, at: int) -> _Value:
        # scalars only: expr adds up element addends itself
        if isinstance(a, HeckeElement) or isinstance(b, HeckeElement):
            raise self.error("cannot add a scalar to an element", at)
        if isinstance(a, Coeff) and isinstance(b, Coeff):
            return a + b
        return dict(merge_terms([*_as_mterms(a).items(), *_as_mterms(b).items()]))

    def combine_mul(self, a: _Value, b: _Value, at: int) -> _Value:
        if not isinstance(a, dict) and not isinstance(b, dict):
            # scalars and elements: Coeff products, scaling, or convolution
            return a * b
        if isinstance(a, HeckeElement) or isinstance(b, HeckeElement):
            raise self.error("cannot multiply an element by a term in m", at)
        pairs = itertools.product(_as_mterms(a).items(), _as_mterms(b).items())
        return dict(merge_terms((e1 + e2, p1 * p2) for (e1, p1), (e2, p2) in pairs))

    def combine_div(self, a: _Value, b: _Value, at: int) -> _Value:
        if not isinstance(b, Coeff):
            raise self.error("division is only defined by a scalar", at)
        try:
            if isinstance(a, Coeff):
                return a / b
            if isinstance(a, HeckeElement):
                return a.scale(ONE / b)
            return {e: p * (ONE / b) for e, p in a.items()}
        except CoeffError as err:
            raise self.error(str(err), at) from err

    def bounded(self, degree: int, at: int) -> int:
        if degree > _MAX_DEGREE:
            raise self.error(f"degree {degree} is above {_MAX_DEGREE}", at)
        return degree

    # -- grammar, loosest binding first -------------------------------

    def expr(self, in_strip: bool) -> _Rule:
        value, degree = self.term(in_strip)
        addends = [value]  # of a sum of elements, added up once when it ends
        toks = self.toks
        while toks[self.at] in ("+", "-"):
            at = self.at
            self.at = at + 1
            rhs, rhs_degree = self.term(in_strip)
            if toks[at] == "-":
                rhs = _negate(rhs)
            if isinstance(value, HeckeElement) and isinstance(rhs, HeckeElement):
                addends.append(rhs)
            else:
                value = self.combine_add(value, rhs, at)
            degree = max(degree, rhs_degree)
        return (_sum(addends) if len(addends) > 1 else value), degree

    def term(self, in_strip: bool) -> _Rule:
        value, degree = self.factor(in_strip)
        toks = self.toks
        while toks[self.at] in ("*", "/"):
            at = self.at
            self.at = at + 1
            rhs, rhs_degree = self.factor(in_strip)
            if toks[at] == "*":
                degree = self.bounded(degree + rhs_degree, at)
                value = self.combine_mul(value, rhs, at)
            else:
                value = self.combine_div(value, rhs, at)
        return value, degree

    def factor(self, in_strip: bool) -> _Rule:
        tok = self.toks[self.at]
        if tok == "-":
            self.at += 1
            value, degree = self.factor(in_strip)
            return _negate(value), degree
        if tok == "+":
            self.at += 1
            return self.factor(in_strip)
        return self.power(in_strip)

    def power(self, in_strip: bool) -> _Rule:
        start = self.at
        base, degree = self.atom(in_strip)
        # an exponent linear in m is only meaningful on a bare q or s
        head = self.toks[start]
        qs_name = head if self.at == start + 1 and head in ("q", "s") else ""
        while self.toks[self.at] == "^":
            caret = self.at
            self.at = caret + 1
            base, degree = self.apply_exponent(base, degree, caret, in_strip, qs_name)
            qs_name = ""
        return base, degree

    def exponent(self) -> tuple[str, int]:
        # INT, m, k*m, each optionally negated and optionally parenthesized
        if self.toks[self.at] == "(":
            self.at += 1
            body = self.exponent_body(parenthesized=True)
            self.expect(")")
            return body
        return self.exponent_body(parenthesized=False)

    def exponent_body(self, parenthesized: bool) -> tuple[str, int]:
        toks, sign = self.toks, 1
        if toks[self.at] == "-":
            self.at += 1
            sign = -1
        at = self.at
        tok = toks[at]
        self.at = at + 1
        if tok.isdecimal():
            k = sign * int(tok)
            if parenthesized and toks[self.at] == "*":
                at = self.at + 1
                if toks[at] != "m":
                    raise self.error("expected 'm' after '*' in an exponent", at)
                self.at = at + 1
                return ("m", k)
            return ("int", k)
        if tok == "m":
            return ("m", sign)
        raise self.error("malformed exponent", at)

    def apply_exponent(
        self, base: _Value, degree: int, at: int, in_strip: bool, qs_name: str
    ) -> _Rule:
        kind, k = self.exponent()
        if kind == "int":
            if isinstance(base, Coeff):
                try:
                    return base**k, 0
                except CoeffError as err:
                    raise self.error(str(err), at) from err
            # an element or a term in m counts as degree at least 1 here, so
            # that a power of x^0 is bounded too
            degree = self.bounded(max(degree, 1) * abs(k), at)
            if isinstance(base, HeckeElement):
                if k < 0:
                    raise self.error("negative powers of elements are not defined", at)
                return base**k, degree
            if k < 1:
                raise self.error("powers of a term in m must be positive", at)
            out = base
            for _ in range(k - 1):
                out = self.combine_mul(out, base, at)
            return out, degree
        if not in_strip:
            raise self.error("an exponent in m is only allowed inside strip(...)", at)
        if not qs_name:
            raise self.error("an exponent in m must sit on a bare q or s", at)
        e = 2 * k if qs_name == "q" else k
        return {e: IndexPoly.constant(ONE)}, 0

    # -- atoms --------------------------------------------------------

    def atom(self, in_strip: bool) -> _Rule:
        at = self.at
        tok = self.toks[at]
        self.at = at + 1
        if tok.isdecimal():
            return Coeff.integer(int(tok)), 0
        if tok == "(":
            rule = self.expr(in_strip)
            self.expect(")")
            return rule
        if tok == "strip":
            return self.strip_atom(at)
        if tok.isalnum():  # a name: integers are read above
            value = self.named_atom(tok, at, in_strip)
            # q and s are scalars; every other name is an element or m
            return value, int(not isinstance(value, Coeff))
        if not tok:
            raise self.error("unexpected end of input", at)
        raise self.error(f"unexpected {tok!r}", at)

    def named_atom(self, name: str, at: int, in_strip: bool) -> _Value:
        if name == "q":
            return Q
        if name == "s":
            return S
        if name == "m":
            if not in_strip:
                raise self.error("'m' is only defined inside strip(...)", at)
            return {0: IndexPoly((0, 1))}
        if name == "iota":
            return iota()
        if name in ("phi0", "phi1", "phi2"):
            return phi(int(name[3]))
        if name == "chi":
            return self.call(chi, self.int_args(3), at)
        if name == "theta":
            return self.call(theta, self.int_args(2), at)
        raise self.error(f"unknown name {name!r}", at)

    def call(
        self, fn: Callable[..., HeckeElement], args: tuple[int, ...], at: int
    ) -> HeckeElement:
        try:
            return fn(*args)
        except ValueError as err:
            raise self.error(str(err), at) from err

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
        toks, sign = self.toks, 1
        if toks[self.at] == "-":
            self.at += 1
            sign = -1
        at = self.at
        if not toks[at].isdecimal():
            raise self.error("expected an integer", at)
        self.at = at + 1
        return sign * int(toks[at])

    def bound(self) -> Bound:
        toks, sign = self.toks, 1
        if toks[self.at] == "-":
            self.at += 1
            sign = -1
        elif toks[self.at] == "+":
            self.at += 1
        at = self.at
        tok = toks[at]
        self.at = at + 1
        if tok.isdecimal():
            return sign * int(tok)
        if tok == "inf":
            return NEG_INF if sign < 0 else POS_INF
        raise self.error("expected an integer or 'inf'", at)

    def strip_atom(self, at: int) -> _Rule:
        self.expect("(")
        a = self.signed_int()
        self.expect(",")
        j = self.signed_int()
        self.expect(",")
        lo = self.bound()
        self.expect("..")
        hi = self.bound()
        self.expect(":")
        body, degree = self.expr(in_strip=True)
        self.expect(")")
        if isinstance(body, HeckeElement):
            raise self.error("a strip body must be scalar in m", at)
        degree = max(degree, 1)  # an element atom, or its body's degree in m
        terms = merge_terms(_as_mterms(body).items())
        try:
            # a zero body is checked as the body 1 is: its range, sheet and level shape
            strip = Strip(lo, hi, terms or ((0, IndexPoly.constant(ONE)),))
            _check_key((a, j))
            _check_row_shape(j, (strip,))
            return (HeckeElement([((a, j), (strip,))]) if terms else zero_element()), degree
        except ShapeError as err:
            raise self.error(str(err), at) from err


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
# matrix literals, e.g. "[[t1*t2,0],[0,t1^-1*t2^-1]]"


def _literal(text: str, q: int, shape: str) -> list[FieldElem2]:
    # the entries of text, read against shape with "e" for each entry
    FieldElem2.zero(q)  # refuses an unsupported q before any arithmetic mod q
    p, entries = _ElementParser(text), []
    for ch in shape:
        if ch == "e":
            entries.append(_entry(p, q))
        else:
            p.expect(ch)
    p.end()
    return entries


def _entry(p: _ElementParser, q: int) -> FieldElem2:
    # a sum of signed products of integers and t1, t2 powers, read into one dict;
    # a "-" between terms is left to negate the next one, as a leading "-" does
    toks, terms = p.toks, {}
    for _ in range(_MAX_TERMS):
        c, e = 1, [0, 0]
        while True:
            while toks[p.at] == "-":
                p.at += 1
                c = -c
            at = p.at
            tok = toks[at]
            p.at = at + 1
            if tok in ("t1", "t2"):
                k = 1
                if toks[p.at] == "^":
                    p.at += 1
                    k = p.signed_int()
                e[tok == "t2"] += k
            elif tok.isdecimal():
                c = c * int(tok) % q
            else:
                raise p.error("expected an integer, t1 or t2", at)
            if toks[p.at] != "*":
                break
            p.at += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
        if toks[p.at] == "+":
            p.at += 1
        elif toks[p.at] != "-":
            return FieldElem2(q, terms)
    raise p.error(f"an entry may have at most {_MAX_TERMS} terms", p.at)


def parse_field_elem(text: str, q: int) -> FieldElem2:
    """Parse a Laurent polynomial in t1, t2 with integer coefficients mod q."""
    return _literal(text, q, "e")[0]


def parse_matrix(text: str, q: int) -> LocalFieldMatrix:
    """Parse a literal [[a,b],[c,d]] whose entries parse_field_elem reads.

    Raises :class:`ExprError` with the offending column on malformed input,
    and ``ValueError`` when the determinant is not 1.
    """
    return LocalFieldMatrix(*_literal(text, q, "[[e,e],[e,e]]"))


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


def _entry_text(x: FieldElem2) -> str:
    # terms in right-lex order of their exponents (t2's first); "0" for zero
    parts = []
    for (e1, e2), c in sorted(x._coeffs.items(), key=lambda kv: kv[0][::-1]):
        factors = [str(c)] if c != 1 or e1 == e2 == 0 else []
        factors += [f"t{n}" if e == 1 else f"t{n}^{e}" for n, e in ((1, e1), (2, e2)) if e]
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


def format_matrix(x: LocalFieldMatrix) -> str:
    """Render a matrix as a literal that parse_matrix reads back to x."""
    a, b, c, d = (_entry_text(e) for e in x.entries())
    return f"[[{a},{b}],[{c},{d}]]"
