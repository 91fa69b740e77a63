"""Convolution products.

The closed product table for a pair of basis functions chi^(a)_{i,j} *
chi^(b)_{k,l} is written once per sigma-orbit, as the ordered branch records
of _TABLE.  Pi = [[0,1],[t1,0]] normalises the Iwahori subgroup, so
conjugation by Pi is an automorphism sigma of the algebra, chi^(a)_{m,j} ->
chi^(a)_{-m-(a-1),-j}, which swaps phi0 and phi1.  A record names its branch
(p1-p8, q1-q9), the factor signs it covers, and for each right sheet b its
output terms at level j + l: a point mass whose q-exponent is the least of
some affine forms in (i, k), or a geometric run (1 - 1/q) q^(top - n) from the
greatest of some affine lower bounds up to an affine top.  No term writes a
sheet: a point sits at presets.weyl_mul(x, y), the label of eta_x * eta_y
(n = i + k on left sheet 1, i - k on sheet 2), and a run lies on the other
sheet.  A twin, the sigma-image of a written record, is derived from it.
_pieces compiles the first record that matches into kernel pieces, each a
point at n = i + tk*k or a span cut out by affine inequalities in (i, k, n),
and two evaluators read them:

* ``_point_pair`` evaluates the pieces at integers i and k, giving one value
  or one geometric run each.  ``mul_basis`` is this evaluator on one basis
  pair, and ``mul`` uses it for every pair of point masses.

* ``mul`` extends the table bilinearly to whole strip rows.  One routine,
  ``_strip_pair``, serves every pair with a ray.  One substitution fixes
  indices: it pins a point mass's index at its value, and it solves a point
  piece's n = i + tk*k for one more index.  What is left is summed, the
  inner index k first, then the outer index i.  A product row
  that is one ray is kept as it is, without the sweep.  What is summed is
  one dict {(ei, ek, en, di, dk, dn): c}, the sum of the terms
  c * s^(ei*i + ek*k + en*n) * i^di * k^dk * n^dn; putting an affine form in
  for an index expands its powers over the integers.  Every constraint (a
  strip's ends, a span's bounds, a point's window) is one affine form
  ci*i + ck*k + cn*n + c0 >= 0.  Each sum eliminates its index with a
  discrete antiderivative (for ratio s^alpha != 1 solve
  R(v) - s^{-alpha} R(v-1) = P(v) of equal degree; for ratio 1 the
  antiderivative has degree one higher) and runs from the greatest of the
  lower bounds its forms set to the least of the upper ones.  One rule picks
  the active pair of bounds for every sum: for each (lower, upper) pair,
  forms say where that pair is active, with ties going to the bound listed
  first.  They pass on to the next sum; those in n alone cut the output
  window, and each case left is one output strip.

* ``coeff_of_product`` computes one output coefficient by enumerating the
  finitely many contributing (i, k) pairs from support windows and summing
  ``mul_basis`` point data, bypassing the resummation calculus entirely.  So
  it checks the sums of ``mul``, while oracle.counted_product checks the
  records themselves, exactly in q, wherever the right factor has level 0.

All three routes read the table through one lookup, ``_cell``, which picks
the covering record's pieces on the level signs and, at level 0, the index
signs (0 counted positive), and puts them at level j + l; ``mul`` and
``coeff_of_product`` share one walk over strip pairs, ``_cells``, which skips
p8 and q9: products vanish between levels of opposite signs.  Kernel pieces,
like the strips and rows they act on, are immutable named tuples.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .coeff import ONE, ZERO, Coeff, one_minus_qinv
from .element import (
    BasisIndex,
    Bound,
    ExpPolyTerm,
    HeckeElement,
    IndexPoly,
    NEG_INF,
    POS_INF,
    Strip,
    _add_run,
    _element,
    _label,
    _normal_rows,
)
from .presets import weyl_mul

__all__ = [
    "CaseTableError",
    "InfiniteSupportError",
    "mul_basis",
    "mul",
    "coeff_of_product",
    "PERTURBATIONS",
]


class CaseTableError(ValueError):
    """Index pair falls outside every product-table case (internal invariant)."""


class InfiniteSupportError(ArithmeticError):
    """A contribution sum has no finite bound on one side."""


# ---------------------------------------------------------------------------
# the product table
#
# One record per table branch, first match wins.  A record names its branch
# (p1-p8 for a left factor on sheet 1, q1-q9 on sheet 2), says which factor
# signs it covers, and lists for each right sheet b its output terms, all at
# level j + l; p8 and q9, for levels of opposite signs, have none.  The signs
# are x and y, each factor's sign (its level's, or at level zero its index's,
# with 0 counted positive), and j and l, the signs of the levels.  A point
# sits at weyl_mul's label, n = i + k on a sheet-1 record and n = i - k on a
# sheet-2 one, and a run on the other sheet; a run's top is its upper bound
# and its exponent.  Exponents and bounds are affine forms in (i, k), such as
# "2i-k-1".  A branch whose exponent depends on a sign (p3, q8) has one
# record per sign case, under one name.  Sigma negates every sign, and eight
# records are twins, appended on the negated signs of the written record that
# names them: p2, p3 for x < 0 < l, p5, p7, q2, q5, q8 at j = 0 (q7's twin)
# and q8 for x, y < 0.  q3, q6, p8 and q9 are their own images.

Form = tuple[int, int, int]  # ci*i + ck*k + c0


def _form(text: str) -> Form:
    """'2i-k-1' as (2, -1, -1): the coefficients of i and of k, then the constant."""
    acc = {"i": 0, "k": 0, "": 0}
    for sign, digits, var in re.findall(r"([+-]?)(\d*)([ik]?)", text):
        if digits or var:
            acc[var] += int(sign + (digits or "1"))
    return acc["i"], acc["k"], acc[""]


def _forms(text: str) -> tuple[Form, ...]:
    # comma-separated forms; "inf" or "-inf" is no bound
    return () if text.endswith("inf") else tuple(_form(f) for f in text.split(","))


class _Point(NamedTuple):
    exps: str  # q^(the least of these forms) at weyl_mul's label


class _Run(NamedTuple):
    lows: str  # (1 - 1/q) q^(top - n) at each n from the greatest of these ("-inf": none)
    top: str  # up to this


class _Branch(NamedTuple):
    name: str
    a: int
    when: Callable[[int, int, int, int], bool]  # on the signs (x, j, y, l)
    out: Optional[dict[int, tuple[Union[_Point, _Run], ...]]]  # by right sheet b; None: a twin
    twin: str = ""  # the name of its sigma-image, if that is another record


def _each(term: Union[_Point, _Run]) -> dict[int, tuple]:
    # the one term on each right sheet b
    return {b: (term,) for b in (1, 2)}


_TABLE: list[_Branch] = [
    _Branch("p1", 1, lambda x, j, y, l: x > 0 and y > 0,
            _each(_Point("-1")), "p2"),
    _Branch("p3", 1, lambda x, j, y, l: j == 0 and l < 0 < x,
            _each(_Point("2i-1")), "p3"),
    _Branch("p4", 1, lambda x, j, y, l: j > 0 and l == 0 and y < 0, {
        1: (_Point("-2k-1"), _Run("i+k", "i-k-1")),
        2: (_Run("i+k+1", "i-k-1"), _Point("-2k-2")),
    }, "p5"),
    _Branch("p6", 1, lambda x, j, y, l: j == l == 0 and x > 0 > y, {
        1: (_Point("2i-1, -2k-1"), _Run("i+k, -i-k", "i-k-1")),
        2: (_Run("i+k+1, -i-k", "i-k-1"), _Point("2i-1, -2k-2")),
    }, "p7"),
    _Branch("p8", 1, lambda x, j, y, l: j * l < 0, {1: (), 2: ()}),
    _Branch("q1", 2, lambda x, j, y, l: j > 0 and l > 0,
            _each(_Run("-inf", "i+k")), "q2"),
    _Branch("q3", 2, lambda x, j, y, l: l == 0 and x != y,
            _each(_Point("-1"))),
    _Branch("q4", 2, lambda x, j, y, l: j > 0 and l == 0 and y > 0, {
        1: (_Run("i-k+1", "i+k"), _Point("2k-1")),
        2: (_Point("2k"), _Run("i-k", "i+k")),
    }, "q5"),
    _Branch("q6", 2, lambda x, j, y, l: j == 0 and l != 0 and x != y, {1: (), 2: ()}),
    _Branch("q7", 2, lambda x, j, y, l: j == 0 and l > 0 and x > 0,
            _each(_Run("-i+k", "i+k")), "q8"),
    _Branch("q8", 2, lambda x, j, y, l: j == l == 0 and x > 0 and y > 0, {
        1: (_Run("i-k+1, -i+k", "i+k"), _Point("2i, 2k-1")),
        2: (_Point("2i, 2k"), _Run("i-k, -i+k", "i+k")),
    }, "q8"),
    _Branch("q9", 2, lambda x, j, y, l: j * l < 0, {1: (), 2: ()}),
]
_TABLE += [_Branch(r.twin, r.a, lambda x, j, y, l, w=r.when: w(-x, -j, -y, -l), None)
           for r in _TABLE if r.twin]


def _record(a: int, js: int, ls: int, isg: int, ksg: int) -> _Branch:
    """The first record covering sheet a, level signs js, ls and index signs isg, ksg."""
    x, y = js or isg, ls or ksg
    for rec in _TABLE:
        if rec.a == a and rec.when(x, js, y, ls):
            return rec
    raise CaseTableError(f"no record covers sheet {a} with signs {(isg, js, ksg, ls)}")


#: Recognized deliberate table mutations, used by verification suites as a
#: negative control.  Each replaces one point exponent form of one record on
#: one right sheet, so both evaluators and the engine see the same edit; its
#: twin reflects the unperturbed pieces, so a mutation does not reach it.
#: "flip-1e" raises p6's mixed-sign level-0 point exponent on sheet 1,
#: min(2i-1, -2k-1), to min(2i, -2k-1), split on n as its own forms say.
_MUTATIONS = {"flip-1e": ("p6", 1, "2i-1", "2i")}
PERTURBATIONS = (None, *_MUTATIONS)


def _check_perturbation(p: Optional[str]) -> None:
    if p not in PERTURBATIONS:
        raise ValueError(f"unknown perturbation {p!r}")


# ---------------------------------------------------------------------------
# basis-pair products


def mul_basis(
    x: Union[BasisIndex, tuple],
    y: Union[BasisIndex, tuple],
    *,
    perturbation: Optional[str] = None,
) -> HeckeElement:
    """Product of two basis functions: the table's pieces evaluated at (i, k)."""
    _check_perturbation(perturbation)
    (a, i, j), (b, k, l) = _label(x), _label(y)
    points: dict[tuple[int, int], dict[int, Coeff]] = {}
    swept: dict[tuple[int, int], list[Strip]] = {}
    pieces, level = _cell(a, i, j, b, k, l, perturbation)
    _point_pair(pieces, i, k, None, level, points, swept)
    return _element(_normal_rows(points, swept))


# ---------------------------------------------------------------------------
# the strip engine
#
# A summand is one dict {(ei, ek, en, di, dk, dn): c}, meaning the sum of
# c * s^(ei*i + ek*k + en*n) * i^di * k^dk * n^dn, with no zero values.  Every
# constraint is one affine form (ci, ck, cn, c0), meaning
# ci*i + ck*k + cn*n + c0 >= 0; a bound on an index, and an index's value
# when it is pinned or eliminated, is a form with that index's slot 0.  An
# index v's s-step sits at key[v] and its degree at key[3 + v].

_I, _K, _N = 0, 1, 2

_Poly = dict[tuple[int, int, int, int, int, int], Coeff]
Aff = tuple[int, int, int, int]


def _acc(p: _Poly, key: tuple[int, ...], c: Coeff) -> None:
    """Add c at key, dropping the key when the sum vanishes."""
    new = p[key] + c if key in p else c
    if new.is_zero():
        p.pop(key, None)
    else:
        p[key] = new


def _powers(aff: Aff, d: int) -> list[dict[tuple[int, int, int], int]]:
    """aff^0, ..., aff^d as integer polynomials {(di, dk, dn): c}."""
    pows = [{(0, 0, 0): 1}]
    slots = [(v, w) for v, w in enumerate(aff) if w]  # slot 3, the constant, raises no degree
    for _ in range(d):
        nxt: dict[tuple[int, int, int], int] = {}
        for mono, c in pows[-1].items():
            for v, w in slots:
                key = tuple(x + (u == v) for u, x in enumerate(mono))
                nxt[key] = nxt.get(key, 0) + c * w
        pows.append({key: c for key, c in nxt.items() if c})
    return pows


def _put(p: _Poly, var: int, aff: Aff) -> _Poly:
    """p with var replaced by the affine form aff (aff[var] == 0).

    var's s-step alpha moves onto the other indices, s^(alpha*c0) comes out
    as a factor, and var^d expands through the integer powers of aff.
    """
    pows = _powers(aff, max((key[3 + var] for key in p), default=0))
    out: _Poly = {}
    for key, c in p.items():
        alpha = key[var]
        e = [key[v] + alpha * aff[v] for v in range(3)] + list(key[3:])
        e[var] = e[3 + var] = 0
        if alpha * aff[3]:
            c = c * Coeff.s_power(alpha * aff[3])
        for (a, b, n), m in pows[key[3 + var]].items():
            _acc(out, (e[0], e[1], e[2], e[3] + a, e[4] + b, e[5] + n), c if m == 1 else c * m)
    return out


def _subst(f: Aff, var: int, aff: Aff) -> Aff:
    """The form f with var replaced by the affine form aff (aff[var] == 0)."""
    c = f[var]
    if not c:
        return f
    g = [f[0] + c * aff[0], f[1] + c * aff[1], f[2] + c * aff[2], f[3] + c * aff[3]]
    g[var] = 0
    return tuple(g)


def _antiderivative(p: _Poly, var: int) -> _Poly:
    """R with sum_{v=A..B} P(v) s^(alpha v) = [R(v) s^(alpha v)]_{v=A-1}^{B}.

    The terms are grouped by all but var's degree, alpha being var's s-step,
    and each group's coefficient list in var solves R(v) - s^-alpha R(v-1) = P(v).
    """
    groups: dict[tuple[int, ...], dict[int, Coeff]] = {}
    for key, c in p.items():
        rest = list(key)
        rest[3 + var] = 0
        groups.setdefault(tuple(rest), {})[key[3 + var]] = c
    out: _Poly = {}
    for rest, cs in groups.items():
        alpha, deg = rest[var], max(cs)
        pc = [cs.get(d, ZERO) for d in range(deg + 1)]
        if alpha != 0:  # R has P's degree
            u = Coeff.s_power(-alpha)
            inv = ONE / (ONE - u)
            rho = [ZERO] * (deg + 1)
            for c in range(deg, -1, -1):
                acc = pc[c]
                for d in range(c + 1, deg + 1):
                    acc = acc + rho[d] * u * (comb(d, c) * (-1) ** (d - c))
                rho[c] = acc * inv
        else:  # R has one degree more; its constant term cancels in [R] and is left 0
            rho = [ZERO] * (deg + 2)
            for c in range(deg, -1, -1):
                acc = pc[c]
                for d in range(c + 2, deg + 2):
                    acc = acc + rho[d] * (comb(d, c) * (-1) ** (d - c))
                rho[c + 1] = acc * Coeff.rational(1, c + 1)
        key = list(rest)
        for d, v in enumerate(rho):
            if v:
                key[3 + var] = d
                out[tuple(key)] = v
    return out


def _strip_terms(p: _Poly) -> tuple[ExpPolyTerm, ...]:
    """p, summed over i and k, as output terms s^(en*n) * P(n)."""
    rows: dict[int, dict[int, Coeff]] = {}
    for (ei, ek, en, di, dk, dn), c in p.items():
        if ei or ek or di or dk:
            raise CaseTableError("unsummed index in output term")
        rows.setdefault(en, {})[dn] = c
    return tuple(ExpPolyTerm(en, IndexPoly([cs.get(d, ZERO) for d in range(max(cs) + 1)]))
                 for en, cs in sorted(rows.items()))


# kernel pieces: the records compiled for the evaluator and the strip engine


class _Piece(NamedTuple):
    sheet: int
    tk: Optional[int]  # a point's output index n = i + tk*k; None for a span
    ei: int
    ek: int
    en: int
    scalar: Coeff
    forms: tuple[Aff, ...] = ()  # a span's bounds on n (each cn = +-1), or a point's split window


def _reflect(piece: _Piece, a: int, b: int) -> _Piece:
    """The piece conjugated by sigma: i -> -i-(a-1), k -> -k-(b-1) and n -> -n-(sheet-1) in
    its forms and its s-exponent.  n = i + tk*k is kept, and lower bounds stay first."""
    shift = (a - 1, b - 1, piece.sheet - 1, -1)
    def at(f: Aff) -> Aff:  # f at (-i-(a-1), -k-(b-1), -n-(sheet-1)), as a form in (i, k, n)
        return (-f[0], -f[1], -f[2], -sum(u * v for u, v in zip(f, shift)))
    forms = tuple(sorted(map(at, piece.forms), key=lambda f: -f[2]))
    ei, ek, en, e = at((piece.ei, piece.ek, piece.en, 0))
    return _Piece(piece.sheet, piece.tk, ei, ek, en, piece.scalar * Coeff.s_power(e), forms)


def _split(f1: Form, f2: Form, tk: int) -> tuple[tuple[Aff], tuple[Aff]]:
    """The n-windows where q^f1, then q^f2, is the lesser at n = i + tk*k; a tie goes to f1."""
    di, dk, d0 = (u - v for u, v in zip(f1, f2))
    if dk != tk * di or not di:
        raise CaseTableError("a point's exponents must differ by a multiple of n")
    if di > 0:  # f1 <= f2 where n <= -d0/di
        t = -d0 // di
        return ((0, 0, -1, t),), ((0, 0, 1, -t - 1),)
    t = -(d0 // di)  # f1 <= f2 where n >= d0/(-di)
    return ((0, 0, 1, -t),), ((0, 0, -1, t - 1),)


@lru_cache(maxsize=None)  # 112 signatures per perturbation; the pieces are immutable
def _pieces(
    a: int,
    b: int,
    js: int,
    ls: int,
    isg: int,
    ksg: int,
    perturbation: Optional[str],
) -> tuple:
    """Kernel pieces of the first record covering the signature, on right sheet b.

    q^(ci*i + ck*k + c0) becomes ei = 2ci, ek = 2ck and the scalar q^c0.  A
    point sits on weyl_mul's sheet at n = i + tk*k, tk the sign it gives k;
    two exponent forms make two point pieces, split on n.  A run, on the other
    sheet, is q^top times 1 - 1/q at en = -2, between the forms n - low >= 0
    and top - n >= 0.  A twin reflects its partner's unperturbed pieces.
    """
    rec = _record(a, js, ls, isg, ksg)
    if rec.out is None:
        return tuple(_reflect(p, a, b) for p in _pieces(a, b, -js, -ls, -isg, -ksg, None))
    name, right, old, new = _MUTATIONS.get(perturbation, ("", 0, "", ""))
    sheet, tk, _ = weyl_mul((a, 0, 0), (b, 1, 0))  # a point's sheet; n = i + tk*k
    pieces: list[_Piece] = []
    for t in rec.out[b]:
        if isinstance(t, _Run):
            ci, ck, c0 = _form(t.top)
            forms = (*((-u, -v, 1, -w) for u, v, w in _forms(t.lows)), (ci, ck, -1, c0))
            scalar = one_minus_qinv() * Coeff.q_power(c0)
            pieces.append(_Piece(3 - sheet, None, 2 * ci, 2 * ck, -2, scalar, forms))
            continue
        exps = _forms(t.exps)
        if (rec.name, b) == (name, right):
            exps = tuple(_form(new) if f == _form(old) else f for f in exps)
        windows = _split(*exps, tk) if len(exps) == 2 else ((),)
        for (ci, ck, c0), window in zip(exps, windows):
            pieces.append(_Piece(sheet, tk, 2 * ci, 2 * ck, 0, Coeff.q_power(c0), window))
    return tuple(pieces)


def _cell(a: int, i: int, j: int, b: int, k: int, l: int, perturbation: Optional[str]) -> tuple:
    """The covering record's pieces for chi^(a)_{i,j} * chi^(b)_{k,l}, and their level j + l;
    the index signs, 0 counted positive, matter only at level 0."""
    isg, ksg = 1 if i >= 0 else -1, 1 if k >= 0 else -1
    return _pieces(a, b, (j > 0) - (j < 0), (l > 0) - (l < 0), isg, ksg, perturbation), j + l


def _cells(x: HeckeElement, y: HeckeElement, perturbation: Optional[str]):
    """Yield ((a, j, sx), (b, l, sy), pieces, level) for each strip pair of x and y whose
    record has terms; a strip's lo gives its index sign, read only at level 0 (points)."""
    for (a, j), rx in x.rows:
        for (b, l), ry in y.rows:
            for sx in rx.strips:
                for sy in ry.strips:
                    pieces, level = _cell(a, sx.lo, j, b, sy.lo, l, perturbation)
                    if pieces:
                        yield (a, j, sx), (b, l, sy), pieces, level


# ---------------------------------------------------------------------------
# summing between affine bounds
#
# One routine, _strip_pair, serves every strip pair with a ray, and one, _sum,
# takes every sum, over the inner index k and then the outer index i, from the
# greatest of several lower bounds to the least of several upper bounds.  Every
# constraint is one form (ci, ck, cn, c0) >= 0: a strip's ends, a span's
# bounds, a point's n-window, and the conditions of an active pair.  A form
# bounds the index it holds with coefficient +-1, or +-2 when its other
# coefficients are even; one rule picks the active pair of bounds.


def _limits(s: Strip, var: int) -> list[Aff]:
    """lo <= var <= hi of the strip s as forms; an infinite end bounds nothing."""
    out = []
    for sense, end in ((1, s.lo), (-1, s.hi)):
        if isinstance(end, int):
            f = [0, 0, 0, -sense * end]
            f[var] = sense
            out.append(tuple(f))
    return out


def _bound(f: Aff, var: int) -> Aff:
    """The bound on var that f >= 0 sets: a lower one if f[var] > 0, else an upper one."""
    c = f[var]
    if abs(c) > 2 or (abs(c) == 2 and any(u % 2 for v, u in enumerate(f[:3]) if v != var)):
        raise CaseTableError("bound comparison outside the supported geometry")
    # c*var + rest >= 0 is var >= ceil(-rest/c) for c > 0, var <= floor(rest/-c) for c < 0
    g = [-(u // c) if c > 0 else u // -c for u in f]
    g[var] = 0
    return tuple(g)


def _diff(a: Aff, b: Aff, strict: bool = False) -> Aff:
    # the form a - b, which is >= 0 exactly where a >= b (a > b if strict)
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3] - strict)


def _active_pairs(lows: list[Aff], ups: list[Aff], index: str):
    """Yield (lo, hi, conds) for each lower and upper bound.

    Exactly where every form in conds is >= 0, lo is the greatest lower
    bound, hi the least upper bound, and lo <= hi.  A bound must strictly
    beat the ones listed before it, so a tie goes to the first listed and
    no point is claimed by two pairs.
    """
    lows = list(dict.fromkeys(lows))
    ups = list(dict.fromkeys(ups))
    if not lows or not ups:
        raise InfiniteSupportError(f"sum over the {index} index has no finite bound")
    for p, lo in enumerate(lows):
        for r, hi in enumerate(ups):
            conds = [_diff(lo, b, t < p) for t, b in enumerate(lows) if t != p]
            conds += [_diff(b, hi, t < r) for t, b in enumerate(ups) if t != r]
            conds.append(_diff(hi, lo))
            yield lo, hi, conds


def _between(ant: _Poly, var: int, lo: Aff, hi: Aff) -> _Poly:
    """[R]_{lo-1}^{hi}: the antiderivative at var = hi minus at var = lo - 1."""
    out = _put(ant, var, hi)
    for key, c in _put(ant, var, (*lo[:3], lo[3] - 1)).items():
        _acc(out, key, -c)
    return out


def _summand(piece: _Piece, sx: Strip, sy: Strip) -> _Poly:
    """The strip pair's terms times the piece's kernel, in (i, k, n)."""
    out: _Poly = {}
    for ex, px in sx.terms:
        for di, w in enumerate([piece.scalar * cx for cx in px]):  # the scalar is never 0
            for ey, py in sy.terms:
                for dk, cy in enumerate(py):
                    if w and cy:
                        out[ex + piece.ei, ey + piece.ek, piece.en, di, dk, 0] = w * cy
    return out


def _window(forms: Iterable[Aff]) -> Optional[tuple[Bound, Bound]]:
    """The n-window that the forms in n alone leave, or None if it is empty."""
    lo, hi = NEG_INF, POS_INF
    for ci, ck, cn, c0 in forms:
        if ci or ck:
            continue
        if cn > 0:
            lo = max(lo, -(c0 // cn))
        elif cn < 0:
            hi = min(hi, c0 // -cn)
        elif c0 < 0:
            return None
    return (lo, hi) if lo <= hi else None


def _sum(terms: _Poly, indices: list[int], forms: list[Aff], sheet: int, out: list) -> None:
    """Sum terms over indices, the first innermost, where every form is >= 0.

    A sum splits the forms into its index's lower and upper bounds and the
    rest, which go on to the next sum with each active pair's conditions; the
    forms in n alone cut the output window and drop an empty case before its
    antiderivative is evaluated.  With no index left, the terms are one output
    strip (sheet, lo, hi, terms).
    """
    window = _window(forms)
    if not terms or window is None:
        return
    if not indices:
        out.append((sheet, *window, _strip_terms(terms)))
        return
    var, outer = indices[0], indices[1:]
    lows: list[Aff] = []
    ups: list[Aff] = []
    rest: list[Aff] = []
    for f in forms:
        if f[var]:
            (lows if f[var] > 0 else ups).append(_bound(f, var))
        else:
            rest.append(f)
    ant = _antiderivative(terms, var)
    for lo, hi, conds in _active_pairs(lows, ups, "inner" if outer else "outer"):
        conds += rest
        if _window(conds):
            _sum(_between(ant, var, lo, hi), outer, conds, sheet, out)


def _strip_pair(piece: _Piece, sx: Strip, sy: Strip, out: list) -> None:
    """One piece over a strip pair with a ray, as output strips into out.

    The summand and every form are built over (i, k, n).  A point mass's
    index is pinned by the same substitution, _put and _subst, that then
    solves a point piece's n = i + tk*k for one more index: k = tk*(n - i),
    or i = n - tk*k when k is pinned.  _sum sums what is left, k first.
    """
    terms, indices = _summand(piece, sx, sy), [_K, _I]
    forms = [*piece.forms, *_limits(sx, _I), *_limits(sy, _K)]
    rel = None if piece.tk is None else (1, piece.tk, -1, 0)  # i + tk*k - n = 0
    for var, s in ((_I, sx), (_K, sy)):
        if s.lo == s.hi:  # a point mass at p: put in var = p
            indices.remove(var)
            at = (0, 0, 0, s.lo)
            terms = _put(terms, var, at)
            forms = [_subst(f, var, at) for f in forms]
            rel = rel and _subst(rel, var, at)
    if rel:  # solve for k, or for i when k is pinned (its coefficient is +-1)
        var = indices.pop(0)
        at = _bound(rel, var)  # rel >= 0 bounds var by exactly its value at rel = 0
        terms = _put(terms, var, at)
        forms = [_subst(f, var, at) for f in forms]
    _sum(terms, indices, forms, piece.sheet, out)


def _point_pair(
    pieces: tuple, i: int, k: int, c: Optional[Coeff], j: int, points: dict, swept: dict
) -> None:
    """Each piece at the integers i and k, times c (None for 1), into level j.

    A point piece adds one value at n = i + tk*k inside its window; a span
    adds a geometric run between its forms' bounds on n at (i, k).
    """
    for piece in pieces:
        lo, hi = NEG_INF, POS_INF
        for ci, ck, cn, c0 in piece.forms:
            v = ci * i + ck * k + c0  # cn = +-1: n >= -v or n <= v
            if cn > 0:
                if -v > lo:
                    lo = -v
            elif v < hi:
                hi = v
        if piece.tk is not None:
            n = i + piece.tk * k
            if not lo <= n <= hi:
                continue
            lo = hi = n
        elif lo > hi:
            continue
        w = piece.scalar if c is None else piece.scalar * c
        e = piece.ei * i + piece.ek * k
        _add_run(points, swept, (piece.sheet, j), lo, hi, piece.en, w * Coeff.s_power(e) if e else w)


def mul(
    x: HeckeElement, y: HeckeElement, *, perturbation: Optional[str] = None
) -> HeckeElement:
    """Convolution product, extended bilinearly over all strip rows."""
    _check_perturbation(perturbation)
    points: dict[tuple[int, int], dict[int, Coeff]] = {}
    swept: dict[tuple[int, int], list[Strip]] = {}
    for (_, _, sx), (_, _, sy), pieces, level in _cells(x, y, perturbation):
        if sx.lo == sx.hi and sy.lo == sy.hi:
            c = sx.terms[0].poly[0] * sy.terms[0].poly[0]  # element._point
            _point_pair(pieces, sx.lo, sy.lo, c, level, points, swept)
            continue
        emitted: list = []
        for piece in pieces:
            _strip_pair(piece, sx, sy, emitted)
        for sheet, lo, hi, st in emitted:
            swept.setdefault((sheet, level), []).append(Strip(lo, hi, st))
    return _element(_normal_rows(points, swept))


# ---------------------------------------------------------------------------
# independent per-coefficient path


@lru_cache(maxsize=65536)
def _basis_product(xt: tuple, yt: tuple) -> HeckeElement:
    return mul_basis(xt, yt)


def _pair_windows(j: int, l: int, sx: Strip, sy: Strip, n: int):
    """Contributing (i, k) ranges for one output index; complete by the
    support windows of the table (point targets i +- k, spreads <= |other|+1,
    rays toward the level sign)."""
    if j > 0 and l > 0:
        ilo, klo = max(sx.lo, n - sy.hi), max(sy.lo, n - sx.hi)
        yield from ((i, k) for i in range(ilo, sx.hi + 1) for k in range(klo, sy.hi + 1))
    elif j < 0 and l < 0:
        ihi, khi = min(sx.hi, n - sy.lo), min(sy.hi, n - sx.lo)
        yield from ((i, k) for i in range(sx.lo, ihi + 1) for k in range(sy.lo, khi + 1))
    elif j == 0:
        for i in range(sx.lo, sx.hi + 1):
            w = abs(i) + abs(n) + 2
            klo, khi = max(sy.lo, -w), min(sy.hi, w)
            for k in range(klo, khi + 1):
                yield i, k
    else:  # l == 0
        for k in range(sy.lo, sy.hi + 1):
            w = abs(k) + abs(n) + 2
            ilo, ihi = max(sx.lo, -w), min(sx.hi, w)
            for i in range(ilo, ihi + 1):
                yield i, k


def coeff_of_product(
    x: HeckeElement, y: HeckeElement, target: Union[BasisIndex, tuple]
) -> Coeff:
    """One coefficient of x*y, summed pointwise over contributing basis pairs."""
    ta, n, tj = _label(target)
    total = ZERO
    for (a, j, sx), (b, l, sy), _, level in _cells(x, y, None):
        if level != tj:
            continue
        for i, k in _pair_windows(j, l, sx, sy, n):
            w = _basis_product((a, i, j), (b, k, l)).coefficient_at((ta, tj), n)
            if not w.is_zero():
                total = total + sx.value_at(i) * sy.value_at(k) * w
    return total
