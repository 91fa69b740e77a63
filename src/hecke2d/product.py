"""Convolution products.

The closed product table for a pair of basis functions chi^(a)_{i,j} *
chi^(b)_{k,l} is written once per sigma-orbit, as the ordered branch records
of _TABLE.  Pi = [[0,1],[t1,0]] normalises the Iwahori subgroup, so
conjugation by Pi is an automorphism sigma of the algebra, chi^(a)_{m,j} ->
chi^(a)_{-m-(a-1),-j}, which swaps phi0 and phi1.  A record names its branch
(p1-p7, q1-q8), the factor signs it covers, and for each right sheet b its
output terms at level j + l: a point mass at n = i + k or n = i - k whose
q-exponent is the least of some affine forms in (i, k), or a geometric run
between affine bounds.  A twin, the sigma-image of a written record, is
derived from it.  _pieces compiles the first record that matches into kernel
pieces, each a point at n = i + tk*k or a span cut out by affine
inequalities in (i, k, n), and two evaluators read them:

* ``_point_pair`` evaluates the pieces at integers i and k, giving one value
  or one geometric run each.  ``mul_basis`` is this evaluator on one basis
  pair, and ``mul`` uses it for every pair of point masses.

* ``mul`` extends the table bilinearly to whole strip rows.  One routine,
  ``_strip_pair``, serves every pair with a ray: it puts in a point mass's
  index, lets a point piece's n = i + tk*k fix one more index, and sums what
  is left, the inner index k first, then the outer index i.  A product row
  that is one ray is kept as it is, without the sweep.  Every constraint (a
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

Products vanish between strictly positive and strictly negative levels, and
output levels add; both facts are baked into the dispatch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    ShapeError,
    Strip,
    _MAX_POINTS,
    _check_basis,
    _element,
    _normal_rows,
    merge_terms,
)

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
# (p1-p7 for a left factor on sheet 1, q1-q8 on sheet 2), says which factor
# signs it covers, and lists for each right sheet b its output terms, all at
# level j + l.  The signs are x and y, each factor's sign (its level's, or at
# level zero its index's, with 0 counted positive), and j and l, the signs of
# the levels.  Exponents and bounds are affine forms in (i, k), such as
# "2i-k-1".  A branch whose exponent depends on a sign (p3, q8) has one record
# per sign case, under one name.  Sigma negates every sign, and eight records
# are twins, appended on the negated signs of the written record that names
# them: p2, p3 for x < 0 < l, p5, p7, q2, q5, q8 at j = 0 (q7's twin) and q8
# for x, y < 0.  q3 and q6 are their own images.

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
    sheet: int
    n: str  # "i+k" or "i-k"
    exps: str  # q^(the least of these forms)


class _Run(NamedTuple):
    sheet: int
    step: int  # (1 - 1/q) q^exp s^(step*n) at each n
    exp: str
    lows: str  # from the greatest of these ("-inf": none)
    highs: str  # to the least of these ("inf": none)


class _Branch(NamedTuple):
    name: str
    a: int
    when: Callable[[int, int, int, int], bool]  # on the signs (x, j, y, l)
    out: Optional[dict[int, tuple[Union[_Point, _Run], ...]]]  # by right sheet b; None: a twin
    twin: str = ""  # the name of its sigma-image, if that is another record


def _each(term: Callable[[int], Union[_Point, _Run]]) -> dict[int, tuple]:
    # one term on each right sheet b, built from b
    return {b: (term(b),) for b in (1, 2)}


_TABLE: list[_Branch] = [
    _Branch("p1", 1, lambda x, j, y, l: x > 0 and y > 0,
            _each(lambda b: _Point(b, "i+k", "-1")), "p2"),
    _Branch("p3", 1, lambda x, j, y, l: j == 0 and l < 0 < x,
            _each(lambda b: _Point(b, "i+k", "2i-1")), "p3"),
    _Branch("p4", 1, lambda x, j, y, l: j > 0 and l == 0 and y < 0, {
        1: (_Point(1, "i+k", "-2k-1"), _Run(2, -2, "i-k-1", "i+k", "i-k-1")),
        2: (_Run(1, -2, "i-k-1", "i+k+1", "i-k-1"), _Point(2, "i+k", "-2k-2")),
    }, "p5"),
    _Branch("p6", 1, lambda x, j, y, l: j == l == 0 and x > 0 > y, {
        1: (_Point(1, "i+k", "2i-1, -2k-1"), _Run(2, -2, "i-k-1", "i+k, -i-k", "i-k-1")),
        2: (_Run(1, -2, "i-k-1", "i+k+1, -i-k", "i-k-1"), _Point(2, "i+k", "2i-1, -2k-2")),
    }, "p7"),
    _Branch("q1", 2, lambda x, j, y, l: j > 0 and l > 0,
            _each(lambda b: _Run(b, -2, "i+k", "-inf", "i+k")), "q2"),
    _Branch("q3", 2, lambda x, j, y, l: l == 0 and x != y,
            _each(lambda b: _Point(3 - b, "i-k", "-1"))),
    _Branch("q4", 2, lambda x, j, y, l: j > 0 and l == 0 and y > 0, {
        1: (_Run(1, -2, "i+k", "i-k+1", "i+k"), _Point(2, "i-k", "2k-1")),
        2: (_Point(1, "i-k", "2k"), _Run(2, -2, "i+k", "i-k", "i+k")),
    }, "q5"),
    _Branch("q6", 2, lambda x, j, y, l: j == 0 and l != 0 and x != y, {1: (), 2: ()}),
    _Branch("q7", 2, lambda x, j, y, l: j == 0 and l > 0 and x > 0,
            _each(lambda b: _Run(b, -2, "i+k", "-i+k", "i+k")), "q8"),
    _Branch("q8", 2, lambda x, j, y, l: j == l == 0 and x > 0 and y > 0, {
        1: (_Run(1, -2, "i+k", "i-k+1, -i+k", "i+k"), _Point(2, "i-k", "2i, 2k-1")),
        2: (_Point(1, "i-k", "2i, 2k"), _Run(2, -2, "i+k", "i-k, -i+k", "i+k")),
    }, "q8"),
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


def _as_basis(x: Union[BasisIndex, tuple]) -> BasisIndex:
    try:
        b = BasisIndex(*x)
    except TypeError:  # not iterable, or not three entries
        raise ShapeError(f"a label is a sheet 1 or 2 and two integers, got {x!r}") from None
    if b.a not in (1, 2):
        raise CaseTableError(f"sheet must be 1 or 2, got {b.a}")
    _check_basis(*b)
    return b


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
    (a, i, j), (b, k, l) = _as_basis(x), _as_basis(y)
    if j * l < 0:
        return HeckeElement()
    points: dict[tuple[int, int], dict[int, Coeff]] = {}
    swept: dict[tuple[int, int], list[Strip]] = {}
    signs = (1 if i >= 0 else -1, 1 if k >= 0 else -1)
    _point_pair(_pieces(a, b, _sgn(j), _sgn(l), *signs, perturbation), i, k, None, j + l, points, swept)
    return _element(_normal_rows(points, swept))


# ---------------------------------------------------------------------------
# the strip engine
#
# Working representation: a summand term is s^(ei*i + ek*k + en*n) * P(i,k,n)
# with P a polynomial over Coeff, stored as {(di,dk,dn): Coeff}.  Every
# constraint is one affine form (ci, ck, cn, c0), meaning
# ci*i + ck*k + cn*n + c0 >= 0; a bound on an index, and an index's value
# when it is pinned or eliminated, is a form with that index's slot 0.

_I, _K, _N = 0, 1, 2

MPoly = dict[tuple[int, int, int], Coeff]
ETerm = tuple[tuple[int, int, int], MPoly]
Aff = tuple[int, int, int, int]
_MONOMIAL = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))  # i, k, n and 1 as MPoly keys


def _mp_acc(out: MPoly, key: tuple[int, int, int], v: Coeff) -> None:
    """Add v at key, dropping the key when the sum vanishes."""
    cur = out.get(key)
    new = v if cur is None else cur + v
    if new.is_zero():
        out.pop(key, None)
    else:
        out[key] = new


def _mp_add_into(acc: MPoly, p: MPoly, factor: Optional[Coeff] = None) -> None:
    for key, c in p.items():
        _mp_acc(acc, key, c if factor is None else c * factor)


def _mp_scale(p: MPoly, c: Coeff) -> MPoly:
    return {k: v * c for k, v in p.items()}


def _mp_mul(a: MPoly, b: MPoly) -> MPoly:
    out: MPoly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            _mp_acc(out, (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2]), ca * cb)
    return out


def _mp_from_poly(p: IndexPoly, var: int, w: Optional[Coeff] = None) -> MPoly:
    # p (times w) as a polynomial in the index var
    out: MPoly = {}
    for d, c in enumerate(p.coeffs):
        if not c.is_zero():
            key = [0, 0, 0]
            key[var] = d
            out[tuple(key)] = c if w is None else c * w
    return out


def _mp_subst(p: MPoly, var: int, aff: Aff) -> MPoly:
    """Substitute var -> ci*i + ck*k + cn*n + c0 = aff (aff[var] == 0)."""
    if not p:
        return {}
    lin = {_MONOMIAL[v]: Coeff.integer(c) for v, c in enumerate(aff) if c}
    maxd = max(k[var] for k in p)
    pows: list[MPoly] = [{(0, 0, 0): ONE}]
    for _ in range(maxd):
        pows.append(_mp_mul(pows[-1], lin))
    out: MPoly = {}
    for key, c in p.items():
        d = key[var]
        rest = list(key)
        rest[var] = 0
        for k2, c2 in pows[d].items():
            _mp_acc(out, (rest[0] + k2[0], rest[1] + k2[1], rest[2] + k2[2]), c * c2)
    return out


def _term_subst(term: ETerm, var: int, aff: Aff) -> ETerm:
    # replaces var by an affine form, moving its s-exponent onto the others
    exps, p = term
    alpha = exps[var]
    new = [exps[0] + alpha * aff[0], exps[1] + alpha * aff[1], exps[2] + alpha * aff[2]]
    new[var] = 0
    p2 = _mp_subst(p, var, aff)
    if alpha * aff[3]:
        p2 = _mp_scale(p2, Coeff.s_power(alpha * aff[3]))
    return (tuple(new), p2)


def _subst(f: Aff, var: int, aff: Aff) -> Aff:
    """The form f with var replaced by the affine form aff (aff[var] == 0)."""
    c = f[var]
    if not c:
        return f
    g = [f[0] + c * aff[0], f[1] + c * aff[1], f[2] + c * aff[2], f[3] + c * aff[3]]
    g[var] = 0
    return tuple(g)


def _merge_eterms(terms: Iterable[ETerm]) -> list[ETerm]:
    acc: dict[tuple[int, int, int], MPoly] = {}
    for exps, p in terms:
        if not p:
            continue
        _mp_add_into(acc.setdefault(exps, {}), p)
    return [(e, p) for e, p in acc.items() if p]


def _antiderivative(term: ETerm, var: int) -> MPoly:
    """R with sum_{v=A..B} P(v) s^(alpha v) = [R s^(alpha v)]_{A-1}^{B}."""
    exps, poly = term
    alpha = exps[var]
    bydeg: dict[int, MPoly] = {}
    for key, c in poly.items():
        rest = list(key)
        d = rest[var]
        rest[var] = 0
        _mp_acc(bydeg.setdefault(d, {}), tuple(rest), c)
    deg = max(bydeg) if bydeg else 0
    pc = [bydeg.get(d, {}) for d in range(deg + 1)]
    rho: list[MPoly]
    if alpha != 0:
        u = Coeff.s_power(-alpha)
        inv = ONE / (ONE - u)
        rho = [{} for _ in range(deg + 1)]
        for c in range(deg, -1, -1):
            acc: MPoly = {}
            _mp_add_into(acc, pc[c])
            for d in range(c + 1, deg + 1):
                sgn = 1 if (d - c) % 2 == 0 else -1
                _mp_add_into(acc, rho[d], u * (comb(d, c) * sgn))
            rho[c] = _mp_scale(acc, inv)
    else:
        rho = [{} for _ in range(deg + 2)]
        for c in range(deg, -1, -1):
            acc = {}
            _mp_add_into(acc, pc[c])
            for d in range(c + 2, deg + 2):
                sgn = 1 if (d - c) % 2 == 1 else -1
                _mp_add_into(acc, rho[d], Coeff.integer(-comb(d, c) * sgn))
            rho[c + 1] = _mp_scale(acc, Coeff.rational(1, c + 1))
    out: MPoly = {}
    for d, mp in enumerate(rho):
        for key, c in mp.items():
            kk = list(key)
            kk[var] = d
            out[tuple(kk)] = c
    return out


def _eterms_to_strip_terms(terms: list[ETerm]) -> tuple[ExpPolyTerm, ...]:
    parts: list[tuple[int, IndexPoly]] = []
    for exps, p in terms:
        if exps[_I] or exps[_K]:
            raise CaseTableError("unsummed index in output term")
        deg: dict[int, Coeff] = {}
        for key, c in p.items():
            if key[_I] or key[_K]:
                raise CaseTableError("unsummed index in output polynomial")
            deg[key[_N]] = deg.get(key[_N], ZERO) + c
        width = max(deg) + 1 if deg else 0
        ip = IndexPoly([deg.get(d, ZERO) for d in range(width)])
        if not ip.is_zero():
            parts.append((exps[_N], ip))
    return merge_terms(parts)


# kernel pieces: the records compiled for the evaluator and the strip engine


@dataclass(frozen=True)
class _Piece:
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

    q^(ci*i + ck*k + c0) becomes ei = 2ci, ek = 2ck and the scalar q^c0, times
    1 - 1/q for a run, whose bounds f become the forms n - f >= 0 and f - n >= 0.
    A point whose exponent is the least of two forms becomes two point pieces,
    split on n.  A twin reflects its partner's unperturbed pieces.
    """
    rec = _record(a, js, ls, isg, ksg)
    if rec.out is None:
        return tuple(_reflect(p, a, b) for p in _pieces(a, b, -js, -ls, -isg, -ksg, None))
    name, sheet, old, new = _MUTATIONS.get(perturbation, ("", 0, "", ""))
    pieces: list[_Piece] = []
    for t in rec.out[b]:
        if isinstance(t, _Run):
            ci, ck, c0 = _form(t.exp)
            lows = ((-u, -v, 1, -w) for u, v, w in _forms(t.lows))
            forms = (*lows, *((u, v, -1, w) for u, v, w in _forms(t.highs)))
            scalar = one_minus_qinv() * Coeff.q_power(c0)
            pieces.append(_Piece(t.sheet, None, 2 * ci, 2 * ck, t.step, scalar, forms))
            continue
        tk, exps = _form(t.n)[1], _forms(t.exps)
        if (rec.name, b) == (name, sheet):
            exps = tuple(_form(new) if f == _form(old) else f for f in exps)
        windows = _split(*exps, tk) if len(exps) == 2 else ((),)
        for (ci, ck, c0), window in zip(exps, windows):
            pieces.append(_Piece(t.sheet, tk, 2 * ci, 2 * ck, 0, Coeff.q_power(c0), window))
    return tuple(pieces)


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


def _between(ants: list[ETerm], var: int, lo: Aff, hi: Aff) -> list[ETerm]:
    """[R]_{lo-1}^{hi}: each antiderivative at var = hi minus at var = lo - 1."""
    out: list[ETerm] = []
    for ant in ants:
        out.append(_term_subst(ant, var, hi))
        exps, p = _term_subst(ant, var, (*lo[:3], lo[3] - 1))
        out.append((exps, _mp_scale(p, Coeff.integer(-1))))
    return _merge_eterms(out)


def _summand(piece: _Piece, sx: Strip, sy: Strip) -> list[ETerm]:
    """The strip pair's terms times the piece's kernel, in (i, k, n)."""
    terms: list[ETerm] = []
    for ex, px in sx.terms:
        for ey, py in sy.terms:
            poly = _mp_mul(_mp_from_poly(px, _I, piece.scalar), _mp_from_poly(py, _K))
            terms.append(((ex + piece.ei, ey + piece.ek, piece.en), poly))
    return _merge_eterms(terms)


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


def _sum(terms: list[ETerm], indices: list[int], forms: list[Aff], sheet: int, out: list) -> None:
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
        st = _eterms_to_strip_terms(terms)
        if st:
            out.append((sheet, *window, st))
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
    ants = [(t[0], _antiderivative(t, var)) for t in terms]
    for lo, hi, conds in _active_pairs(lows, ups, "inner" if outer else "outer"):
        conds += rest
        if _window(conds):
            _sum(_between(ants, var, lo, hi), outer, conds, sheet, out)


def _strip_pair(piece: _Piece, sx: Strip, sy: Strip, out: list) -> None:
    """One piece over a strip pair with a ray, as output strips into out.

    A point mass puts in its index p: its value, s^(e*p) and the piece's
    scalar fold into one Coeff that scales the other strip's terms.  A point
    piece's n = i + tk*k then fixes one more index, k = tk*(n - i), or
    i = n - tk*k when k is pinned, and _sum sums what is left, k first.
    """
    rel = None if piece.tk is None else (1, piece.tk, -1, 0)  # i + tk*k - n = 0
    if sx.lo != sx.hi and sy.lo != sy.hi:
        indices, terms = [_K, _I], _summand(piece, sx, sy)
        forms = [*piece.forms, *_limits(sx, _I), *_limits(sy, _K)]
    else:
        var, pin, point, ray = (_I, _K, sy, sx) if sy.lo == sy.hi else (_K, _I, sx, sy)
        indices, exps = [var], [piece.ei, piece.ek, piece.en]
        e, exps[pin], at = exps[pin] * point.lo, 0, (0, 0, 0, point.lo)
        w = piece.scalar * point.terms[0].poly.coeffs[0]  # see element._point
        w = w * Coeff.s_power(e) if e else w
        terms = []
        for er, poly in ray.terms:
            te = list(exps)
            te[var] += er
            terms.append((tuple(te), _mp_from_poly(poly, var, w)))
        forms = [_subst(f, pin, at) for f in piece.forms] + _limits(ray, var)
        rel = rel and _subst(rel, pin, at)
    if rel:  # solve for k, or for i when k is pinned (its coefficient is +-1)
        var = indices.pop(0)
        at = _bound(rel, var)  # rel >= 0 bounds var by exactly its value at rel = 0
        terms = [_term_subst(t, var, at) for t in terms]
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


def _sgn(v: int) -> int:
    return (v > 0) - (v < 0)


def mul(
    x: HeckeElement, y: HeckeElement, *, perturbation: Optional[str] = None
) -> HeckeElement:
    """Convolution product, extended bilinearly over all strip rows."""
    _check_perturbation(perturbation)
    points: dict[tuple[int, int], dict[int, Coeff]] = {}
    swept: dict[tuple[int, int], list[Strip]] = {}
    for kx, rx in x.rows:
        for ky, ry in y.rows:
            j, l = kx.j, ky.j
            if j * l < 0:
                continue
            for sx in rx.strips:
                for sy in ry.strips:
                    # level-0 strips are points; the table splits them by index sign
                    signs = (1 if sx.lo >= 0 else -1, 1 if sy.lo >= 0 else -1)
                    pieces = _pieces(kx.a, ky.a, _sgn(j), _sgn(l), *signs, perturbation)
                    if sx.lo == sx.hi and sy.lo == sy.hi:
                        c = sx.terms[0].poly.coeffs[0] * sy.terms[0].poly.coeffs[0]  # element._point
                        _point_pair(pieces, sx.lo, sy.lo, c, j + l, points, swept)
                        continue
                    emitted: list = []
                    for piece in pieces:
                        _strip_pair(piece, sx, sy, emitted)
                    for sheet, lo, hi, st in emitted:
                        swept.setdefault((sheet, j + l), []).append(Strip(lo, hi, st))
    return _element(_normal_rows(points, swept))


# ---------------------------------------------------------------------------
# independent per-coefficient path


@lru_cache(maxsize=65536)
def _basis_product(xt: BasisIndex, yt: BasisIndex) -> HeckeElement:
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
    t = _as_basis(target)
    total = ZERO
    for kx, rx in x.rows:
        for ky, ry in y.rows:
            j, l = kx.j, ky.j
            if j + l != t.j or j * l < 0:
                continue
            for sx in rx.strips:
                for sy in ry.strips:
                    for i, k in _pair_windows(j, l, sx, sy, t.i):
                        w = _basis_product(
                            BasisIndex(kx.a, i, j), BasisIndex(ky.a, k, l)
                        ).coefficient_at((t.a, t.j), t.i)
                        if w.is_zero():
                            continue
                        cx = sx.value_at(i)
                        if cx.is_zero():
                            continue
                        cy = sy.value_at(k)
                        if cy.is_zero():
                            continue
                        total = total + cx * cy * w
    return total
