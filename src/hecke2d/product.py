"""Convolution products.

The closed product table for a pair of basis functions chi^(a)_{i,j} *
chi^(b)_{k,l} is written once, as the ordered branch records of _TABLE.  A
record names its branch (p1-p7, q1-q8), the factor signs it covers, and for
each right sheet b its output terms at level j + l: a point mass at n = i + k
or n = i - k whose q-exponent is the least of some affine forms in (i, k),
or a geometric run between affine bounds.  _pieces compiles the first record
that matches into kernel pieces, a point (_Pt) or a span cut out by affine
inequalities in (i, k, n) (_Sp), and two evaluators read them:

* ``_point_pair`` evaluates the pieces at integers i and k, giving one value
  or one geometric run each.  ``mul_basis`` is this evaluator on one basis
  pair, and ``mul`` uses it for every pair of point masses.

* ``mul`` extends the table bilinearly to whole strip rows.  A ray times a
  point mass pins the point's index in each piece: a point piece then needs
  no sum and a span one, over the ray's index.  Only a pair of rays takes
  both sums, first over the inner index k (spans only), then over the outer
  index i.  A product row that is one ray is kept as it is, without the
  sweep.  Each sum eliminates its index with a discrete antiderivative (for
  ratio s^alpha != 1 solve R(v) - s^{-alpha} R(v-1) = P(v) of equal degree;
  for ratio 1 the antiderivative has degree one higher) and runs from the
  greatest of several affine lower bounds to the least of several upper
  bounds.  One rule picks the active pair of bounds for every sum: for each
  (lower, upper) pair, linear conditions say where that pair is active, with
  ties going to the bound listed first.  For the inner sum the conditions
  become bounds on i and a window in n; for the outer sum, whose bounds
  depend on n only, they become a window in n, which is one output strip.

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
# per sign case, under one name.

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
    out: dict[int, tuple[Union[_Point, _Run], ...]]  # by right sheet b


def _each(term: Callable[[int], Union[_Point, _Run]]) -> dict[int, tuple]:
    # one term on each right sheet b, built from b
    return {b: (term(b),) for b in (1, 2)}


_TABLE: list[_Branch] = [
    _Branch("p1", 1, lambda x, j, y, l: x > 0 and y > 0,
            _each(lambda b: _Point(b, "i+k", "-1"))),
    _Branch("p2", 1, lambda x, j, y, l: x < 0 and y < 0,
            _each(lambda b: _Point(b, "i+k", "-1"))),
    _Branch("p3", 1, lambda x, j, y, l: j == 0 and l < 0 < x,
            _each(lambda b: _Point(b, "i+k", "2i-1"))),
    _Branch("p3", 1, lambda x, j, y, l: j == 0 and x < 0 < l,
            _each(lambda b: _Point(b, "i+k", "-2i-1"))),
    _Branch("p4", 1, lambda x, j, y, l: j > 0 and l == 0 and y < 0, {
        1: (_Point(1, "i+k", "-2k-1"), _Run(2, -2, "i-k-1", "i+k", "i-k-1")),
        2: (_Run(1, -2, "i-k-1", "i+k+1", "i-k-1"), _Point(2, "i+k", "-2k-2")),
    }),
    _Branch("p5", 1, lambda x, j, y, l: j < 0 and l == 0 and y > 0, {
        1: (_Point(1, "i+k", "2k-1"), _Run(2, 2, "-i+k", "i-k", "i+k-1")),
        2: (_Run(1, 2, "-i+k", "i-k", "i+k"), _Point(2, "i+k", "2k")),
    }),
    _Branch("p6", 1, lambda x, j, y, l: j == l == 0 and x > 0 > y, {
        1: (_Point(1, "i+k", "2i-1, -2k-1"), _Run(2, -2, "i-k-1", "i+k, -i-k", "i-k-1")),
        2: (_Run(1, -2, "i-k-1", "i+k+1, -i-k", "i-k-1"), _Point(2, "i+k", "2i-1, -2k-2")),
    }),
    _Branch("p7", 1, lambda x, j, y, l: j == l == 0 and x < 0 < y, {
        1: (_Point(1, "i+k", "-2i-1, 2k-1"), _Run(2, 2, "-i+k", "i-k", "i+k-1, -i-k-1")),
        2: (_Run(1, 2, "-i+k", "i-k", "i+k, -i-k-1"), _Point(2, "i+k", "-2i-1, 2k")),
    }),
    _Branch("q1", 2, lambda x, j, y, l: j > 0 and l > 0,
            _each(lambda b: _Run(b, -2, "i+k", "-inf", "i+k"))),
    _Branch("q2", 2, lambda x, j, y, l: j < 0 and l < 0,
            _each(lambda b: _Run(b, 2, "-i-k-1", "i+k+1", "inf"))),
    _Branch("q3", 2, lambda x, j, y, l: l == 0 and x != y,
            _each(lambda b: _Point(3 - b, "i-k", "-1"))),
    _Branch("q4", 2, lambda x, j, y, l: j > 0 and l == 0 and y > 0, {
        1: (_Run(1, -2, "i+k", "i-k+1", "i+k"), _Point(2, "i-k", "2k-1")),
        2: (_Point(1, "i-k", "2k"), _Run(2, -2, "i+k", "i-k", "i+k")),
    }),
    _Branch("q5", 2, lambda x, j, y, l: j < 0 and l == 0 and y < 0, {
        1: (_Run(1, 2, "-i-k-1", "i+k+1", "i-k"), _Point(2, "i-k", "-2k-1")),
        2: (_Point(1, "i-k", "-2k-2"), _Run(2, 2, "-i-k-1", "i+k+1", "i-k-1")),
    }),
    _Branch("q6", 2, lambda x, j, y, l: j == 0 and l != 0 and x != y, {1: (), 2: ()}),
    _Branch("q7", 2, lambda x, j, y, l: j == 0 and l > 0 and x > 0,
            _each(lambda b: _Run(b, -2, "i+k", "-i+k", "i+k"))),
    _Branch("q8", 2, lambda x, j, y, l: j == 0 and l < 0 and x < 0,
            _each(lambda b: _Run(b, 2, "-i-k-1", "i+k+1", "-i+k-1"))),
    _Branch("q8", 2, lambda x, j, y, l: j == l == 0 and x > 0 and y > 0, {
        1: (_Run(1, -2, "i+k", "i-k+1, -i+k", "i+k"), _Point(2, "i-k", "2i, 2k-1")),
        2: (_Point(1, "i-k", "2i, 2k"), _Run(2, -2, "i+k", "i-k, -i+k", "i+k")),
    }),
    _Branch("q8", 2, lambda x, j, y, l: j == l == 0 and x < 0 and y < 0, {
        1: (_Run(1, 2, "-i-k-1", "i+k+1", "i-k, -i+k-1"), _Point(2, "i-k", "-2i-2, -2k-1")),
        2: (_Point(1, "i-k", "-2i-2, -2k-2"), _Run(2, 2, "-i-k-1", "i+k+1", "-i+k-1, i-k-1")),
    }),
]


def _record(a: int, js: int, ls: int, isg: int, ksg: int) -> _Branch:
    """The first record covering sheet a, level signs js, ls and index signs isg, ksg."""
    x, y = js or isg, ls or ksg
    for rec in _TABLE:
        if rec.a == a and rec.when(x, js, y, ls):
            return rec
    raise CaseTableError(f"no record covers sheet {a} with signs {(isg, js, ksg, ls)}")


#: Recognized deliberate table mutations, used by verification suites as a
#: negative control.  Each replaces one point exponent form of one record on
#: one right sheet, so both evaluators and the engine see the same edit:
#: "flip-1e" raises p6's mixed-sign level-0 point exponent on sheet 1,
#: min(2i-1, -2k-1), to min(2i, -2k-1), split on n as its own forms say.
_MUTATIONS = {"flip-1e": ("p6", 1, "2i-1", "2i")}
PERTURBATIONS = (None, *_MUTATIONS)


def _check_perturbation(p: Optional[str]) -> None:
    if p not in PERTURBATIONS:
        raise ValueError(f"unknown perturbation {p!r}")


def _as_basis(x: Union[BasisIndex, tuple]) -> BasisIndex:
    b = BasisIndex(*x)
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
# with P a polynomial over Coeff, stored as {(di,dk,dn): Coeff}.

_I, _K, _N = 0, 1, 2

MPoly = dict[tuple[int, int, int], Coeff]
ETerm = tuple[tuple[int, int, int], MPoly]


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
    if c.is_zero():
        return {}
    return {k: v * c for k, v in p.items()}


def _mp_mul(a: MPoly, b: MPoly) -> MPoly:
    out: MPoly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            _mp_acc(out, (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2]), ca * cb)
    return out


def _mp_from_poly(p: IndexPoly, var: int) -> MPoly:
    out: MPoly = {}
    for d, c in enumerate(p.coeffs):
        if not c.is_zero():
            key = [0, 0, 0]
            key[var] = d
            out[tuple(key)] = c
    return out


def _mp_subst(p: MPoly, var: int, lin: dict[int, int], const: int) -> MPoly:
    """Substitute var -> sum(lin[v] * x_v) + const."""
    if not p:
        return {}
    aff: MPoly = {}
    if const:
        aff[(0, 0, 0)] = Coeff.integer(const)
    for v, cv in lin.items():
        if cv:
            key = [0, 0, 0]
            key[v] = 1
            aff[tuple(key)] = Coeff.integer(cv)
    maxd = max(k[var] for k in p)
    pows: list[MPoly] = [{(0, 0, 0): ONE}]
    for _ in range(maxd):
        pows.append(_mp_mul(pows[-1], aff))
    out: MPoly = {}
    for key, c in p.items():
        d = key[var]
        rest = list(key)
        rest[var] = 0
        for k2, c2 in pows[d].items():
            _mp_acc(out, (rest[0] + k2[0], rest[1] + k2[1], rest[2] + k2[2]), c * c2)
    return out


def _term_subst(term: ETerm, var: int, lin: dict[int, int], const: int) -> ETerm:
    # replaces var by an affine form, moving its s-exponent onto the others
    exps, p = term
    alpha = exps[var]
    new = list(exps)
    new[var] = 0
    for v, cv in lin.items():
        new[v] += alpha * cv
    p2 = _mp_subst(p, var, lin, const)
    if alpha * const:
        p2 = _mp_scale(p2, Coeff.s_power(alpha * const))
    return (tuple(new), p2)


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
class _Pt:
    sheet: int
    tk: int  # output index n = i + tk*k
    ei: int
    ek: int
    en: int
    scalar: Coeff
    nlo: Bound = NEG_INF
    nhi: Bound = POS_INF


@dataclass(frozen=True)
class _Sp:
    sheet: int
    # each constraint: (sense, ci, ck, c0); sense +1 means n >= ci*i+ck*k+c0
    cons: tuple[tuple[int, int, int, int], ...]
    ei: int
    ek: int
    en: int
    scalar: Coeff


def _split(f1: Form, f2: Form, tk: int) -> tuple[dict, dict]:
    """The n-windows where q^f1, then q^f2, is the lesser at n = i + tk*k; a tie goes to f1."""
    di, dk, d0 = (u - v for u, v in zip(f1, f2))
    if dk != tk * di or not di:
        raise CaseTableError("a point's exponents must differ by a multiple of n")
    if di > 0:  # f1 <= f2 where n <= -d0/di
        t = -d0 // di
        return {"nhi": t}, {"nlo": t + 1}
    t = -(d0 // di)  # f1 <= f2 where n >= d0/(-di)
    return {"nlo": t}, {"nhi": t - 1}


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
    1 - 1/q for a run, whose bounds become span constraints.  A point whose
    exponent is the least of two forms becomes two point pieces, split on n.
    """
    rec = _record(a, js, ls, isg, ksg)
    name, sheet, old, new = _MUTATIONS.get(perturbation, ("", 0, "", ""))
    pieces: list[Union[_Pt, _Sp]] = []
    for t in rec.out[b]:
        if isinstance(t, _Run):
            ci, ck, c0 = _form(t.exp)
            cons = (*((1, *f) for f in _forms(t.lows)), *((-1, *f) for f in _forms(t.highs)))
            scalar = one_minus_qinv() * Coeff.q_power(c0)
            pieces.append(_Sp(t.sheet, cons, 2 * ci, 2 * ck, t.step, scalar))
            continue
        tk, exps = _form(t.n)[1], _forms(t.exps)
        if (rec.name, b) == (name, sheet):
            exps = tuple(_form(new) if f == _form(old) else f for f in exps)
        windows = _split(*exps, tk) if len(exps) == 2 else ({},)
        for (ci, ck, c0), window in zip(exps, windows):
            pieces.append(_Pt(t.sheet, tk, 2 * ci, 2 * ck, 0, Coeff.q_power(c0), **window))
    return tuple(pieces)


# ---------------------------------------------------------------------------
# summing between affine bounds
#
# Both sums, over the inner index k and then the outer index i, run from the
# greatest of several lower bounds to the least of several upper bounds.  A
# bound is one affine form (ci, cn, c0) = ci*i + cn*n + c0; bounds on i have
# ci = 0.  One rule picks the active pair of bounds for both sums.

Aff = tuple[int, int, int]


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _norm_cond(di: int, dn: int, d0: int) -> tuple[bool, Aff]:
    """Turn di*i + dn*n + d0 >= 0 (di != 0) into (is_lower, bound on i)."""
    if abs(di) > 2 or (abs(di) == 2 and dn % 2):
        raise CaseTableError("bound comparison outside the supported geometry")
    if di > 0:
        if di == 1:
            return True, (0, -dn, -d0)
        return True, (0, -dn // 2, _ceil_div(-d0, 2))
    if di == -1:
        return False, (0, dn, d0)
    return False, (0, dn // 2, d0 // 2)


def _apply_conds(conds: Iterable[Aff], window: tuple[Bound, Bound] = (NEG_INF, POS_INF)):
    """Split conditions (forms that must be >= 0) into i-bounds and a
    narrowed n-window; None if they cannot all hold."""
    lows: list[Aff] = []
    ups: list[Aff] = []
    wlo, whi = window
    for di, dn, d0 in conds:
        if di == 0:
            if dn == 0:
                if d0 < 0:
                    return None
            elif dn > 0:
                wlo = max(wlo, _ceil_div(-d0, dn))
            else:
                whi = min(whi, d0 // (-dn))
            continue
        is_lower, bound = _norm_cond(di, dn, d0)
        (lows if is_lower else ups).append(bound)
    if wlo > whi:
        return None
    return lows, ups, (wlo, whi)


def _add_bounds(lows: list[Aff], ups: list[Aff], lo: Bound, hi: Bound, cn: int = 0) -> None:
    """Record lo + cn*n <= index <= hi + cn*n; an infinite end bounds nothing."""
    if isinstance(lo, int):
        lows.append((0, cn, lo))
    if isinstance(hi, int):
        ups.append((0, cn, hi))


def _diff(a: Aff, b: Aff, strict: bool = False) -> Aff:
    # the form a - b, which is >= 0 exactly where a >= b (a > b if strict)
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2] - strict)


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
        out.append(_term_subst(ant, var, {_I: hi[0], _N: hi[1]}, hi[2]))
        exps, p = _term_subst(ant, var, {_I: lo[0], _N: lo[1]}, lo[2] - 1)
        out.append((exps, _mp_scale(p, Coeff.integer(-1))))
    return _merge_eterms(out)


def _summand(piece: Union[_Pt, _Sp], sx: Strip, sy: Strip) -> list[ETerm]:
    """The strip pair's terms times the piece's kernel, in (i, k, n)."""
    terms: list[ETerm] = []
    for ex, px in sx.terms:
        for ey, py in sy.terms:
            poly = _mp_mul(_mp_from_poly(px, _I), _mp_from_poly(py, _K))
            exps = (ex + piece.ei, ey + piece.ek, piece.en)
            terms.append((exps, _mp_scale(poly, piece.scalar)))
    return _merge_eterms(terms)


def _sum_outer(
    terms: list[ETerm],
    lows: list[Aff],
    ups: list[Aff],
    window: tuple[Bound, Bound],
    sheet: int,
    out: list,
) -> None:
    """Sum the outer index between bounds affine in n, one strip per active pair."""
    if not terms:
        return
    ants = [(t[0], _antiderivative(t, _I)) for t in terms]
    for lo, hi, conds in _active_pairs(lows, ups, "outer"):
        applied = _apply_conds(conds, window)  # ci = 0: only the window narrows
        if applied is None:
            continue
        st = _eterms_to_strip_terms(_between(ants, _I, lo, hi))
        if st:
            out.append((sheet, *applied[2], st))


def _sum_point(piece: _Pt, sx: Strip, sy: Strip, out: list) -> None:
    # k = tk * (n - i) leaves only the outer sum
    lin = {_I: -piece.tk, _N: piece.tk}
    terms = _merge_eterms(_term_subst(t, _K, lin, 0) for t in _summand(piece, sx, sy))
    lows: list[Aff] = []
    ups: list[Aff] = []
    _add_bounds(lows, ups, sx.lo, sx.hi)
    if piece.tk == 1:  # k = n - i in [ylo, yhi]  =>  n - yhi <= i <= n - ylo
        _add_bounds(lows, ups, -sy.hi, -sy.lo, 1)
    else:  # k = i - n in [ylo, yhi]  =>  n + ylo <= i <= n + yhi
        _add_bounds(lows, ups, sy.lo, sy.hi, 1)
    _sum_outer(terms, lows, ups, (piece.nlo, piece.nhi), piece.sheet, out)


def _sum_span(piece: _Sp, sx: Strip, sy: Strip, out: list) -> None:
    base = _summand(piece, sx, sy)
    if not base:
        return
    klows: list[Aff] = []
    kups: list[Aff] = []
    _add_bounds(klows, kups, sy.lo, sy.hi)
    for sense, ci, ck, c0 in piece.cons:
        if ck not in (1, -1):
            raise CaseTableError("span constraint must have inner coefficient +-1")
        # sense * (n - ci*i - ck*k - c0) >= 0 bounds k by ck * (n - ci*i - c0)
        bound = (-ci, 1, -c0) if ck == 1 else (ci, -1, c0)
        (kups if sense == ck else klows).append(bound)
    ants = [(t[0], _antiderivative(t, _K)) for t in base]
    for lo, hi, conds in _active_pairs(klows, kups, "inner"):
        applied = _apply_conds(conds)
        if applied is None:
            continue
        ilows, iups, window = applied
        _add_bounds(ilows, iups, sx.lo, sx.hi)
        _sum_outer(_between(ants, _K, lo, hi), ilows, iups, window, piece.sheet, out)


def _pinned(pieces: tuple, sx: Strip, sy: Strip, out: list) -> None:
    """Exactly one strip is a point mass: pin its index p in each piece and
    sum over the ray's index r, held in the outer slot, at most once.

    A point piece fixes r = u*n + v, so it needs no sum: its output strip is
    the ray's ends carried to n and cut to the piece's window.  A span's
    constraints at the pinned index bound r affinely in n, for one outer sum.
    """
    x_ray = sx.lo != sx.hi
    ray, point = (sx, sy) if x_ray else (sy, sx)
    p, c = point.lo, point.terms[0].poly.coeffs[0]  # see element._point
    for piece in pieces:
        er, ep = (piece.ei, piece.ek) if x_ray else (piece.ek, piece.ei)
        w = piece.scalar * c * Coeff.s_power(ep * p)
        terms = [((e + er, 0, piece.en), _mp_scale(_mp_from_poly(q, _I), w)) for e, q in ray.terms]
        if isinstance(piece, _Pt):
            # n = i + tk*k gives i = n - tk*p, or k = tk*(n - p)
            u, v = (1 if x_ray else piece.tk), -piece.tk * p
            ends = (u * (ray.lo - v), u * (ray.hi - v))
            lo, hi = max(piece.nlo, min(ends)), min(piece.nhi, max(ends))
            if lo <= hi:  # r -> u*n + v is invertible, so the ray's terms stay nonzero
                st = _eterms_to_strip_terms([_term_subst(t, _I, {_N: u}, v) for t in terms])
                out.append((piece.sheet, lo, hi, st))
            continue
        conds = []
        for sense, ci, ck, c0 in piece.cons:
            cr, cp = (ci, ck) if x_ray else (ck, ci)
            # sense * (n - cr*r - cp*p - c0) >= 0
            conds.append((-sense * cr, sense, -sense * (cp * p + c0)))
        applied = _apply_conds(conds)
        if applied is None:
            continue
        lows, ups, window = applied
        _add_bounds(lows, ups, ray.lo, ray.hi)
        _sum_outer(terms, lows, ups, window, piece.sheet, out)


def _point_pair(
    pieces: tuple, i: int, k: int, c: Optional[Coeff], j: int, points: dict, swept: dict
) -> None:
    """Each piece at the integers i and k, times c (None for 1), into level j.

    A point piece adds one value at n = i + tk*k inside its window; a span
    adds a geometric run between its constraints evaluated at (i, k).
    """
    for piece in pieces:
        if isinstance(piece, _Pt):
            lo = hi = i + piece.tk * k
            if not piece.nlo <= lo <= piece.nhi:
                continue
        else:
            lo, hi = NEG_INF, POS_INF
            for sense, ci, ck, c0 in piece.cons:
                v = ci * i + ck * k + c0
                if sense > 0 and v > lo:
                    lo = v
                elif sense < 0 and v < hi:
                    hi = v
            if lo > hi:
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
                    if sx.lo == sx.hi or sy.lo == sy.hi:
                        _pinned(pieces, sx, sy, emitted)
                    else:
                        for piece in pieces:
                            summed = _sum_point if isinstance(piece, _Pt) else _sum_span
                            summed(piece, sx, sy, emitted)
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
        ilo, ihi = max(sx.lo, n - sy.hi), sx.hi
        for i in range(ilo, ihi + 1):
            klo, khi = max(sy.lo, n - sx.hi), sy.hi
            for k in range(klo, khi + 1):
                yield i, k
    elif j < 0 and l < 0:
        ilo, ihi = sx.lo, min(sx.hi, n - sy.lo)
        for i in range(ilo, ihi + 1):
            klo, khi = sy.lo, min(sy.hi, n - sx.lo)
            for k in range(klo, khi + 1):
                yield i, k
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
