"""Seeded inputs and checked operations for the benchmark workloads.

Each workload turns a seed string into a list of ops.  An op is one checked
computation: calling it returns ``(ok, output)``, where ``ok`` says whether
the output passed its check against an independent reference and ``output``
feeds the run digest.  An associativity op whose two bracketings differ
returns ``KNOWN_DEFECT`` instead of ``False``: the table is not associative
on some triples (acceptance criterion 3), and the run tallies those triples
apart from failed ops.  Every hecke2d function is looked up on its module at
call time, so the tracer's wrappers see the calls.

Inputs are drawn in balanced rounds (every atom once per position per round)
rather than independently, so that two seeds give the same mix of cheap and
expensive ops and the timings of different seeds can be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from typing import Callable, NamedTuple, Optional

import hecke2d as hk
from hecke2d import cli, presets

FLIP = "flip-1e"
#: the ``ok`` of an associativity op whose triple does not associate
KNOWN_DEFECT = "nonassoc"


class Op(NamedTuple):
    kind: str
    run: Callable[[], tuple[bool, object]]


def _cycled(rng: random.Random, items: list, n: int) -> list:
    """n draws that run through whole permutations of items, so each item
    is drawn equally often whatever the seed."""
    out: list = []
    while len(out) < n:
        out.extend(rng.sample(items, len(items)))
    return out[:n]


def _finite_values(x, q: int) -> dict:
    """Level-zero coefficients of x evaluated at q, zeros dropped."""
    out = {}
    for key, series in x.rows:
        for m in range(series.support_min, series.support_max + 1):
            c = x.coefficient_at(key, m)
            if not c.is_zero():
                out[hk.BasisIndex(key.a, m, key.j)] = c.eval_at_q(q)
    return out


# ---------------------------------------------------------------------------
# oracle_count: level-zero products by counting, against the literal table

ORACLE_QS = (2, 3, 5)
CONTROL_Q = 2


def _oracle_cells() -> list[tuple[int, int, int, int, int]]:
    """The q x sheets x |i|,|k| <= 2 grid; the q = 5, |k| = 2 corner (about 20 s
    when complete) keeps one left factor, (1, 0, 0) times (1, +-2, 0)."""
    cells = []
    for q in ORACLE_QS:
        for a in (1, 2):
            for b in (1, 2):
                for i in range(-2, 3):
                    for k in range(-2, 3):
                        if q == 5 and abs(k) == 2 and (a, b, i) != (1, 1, 0):
                            continue
                        cells.append((q, a, i, b, k))
    return cells


def _counts_op(q: int, a: int, i: int, b: int, k: int, perturbation: Optional[str]) -> Op:
    def run():
        got = hk.product_counts((a, i, 0), (b, k, 0), q)
        want = _finite_values(hk.mul_basis((a, i, 0), (b, k, 0), perturbation=perturbation), q)
        return got == want, sorted(got.items())

    return Op("counts", run)


def oracle_count(seed: str, perturbation: Optional[str] = None) -> list[Op]:
    cells = _oracle_cells()
    if perturbation is not None:
        cells = [c for c in cells if c[0] == CONTROL_Q]
    random.Random(seed).shuffle(cells)
    return [_counts_op(*cell, perturbation) for cell in cells]


# ---------------------------------------------------------------------------
# algebra_products: fuzzed products over the identity_assoc atom pool

ASSOC_ROUNDS = 6
DUAL_ROUNDS = 1
SHAPE_INDEX, SHAPE_LEVEL = 4, 3


def _atom_pool() -> list:
    """The identity_assoc pool: the named presets and chi at |i|, |j| <= 2."""
    pool = [hk.preset(name) for name in presets.FIXED_PRESET_NAMES]
    pool += [hk.chi(a, i, j) for a in (1, 2) for i in range(-2, 3) for j in range(-2, 3)]
    return pool


def _assoc_op(x, y, z) -> Op:
    def run():
        left = hk.mul(hk.mul(x, y), z)
        right = hk.mul(x, hk.mul(y, z))
        return (True if left == right else KNOWN_DEFECT), (left, right)

    return Op("assoc", run)


def _dual_targets(p, x, y) -> list[tuple[int, int, int]]:
    """Indices where the two routes are compared: each row's support plus a
    margin, a few steps into a ray, or a small box when the product is zero."""
    if p.is_zero():
        levels = {jx + jy for jx in x.levels() for jy in y.levels()}
        return [(a, m, lv) for lv in sorted(levels) for a in (1, 2) for m in (-1, 0, 1)]
    targets = []
    for key, series in p.rows:
        lo, hi = series.support_min, series.support_max
        if not isinstance(lo, int):
            ms = range(hi - 3, hi + 2)
        elif not isinstance(hi, int):
            ms = range(lo - 1, lo + 4)
        else:
            ms = range(lo - 1, hi + 2)
        targets.extend((key.a, m, key.j) for m in ms)
    return targets


def _dual_op(x, y, perturbation: Optional[str]) -> Op:
    def run():
        p = hk.mul(x, y, perturbation=perturbation)
        ok = True
        for a, m, j in _dual_targets(p, x, y):
            ok &= p.coefficient_at((a, j), m) == hk.coeff_of_product(x, y, (a, m, j))
        return ok, p

    return Op("dual", run)


def _theta_op(i: int, j: int) -> Op:
    # for j > 0 the monomial is q^{-(i+j-1)} chi(1, i, j) (see theta_monomial)
    def run():
        got = hk.theta_monomial(i, j)
        return got == hk.chi(1, i, j).scale(hk.Coeff.q_power(-(i + j - 1))), got

    return Op("theta", run)


def _expected_shape(x: tuple, y: tuple) -> str:
    a, i, j = x
    b, k, l = y
    if j * l < 0:
        return "0"
    if a == 2 and j == 0 and ((i >= 0 and l < 0) or (i < 0 and l > 0)):
        return "0"
    if a == 2 and j > 0 and l > 0:
        return f"sheet {b} level {j + l} down to {i + k}"
    if a == 2 and j < 0 and l < 0:
        return f"sheet {b} level {j + l} up from {i + k + 1}"
    return f"finite at level {j + l}"


def _actual_shape(p, level: int) -> str:
    if p.is_zero():
        return "0"
    if any(key.j != level for key, _ in p.rows):
        return "wrong level"
    rays = [(key, s) for key, s in p.rows if not (isinstance(s.support_min, int) and isinstance(s.support_max, int))]
    if not rays:
        return f"finite at level {level}"
    if len(p.rows) > 1:
        return "mixed rows"
    (key, s), = rays
    if isinstance(s.support_max, int):
        return f"sheet {key.a} level {key.j} down to {s.support_max}"
    if isinstance(s.support_min, int):
        return f"sheet {key.a} level {key.j} up from {s.support_min}"
    return "two-sided"


def _shape_op(x: tuple, l: int) -> Op:
    """A row of literal-table products x * (b, k, l), one support-shape check each."""
    def run():
        shapes = []
        for b in (1, 2):
            for k in range(-SHAPE_INDEX, SHAPE_INDEX + 1):
                y = (b, k, l)
                got = _actual_shape(hk.mul_basis(x, y), x[2] + l)
                shapes.append((got, _expected_shape(x, y)))
        return all(g == w for g, w in shapes), shapes

    return Op("shape", run)


def _level_zero_pairs() -> list[tuple]:
    basis = [hk.chi(a, i, 0) for a in (1, 2) for i in range(-2, 3)]
    return [(x, y) for x in basis for y in basis]


def algebra_products(seed: str, perturbation: Optional[str] = None) -> list[Op]:
    rng = random.Random(seed)
    atoms = _atom_pool()
    n = len(atoms)
    dual_pairs = _level_zero_pairs() + list(zip(*(_cycled(rng, atoms, DUAL_ROUNDS * n) for _ in range(2))))
    ops = [_dual_op(x, y, perturbation) for x, y in dual_pairs]
    if perturbation is None:
        triples = zip(*(_cycled(rng, atoms, ASSOC_ROUNDS * n) for _ in range(3)))
        ops += [_assoc_op(*t) for t in triples]
        ops += [_theta_op(i, j) for i in range(-4, 4) for j in range(1, 4)]
        rows = [(a, j, l) for a in (1, 2) for j in range(-SHAPE_LEVEL, SHAPE_LEVEL + 1)
                for l in range(-SHAPE_LEVEL, SHAPE_LEVEL + 1)]
        ops += [_shape_op((a, rng.randint(-SHAPE_INDEX, SHAPE_INDEX), j), l) for a, j, l in rows]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli_session: hecke2d command lines run in-process

_SCALARS = (
    [("", lambda: hk.Coeff.integer(1))]
    + [(f"s^{e}*", lambda e=e: hk.Coeff.s_power(e)) for e in range(1, 7)]
    + [(f"q^{e}*", lambda e=e: hk.Coeff.q_power(e)) for e in range(1, 4)]
    + [(f"{n}*", lambda n=n: hk.Coeff.integer(n)) for n in range(2, 6)]
    + [("(s^2 - 1)*", lambda: hk.Coeff.s_power(2) - hk.Coeff.integer(1))]
)
_NAMED_ATOMS = ("iota", "theta(1,0)", "theta(-1,0)", "theta(0,1)", "theta(0,-1)", "phi0", "phi1", "phi2")
_LADDER = ((230, 250, "mul"), (170, 190, "coeff"), (110, 130, "mul"), (50, 70, "coeff"))
_MALFORMED = (
    lambda r: ["mul", f"chi(1,{r.randint(-2, 2)}", "phi2"],
    lambda r: ["mul", "phi2", f"s^{r.randint(1, 9)}"],
    lambda r: ["mul", f"chi(3,{r.randint(-2, 2)},0)", "phi1"],
    lambda r: ["coeff", "phi2", "--at", f"1,{r.randint(-2, 2)}"],
    lambda r: ["coeff", "phi2 * phi1", "--at", f"3,{r.randint(-2, 2)},0"],
    lambda r: ["reps", "1", str(r.randint(5, 9)), "--q", "3", "--count-only"],
    lambda r: ["oracle", "1,1", "1,-1", "--q", str(r.choice((4, 6, 9)))],
    lambda r: ["classify", f"[[t1^{r.randint(1, 3)},0]", "--q", "2"],
    lambda r: ["verify", f"suite{r.randint(0, 99)}"],
    lambda r: [r.choice(("frob", "--nope", "multiply"))],
)
CLI_COUNTS = {"mul": 76, "json": 38, "coeff": 38, "classify": 30, "reps": 20, "oracle": 20, "malformed": 26}


def _cli_atoms() -> list[tuple[str, object]]:
    atoms = [(name, hk.preset(name)) for name in _NAMED_ATOMS]
    for a in (1, 2):
        for i in range(-2, 3):
            for j in (-1, 0, 1):
                atoms.append((f"chi({a},{i},{j})", hk.chi(a, i, j)))
    return atoms


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses bad usage this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind: str, argv: list[str], check: Callable[[int, str, str], bool]) -> Op:
    def run():
        code, out, err = _run_cli(argv)
        return check(code, out, err), (code, out)

    return Op(kind, run)


def _product_check(x, y, perturbation, fmt: str):
    def check(code, out, err):
        want = hk.mul(x, y, perturbation=perturbation)
        if code != 0:
            return False
        if fmt == "json":
            return hk.element_from_json(json.loads(out)) == want
        return cli.parse_element(out.strip()) == want

    return check


def _coeff_check(x, y, target, perturbation):
    a, i, j = target

    def check(code, out, err):
        want = hk.mul(x, y, perturbation=perturbation).coefficient_at((a, j), i)
        return code == 0 and hk.Coeff.parse(out.strip()) == want

    return check


def _expression_pairs(rng: random.Random, atoms, n: int) -> list[tuple[tuple[str, object], ...]]:
    """n (left, right) pairs of element expressions.  One side has one scaled
    atom and the other two, so every product expands to two atom products."""
    firsts = [_cycled(rng, atoms, n) for _ in range(2)]
    seconds = _cycled(rng, atoms, n)
    scalars = _cycled(rng, _SCALARS, 3 * n)
    two_left = _cycled(rng, [True, False], n)
    pairs = []
    for idx in range(n):
        sides = [[firsts[0][idx], seconds[idx]], [firsts[1][idx]]]
        if not two_left[idx]:
            sides.reverse()
        picked = iter(scalars[3 * idx: 3 * idx + 3])
        exprs = []
        for terms in sides:
            texts, value = [], hk.zero_element()
            for (atext, atom), (stext, scalar) in zip(terms, picked):
                texts.append(f"{stext}{atext}")
                value = value + atom.scale(scalar())
            exprs.append((" + ".join(texts), value))
        pairs.append(tuple(exprs))
    return pairs


def _reps_count(a: int, i: int, q: int) -> int:
    # index of the Iwahori subgroup in the level-zero double coset
    if a == 1:
        return q ** (2 * abs(i))
    return q ** (2 * i + 1) if i >= 0 else q ** (-2 * i - 1)


def _matrix(rng: random.Random, a: int, i: int, j: int, q: int) -> str:
    """A literal in the double coset (a, i, j): a monomial diagonal or
    antidiagonal matrix, times an upper unipotent Iwahori element."""
    c = rng.randint(1, q - 1)
    cinv = pow(c, -1, q)
    mono = f"t1^{i}*t2^{j}"
    inv = f"t1^{-i}*t2^{-j}"
    twist = rng.random() < 0.5
    if a == 1:
        top = f"{c}*{mono}"
        return f"[[{top},{f'{top} + {c}*t1*{mono}' if twist else '0'}],[0,{cinv}*{inv}]]"
    low = f"-{cinv}*{inv}"
    return f"[[0,{c}*{mono}],[{low},{f'{low} - {cinv}*t1*{inv}' if twist else '0'}]]"


def cli_session(seed: str, perturbation: Optional[str] = None) -> list[Op]:
    rng = random.Random(seed)
    atoms = _cli_atoms()
    phi2 = hk.phi(2)
    ops = [
        _cli_op("mul", ["mul", "chi(1,1,0)", "chi(1,-1,0)"],
                _product_check(hk.chi(1, 1, 0), hk.chi(1, -1, 0), perturbation, "text")),
        _cli_op("mul", ["mul", "phi2", "phi2"], _product_check(phi2, phi2, perturbation, "text")),
        _cli_op("coeff", ["coeff", "phi2 * phi2", "--at", "2,3,-2"],
                _coeff_check(phi2, phi2, (2, 3, -2), perturbation)),
    ]
    for (ltext, x), (rtext, y) in _expression_pairs(rng, atoms, CLI_COUNTS["mul"]):
        ops.append(_cli_op("mul", ["mul", ltext, rtext], _product_check(x, y, perturbation, "text")))
    for (ltext, x), (rtext, y) in _expression_pairs(rng, atoms, CLI_COUNTS["json"]):
        ops.append(_cli_op("mul", ["mul", "--json", ltext, rtext], _product_check(x, y, perturbation, "json")))
    for lo, hi, cmd in _LADDER:
        ops.append(_ladder_op(rng, cmd, rng.randint(lo, hi), perturbation))
    for (ltext, x), (rtext, y) in _expression_pairs(rng, atoms, CLI_COUNTS["coeff"]):
        ops.append(_coeff_op(rng, ltext, x, rtext, y, perturbation))
    if perturbation is None:
        ops += _cli_command_ops(rng)
    rng.shuffle(ops)
    return ops


def _coeff_op(rng, ltext, x, rtext, y, perturbation) -> Op:
    level = rng.choice(x.levels() or (0,)) + rng.choice(y.levels() or (0,))
    target = (rng.choice((1, 2)), rng.randint(-3, 3), level)
    argv = ["coeff", f"({ltext}) * ({rtext})", "--at", ",".join(map(str, target))]
    return _cli_op("coeff", argv, _coeff_check(x, y, target, perturbation))


def _ladder_op(rng, cmd, e, perturbation) -> Op:
    """A large scalar power: s^e chi(1,i,0) * chi(1,k,0) = s^(e-2) chi(1,i+k,0)."""
    i, k = rng.randint(0, 2), rng.randint(0, 2)
    x, y = hk.chi(1, i, 0).scale(hk.Coeff.s_power(e)), hk.chi(1, k, 0)
    ltext, rtext = f"s^{e}*chi(1,{i},0)", f"chi(1,{k},0)"
    if cmd == "mul":
        return _cli_op("mul", ["mul", ltext, rtext], _product_check(x, y, perturbation, "text"))
    argv = ["coeff", f"{ltext} * {rtext}", "--at", f"1,{i + k},0"]
    return _cli_op("coeff", argv, _coeff_check(x, y, (1, i + k, 0), perturbation))


def _cli_command_ops(rng: random.Random) -> list[Op]:
    """The calls whose checks do not use the product table (so the negative
    control leaves them out): verify, classify, reps, oracle, malformed."""
    ops = [
        _cli_op("verify", ["verify", "table_oracle", "--range", "1", "--q", "2"],
                lambda code, out, err: code == 0 and "[PASS]" in out)
        for _ in range(2)
    ]
    for _ in range(CLI_COUNTS["classify"]):
        q = rng.choice((2, 3))
        a, i, j = rng.choice((1, 2)), rng.randint(-3, 3), rng.randint(-2, 2)
        argv = ["classify", _matrix(rng, a, i, j, q), "--q", str(q)]
        ops.append(_cli_op("classify", argv, lambda code, out, err, t=f"({a},{i},{j})":
                           code == 0 and out.strip() == t))
    for _ in range(CLI_COUNTS["reps"]):
        q, a, i = rng.choice((2, 3)), rng.choice((1, 2)), rng.randint(-2, 2)
        argv = ["reps", str(a), str(i), "--q", str(q), "--count-only"]
        ops.append(_cli_op("reps", argv, lambda code, out, err, n=_reps_count(a, i, q):
                           code == 0 and out.strip() == str(n)))
    for _ in range(CLI_COUNTS["oracle"]):
        q = rng.choice((2, 3))
        left, right = (f"{rng.choice((1, 2))},{rng.randint(-1, 1)}" for _ in range(2))
        argv = ["oracle", left, right, "--q", str(q)]
        ops.append(_cli_op("oracle", argv, lambda code, out, err:
                           code == 0 and bool(out.strip()) and "MISMATCH" not in out))
    for _ in range(CLI_COUNTS["malformed"]):
        argv = rng.choice(_MALFORMED)(rng)
        ops.append(_cli_op("malformed", argv, lambda code, out, err:
                           code == 2 and bool(err.strip()) and "Traceback" not in err))
    return ops


WORKLOADS: dict[str, Callable[..., list[Op]]] = {
    "oracle_count": oracle_count,
    "algebra_products": algebra_products,
    "cli_session": cli_session,
}
