"""Command-line front end: argparse and the subcommands.

A call whose first argument names a subcommand is read by that subcommand's
parser alone, and what it leaves over is refused with the top-level usage, as
argparse refuses it; any other call goes through the top-level parser.

Element expressions and matrix literals are read and printed by
:mod:`hecke2d.text`; ``parse_element``, ``format_element`` and ``ExprError``
are importable from here under the same names.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .coeff import ZERO, Coeff, CoeffError
from .element import BasisIndex, HeckeElement, _label
from .oracle import (EnumerationError, _level_zero_pair, classify, count_reps, counted_product,
                     enumerate_reps)
from .product import mul, mul_basis
from .suites import run_suite
from .text import ExprError, format_element, format_matrix, parse_element, parse_matrix

__all__ = ["ExprError", "format_element", "main", "parse_element"]


# ---------------------------------------------------------------------------
# subcommands


def _parse_ints(text: str, count: int, message: str) -> tuple[int, ...]:
    """Exactly count comma-separated integers, else ValueError(message)."""
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        raise ValueError(message)
    return values


def _cmd_mul(args: argparse.Namespace) -> int:
    product = mul(parse_element(args.left), parse_element(args.right))
    print(format_element(product, "json" if args.json else "text"))
    return 0


def _cmd_coeff(args: argparse.Namespace) -> int:
    x = parse_element(args.expr)
    a, i, j = _label(_parse_ints(args.at, 3, "--at must be a triple of integers 'a,i,j'"))
    print(x.coefficient_at((a, j), i))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    label = classify(parse_matrix(args.matrix, args.q))
    print(f"({label.a},{label.i},{label.j})")
    return 0


def _cmd_reps(args: argparse.Namespace) -> int:
    if args.count_only:
        print(count_reps(args.a, args.i, args.q))
    else:
        for rep in enumerate_reps(args.a, args.i, args.q):
            print(format_matrix(rep))
    return 0


def _point_values(x: HeckeElement) -> dict[BasisIndex, Coeff]:
    # the rows of a level-0 element hold only point masses
    return {BasisIndex(key.a, s.lo, key.j): s.value_at(s.lo) for key, row in x.rows for s in row.strips}


def _cmd_oracle(args: argparse.Namespace) -> int:
    a, i = _parse_ints(args.left, 2, "the left index must be a pair of integers 'a,i'")
    b, k = _parse_ints(args.right, 2, "the right index must be a pair of integers 'b,k'")
    x, y = _level_zero_pair(BasisIndex(a, i, 0), BasisIndex(b, k, 0), args.q)
    counted, table = counted_product(x, y), mul_basis(x, y)
    lhs, rhs = _point_values(counted), _point_values(table)
    for label in sorted(lhs.keys() | rhs.keys()):
        c, t = lhs.get(label, ZERO), rhs.get(label, ZERO)
        vc = c.eval_at_q(args.q)
        vt, flag = (vc, "") if c == t else (t.eval_at_q(args.q), "  MISMATCH")
        print(f"({label.a},{label.i},{label.j}): oracle {vc}  table {vt}{flag}")
    return 0 if counted == table else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    bad_q = f"--q must be comma-separated integers, got {args.q!r}"
    qs = _parse_ints(args.q, args.q.count(",") + 1, bad_q) if args.q else ()
    report = run_suite(args.suite, index_bound=args.range, qs=qs, seed=args.seed)
    print(report.json_text() if args.json else report.text())
    return 0 if report.passed else 1


@functools.lru_cache(maxsize=None)  # built once: parsing leaves it unchanged
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="hecke2d",
        description="Exact products, coset classification, and verification "
        "suites for the rank-two Iwahori-Hecke kernel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = commands["mul"] = sub.add_parser("mul", help="multiply two element expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true", help="print the normal form as JSON")
    p.set_defaults(func=_cmd_mul)

    p = commands["coeff"] = sub.add_parser("coeff", help="print one basis coefficient of an expression")
    p.add_argument("expr")
    p.add_argument("--at", required=True, metavar="a,i,j")
    p.set_defaults(func=_cmd_coeff)

    p = commands["classify"] = sub.add_parser("classify", help="print the double-coset label of a matrix")
    p.add_argument("matrix", help="literal like '[[1,1],[t1,1+t1]]'")
    p.add_argument("--q", type=int, required=True, help="residue field size")
    p.set_defaults(func=_cmd_classify)

    p = commands["reps"] = sub.add_parser("reps", help="list the level-zero coset representatives")
    p.add_argument("a", type=int)
    p.add_argument("i", type=int)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_reps)

    p = commands["oracle"] = sub.add_parser(
        "oracle", help="compare the counting oracle with the symbolic product"
    )
    p.add_argument("left", metavar="a,i")
    p.add_argument("right", metavar="b,k")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = commands["verify"] = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--range", type=int, default=None, help="index bound override, at most 16")
    p.add_argument("--q", default="2,3", metavar="p[,p]", help="residue field sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser, commands


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch a subcommand; 0 on pass, 1 on verification failure, 2 on bad input."""
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    try:
        return args.func(args)
    except (ExprError, ValueError, CoeffError, EnumerationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
