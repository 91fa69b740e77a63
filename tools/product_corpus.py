"""Print one sha256 per perturbation over a fixed corpus of products, and
one over the text of the identity_assoc suite, to compare two checkouts.

The corpus is every ordered pair of the identity_assoc atom pool (58 atoms)
under each perturbation, each distinct nonzero pair product (unperturbed) times
every atom on both sides, and theta_monomial(i, j) for i in -4..3, j in -3..3.
Each product adds its element_to_json text, keys sorted, to the digest of the
perturbation it was computed under (the last two parts are unperturbed), so
two checkouts that print the same line for a perturbation gave byte-identical
products under it.  A change to one perturbation can so show that the
unperturbed corpus is unchanged.  The next line is the sha256 of
run_suite("identity_assoc").text(), the report that `hecke2d verify
identity_assoc` prints, with its case and failure counts.  A `sums:` line
follows: one sha256 over x + y and x - y for every ordered pair of the atom
pool, so the row normal form of sums (rays with points inside and outside
their span, cancelling rays) can be compared too.  An `oracle:` line ends
it: one sha256 over the exit code and standard output of `hecke2d oracle`,
run in process, for every pair of level-0 labels on sheets 1 and 2 with
|i|, |k| <= 2 at q = 2, 3 and 5 (300 calls).  A `refusals:` line closes
it: one sha256 over (entry point, input, exception class, text) for each
malformed label of a fixed grid at each label entry point, and over the exit
code and standard error of three CLI calls with a third sheet, so a change in
how any label is refused shows.  Then comes an `evals:` line: one sha256 over
(coefficient text, point, method, value or exception class and text) for
`Coeff.eval_at_q` and `Coeff.eval_at_s` on a seeded grid of Laurent scalars,
half of them in q alone, at 0, 1, -1, 2 to 9, 1/3, -2/5 and 9/4.  A
`basis:` line follows: one sha256 over `mul_basis` on every pair of
labels on sheets 1 and 2 with |i|, |k| <= 3 and |j|, |l| <= 2, then over
`coeff_of_product` of every ordered pair of the atom pool at each target of
a fixed grid (sheets 1 and 2, levels and indices -4 to 4), so the table
route and the per-coefficient route are compared directly.  A `reps:` line
comes last: one sha256 over the exit code, standard output and standard error
of `hecke2d reps a i --q q --count-only`, run in process, for sheets 1 and
2, |i| <= 5 and q = 2, 3, 4, 5 and 17 (110 calls), so the coset counts and
the refusals past the index limit, of a q that is not a prime and past the
cap are compared too.  A `text:` line ends it: one sha256 over (entry point,
input, result text or exception class and text) of `parse_element`,
`parse_scalar` and `parse_matrix` at q = 3, each on every input: the quoted
arguments of README's `hecke2d` lines, the `format_element` text of every
ordered pair product of the atom pool, each distinct scalar string of those
products' `element_to_json`, and each README argument with one token
deleted, so what the text layer reads and how it refuses are compared too.
A `cli:` line closes the output: one sha256 over (argv, exit code, standard
output, standard error) of `hecke2d` run in process on each call of the
usage table that `tests/test_cli.py` pins (each usage refusal, the help
texts, and the abbreviated, `=`-joined, negative and `--`-escaped forms
that argparse accepts), with help wrapped at 80 columns, so a change in how
the command line is read shows.

Standard output holds only these eleven lines; each line's timing goes to
standard error.  So `diff` of two checkouts' output is empty exactly when
every digest matches:

    python3 tools/product_corpus.py > corpus.txt

Standard library only; it imports hecke2d from this checkout's src/.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hecke2d import (  # noqa: E402
    Coeff,
    chi,
    cli,
    coeff_of_product,
    element_to_json,
    enumerate_reps,
    mul,
    mul_basis,
    product_counts,
    theta_monomial,
)
from hecke2d.oracle import counted_product, eta_matrix  # noqa: E402
from hecke2d.product import PERTURBATIONS  # noqa: E402
from hecke2d.suites import _atom_pool, run_suite  # noqa: E402
from hecke2d.text import (  # noqa: E402
    format_element,
    format_matrix,
    parse_element,
    parse_matrix,
    parse_scalar,
)


def corpus(p):
    """Yield the corpus's products under the perturbation p, in a fixed order."""
    atoms = [x for _, x in _atom_pool()]
    products = [mul(x, y, perturbation=p) for x in atoms for y in atoms]
    yield from products
    if p is not None:
        return
    for prod in dict.fromkeys(filter(None, products)):
        for atom in atoms:
            yield mul(prod, atom)
            yield mul(atom, prod)
    for i in range(-4, 4):
        for j in range(-3, 4):
            yield theta_monomial(i, j)


def sums():
    """Yield x + y and x - y for every ordered pair of the atom pool."""
    atoms = [x for _, x in _atom_pool()]
    for x in atoms:
        for y in atoms:
            yield x + y
            yield x - y


def oracle_calls():
    """Yield the argv of every `hecke2d oracle` call of the corpus."""
    cells = [f"{a},{i}" for a in (1, 2) for i in range(-2, 3)]
    for q in (2, 3, 5):
        for left in cells:
            for right in cells:
                yield ["oracle", left, right, "--q", str(q)]


#: sheet 0, 3, True, 1.0; index True, 0.5; level True, 1.0; a pair; a non-label
BAD_LABELS = [(0, 0, 0), (3, 0, 0), (True, 0, 0), (1.0, 0, 0), (1, True, 0), (1, 0.5, 0),
              (1, 0, True), (1, 0, 1.0), (1, 0), 5]
BAD_CLI = [["oracle", "3,1", "1,-1", "--q", "4"], ["coeff", "iota", "--at", "3,0,0"],
           ["mul", "strip(3,0,0..1: 0)", "iota"]]


def reps_calls():
    """Yield the argv of every `hecke2d reps --count-only` call of the corpus."""
    for a in (1, 2):
        for i in range(-5, 6):
            for q in (2, 3, 4, 5, 17):
                yield ["reps", str(a), str(i), "--q", str(q), "--count-only"]


def refusals():
    """Yield (entry point, input, outcome) for the grid and the CLI calls.

    chi and eta_matrix take the three-entry labels as arguments, and
    enumerate_reps those that vary the sheet or the index; the outcome is the
    exception's class and text, or "accepted".
    """
    one, triples = (1, 0, 0), BAD_LABELS[:8]
    calls = {
        "chi": (lambda x: chi(*x), triples),
        "mul_basis-left": (lambda x: mul_basis(x, one), BAD_LABELS),
        "mul_basis-right": (lambda x: mul_basis(one, x), BAD_LABELS),
        "coeff_of_product": (lambda x: coeff_of_product(chi(*one), chi(*one), x), BAD_LABELS),
        "eta_matrix": (lambda x: eta_matrix(*x, 2), triples),
        "counted_product-left": (lambda x: counted_product(x, one), BAD_LABELS),
        "counted_product-right": (lambda x: counted_product(one, x), BAD_LABELS),
        "product_counts-left": (lambda x: product_counts(x, one, 2), BAD_LABELS),
        "product_counts-right": (lambda x: product_counts(one, x, 2), BAD_LABELS),
        "enumerate_reps": (lambda x: enumerate_reps(x[0], x[1], 2), BAD_LABELS[:6]),
    }
    for name, (call, inputs) in calls.items():
        for x in inputs:
            try:
                call(x)
                outcome = "accepted"
            except Exception as err:  # the class is the record
                outcome = f"{type(err).__name__}: {err}"
            yield name, repr(x), outcome
    for argv in BAD_CLI:
        code, _, err = _run_cli(argv)
        yield "cli", " ".join(argv), f"exit {code}: {err}"


EVAL_POINTS = [0, 1, -1, *range(2, 10), Fraction(1, 3), Fraction(-2, 5), Fraction(9, 4)]


def eval_coeffs():
    """Yield 400 seeded scalars s^k * num/den, every other one with even powers of s only."""
    rng = random.Random(25)
    for t in range(400):
        k = rng.randrange(-6, 7)
        num = [rng.randrange(-4, 5) for _ in range(rng.randrange(0, 5))]
        den = [rng.randrange(-4, 5) for _ in range(rng.randrange(0, 4))] + [rng.choice([-3, -1, 1, 2])]
        if t % 2:  # a polynomial in q = s^2
            k, num, den = 2 * k, [c for x in num for c in (x, 0)], [c for x in den for c in (x, 0)][:-1]
        yield Coeff((0,) * max(k, 0) + tuple(num), (0,) * max(-k, 0) + tuple(den))


def evals():
    """Yield (coefficient text, point, method, outcome) over the scalar grid."""
    for x in eval_coeffs():
        for point in EVAL_POINTS:
            for method in ("eval_at_q", "eval_at_s"):
                try:
                    value = getattr(x, method)(point)
                    outcome = f"{type(value).__name__} {value}"
                except Exception as err:  # the class is the record
                    outcome = f"{type(err).__name__}: {err}"
                yield str(x), str(point), method, outcome


BASIS_LABELS = [(a, i, j) for a in (1, 2) for i in range(-3, 4) for j in range(-2, 3)]
TARGETS = [(a, i, j) for a in (1, 2) for j in range(-4, 5) for i in range(-4, 5)]


def basis_lines():
    """Yield each basis-pair product's JSON line, then each pool pair's
    coefficients at the target grid, one text line per pair."""
    for x in BASIS_LABELS:
        for y in BASIS_LABELS:
            yield _line(mul_basis(x, y))
    atoms = [x for _, x in _atom_pool()]
    for x in atoms:
        for y in atoms:
            yield (" ".join(str(coeff_of_product(x, y, t)) for t in TARGETS) + "\n").encode()


#: the argv of each call of tests/test_cli.py's usage table
CLI_TABLE = [[], ["-h"], ["--nope"], ["frob"], ["multiply"], ["--", "mul", "a", "b"],
             ["mul"], ["mul", "iota"], ["mul", "-phi1", "phi2"], ["mul", "phi2", "phi1", "extra"],
             ["classify", "[[1,0],[0,1]]", "--q", "2", "zz"], ["mul", "phi2", "phi1", "--bogus"],
             ["mul", "-h"], ["coeff", "phi2"], ["reps", "1", "x", "--q", "3"], ["reps", "1", "2"],
             ["mul", "phi2", "phi1", "--js"], ["reps", "1", "1", "--q", "2", "--count"],
             ["verify", "im_relations", "--se", "3"], ["coeff", "phi2*phi2", "--at=2,3,-2"],
             ["reps", "1", "-2", "--q", "3", "--count-only"], ["mul", "--", "-phi1", "phi2"]]


def cli_calls():
    """Yield [argv, exit code, stdout, stderr] for each call of CLI_TABLE."""
    os.environ["COLUMNS"] = "80"  # argparse wraps help at the terminal's width
    for argv in CLI_TABLE:
        yield [argv, *_run_cli(argv)]


README = Path(__file__).resolve().parent.parent / "README.md"
#: the text layer's token pattern, matched here: its tokenizer is internal and may differ
#: between the two checkouts compared
TOKEN_RE = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|\.\.|[-+*/^(),:\[\]]|\S")
READERS = {
    "parse_element": lambda s: format_element(parse_element(s)),
    "parse_scalar": lambda s: str(parse_scalar(s)),
    "parse_matrix": lambda s: format_matrix(parse_matrix(s, 3)),
}


def text_inputs():
    """Yield every input of the `text:` line, in a fixed order."""
    lines = [ln for ln in README.read_text().splitlines() if ln.startswith("hecke2d ")]
    readme = [arg for ln in lines for arg in re.findall(r"'([^']*)'", ln)]
    yield from readme
    atoms = [x for _, x in _atom_pool()]
    products = [mul(x, y) for x in atoms for y in atoms]
    yield from (format_element(p) for p in products)
    scalars = {}
    for p in products:
        for row in element_to_json(p)["rows"]:
            for strip in row["strips"]:
                for term in strip["terms"]:
                    scalars.update(dict.fromkeys(term["poly"]))
    yield from scalars
    for arg in readme:
        for match in TOKEN_RE.finditer(arg):
            yield arg[: match.start()] + arg[match.end():]


def readings():
    """Yield (entry point, input, outcome) for every reader on every input."""
    for s in text_inputs():
        for name, read in READERS.items():
            try:
                outcome = read(s)
            except Exception as err:  # the class is the record
                outcome = f"{type(err).__name__}: {err}"
            yield name, s, outcome


def _run_cli(argv: list) -> tuple:
    """(exit code, standard output, standard error) of `hecke2d argv`, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse ends usage errors and help this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _line(x) -> bytes:
    return json.dumps(element_to_json(x), sort_keys=True).encode() + b"\n"


def _tabbed(record) -> bytes:
    return ("\t".join(record) + "\n").encode()


def _tally(records, noun: str) -> tuple[str, str]:
    """The count and the sha256 of a section's records, each a bytes string."""
    digest, n = hashlib.sha256(), 0
    for record in records:
        digest.update(record)
        n += 1
    return f"{n} {noun}", digest.hexdigest()


def identity_assoc() -> tuple[str, str]:
    report = run_suite("identity_assoc")
    digest = hashlib.sha256(report.text().encode()).hexdigest()
    return f"{report.cases} cases, {len(report.failures)} failures", digest


#: each output line's name and the call that gives its count and sha256, in print order
SECTIONS = {
    **{str(p): lambda p=p: _tally(map(_line, corpus(p)), "products") for p in PERTURBATIONS},
    "identity_assoc": identity_assoc,
    "sums": lambda: _tally(map(_line, sums()), "sums"),
    "oracle": lambda: _tally(
        (f"{c}\n{out}".encode() for c, out, _ in map(_run_cli, oracle_calls())), "calls"),
    "refusals": lambda: _tally(map(_tabbed, refusals()), "cases"),
    "evals": lambda: _tally(map(_tabbed, evals()), "cases"),
    "basis": lambda: _tally(basis_lines(), "lines"),
    "reps": lambda: _tally(
        (f"{c}\n{out}\n{err}".encode() for c, out, err in map(_run_cli, reps_calls())), "calls"),
    "text": lambda: _tally(map(_tabbed, readings()), "cases"),
    "cli": lambda: _tally(((json.dumps(record) + "\n").encode() for record in cli_calls()), "calls"),
}


def main() -> None:
    for name, section in SECTIONS.items():
        start = time.perf_counter()
        counts, digest = section()
        print(f"{name}: {counts}, sha256 {digest}")
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
