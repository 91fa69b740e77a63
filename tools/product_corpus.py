"""Print one sha256 over a fixed corpus of products, to compare two checkouts.

The corpus is every ordered pair of the identity_assoc atom pool (58 atoms)
under each perturbation, each distinct nonzero pair product (unperturbed) times
every atom on both sides, and theta_monomial(i, j) for i in -4..3, j in -3..3.
Each product adds its element_to_json text, keys sorted, to the digest, so two
checkouts that print the same digest gave byte-identical products.

    python3 tools/product_corpus.py

Standard library only; it imports hecke2d from this checkout's src/.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hecke2d import element_to_json, mul, theta_monomial  # noqa: E402
from hecke2d.product import PERTURBATIONS  # noqa: E402
from hecke2d.suites import _atom_pool  # noqa: E402


def corpus():
    """Yield every product of the corpus, in a fixed order."""
    atoms = [x for _, x in _atom_pool()]
    distinct = {}
    for p in PERTURBATIONS:
        for x in atoms:
            for y in atoms:
                prod = mul(x, y, perturbation=p)
                if p is None and prod:
                    distinct.setdefault(prod, None)
                yield prod
    for prod in distinct:
        for atom in atoms:
            yield mul(prod, atom)
            yield mul(atom, prod)
    for i in range(-4, 4):
        for j in range(-3, 4):
            yield theta_monomial(i, j)


def main() -> None:
    start = time.perf_counter()
    digest = hashlib.sha256()
    count = 0
    for prod in corpus():
        digest.update(json.dumps(element_to_json(prod), sort_keys=True).encode() + b"\n")
        count += 1
    print(f"{count} products in {time.perf_counter() - start:.1f} s")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
