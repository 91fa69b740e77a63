"""Basis elements, convolution, and infinite tails
==================================================

An element is a finite set of rows indexed by (sheet, level).  A row at
level zero has finite support; away from level zero a row may also carry
one ray, a series infinite in one direction whose coefficients are an
exponential polynomial in the row index m.  This script multiplies a few
elements and shows where the infinite tails come from.
"""

import json

from hecke2d import BasisIndex, chi, coefficient_at, element_to_json, iota, mul, phi
from hecke2d.text import format_element
from hecke2d.coeff import Q


def show(label, x):
    print(f"{label}:\n  {format_element(x, 'text')}")


# chi(a, i, j) is the characteristic function of one double coset; iota()
# is the unit, q times the identity coset.
show("iota()", iota())
show("chi(1,1,0) * chi(1,-1,0)", mul(chi(1, 1, 0), chi(1, -1, 0)))

# Sheet-two squares already spread over several cosets; the finite part of
# a row prints as one chi term per nonzero coefficient.
show("chi(2,1,0)^2", mul(chi(2, 1, 0), chi(2, 1, 0)))

# Away from level zero, products grow infinite tails in one direction.
# Levels add, and the tail is bounded on the side the level sign dictates.
t = mul(phi(2), phi(2))
show("phi(2)^2", t)
print("  levels:", t.levels())

# Individual coefficients of a tail follow the printed exponential law.
for m in (1, 2, 5):
    c = coefficient_at(t, BasisIndex(2, m, -2).key, m)
    print(f"  coefficient at (2,{m},-2): {c}")

# Scalar combinations stay exact.  Every row is kept in one normal form, so
# equal elements have equal rows: equality is structural, and elements hash.
x = chi(1, 0, 0).scale(Q) + chi(1, 1, 0) - chi(1, 1, 0)
print("\nq*chi(1,0,0) == iota():", x == iota(), hash(x) == hash(iota()))

# Elements serialize to JSON and back; infinite bounds are spelled out.
print("\nJSON of phi(2)^2:")
print(" ", json.dumps(element_to_json(t)))
