"""Counting cosets over a finite residue field
==============================================

The convolution table can be checked without trusting it: realize the
group over F_q((t1))((t2)) with truncated Laurent entries, enumerate
left-coset representatives at level zero, and count which products land
where.  The coset multiplicities are polynomials in q, so the counted
product must equal the table's as an element, exactly in q; at a chosen
prime its coefficients are rational numbers.
"""

from hecke2d import BasisIndex, chi, classify, mul, product_counts, valuation
from hecke2d.oracle import counted_product, enumerate_reps, eta_matrix, in_iwahori
from hecke2d.text import format_element, parse_matrix

q = 3

# Field elements are truncated two-variable Laurent series; the valuation
# is lexicographic with the outer variable dominant.
x = parse_matrix("[[t1*t2,0],[0,t1^-1*t2^-1]]", q)
print("entry valuations:", [valuation(e) for e in x.entries()])
print("classify:", tuple(classify(x)))

# Off-diagonal representatives land on sheet two, including ones written
# with negated entries.
w = parse_matrix("[[0,t2],[-t2^-1,0]]", q)
print("antidiagonal classifies to:", tuple(classify(w)))

# At level zero the coset space is finite and small enough to list.  The
# count grows like q^(2|i|), with one extra factor of q on sheet two.
for a, i in [(1, 0), (1, 1), (2, 0), (2, 1)]:
    reps = enumerate_reps(a, i, q)
    print(f"reps({a},{i}): {len(reps)}")

# Every representative classifies back into its home coset, and the
# standard one is Iwahori exactly for the identity label.
assert all(classify(r) == BasisIndex(1, 1, 0) for r in enumerate_reps(1, 1, q))
print("eta(1,0,0) in Iwahori:", in_iwahori(eta_matrix(1, 0, 0, q)))
print("eta(2,0,0) in Iwahori:", in_iwahori(eta_matrix(2, 0, 0, q)))

# The point of it all: count a product and compare it with the table,
# exactly in q.  product_counts reads the same memoised count, free of q,
# and evaluates its polynomials at one prime.
left, right = BasisIndex(1, 1, 0), BasisIndex(1, -1, 0)
counted = counted_product(left, right)
table = mul(chi(*left), chi(*right))
assert counted == table
print(f"\nchi{tuple(left)} * chi{tuple(right)} by counting, equal to the table exactly in q:")
print(f"  {format_element(counted)}")
print(f"values at q={q}:")
for target, fraction in product_counts(left, right, q).items():
    exact = counted.coefficient_at(target.key, target.i)
    print(f"  {tuple(target)}: {exact} = {exact.eval_at_q(q)}, counted at q={q}: {fraction}")
