"""Structural test suites, including one that fails
===================================================

run_suite() bundles the package's structural checks: oracle agreement,
commutation relations, subalgebra closure, and so on.  Most pass.  The
identity_assoc suite does not, and is not supposed to: the convolution
table implemented here is not associative, and the suite reports
reproducible witnesses rather than hiding them.
"""

from hecke2d import chi, mul, run_suite
from hecke2d.text import format_element

for name in ("table_oracle", "bernstein", "center", "weyl"):
    report = run_suite(name, index_bound=1, cases=60, seed=0)
    print(f"{name}: {report.cases} cases, {len(report.failures)} failures")

# The honest failure.  Identity checks all pass; a fifth of the fuzzed
# triples do not associate.
report = run_suite("identity_assoc", cases=40, seed=0)
print()
print(report.text(max_failures=3))

# The smallest witness, spelled out: regrouping the same three factors
# changes the answer.
x = y = chi(2, 1, 0)
z = chi(2, 0, -1)
print("\n(x*y)*z =", format_element(mul(mul(x, y), z), "text"))
print("x*(y*z) =", format_element(mul(x, mul(y, z)), "text"))
