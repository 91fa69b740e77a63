"""Exact kernel for the Iwahori-Hecke algebra of SL2 over a two-dimensional local field.

Elements are finite collections of rows, one per (sheet, level) pair, each row
a locally finite series of basis characteristic functions whose coefficients
are exponential polynomials in the row index over the field Q(s), q = s^2.
Products follow the closed convolution table; a counting oracle over finite
residue fields checks it independently, exactly in q, wherever the right
factor has level zero.
"""

from .coeff import Coeff, CoeffDivisionError, ParseError, PoleError, one_minus_qinv
from .element import (
    BasisIndex,
    ExpPolyTerm,
    HeckeElement,
    IndexPoly,
    RowKey,
    ShapeError,
    Strip,
    add,
    coefficient_at,
    element_from_json,
    element_to_json,
    equals,
    level_projection,
    scale,
    zero_element,
)
from .product import (
    CaseTableError,
    InfiniteSupportError,
    coeff_of_product,
    mul,
    mul_basis,
)
from .presets import (
    chi,
    iota,
    phi,
    preset,
    theta,
    theta_monomial,
    weyl_identity,
    weyl_mul,
    weyl_word,
)
from .oracle import (
    EnumerationError,
    FieldElem2,
    LocalFieldMatrix,
    classify,
    enumerate_reps,
    product_counts,
    valuation,
)
from .suites import Report, run_suite, SUITES

__all__ = [
    "Coeff",
    "CoeffDivisionError",
    "ParseError",
    "PoleError",
    "one_minus_qinv",
    "BasisIndex",
    "ExpPolyTerm",
    "HeckeElement",
    "IndexPoly",
    "RowKey",
    "ShapeError",
    "Strip",
    "add",
    "coefficient_at",
    "element_from_json",
    "element_to_json",
    "equals",
    "level_projection",
    "scale",
    "zero_element",
    "CaseTableError",
    "InfiniteSupportError",
    "coeff_of_product",
    "mul",
    "mul_basis",
    "chi",
    "iota",
    "phi",
    "preset",
    "theta",
    "theta_monomial",
    "weyl_identity",
    "weyl_mul",
    "weyl_word",
    "EnumerationError",
    "FieldElem2",
    "LocalFieldMatrix",
    "classify",
    "enumerate_reps",
    "product_counts",
    "valuation",
    "Report",
    "run_suite",
    "SUITES",
]
