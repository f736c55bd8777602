"""Exact scalar and matrix arithmetic: rationals, cyclotomics, kernels, SNF."""

from fractions import Fraction

from .cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    from_integer_coefficients,
    integer_coefficients,
    scale_coefficients,
    totient,
)
from .matrix import (
    MAX_DIM,
    Matrix,
    common_denominator,
    int_apply,
    int_det,
    int_echelon,
    int_kernel,
    int_product,
    zero_pairings,
)
from .snf import SmithDecomposition, snf

__all__ = [
    "Cyclotomic",
    "Fraction",
    "MAX_DIM",
    "Matrix",
    "SmithDecomposition",
    "common_denominator",
    "cyclotomic_polynomial",
    "from_integer_coefficients",
    "int_apply",
    "int_det",
    "int_echelon",
    "int_kernel",
    "int_product",
    "integer_coefficients",
    "scale_coefficients",
    "snf",
    "totient",
    "zero_pairings",
]
