"""Exact scalar and matrix arithmetic: rationals, cyclotomics, kernels, SNF."""

from fractions import Fraction

from .cyclotomic import Cyclotomic, cyclotomic_polynomial, integer_coefficients, totient
from .matrix import MAX_DIM, Matrix, int_apply, int_product
from .snf import SmithDecomposition, snf

__all__ = [
    "Cyclotomic",
    "Fraction",
    "MAX_DIM",
    "Matrix",
    "SmithDecomposition",
    "cyclotomic_polynomial",
    "int_apply",
    "int_product",
    "integer_coefficients",
    "snf",
    "totient",
]
