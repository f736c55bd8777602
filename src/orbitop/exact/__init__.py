"""Exact scalar and matrix arithmetic: rationals, cyclotomics, kernels, SNF."""

from fractions import Fraction

from .cyclotomic import Cyclotomic, cyclotomic_polynomial, totient
from .matrix import MAX_DIM, Matrix
from .snf import SmithDecomposition, snf

__all__ = [
    "Cyclotomic",
    "Fraction",
    "MAX_DIM",
    "Matrix",
    "SmithDecomposition",
    "cyclotomic_polynomial",
    "snf",
    "totient",
]
