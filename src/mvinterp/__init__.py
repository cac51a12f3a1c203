"""Multivariate polynomial interpolation on constructed generic node sets.

The package builds node sets that are generic by construction (no Vandermonde
trial-and-error), solves the interpolation problem by a recursive split into
one-dimensional and degree-one sub-problems, and ships dense LU/inversion
baselines plus a benchmark CLI for accuracy, conditioning, and runtime scaling.
"""

from .monomials import build_order, count_degree, count_total
from .polynomial import MultiPoly, embed_univariate, evaluate, mul_linear

__all__ = [
    "MultiPoly",
    "build_order",
    "count_degree",
    "count_total",
    "embed_univariate",
    "evaluate",
    "mul_linear",
]
