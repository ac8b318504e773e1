"""Exact arithmetic for Riordan-group pseudo-involutions.

Truncated power series and polynomials over the rationals (`series`),
lower-triangular pair matrices (`riordan`), the weight-series fixed point
g = 1 + x g B(x^2 g) with its square-root factorization and coefficient
expansion (`pseudo`), composition triangles and their closed-form families
(`bcomp`), the logarithm of the one-parameter flow (`flow`), ascending and
descending infinite-product factorizations (`alphabeta`), stored fixture
triangles (`fixtures`), regression suites (`verify`) and a command-line
front end (`cli`).

Everything is computed with ``fractions.Fraction``; no floats, ever.
"""

from .errors import (BadArgument, BadConstantTerm, InsufficientOrder,
                     NonzeroConstant, NotNormalized, NotPseudoInvolution,
                     NotReversible, ParseError, RiordanError)
from .exprs import parse, series_from_text, to_text
from .pseudo import (b_expansion, b_from_g, g_from_b, sqrt_decompose,
                     SqrtDecomposition)
from .riordan import RiordanPair, TriMatrix
from .series import Poly, Series

__version__ = "0.1.0"

__all__ = [
    "BadArgument", "BadConstantTerm", "InsufficientOrder", "NonzeroConstant",
    "NotNormalized", "NotPseudoInvolution", "NotReversible", "ParseError",
    "RiordanError", "Poly", "Series", "RiordanPair", "TriMatrix",
    "SqrtDecomposition", "b_expansion", "b_from_g", "g_from_b",
    "sqrt_decompose", "parse", "series_from_text", "to_text", "__version__",
]
