"""B-sequences of pseudo-involutions and the expansion of g in terms of B.

The central objects: a series g with g(0) = 1 such that the array (f, xg) is
a pseudo-involution, its B-sequence (the unique B with
``g = 1 + x*g*B(x^2*g)``), the square-root decomposition
(1, xg) = (1, x*sqrt(g)) (1, xh) with h(x)*h(-x) = 1, and the closed-form
coefficient expansion of the one-parameter family g obtained by scaling B.

``g_from_b`` is the workhorse oracle: it solves the defining functional
equation coefficient by coefficient, so every closed-form claim elsewhere can
be checked against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .combinat import odd_partitions, weight_sum
from .errors import BadArgument, InsufficientOrder, NotPseudoInvolution
from .riordan import RiordanPair
from .series import Coeff, Poly, Series, _dot, falling_factorial

__all__ = [
    "g_from_b",
    "b_from_g",
    "SqrtDecomposition",
    "sqrt_decompose",
    "b_expansion",
    "b_expansion_monomials",
    "arcsinh_row_poly",
    "example6_series",
    "example6_b_pair",
    "lucas_pair",
    "fibonacci_pair",
]


def g_from_b(b_fun: Series, phi: Coeff, order: int) -> Series:
    """Solve g = 1 + x*g*(phi*B)(x^2*g) for g, truncated at ``order``.

    Expanding the right side gives

        g_n = sum_k phi*b_k * [x^(n-1-2k)] g^(k+1),

    which reads only coefficients below n.  The coefficient lists of the
    powers g^2 .. g^(K+1), with K the last index where phi*b_k != 0 and
    2k+1 <= order, grow by one coefficient each per step, so the solve
    costs O(K * order^2) coefficient products: O(order^3) at worst, and
    O(order) for a constant B.  It never builds powers of B, so it stays
    the independent oracle the closed-form expansions and the composition
    triangle are tested against.
    """
    need = (order - 1) // 2
    if b_fun.order < need:
        raise InsufficientOrder(
            "B carries %d coefficients, need %d for order %d"
            % (b_fun.order + 1, need + 1, order))
    pb = [b_fun.coeff(k) * phi for k in range(need + 1)]
    while pb and pb[-1] == 0:
        pb.pop()
    g: list[Coeff] = [1]
    # powers[p] lists the known coefficients of g^p; powers[1] is g itself
    powers: list[list[Coeff]] = [[], g] + [[] for _ in range(len(pb) - 1)]
    for n in range(1, order + 1):
        m = min(len(pb), (n + 1) // 2)
        # the new coefficient x^(n-2p+1) of each g^p that step n reads
        for p in range(2, m + 1):
            i = n - 2 * p + 1
            powers[p].append(_dot(g[:i + 1], powers[p - 1][i::-1], skip=""))
        g.append(_dot(pb[:m], [powers[k + 1][n - 1 - 2 * k] for k in range(m)],
                      skip="x"))
    return Series(g, order)


def b_from_g(g: Series) -> Series:
    """Extract the B-sequence of g, i.e. the unique B with g = 1 + x*g*B(x^2*g).

    Raises :class:`NotPseudoInvolution` when no such B exists (the functional
    equation is overdetermined: every second coefficient is a consistency
    condition, and all of them are checked).  b_k is the coefficient of
    x^(2k+1) left once the terms b_j * x^(2j+1) * g^(j+1), j < k, are
    subtracted from g - 1; one running product walks those terms, one
    series product per coefficient after the first.
    """
    if g.constant != 1:
        raise NotPseudoInvolution("g(0) must be 1, got %r" % (g.constant,))
    n = g.order
    if n < 1:
        raise InsufficientOrder("need at least order 1 to extract a B-sequence")
    kmax = (n - 1) // 2
    term = g.x_mul(1).truncate(n)        # x^(2k+1) * g^(k+1), from k = 0
    step = g.x_mul(2).truncate(n)
    residual = g - 1
    bs: list[Coeff] = []
    for k in range(kmax + 1):
        c = residual.coeff(2 * k + 1)
        bs.append(c)
        if c != 0:
            residual = residual - term * c
        if k < kmax:
            term = term * step
    if not residual.is_zero():
        bad = residual.valuation()
        raise NotPseudoInvolution(
            "no B-sequence: functional equation fails first at x^%d" % bad)
    return Series(bs, kmax)


# ─────────────────────────────────────────────────────────────────────────────
# Square-root decomposition (1, xg) = (1, x*sqrt(g)) (1, xh)
# ─────────────────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class SqrtDecomposition:
    """Factorization data: g = sqrt_g**2, h = sqrt_g(revert(x*sqrt_g)),
    and s = (h - 1/h)/2, which is odd exactly for pseudo-involutions.

    h is computed as the reciprocal x/revert(x*sqrt_g), the same series
    (see ``sqrt_decompose``)."""

    sqrt_g: Series
    h: Series
    s: Series

    @property
    def b_fun(self) -> Series:
        """B recovered through x*B(x^2) = 2*s(x)."""
        kmax = (self.s.order - 1) // 2
        return Series([2 * self.s.coeff(2 * k + 1) for k in range(kmax + 1)], kmax)


def sqrt_decompose(g: Series) -> SqrtDecomposition:
    """Split (1, xg) into the Bell square root (1, x*sqrt(g)) and its
    cofactor (1, xh); requires the input to be a pseudo-involution.

    With r = sqrt(g) and wbar the reversion of x*r, wbar*r(wbar) = x, so
    h = r(wbar) is the reciprocal of hinv = wbar/x and s = (h - hinv)/2:
    one reversion and one reciprocal, no composition.
    """
    r = g.sqrt()
    hinv = r.x_mul(1).revert().div_x(1)
    h = hinv.inverse()
    h = Series((r.constant,) + h.coeffs[1:], h.order)   # h(0) = r(0), the int 1
    s = (h - hinv) / 2
    for m in range(0, s.order + 1, 2):
        if s.coeff(m) != 0:
            raise NotPseudoInvolution(
                "even coefficient x^%d of s is %r, expected 0" % (m, s.coeff(m)))
    return SqrtDecomposition(sqrt_g=r, h=h, s=s)


# ─────────────────────────────────────────────────────────────────────────────
# Closed-form expansion of g in the B coefficients
# ─────────────────────────────────────────────────────────────────────────────

def b_expansion(b_fun: Series, n: int, param: str = "phi") -> Poly:
    """[x^n] g^phi, g the phi = 1 member of B, as a polynomial in phi, by
    the paper's closed form (the claim under test;
    ``bcomp.b_expansion_rows`` computes the same rows from B-powers).

    Summed over the part counts q of the partitions of n into odd parts:

        phi * (phi+k-1)*(phi+k-2)*...*(phi+k-q+1) * W_2(n, q),  k = (n+q)/2,

    with W_2(n, q) = sum over those partitions of prod_i b_i^(m_i) / m_i!,
    part 2i+1 occurring m_i times (``combinat.weight_sum`` at step 2).
    B must have rational coefficients.
    """
    if any(isinstance(c, Poly) for c in b_fun.coeffs):
        raise BadArgument("B must have rational coefficients")
    if n == 0:
        return Poly.const(param, 1)
    p = (n - 1) // 2
    if b_fun.order < p:
        raise InsufficientOrder("need %d B coefficients, have %d" % (p + 1, b_fun.order + 1))
    phi = Poly.var(param)
    total = Poly(param)
    for q in range(2 - n % 2, n + 1, 2):
        weight = weight_sum(b_fun, n, q, 2)
        if weight != 0:
            k = (n + q) // 2
            total = total + phi * falling_factorial(phi + (k - 1), q - 1) * weight
    return total


def b_expansion_monomials(n: int) -> dict[tuple[int, ...], Fraction]:
    """The expansion of [x^n] g at scaling 1, kept symbolic in the B
    coefficients: maps multiplicity tuples (m_0, m_1, ...) of odd partitions
    to the rational coefficient of prod(b_i**m_i)."""
    if n == 0:
        return {(): Fraction(1)}
    out: dict[tuple[int, ...], Fraction] = {}
    for part in odd_partitions(n):
        denom = 1
        for m in part.mults:
            denom *= factorial(m)
        out[part.mults] = Fraction(falling_factorial(part.k, part.q - 1), denom)
    return out


def arcsinh_row_poly(q: int, param: str = "x") -> Poly:
    """Row q of the exponential array (1, log(x + sqrt(1+x^2))):
    the closed product x * (x+q-2) * (x+q-4) * ... * (x-q+2)."""
    if q < 0:
        raise BadArgument("row index q must be nonnegative, got %d" % q)
    if q == 0:
        return Poly.const(param, 1)
    x = Poly.var(param)
    out = x
    for i in range(1, q):
        out = out * (x + (q - 2 * i))
    return out


# ─────────────────────────────────────────────────────────────────────────────
# The two-parameter worked family and its Lucas/Fibonacci companions
# ─────────────────────────────────────────────────────────────────────────────

def example6_series(m: int, order: int) -> Series:
    """g with coefficients (2m+1)/(2m+1+(m+1)n) * C(2m+1+(m+1)n, n)."""
    if m < 0:
        raise BadArgument("family index m must be nonnegative, got %d" % m)
    cs = []
    for n in range(order + 1):
        top = 2 * m + 1 + (m + 1) * n
        cs.append(Fraction((2 * m + 1) * comb(top, n), top))
    return Series(cs, order)


def example6_b_pair(order: int) -> RiordanPair:
    """((1+x)/(1-x)^2, x/(1-x)^2): row m is the B-sequence of
    ``example6_series(m)``."""
    inv2 = Series([1, -1], order) ** (-2)
    return RiordanPair(Series([1, 1], order) * inv2, inv2)


def lucas_pair(order: int) -> RiordanPair:
    """((1+x^2)/(1-x^2), x/(1-x^2)): rows are Lucas polynomials."""
    inv = Series([1, 0, -1], order).inverse()
    return RiordanPair(Series([1, 0, 1], order) * inv, inv)


def fibonacci_pair(order: int) -> RiordanPair:
    """(1/(1-x^2), x/(1-x^2)): row n is the Fibonacci polynomial F_{n+1}."""
    inv = Series([1, 0, -1], order).inverse()
    return RiordanPair(inv, inv)
