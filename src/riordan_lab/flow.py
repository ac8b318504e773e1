"""One-parameter flow of a Bell-subgroup pair (g, xg).

The binomial power sum_n binom(phi, n) (M - I)^n interpolates the integer
powers of the pair matrix M; its column 0 is a series g^(phi) with
g^(0) = 1 and g^(1) = g.  The matrix logarithm of M concentrates all the
information in a single generator series b: log M has entry
(m+1) * b_{n-m-1} in row n, column m, with b_0 = g_1 and

    g(x)^2 * b(x*g(x)) = b(x) * (x*g(x))'.

From b one rebuilds the whole flow triangle L, whose column n is
(1/n!) (log M)^n applied to (1, 0, 0, ...) and whose row n, read as a
polynomial c_n, gives [x^n] g^(phi) = c_n(phi).  The pair is a
pseudo-involution exactly when b is even, equivalently when c_2n is even
and c_{2n+1} is odd.

M is the substitution matrix of x*g with its row 0 and column 0 dropped,
so the Bell flow is the substitution flow of :mod:`riordan_lab.alphabeta`
reindexed: b = omega/x^2, g^(phi) = (x*g)^(phi)/x, L is the flow triangle
of omega and c_n is ``composition_poly`` of x*g at n + 1.  Production reads
the generator and the powers from one streamed column and L from
``alphabeta.flow_triangle``; the composition sums (``c_poly_formula``,
``c_beta_poly_formula``, both ``alphabeta.s_omega_poly``) give the rows in
closed form.  The dense logarithm and binomial power of M, and the claims
they check, live in :mod:`riordan_lab.verify`.
"""

from .alphabeta import (flow_triangle, log_generator, s_omega_poly,
                        substitution_power)
from .errors import BadArgument, BadConstantTerm, InsufficientOrder
from .riordan import TriMatrix
from .series import Coeff, Poly, Series


def _require_unit_constant(g: Series) -> None:
    if g.constant != 1:
        raise BadConstantTerm("flow is defined for g with constant term 1")


def bell_log_generator(g: Series) -> Series:
    """The series b generating the matrix logarithm of (g, xg).

    Column 0 of the logarithm, where b_k sits in row k + 1: the generator
    omega of the substitution flow of x*g, divided by x^2.
    """
    _require_unit_constant(g)
    if g.order == 0:
        return Series.zero(0)
    return log_generator(g.x_mul(1)).div_x(2)


def l_matrix(g: Series, size: int) -> TriMatrix:
    """Flow triangle of g: the substitution flow triangle of x*g, whose
    generator reads g only through x^(size-1)."""
    if g.order < size - 1:
        raise InsufficientOrder("need g through order %d" % (size - 1))
    _require_unit_constant(g)
    xg = g.truncate(max(size - 1, 0)).x_mul(1)
    return flow_triangle(log_generator(xg), size)


def bell_power_series(g: Series, phi: Coeff, order: int | None = None) -> Series:
    """g^(phi): column 0 of the binomial power of the pair matrix, read as
    the substitution power (x*g)^(phi) divided by x."""
    _require_unit_constant(g)
    if order is None:
        order = g.order
    if order == 0:
        return Series.one(0)  # the 1x1 binomial power is the identity
    return substitution_power(g.x_mul(1), phi, order + 1).div_x(1)


def c_poly(g: Series, n: int, param: str = "phi") -> Poly:
    """Composition polynomial c_n: row n of the flow triangle."""
    mat = l_matrix(g, n + 1)
    return Poly(param, list(mat.rows[n]))


def c_poly_formula(b_fun: Series, n: int, param: str = "phi") -> Poly:
    """c_n from the generator, as a sum over compositions of n:

    the phi^m / m! coefficient is
    sum b_{i_1 - 1} ... b_{i_m - 1} (1 + i_1)(1 + i_1 + i_2) ...
    (1 + i_1 + ... + i_{m-1}).
    """
    return c_beta_poly_formula(b_fun, n, 1, param)


def c_beta_poly_formula(b_fun: Series, n: int, beta: Coeff,
                        param: str = "phi") -> Poly:
    """c_n(beta, phi) = [x^n] (g^(phi))^beta for a rational beta, the prefix
    products starting from beta instead of 1: ``s_omega_poly`` of the
    generator at z = beta, t = phi."""
    if n < 0:
        raise BadArgument("coefficient index n must be nonnegative, got %d" % n)
    if isinstance(beta, Poly):
        raise BadArgument("beta must be rational, got the polynomial %s" % beta)
    if b_fun.order < n - 1:
        raise InsufficientOrder("need %d generator coefficients" % n)
    return s_omega_poly([b_fun.coeff(k) for k in range(n)], n, beta,
                        Poly.var(param))
