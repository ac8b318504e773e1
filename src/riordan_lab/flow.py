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
``alphabeta.flow_triangle``; the dense logarithm and binomial power of M
(``bell_log_structure_check``, ``l_matrix_via_log_powers``,
``bell_power_matrix``) are the oracle for the entrywise claims, and the
composition sums (``c_poly_formula``, ``c_beta_poly_formula``, both
``alphabeta.s_omega_poly``) the oracle for the rows.
"""

from fractions import Fraction
from math import factorial
from typing import List

from .alphabeta import (flow_triangle, log_generator, s_omega_poly,
                        substitution_power)
from .errors import BadArgument, BadConstantTerm, InsufficientOrder
from .riordan import RiordanPair, TriMatrix
from .series import Coeff, Poly, Series


def _require_unit_constant(g: Series) -> None:
    if g.constant != 1:
        raise BadConstantTerm("flow is defined for g with constant term 1")


def _bell_matrix(g: Series, size: int) -> TriMatrix:
    _require_unit_constant(g)
    return RiordanPair(g, g).matrix(size)


def bell_log_generator(g: Series) -> Series:
    """The series b generating the matrix logarithm of (g, xg).

    Column 0 of the logarithm, where b_k sits in row k + 1: the generator
    omega of the substitution flow of x*g, divided by x^2.
    """
    _require_unit_constant(g)
    if g.order == 0:
        return Series.zero(0)
    return log_generator(g.x_mul(1)).div_x(2)


def bell_log_structure_check(g: Series) -> bool:
    """Every entry of log(g, xg) must equal (m+1) * b_{n-m-1}."""
    size = g.order + 1
    lg = _bell_matrix(g, size).log()
    b = [lg.entry(k + 1, 0) for k in range(size - 1)]
    for n in range(size):
        for m in range(n + 1):
            want = 0 if n == m else (m + 1) * b[n - m - 1]
            if lg.entry(n, m) != want:
                return False
    return True


def generator_equation_check(g: Series) -> bool:
    """The defining identity g^2 b(xg) = b * (xg)' for the log generator."""
    b = bell_log_generator(g)
    order = b.order
    xg = g.x_mul(1).truncate(order)
    lhs = g.truncate(order) * g.truncate(order) * b.zero_extended(order).compose(xg)
    rhs = b * g.x_mul(1).deriv().truncate(order)
    return lhs == rhs


def l_matrix(g: Series, size: int) -> TriMatrix:
    """Flow triangle of g: the substitution flow triangle of x*g, whose
    generator reads g only through x^(size-1)."""
    if g.order < size - 1:
        raise InsufficientOrder("need g through order %d" % (size - 1))
    _require_unit_constant(g)
    xg = g.truncate(max(size - 1, 0)).x_mul(1)
    return flow_triangle(log_generator(xg), size)


def l_matrix_via_log_powers(g: Series, size: int) -> TriMatrix:
    """Same triangle, built directly as columns (1/n!) (log M)^n e_0."""
    lg = _bell_matrix(g, size).log()
    cols: List[List[Coeff]] = []
    vec: List[Coeff] = [1] + [0] * (size - 1)
    cols.append(list(vec))
    for n in range(1, size):
        vec = [sum(lg.entry(i, j) * vec[j] for j in range(i + 1))
               for i in range(size)]
        cols.append([Fraction(1, factorial(n)) * v if v != 0 else 0
                     for v in vec])
    return TriMatrix([[cols[m][n] for m in range(n + 1)] for n in range(size)])


def bell_power_matrix(g: Series, phi: Coeff, size: int) -> TriMatrix:
    """The binomial power sum_n binom(phi, n) (M - I)^n of the pair matrix."""
    return _bell_matrix(g, size).pow_binomial(phi)


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


def flow_parity_check(g: Series, size: int) -> bool:
    """Pseudo-involution criterion on the flow triangle: row n of L keeps
    only powers of the same parity as n (c_2n even, c_{2n+1} odd)."""
    mat = l_matrix(g, size)
    for n in range(size):
        for m in range(n + 1):
            if (n - m) % 2 != 0 and mat.entry(n, m) != 0:
                return False
    return True


def power_matches_scaled_bfun(g: Series, phi: Fraction, upto: int) -> bool:
    """Empirical probe: does the flow member g^(phi) coincide with the member
    whose B-function is phi times the B-function of g?

    True for g solving g = 1 + x*g*B(x^2*g) with B geometric (the
    lattice-path case) and for the Pascal case B = 1; false for general B,
    so this is a check function rather than a theorem.
    """
    from .pseudo import b_from_g, g_from_b
    b = b_from_g(g.truncate(upto))
    lhs = bell_power_series(g, phi, upto)
    rhs = g_from_b(b, phi, upto)
    return lhs == rhs
