"""Triangles of B-composition polynomials and their closed-form families.

A B-sequence b_0, b_1, ... determines a one-parameter family of power
series g[phi] through the fixed point g = 1 + x*g*(phi*B)(x^2 g).
Collecting the coefficient of x^n as a polynomial u_n(phi) and writing
its coefficients into a lower-triangular array gives the matrix ``<B>``
built here by :func:`u_matrix`.  The entry in row n, column m has the
closed form

    u_{n,m} = falling((n+m)/2, m-1) * W_2(n, m),

    W_2(n, m) = sum over partitions of n into m odd parts, part 2i+1
                occurring m_i times, of  prod_i b_i^{m_i} / m_i!,

which :func:`u_entry` implements directly through the weight sum
``combinat.weight_sum`` that ``pseudo.b_expansion`` and
:func:`exp_pair_entry_partitions` share.  The partition sum collapses to
the convolution values s_j(m) = [x^j] B(x)^m, the entries of the matrix
(1, xB(x)):

    u_{n,m} = falling((n+m)/2, m-1) / m! * s_{(n-m)/2}(m),

so :func:`u_matrix`, :func:`u_poly` and :func:`u_beta_poly` read every
entry off one table of truncated B-powers (:func:`b_powers`) through one
entry formula, in O(N^3) coefficient products.  ``u_entry`` stays as the
closed form that ``verify`` and the tests compare against, and the
fixed-point route in ``pseudo.g_from_b`` checks both.

Three families with closed forms are provided alongside the generic
machinery: the lattice-path matrix R for B = 1/(1-x) (whose rising
diagonals carry the Narayana polynomials), the family for B = 1 + x, and
the family for B = C(x) with C the Catalan series.  Row, column and
diagonal generating functions of these triangles, and the polynomial
ladders connecting them, are exposed as small check functions so each
printed identity can be tested coefficient by coefficient.
"""

from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Union

from .combinat import catalan_number, weight_sum
from .errors import BadArgument, InsufficientOrder
from .riordan import RiordanPair, TriMatrix, col_gf, diag_down_gf, diag_up_poly
from .series import Coeff, Poly, Series, falling_factorial

Scalar = Union[int, Fraction]


def _binom(top: int, k: int) -> int:
    # comb() with the usual "zero outside the triangle" convention
    if k < 0 or k > top or top < 0:
        return 0
    return comb(top, k)


# ---------------------------------------------------------------------------
# the generic triangle <B>
# ---------------------------------------------------------------------------

def u_entry(b_fun: Series, n: int, m: int) -> Coeff:
    """Entry (n, m) of the triangle of B-composition polynomials by the
    closed form falling((n+m)/2, m-1) * W_2(n, m), W_2 the weight sum over
    partitions of n into m odd parts (the claim under test; :func:`u_matrix`
    computes the same entries from B-powers)."""
    if n < 0 or m < 0:
        raise BadArgument("entry indices must be nonnegative, got (%d, %d)" % (n, m))
    if m > n:
        return 0
    if n == 0:
        return 1
    if m == 0 or (n - m) % 2 != 0:
        return 0
    if b_fun.order < (n - 1) // 2:
        raise InsufficientOrder(
            "need b-coefficients through index %d, have %d"
            % ((n - 1) // 2, b_fun.order))
    total = weight_sum(b_fun, n, m, 2)
    if total == 0:
        return 0
    return falling_factorial((n + m) // 2, m - 1) * total


def b_powers(b_fun: Series, top: int) -> List[Series]:
    """The powers B^0, B^1, ..., B^top, power m truncated to order
    (top - m) // 2.

    These are exactly the convolution values s_j(m) = [x^j] B^m that rows
    0..top of the triangle read, so one table serves a whole triangle.
    Building it costs O(top^3) coefficient products.
    """
    if top < 0:
        raise BadArgument("top row index must be nonnegative, got %d" % top)
    need = (top - 1) // 2
    if b_fun.order < need:
        raise InsufficientOrder(
            "need b-coefficients through index %d, have %d"
            % (need, b_fun.order))
    powers = [Series.one(top // 2)]
    for m in range(1, top + 1):
        k = (top - m) // 2
        powers.append(powers[-1].truncate(k) * b_fun.truncate(k))
    return powers


def _table_entry(powers: List[Series], n: int, m: int, beta: Coeff) -> Coeff:
    """Coefficient of phi^m in [x^n] (g[phi])^beta, m <= n, from a table of
    B-powers: beta * falling(beta + (n+m)/2 - 1, m-1) / m! * s_{(n-m)/2}(m).
    At beta = 1 it is entry (n, m) of the triangle."""
    if m == 0:
        return 1 if n == 0 else 0
    if (n - m) % 2 != 0:
        return 0
    s_val = powers[m].coeff((n - m) // 2)
    if s_val == 0:
        return 0
    term = beta * falling_factorial(beta + (n + m) // 2 - 1, m - 1)
    return term * Fraction(1, factorial(m)) * s_val


def u_poly(b_fun: Series, n: int, param: str = "x") -> Poly:
    """Row n of the triangle as a polynomial."""
    return u_beta_poly(b_fun, n, 1, param)


def u_matrix(b_fun: Series, size: int) -> TriMatrix:
    """First `size` rows of the triangle of B-composition polynomials,
    read off one table of B-powers."""
    if size < 1:
        raise BadArgument("need at least one row, got size %d" % size)
    powers = b_powers(b_fun, size - 1)
    return TriMatrix([[_table_entry(powers, n, m, 1) for m in range(n + 1)]
                      for n in range(size)])


def scale_entries(mat: TriMatrix, beta: Scalar) -> TriMatrix:
    """Entrywise beta^((n-m)/2) rescaling; matches replacing B(x) by B(beta*x)."""
    rows = []
    for n, row in enumerate(mat.rows):
        new = list(row)
        for m in range(n + 1):
            if new[m] != 0:
                if (n - m) % 2 != 0:
                    raise BadArgument("entry (%d, %d) breaks the parity pattern"
                                      % (n, m))
                new[m] = new[m] * beta ** ((n - m) // 2)
        rows.append(new)
    return TriMatrix(rows)


def u_beta_poly(b_fun: Series, n: int, beta: Coeff, param: str = "x") -> Poly:
    """Coefficient of x^n in (g[phi])^beta as a polynomial in phi.

    ``beta`` may be a number or a polynomial in some other parameter.  The
    coefficient of phi^m involves the convolution value s_j(m) = [x^j] B^m.
    """
    powers = b_powers(b_fun, n)
    return Poly(param, [_table_entry(powers, n, m, beta) for m in range(n + 1)])


def _times_linear(cs: List[int], a: int) -> List[int]:
    """Coefficients of (phi + a) * sum_j cs[j] phi^j."""
    return [a * c + prev for c, prev in zip(cs + [0], [0] + cs)]


def b_expansion_rows(b_fun: Series, top: int, param: str = "phi") -> List[Poly]:
    """[x^n] g^phi for n = 0..top as polynomials in phi, g the phi = 1
    member of B; the same polynomials as ``pseudo.b_expansion``.

    Row n is sum_q phi * falling(phi + k - 1, q - 1) / q! * s_{(n-q)/2}(q)
    with k = (n+q)/2.  The s values come from one table of B-powers, and
    each falling factorial from the previous one of its row:
    falling(phi + k, q + 1) = (phi + k) (phi + k - q) falling(phi + k - 1, q - 1),
    so all rows cost O(top^3) integer and coefficient products.
    """
    powers = b_powers(b_fun, top)
    rows = [Poly.const(param, 1)]
    for n in range(1, top + 1):
        total: List[Coeff] = [0] * (n + 1)
        # phi * falling(phi + k - 1, q - 1) at the row's first q (1 or 2)
        fall = [0, 1] if n % 2 else [0, n // 2, 1]
        for q in range(2 - n % 2, n + 1, 2):
            s_val = powers[q].coeff((n - q) // 2)
            if s_val != 0:
                w = Fraction(1, factorial(q)) * s_val
                for j, c in enumerate(fall):
                    total[j] = total[j] + c * w
            k = (n + q) // 2
            fall = _times_linear(_times_linear(fall, k), k - q)
        rows.append(Poly(param, total))
    return rows


def q_poly(g: Series, n: int, param: str = "z") -> Poly:
    """Convolution polynomial [x^n] g^z written through g's B-sequence."""
    from .pseudo import b_from_g
    return b_expansion_rows(b_from_g(g), n, param)[n]


def exp_pair_entry_partitions(b_fun: Series, n: int, m: int) -> Coeff:
    """Entry (n, m) of the exponential pair (1, x*B), n! * s_{n-m}(m) / m!,
    as n! * W_1(n, m): a sum over partitions of n into m parts, each part p
    contributing a factor b_{p-1}."""
    if not 0 <= m <= n:
        raise BadArgument("need 0 <= m <= n, got (%d, %d)" % (n, m))
    if n == 0:
        return 1
    return factorial(n) * weight_sum(b_fun, n, m, 1)


def theorem9_check(b_fun: Series, size: int) -> bool:
    """Down-diagonals of <B> against the exponential pair (1, x*B).

    For every 0 <= m <= n < size the entry of <B> in row 2n - m, column m,
    times (n - m + 1)!, must equal the exponential-pair entry (n, m),
    n!/m! * [x^(n-m)] B^m.  The pair's columns come from one running power
    of B, not from the power table behind <B>; B(0) may vanish, so the pair
    is not built as a ``RiordanPair``.
    """
    mat = u_matrix(b_fun, 2 * size - 1)
    power = Series.one(size - 1)                  # B^m
    for m in range(size):
        for n in range(m, size):
            lhs = mat.entry(2 * n - m, m) * factorial(n - m + 1)
            if lhs != Fraction(factorial(n), factorial(m)) * power.coeff(n - m):
                return False
        power = power * b_fun
    return True


def is_appell_bfun(b_fun: Series, size: int) -> bool:
    """Does stripping the first row and column of <B> leave a binomial
    (Appell-type) triangle binom(n, m) * b_{(n-m)/2}?"""
    mat = u_matrix(b_fun, size + 1)
    for n in range(size):
        for m in range(n + 1):
            want: Coeff = 0
            if (n - m) % 2 == 0:
                want = comb(n, m) * b_fun.coeff((n - m) // 2)
            if mat.entry(n + 1, m + 1) != want:
                return False
    return True


# ---------------------------------------------------------------------------
# B = 1/(1-x): the lattice-path matrix R and the Narayana ladder
# ---------------------------------------------------------------------------

def rna_series(phi: Coeff, order: int, beta: Scalar = 1) -> Series:
    """Closed form for the series solving g = 1 + x*g*phi/(1 - beta*x^2*g)."""
    if beta == 0:
        raise ZeroDivisionError("beta must be nonzero in the closed form")
    num = Series([1, (-1) * phi, beta], order + 2)
    rad = (num * num - Series([0, 0, 4 * beta], order + 2)).sqrt()
    return (num - rad).div_x(2) / (2 * beta)


def rna_row_poly(n: int, param: str = "x") -> Poly:
    """Row n of R in closed binomial form."""
    assert n >= 0
    if n == 0:
        return Poly(param, [1])
    coeffs: List[Coeff] = [0] * (n + 1)
    if n % 2 == 0:
        half = n // 2
        for m in range(1, half + 1):
            coeffs[2 * m] = Fraction(
                _binom(half + m, 2 * m - 1) * _binom(half + m, 2 * m),
                half + m)
    else:
        half = (n - 1) // 2
        for m in range(half + 1):
            coeffs[2 * m + 1] = Fraction(
                _binom(half + m + 1, 2 * m) * _binom(half + m + 1, 2 * m + 1),
                half + m + 1)
    return Poly(param, coeffs)


def rna_beta_row_poly(n: int, beta: Scalar, param: str = "x") -> Poly:
    """Row n for B = 1/(1 - beta*x): entrywise beta^((n-m)/2) rescaling."""
    base = rna_row_poly(n, param)
    coeffs = [base.coeff(m) for m in range(n + 1)]
    for m in range(n + 1):
        if coeffs[m] != 0:
            coeffs[m] = coeffs[m] * beta ** ((n - m) // 2)
    return Poly(param, coeffs)


def rna_power_coeff(beta: Coeff, n: int) -> Coeff:
    """[x^n] R^beta in closed binomial form, R the phi = 1 member for
    B = 1/(1-x)."""
    assert n >= 0
    if n == 0:
        return 1
    total: Coeff = 0
    if n % 2 == 0:
        k = n // 2
        for m in range(1, k + 1):
            term = beta * falling_factorial(beta + k + m - 1, 2 * m - 1)
            total = total + term * Fraction(_binom(k + m - 1, k - m),
                                            factorial(2 * m))
    else:
        k = (n - 1) // 2
        for m in range(k + 1):
            term = beta * falling_factorial(beta + k + m, 2 * m)
            total = total + term * Fraction(_binom(k + m, k - m),
                                            factorial(2 * m + 1))
    return total


def rna_column_check(n: int, order: int) -> bool:
    """Column n+1 of R has gf x^(n+1) Ntilde_n(x^2) / (1-x^2)^(2n+1), with
    Ntilde_n the Narayana polynomial divided by its zero root (Ntilde_0 = 1)."""
    assert n >= 0
    size = order + 1
    mat = u_matrix(Series.geometric(max(0, (size - 2) // 2), 1), size)
    lhs = col_gf(mat, n + 1)
    if n == 0:
        tilde = [Fraction(1)]
    else:
        npoly = narayana_poly(n)
        assert npoly.coeff(0) == 0
        tilde = [npoly.coeff(k + 1) for k in range(n)]
    stretched: List[Coeff] = [0] * (2 * len(tilde) - 1) if tilde else [0]
    for k, c in enumerate(tilde):
        stretched[2 * k] = c
    rhs = Series(stretched, order) * Series([1, 0, -1], order) ** (-(2 * n + 1))
    return lhs == rhs.x_mul(n + 1).truncate(order)


def rna_row_via_narayana_check(size: int) -> bool:
    """Rows of R read off Narayana-triangle entries:
    row 2n has N_{n+m, 2m} at position 2m, row 2n+1 has N_{n+m+1, 2m+1} at
    position 2m+1."""
    mat = u_matrix(Series.geometric(max(0, (size - 2) // 2), 1), size)
    nara = narayana_matrix(2 * size)
    for row in range(size):
        for col in range(row + 1):
            if (row - col) % 2 != 0:
                continue
            if row % 2 == 0:
                n, m = row // 2, col // 2
                want = nara.entry(n + m, 2 * m)
            else:
                n, m = (row - 1) // 2, (col - 1) // 2
                want = nara.entry(n + m + 1, 2 * m + 1)
            if mat.entry(row, col) != want:
                return False
    return True


def narayana_poly(n: int, param: str = "x") -> Poly:
    """Narayana polynomial: sum_m binom(n, m-1) binom(n, m) x^m / n."""
    assert n >= 0
    if n == 0:
        return Poly(param, [1])
    return Poly(param, [Fraction(_binom(n, m - 1) * _binom(n, m), n)
                        for m in range(n + 1)])


def narayana_matrix(size: int) -> TriMatrix:
    """Rows are the coefficients of the Narayana polynomials."""
    assert size >= 1
    return TriMatrix([[narayana_poly(n).coeff(m) for m in range(n + 1)]
                      for n in range(size)])


def narayana_gf_check(order: int) -> bool:
    """The closed form (1 + t(1-x) - sqrt(1 - 2t(1+x) + t^2 (1-x)^2)) / (2t)
    reproduces the Narayana polynomials as its t-coefficients, and those
    satisfy the equivalent quadratic t*N^2 - (1 + t(1-x))*N + 1 = 0."""
    x = Poly.var("x")
    rows = Series([narayana_poly(n) for n in range(order + 1)], order)
    inner = Series([1, -2 * (1 + x), (1 - x) ** 2], order + 2)
    num = Series([1, 1 - x], order + 2) - inner.sqrt()
    if (num.div_x(1) / 2).truncate(order) != rows:
        return False
    lhs = (rows * rows).x_mul(1).truncate(order)
    rhs = rows * Series([1, 1 - x], order) - 1
    return lhs == rhs


def theorem4_check(n: int, order: int) -> bool:
    """Column n+1 of the Narayana triangle has gf x^n N_n(x) / (1-x)^(2n+1)."""
    assert n >= 1
    mat = narayana_matrix(order + 1)
    lhs = col_gf(mat, n + 1)
    geom = Series.geometric(order, 1)
    rhs = Series.from_poly(narayana_poly(n), order) * geom ** (2 * n + 1)
    return lhs == rhs.x_mul(n).truncate(order)


def theorem5_check(n: int) -> bool:
    """The rising diagonal of R through row 2n is the Narayana polynomial."""
    size = 2 * n + 1
    b_geom = Series.geometric(max(0, (size - 2) // 2), 1)
    mat = u_matrix(b_geom, size)
    return diag_up_poly(mat, 2 * n) == narayana_poly(n)


# ---------------------------------------------------------------------------
# B = 1 + x
# ---------------------------------------------------------------------------

def one_plus_x_bfun(order: int) -> Series:
    """B(x) = 1 + x padded with genuine zeros to the requested order."""
    return Series([1, 1], max(1, order))


def one_plus_x_series(phi: Coeff, order: int) -> Series:
    """Closed form for the series solving g = 1 + x*g*phi*(1 + x^2*g)."""
    assert phi != 0, "the closed form needs phi nonzero"
    num = Series([1, (-1) * phi], order + 3)
    rad = (num * num - Series([0, 0, 0, 4 * phi], order + 3)).sqrt()
    return (num - rad).div_x(3) / (2 * phi)


def one_plus_x_entry(n: int, m: int) -> Coeff:
    """Closed form C_{(n-m)/2} * binom((n+m)/2, (3m-n)/2) for B = 1 + x."""
    assert n >= 0 and m >= 0
    if m > n:
        return 0
    if n == 0:
        return 1
    if m == 0 or (n - m) % 2 != 0:
        return 0
    return catalan_number((n - m) // 2) * _binom((n + m) // 2, (3 * m - n) // 2)


def one_plus_x_row_poly(n: int, param: str = "x") -> Poly:
    """Row n for B = 1 + x in closed binomial form."""
    assert n >= 0
    return Poly(param, [one_plus_x_entry(n, m) for m in range(n + 1)])


def one_plus_x_down_diag_check(n: int, order: int) -> bool:
    """Down-diagonal 2n of the B = 1+x triangle has gf C_n x^n / (1-x)^(2n+1),
    equivalently the entries C_n binom(n+m, m-n)."""
    assert n >= 0
    size = 2 * n + order + 1
    mat = u_matrix(one_plus_x_bfun((size - 2) // 2), size)
    lhs = diag_down_gf(mat, 2 * n)
    cn = catalan_number(n)
    rhs = (Series.geometric(order, 1) ** (2 * n + 1) * cn).x_mul(n)
    if lhs != rhs.truncate(order):
        return False
    for m in range(order + 1):
        if lhs.coeff(m) != cn * _binom(n + m, m - n):
            return False
    return True


def one_plus_x_up_diag_poly(n: int) -> Poly:
    """Rising diagonal through row 2n: sum_m C_{n-m} binom(n, 2m-n) x^m."""
    assert n >= 0
    return Poly("x", [catalan_number(n - m) * _binom(n, 2 * m - n)
                      for m in range(n + 1)])


def one_plus_x_column_series(m: int, order: int) -> Series:
    """Column m of the B = 1+x triangle in closed form:
    x^m * sum_j C_j binom(m+j, m-j) x^(2j)."""
    assert m >= 0
    coeffs: List[Coeff] = [0] * (order + 1)
    j = 0
    while m + 2 * j <= order:
        coeffs[m + 2 * j] = catalan_number(j) * _binom(m + j, m - j)
        j += 1
    return Series(coeffs, order)


def t_poly(n: int, param: str = "x") -> Poly:
    """T_n(x) = sum_m binom(n+1, m+1) binom(n+m+2, m) x^m / (n+1)."""
    assert n >= 0
    return Poly(param, [Fraction(_binom(n + 1, m + 1) * _binom(n + m + 2, m),
                                 n + 1)
                        for m in range(n + 1)])


def t_poly_gf_check(order: int) -> bool:
    """The closed form (1 - t(1+2x) - sqrt(1 - 2t(1+2x) + t^2)) / (2x(1+x)t^2)
    reproduces T_n as its t-coefficients; equivalently
    x(1+x) t^2 T^2 - (1 - t(1+2x)) T + 1 = 0."""
    x = Poly.var("x")
    rows = Series([t_poly(n) for n in range(order + 1)], order)
    inner = Series([1, -2 * (1 + 2 * x), 1], order + 2)
    num = Series([1, -(1 + 2 * x)], order + 2) - inner.sqrt()
    if num.div_x(2) != rows * (2 * x * (1 + x)):
        return False
    lhs = (rows * rows * (x * (1 + x))).x_mul(2).truncate(order)
    rhs = rows * Series([1, -(1 + 2 * x)], order) - 1
    return lhs == rhs


def t_from_narayana_check(n: int) -> bool:
    """T_n(x) = (1+x)^n * Ntilde_{n+1}(x/(1+x)) with Ntilde the Narayana
    polynomial divided by its zero root."""
    tilde = narayana_poly(n + 1)
    assert tilde.coeff(0) == 0
    one_plus = Poly("x", [1, 1])
    acc = Poly("x", ())
    power = Poly("x", [1])
    for k in range(n + 1):
        acc = acc + power * one_plus ** (n - k) * tilde.coeff(k + 1)
        power = power * Poly.var("x")
    return acc == t_poly(n)


def theorem6_check(n: int, order: int) -> bool:
    """Column n+1 of the B = 1+x triangle has gf x^(n+1) T_n(x^2) (1 + x^2)."""
    assert n >= 0
    size = order + 1
    mat = u_matrix(one_plus_x_bfun((size - 2) // 2), size)
    lhs = col_gf(mat, n + 1)
    stretched: List[Coeff] = [0] * (2 * n + 1)
    for k in range(n + 1):
        stretched[2 * k] = t_poly(n).coeff(k)
    rhs = Series(stretched, order) * Series([1, 0, 1], order)
    return lhs == rhs.x_mul(n + 1).truncate(order)


# ---------------------------------------------------------------------------
# B = C(x) (Catalan) and the interpolating triangle
# ---------------------------------------------------------------------------

def catalan_b_series(phi: Scalar, order: int) -> Series:
    """Closed form for the series solving g = 1 + x*g*phi*C(x^2 g)."""
    assert phi != 0, "the closed form needs phi nonzero"
    assert not isinstance(phi, Poly), "the closed form divides by phi"
    inv_phi = Fraction(1, phi) if isinstance(phi, int) else 1 / phi
    num = Series([1, 2 * inv_phi - phi], order + 1)
    rad = Series([1, -2 * phi, phi * phi - 4], order + 1).sqrt()
    return (num - rad).div_x(1) * phi / 2


def catalan_b_entry(n: int, m: int) -> Coeff:
    """Closed form C_{(n-m)/2} binom(n-1, m-1) for B = C(x)."""
    assert n >= 0 and m >= 0
    if m > n:
        return 0
    if n == 0:
        return 1
    if m == 0 or (n - m) % 2 != 0:
        return 0
    return catalan_number((n - m) // 2) * _binom(n - 1, m - 1)


def catalan_b_row_poly(n: int, param: str = "x") -> Poly:
    """Row n for B = C(x) in closed binomial form."""
    assert n >= 0
    return Poly(param, [catalan_b_entry(n, m) for m in range(n + 1)])


def down_diag_supposition_check(n: int, order: int) -> bool:
    """Observed relation between down-diagonals: diagonal 2n of the B = C
    triangle times x^(n-1) matches diagonal 2n of the B = 1+x triangle
    (n >= 1)."""
    assert n >= 1
    size = 3 * n + order
    mat_c = u_matrix(Series.catalan(max(0, (size - 2) // 2)), size)
    mat_1 = u_matrix(one_plus_x_bfun((size - 2) // 2), size)
    d_c = diag_down_gf(mat_c, 2 * n)
    d_1 = diag_down_gf(mat_1, 2 * n)
    for i in range(n - 1):
        if d_1.coeff(i) != 0:
            return False
    for j in range(order + 1):
        if d_1.coeff(j + n - 1) != d_c.coeff(j):
            return False
    return True


def half_matrix(size: int) -> TriMatrix:
    """The triangle interpolating between the B = 1+x and B = C triangles.

    Column 0 is (1, 0, 0, ...); column m >= 1 holds the coefficients of
    x^m * T_{m-1}(x) * (1 + x).
    """
    assert size >= 1
    cols: List[List[Coeff]] = []
    for m in range(size):
        col: List[Coeff] = [0] * size
        if m == 0:
            col[0] = 1
        else:
            prod = (Series.from_poly(t_poly(m - 1), size - 1)
                    * Series([1, 1], size - 1))
            for j in range(size - m):
                col[m + j] = prod.coeff(j)
        cols.append(col)
    return TriMatrix([[cols[m][n] for m in range(n + 1)] for n in range(size)])


def f_poly(n: int, param: str = "x") -> Poly:
    """Row n of the interpolating triangle."""
    mat = half_matrix(n + 1)
    return Poly(param, list(mat.rows[n]))


def theorem7_check(n: int) -> bool:
    """Row n+1 of the B = C triangle carries a row of the interpolating
    triangle with the variable squared: x^(n-1) * row_{n+1} = F_n(x^2)."""
    assert n >= 1
    size = n + 2
    mat = u_matrix(Series.catalan(max(0, (size - 2) // 2)), size)
    lhs: Dict[int, Coeff] = {}
    for m in range(n + 2):
        c = mat.entry(n + 1, m)
        if c != 0:
            lhs[m + n - 1] = c
    rhs: Dict[int, Coeff] = {}
    fn = f_poly(n)
    for k in range(n + 1):
        c = fn.coeff(k)
        if c != 0:
            rhs[2 * k] = c
    return lhs == rhs


def f_gf_check(order: int) -> bool:
    """The row gf of the interpolating triangle, F(t, x) = sum_n F_n(t) x^n,
    matches its closed form (1 - xt - sqrt(1 - 2xt(1+2x) + x^2 t^2)) / (2x^2 t)
    and so satisfies x^2 t F^2 - (1 - xt) F + 1 = 0."""
    t = Poly.var("t")
    rows = Series([f_poly(n, param="t") for n in range(order + 1)], order)
    inner = Series([1, -2 * t, t * t - 4 * t], order + 2)
    num = Series([1, -t], order + 2) - inner.sqrt()
    if num.div_x(2) != rows * (2 * t):
        return False
    lhs = (rows * rows * t).x_mul(2).truncate(order)
    rhs = rows * Series([1, -t], order) - 1
    return lhs == rhs


def cbar_series(order: int) -> Series:
    """sum_n C_n x^(2n) / (2n)! with C_n the Catalan numbers."""
    coeffs: List[Coeff] = [0] * (order + 1)
    for k in range(order // 2 + 1):
        coeffs[2 * k] = Fraction(catalan_number(k), factorial(2 * k))
    return Series(coeffs, order)


def catalan_b_appell_check(phi: Scalar, order: int) -> bool:
    """Dropping the leading zero of each row of the B = C triangle leaves an
    Appell sequence: sum_n (row_{n+1}(phi)/phi... evaluated) x^n / n! equals
    cbar(x) * e^(phi*x); the same fact at the series level reads
    [x^n] g[phi] = phi * (n-1)! * [x^(n-1)] (cbar(x) e^(phi*x))."""
    assert phi != 0
    size = order + 2
    b_fun = Series.catalan(max(0, (size - 2) // 2))
    mat = u_matrix(b_fun, size)
    lhs_coeffs: List[Coeff] = []
    for n in range(order + 1):
        row = list(mat.rows[n + 1])
        assert row[0] == 0
        val: Coeff = 0
        p: Coeff = 1
        for c in row[1:]:
            val = val + c * p
            p = p * phi
        lhs_coeffs.append(Fraction(1, factorial(n)) * val)
    rhs = cbar_series(order) * Series([0, phi], order).exp()
    if Series(lhs_coeffs, order) != rhs:
        return False
    g = catalan_b_series(phi, order + 1)
    for n in range(1, order + 2):
        if g.coeff(n) != phi * factorial(n - 1) * rhs.coeff(n - 1):
            return False
    return True


# ---------------------------------------------------------------------------
# exponential-pair diagonal displays
# ---------------------------------------------------------------------------

def exp_diag_display_check(order: int, which: str) -> bool:
    """Down-diagonal generating functions of three exponential pairs.

    which = "geom":       diag n of (1, x/(1-x))_E is (n+1)! N_n(x)/(1-x)^(2n+1)
    which = "one_plus_x": diag n of (1, x(1+x))_E  is ((2n)!/n!) x^n/(1-x)^(2n+1)
    which = "catalan":    diag n of (1, x C(x))_E  is ((2n)!/n!) x/(1-x)^(2n+1), n > 0
    """
    size = 2 * order + 1
    half = size - 1
    if which == "geom":
        pair = RiordanPair(Series.one(half), Series.geometric(half, 1))
    elif which == "one_plus_x":
        pair = RiordanPair(Series.one(half), Series([1, 1], half))
    elif which == "catalan":
        pair = RiordanPair(Series.one(half), Series.catalan(half))
    else:
        raise ValueError("unknown display name %r" % which)
    mat = pair.exp_matrix(size)
    geom = Series.geometric(order, 1)
    for n in range(order + 1):
        lhs = diag_down_gf(mat, n).truncate(order)
        if which == "geom":
            rhs = (Series.from_poly(narayana_poly(n), order)
                   * geom ** (2 * n + 1) * factorial(n + 1))
        elif which == "one_plus_x":
            rhs = (geom ** (2 * n + 1)
                   * Fraction(factorial(2 * n), factorial(n))).x_mul(n)
        else:
            if n == 0:
                continue
            rhs = (geom ** (2 * n + 1)
                   * Fraction(factorial(2 * n), factorial(n))).x_mul(1)
        if lhs != rhs.truncate(order):
            return False
    return True


# ---------------------------------------------------------------------------
# explicit even/odd row formulas in terms of convolution values
# ---------------------------------------------------------------------------

def u_row_via_conv(b_fun: Series, n: int, param: str = "x") -> Poly:
    """Row n of <B> through the convolution values s_j(m) = [x^j] B^m:

    row 2k:   sum_m binom(k+m, 2m)     s_{k-m}(2m)   / (k-m+1) x^(2m)
    row 2k+1: sum_m binom(k+m+1, 2m+1) s_{k-m}(2m+1) / (k-m+1) x^(2m+1)
    """
    assert n >= 0
    if n == 0:
        return Poly(param, [1])
    powers = b_powers(b_fun, n)
    coeffs: List[Coeff] = [0] * (n + 1)
    if n % 2 == 0:
        k = n // 2
        for m in range(1, k + 1):
            s_val = powers[2 * m].coeff(k - m)
            coeffs[2 * m] = Fraction(_binom(k + m, 2 * m), k - m + 1) * s_val
    else:
        k = (n - 1) // 2
        for m in range(k + 1):
            s_val = powers[2 * m + 1].coeff(k - m)
            coeffs[2 * m + 1] = Fraction(_binom(k + m + 1, 2 * m + 1),
                                         k - m + 1) * s_val
    return Poly(param, coeffs)


def exp_bfun_row_poly(n: int, param: str = "x") -> Poly:
    """Rows of <B> for B = e^x, where s_j(m) = m^j / j!."""
    assert n >= 0
    if n == 0:
        return Poly(param, [1])
    coeffs: List[Coeff] = [0] * (n + 1)
    if n % 2 == 0:
        k = n // 2
        for m in range(1, k + 1):
            coeffs[2 * m] = (Fraction(_binom(k + m, 2 * m), k - m + 1)
                             * Fraction((2 * m) ** (k - m), factorial(k - m)))
    else:
        k = (n - 1) // 2
        for m in range(k + 1):
            coeffs[2 * m + 1] = (Fraction(_binom(k + m + 1, 2 * m + 1), k - m + 1)
                                 * Fraction((2 * m + 1) ** (k - m),
                                            factorial(k - m)))
    return Poly(param, coeffs)
