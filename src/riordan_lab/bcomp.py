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
fixed-point route in ``pseudo.g_from_b`` checks both.  The table reads
only the B coefficients the rows need, so a longer B gives the same
triangle.

Three families with closed forms are provided alongside the generic
machinery: the lattice-path matrix R for B = 1/(1-x) (whose rising
diagonals carry the Narayana polynomials), the family for B = 1 + x, and
the family for B = C(x) with C the Catalan series.  This module holds the
triangles and the closed forms only; the identities between them (row,
column and diagonal generating functions, the polynomial ladders) are
stated and checked in :mod:`riordan_lab.verify`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .combinat import catalan_number, weight_sum
from .errors import BadArgument, InsufficientOrder
from .riordan import TriMatrix
from .series import Coeff, Poly, Series, falling_factorial

Scalar = int | Fraction


def _binom(top: int, k: int) -> int:
    # comb() with the usual "zero outside the triangle" convention
    if k < 0 or k > top or top < 0:
        return 0
    return comb(top, k)


def _require_nonnegative(*indices: int) -> None:
    if min(indices) < 0:
        raise BadArgument("indices must be nonnegative, got %s"
                          % ", ".join(str(i) for i in indices))


def _require_rows(size: int) -> None:
    if size < 1:
        raise BadArgument("need at least one row, got size %d" % size)


def _require_nonzero_rational(phi: Coeff) -> None:
    if isinstance(phi, Poly) or phi == 0:
        raise BadArgument("the closed form divides by phi, which must be a "
                          "nonzero rational, got %s" % phi)


# ---------------------------------------------------------------------------
# the generic triangle <B>
# ---------------------------------------------------------------------------

def u_entry(b_fun: Series, n: int, m: int) -> Coeff:
    """Entry (n, m) of the triangle of B-composition polynomials by the
    closed form falling((n+m)/2, m-1) * W_2(n, m), W_2 the weight sum over
    partitions of n into m odd parts (the claim under test; :func:`u_matrix`
    computes the same entries from B-powers)."""
    _require_nonnegative(n, m)
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


def b_powers(b_fun: Series, top: int) -> list[Series]:
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


def _table_entry(powers: list[Series], n: int, m: int, beta: Coeff) -> Coeff:
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
    _require_rows(size)
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


def _times_linear(cs: list[int], a: int) -> list[int]:
    """Coefficients of (phi + a) * sum_j cs[j] phi^j."""
    return [a * c + prev for c, prev in zip(cs + [0], [0] + cs)]


def b_expansion_rows(b_fun: Series, top: int, param: str = "phi") -> list[Poly]:
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
        total: list[Coeff] = [0] * (n + 1)
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
    """Row n of R in closed binomial form: at x^q, q = n, n-2, ... > 0, the
    Narayana number binom(k, q-1) binom(k, q) / k with k = (n+q)/2."""
    _require_nonnegative(n)
    if n == 0:
        return Poly(param, [1])
    coeffs: list[Coeff] = [0] * (n + 1)
    for q in range(2 - n % 2, n + 1, 2):
        k = (n + q) // 2
        coeffs[q] = Fraction(_binom(k, q - 1) * _binom(k, q), k)
    return Poly(param, coeffs)


def rna_beta_row_poly(n: int, beta: Scalar, param: str = "x") -> Poly:
    """Row n for B = 1/(1 - beta*x): entrywise beta^((n-m)/2) rescaling."""
    base = rna_row_poly(n, param).coeffs
    return Poly(param, [c * beta ** ((n - m) // 2) if c != 0 else c
                        for m, c in enumerate(base)])


def rna_power_coeff(beta: Coeff, n: int) -> Coeff:
    """[x^n] R^beta in closed binomial form, R the phi = 1 member for
    B = 1/(1-x): the sum over q = n, n-2, ... > 0 of
    beta * falling(beta + k - 1, q - 1) * binom(k - 1, (n-q)/2) / q!,
    k = (n+q)/2."""
    _require_nonnegative(n)
    if n == 0:
        return 1
    total: Coeff = 0
    for q in range(2 - n % 2, n + 1, 2):
        k = (n + q) // 2
        term = beta * falling_factorial(beta + k - 1, q - 1)
        total = total + term * Fraction(_binom(k - 1, (n - q) // 2),
                                        factorial(q))
    return total


def narayana_poly(n: int, param: str = "x") -> Poly:
    """Narayana polynomial: sum_m binom(n, m-1) binom(n, m) x^m / n."""
    _require_nonnegative(n)
    if n == 0:
        return Poly(param, [1])
    return Poly(param, [Fraction(_binom(n, m - 1) * _binom(n, m), n)
                        for m in range(n + 1)])


def narayana_matrix(size: int) -> TriMatrix:
    """Rows are the coefficients of the Narayana polynomials."""
    _require_rows(size)
    return TriMatrix([[narayana_poly(n).coeff(m) for m in range(n + 1)]
                      for n in range(size)])


# ---------------------------------------------------------------------------
# B = 1 + x
# ---------------------------------------------------------------------------

def one_plus_x_bfun(order: int) -> Series:
    """B(x) = 1 + x padded with genuine zeros to the requested order."""
    return Series([1, 1], max(1, order))


def one_plus_x_series(phi: Scalar, order: int) -> Series:
    """Closed form for the series solving g = 1 + x*g*phi*(1 + x^2*g)."""
    _require_nonzero_rational(phi)
    num = Series([1, (-1) * phi], order + 3)
    rad = (num * num - Series([0, 0, 0, 4 * phi], order + 3)).sqrt()
    return (num - rad).div_x(3) / (2 * phi)


def one_plus_x_entry(n: int, m: int) -> Coeff:
    """Closed form C_{(n-m)/2} * binom((n+m)/2, (3m-n)/2) for B = 1 + x."""
    _require_nonnegative(n, m)
    if m > n:
        return 0
    if n == 0:
        return 1
    if m == 0 or (n - m) % 2 != 0:
        return 0
    return catalan_number((n - m) // 2) * _binom((n + m) // 2, (3 * m - n) // 2)


def one_plus_x_row_poly(n: int, param: str = "x") -> Poly:
    """Row n for B = 1 + x in closed binomial form."""
    _require_nonnegative(n)
    return Poly(param, [one_plus_x_entry(n, m) for m in range(n + 1)])


def one_plus_x_up_diag_poly(n: int) -> Poly:
    """Rising diagonal through row 2n: sum_m C_{n-m} binom(n, 2m-n) x^m."""
    _require_nonnegative(n)
    return Poly("x", [catalan_number(n - m) * _binom(n, 2 * m - n)
                      for m in range(n + 1)])


def one_plus_x_column_series(m: int, order: int) -> Series:
    """Column m of the B = 1+x triangle in closed form:
    x^m * sum_j C_j binom(m+j, m-j) x^(2j)."""
    _require_nonnegative(m)
    coeffs: list[Coeff] = [0] * (order + 1)
    for j in range((order - m) // 2 + 1):
        coeffs[m + 2 * j] = catalan_number(j) * _binom(m + j, m - j)
    return Series(coeffs, order)


def t_poly(n: int, param: str = "x") -> Poly:
    """T_n(x) = sum_m binom(n+1, m+1) binom(n+m+2, m) x^m / (n+1)."""
    _require_nonnegative(n)
    return Poly(param, [Fraction(_binom(n + 1, m + 1) * _binom(n + m + 2, m),
                                 n + 1)
                        for m in range(n + 1)])


# ---------------------------------------------------------------------------
# B = C(x) (Catalan) and the interpolating triangle
# ---------------------------------------------------------------------------

def catalan_b_series(phi: Scalar, order: int) -> Series:
    """Closed form for the series solving g = 1 + x*g*phi*C(x^2 g)."""
    _require_nonzero_rational(phi)
    inv_phi = Fraction(1, phi) if isinstance(phi, int) else 1 / phi
    num = Series([1, 2 * inv_phi - phi], order + 1)
    rad = Series([1, -2 * phi, phi * phi - 4], order + 1).sqrt()
    return (num - rad).div_x(1) * phi / 2


def catalan_b_entry(n: int, m: int) -> Coeff:
    """Closed form C_{(n-m)/2} binom(n-1, m-1) for B = C(x)."""
    _require_nonnegative(n, m)
    if m > n:
        return 0
    if n == 0:
        return 1
    if m == 0 or (n - m) % 2 != 0:
        return 0
    return catalan_number((n - m) // 2) * _binom(n - 1, m - 1)


def catalan_b_row_poly(n: int, param: str = "x") -> Poly:
    """Row n for B = C(x) in closed binomial form."""
    _require_nonnegative(n)
    return Poly(param, [catalan_b_entry(n, m) for m in range(n + 1)])


def half_matrix(size: int) -> TriMatrix:
    """The triangle interpolating between the B = 1+x and B = C triangles.

    Column 0 is (1, 0, 0, ...); column m >= 1 holds the coefficients of
    x^m * T_{m-1}(x) * (1 + x).
    """
    _require_rows(size)
    cols = [Series([1], size - 1)] + [
        Series.from_poly(t_poly(m - 1), size - 1) * Series([1, 1], size - 1)
        for m in range(1, size)]
    return TriMatrix.from_entry_fn(size, lambda n, m: cols[m].coeff(n - m))


def f_poly(n: int, param: str = "x") -> Poly:
    """Row n of the interpolating triangle."""
    mat = half_matrix(n + 1)
    return Poly(param, list(mat.rows[n]))


def cbar_series(order: int) -> Series:
    """sum_n C_n x^(2n) / (2n)! with C_n the Catalan numbers."""
    coeffs: list[Coeff] = [0] * (order + 1)
    for k in range(order // 2 + 1):
        coeffs[2 * k] = Fraction(catalan_number(k), factorial(2 * k))
    return Series(coeffs, order)


# ---------------------------------------------------------------------------
# explicit even/odd row formulas in terms of convolution values
# ---------------------------------------------------------------------------

def _row_via_conv(n: int, s_val, param: str) -> Poly:
    """Row n of <B> from the convolution values s_val(j, q) = [x^j] B^q:
    at x^q, q = n, n-2, ... > 0, binom((n+q)/2, q) s_{(n-q)/2}(q) / ((n-q)/2 + 1).
    """
    _require_nonnegative(n)
    if n == 0:
        return Poly(param, [1])
    coeffs: list[Coeff] = [0] * (n + 1)
    for q in range(2 - n % 2, n + 1, 2):
        j = (n - q) // 2
        coeffs[q] = Fraction(_binom((n + q) // 2, q), j + 1) * s_val(j, q)
    return Poly(param, coeffs)


def u_row_via_conv(b_fun: Series, n: int, param: str = "x") -> Poly:
    """Row n of <B> through the convolution values s_j(m) = [x^j] B^m:

    row 2k:   sum_m binom(k+m, 2m)     s_{k-m}(2m)   / (k-m+1) x^(2m)
    row 2k+1: sum_m binom(k+m+1, 2m+1) s_{k-m}(2m+1) / (k-m+1) x^(2m+1)
    """
    powers = b_powers(b_fun, n)
    return _row_via_conv(n, lambda j, q: powers[q].coeff(j), param)


def exp_bfun_row_poly(n: int, param: str = "x") -> Poly:
    """Rows of <B> for B = e^x, where s_j(m) = m^j / j!."""
    return _row_via_conv(n, lambda j, q: Fraction(q ** j, factorial(j)), param)
