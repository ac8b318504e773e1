"""Two-sided infinite-product factorizations of substitution series.

A normalized series g = x + g_2 x^2 + ... acts on power series by
substitution, and the matrices (1, g) of that action form a group.  For
each k >= 1 the series x * (1 - k*a*x^k)**(-1/k) form a one-parameter
subgroup in the weight a, and every g factors through one member of each
subgroup in exactly two orders:

    g(x) = w1(w2(w3(...)))      "alpha" weights, type-1 factor outermost,
    g(x) = ...w3(w2(w1(x)))     "beta" weights, type-1 factor innermost,

with the two k = 1 weights equal.  The weights interpolate the matrix
entries of (1, g): [x^n] (g/x)**z is a polynomial in z obtained by summing
over the partitions of n read as sorted compositions, ascending for alpha
and descending for beta.  A third weight system, the coefficients of the
generator omega with log(1, g) = (omega, x) D, produces the same
polynomials through sums over all ordered compositions and drives the
one-parameter flow (1, g)**t.  The coefficients of the flow image of x, as
polynomials in t, form the flow triangle of omega (``flow_triangle``); the
Bell flow of :mod:`riordan_lab.flow` is this flow reindexed.

The deformed families scale every weight by t.  The relations between
the weight systems and the families (reversion swaps the two systems and
flips signs; the split, negated-weight and t = 1 tangent identities,
which hold only in degenerate cases) are stated and checked in
:mod:`riordan_lab.verify`, not here.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial
from typing import Sequence

from .combinat import compositions, partitions
from .errors import BadArgument, InsufficientOrder, NotNormalized
from .riordan import RiordanPair, TriMatrix
from .series import Coeff, Poly, Series, _dot


def _require_normalized(g: Series) -> None:
    if g.coeff(0) != 0 or g.coeff(1) != 1:
        raise NotNormalized("need a series x + c2*x^2 + ..., got constant %r, "
                            "linear %r" % (g.coeff(0), g.coeff(1)))


# ─────────────────────────────────────────────────────────────────────────────
# The elementary factors
# ─────────────────────────────────────────────────────────────────────────────

def factor_column_gf(k: int, weight: Coeff, m: int, order: int) -> Series:
    """Column m of the type-k factor matrix: x^m * (1 - k*w*x^k)**(-m/k).

    The binomial expansion telescopes to rising factorials with step k,

        [x^{m + j*k}] = m (m + k) (m + 2k) ... (m + (j-1)k) / j! * w**j,

    so the weight may be a rational or a Poly and everything stays exact.
    """
    if k < 1 or m < 0 or order < 0:
        raise BadArgument("need k >= 1, m >= 0 and order >= 0, got "
                          "(%d, %d, %d)" % (k, m, order))
    coeffs: list[Coeff] = [0] * (order + 1)
    if m <= order:
        coeffs[m] = 1
    c: Coeff = Fraction(1)
    wp: Coeff = 1
    j = 0
    while m + (j + 1) * k <= order:
        c = c * Fraction(m + j * k, j + 1)
        wp = wp * weight
        j += 1
        coeffs[m + j * k] = c * wp
    return Series(coeffs, order)


def factor_series(k: int, weight: Coeff, order: int) -> Series:
    """The substitution series x * (1 - k*w*x^k)**(-1/k) of the type-k factor.

    Two factors of the same type compose by adding their weights, so the
    weight-negated factor is the compositional inverse.
    """
    return factor_column_gf(k, weight, 1, order)


# ─────────────────────────────────────────────────────────────────────────────
# Weight extraction and resummation
# ─────────────────────────────────────────────────────────────────────────────

def _substitute_factor(cur: Series, k: int, weight: Coeff) -> Series:
    """cur(factor_k(x)), the type-k factor with the given weight substituted
    into cur.

    Sums cur_m times column m of the factor matrix, each a closed form with
    one term per k-th coefficient.
    """
    n = cur.order
    out: list[Coeff] = [0] * (n + 1)
    for m, c in enumerate(cur.coeffs):
        if c == 0:
            continue
        col = factor_column_gf(k, weight, m, n).coeffs
        for i in range(m, n + 1, k):
            if col[i] != 0:
                out[i] = out[i] + c * col[i]
    return Series(out, n)


def _apply_factor(cur: Series, k: int, weight: Coeff) -> Series:
    """factor_k(cur(x)), the type-k factor applied to a series cur with
    cur(0) = 0.

    The factor is sum_j f_j x^(1+jk), so the image is sum_j f_j cur^(1+jk);
    the powers are walked by one product with cur**k each, every product
    truncated to the coefficients that can still reach x^order.
    """
    n = cur.order
    if n == 0:
        return Series.zero(0)
    f = factor_series(k, weight, n).coeffs
    u = cur.div_x(1)                       # cur^(1+jk) = x^(1+jk) u^(1+jk)
    step = u.truncate(max(n - 1 - k, 0)) ** k
    out: list[Coeff] = [0] * (n + 1)
    term = u
    for shift in range(1, n + 1, k):       # shift = 1 + jk
        if shift > 1:
            # u^(1+jk) is read through x^(n-shift)
            term = term.truncate(n - shift) * step.truncate(n - shift)
        fj = f[shift]
        if fj != 0:
            for i, c in enumerate(term.coeffs):
                if c != 0:
                    out[shift + i] = out[shift + i] + fj * c
    return Series(out, n)


def alpha_weights(g: Series, count: int | None = None) -> list[Coeff]:
    """Weights of the factorization with the type-1 factor outermost.

    Peels one factor per step: after removing w_1, ..., w_k the remainder
    starts x + a_{k+1} x^{k+2}, which hands over the next weight.
    """
    _require_normalized(g)
    n = g.order - 1 if count is None else count
    if n > g.order - 1:
        raise InsufficientOrder("%d weights need series order %d, have %d"
                                % (n, n + 1, g.order))
    cur = g
    out: list[Coeff] = []
    for k in range(1, n + 1):
        a = cur.coeff(k + 1)
        out.append(a)
        if k < n:
            # remainder = wbar_k(cur(x)) with wbar_k the weight-negated factor
            cur = _apply_factor(cur, k, -a)
            assert all(cur.coeff(j) == 0 for j in range(2, k + 2))
    return out


def beta_weights(g: Series, count: int | None = None) -> list[Coeff]:
    """Weights of the factorization with the type-1 factor innermost."""
    _require_normalized(g)
    n = g.order - 1 if count is None else count
    if n > g.order - 1:
        raise InsufficientOrder("%d weights need series order %d, have %d"
                                % (n, n + 1, g.order))
    cur = g
    out: list[Coeff] = []
    for k in range(1, n + 1):
        b = cur.coeff(k + 1)
        out.append(b)
        if k < n:
            # remainder = cur(wbar_k(x)): the innermost factor comes off first
            cur = _substitute_factor(cur, k, -b)
            assert all(cur.coeff(j) == 0 for j in range(2, k + 2))
    return out


def from_alpha(weights: Sequence[Coeff], order: int) -> Series:
    """Recompose g(x) = w1(w2(w3(...))) from type-k weights w_k."""
    cur = Series.x(order)
    for k, w in enumerate(weights, start=1):
        if k + 1 > order:
            break  # deeper factors cannot touch coefficients up to x^order
        cur = _substitute_factor(cur, k, w)
    return cur


def from_beta(weights: Sequence[Coeff], order: int) -> Series:
    """Recompose g(x) = ...w3(w2(w1(x))) from type-k weights w_k."""
    cur = Series.x(order)
    for k, w in enumerate(weights, start=1):
        if k + 1 > order:
            break
        cur = _apply_factor(cur, k, w)
    return cur


def weights_to_series(weights: Sequence[Coeff], order: int | None = None) -> Series:
    """Pack a weight list [w1, w2, ...] into the series sum_k w_k x^{k+1}."""
    n = len(weights) + 1 if order is None else order
    return Series([0, 0] + list(weights), n)


def series_to_weights(s: Series) -> list[Coeff]:
    """Unpack sum_k w_k x^{k+1} back into [w1, w2, ...]."""
    if s.coeff(0) != 0 or s.coeff(1) != 0:
        raise BadArgument("a weight series starts at x^2, got %s + %s*x"
                          % (s.coeff(0), s.coeff(1)))
    return [s.coeff(k + 1) for k in range(1, s.order)]


def alpha_series(g: Series) -> Series:
    """The alpha weights as the series sum_k a_k x^{k+1} (order of g kept)."""
    return weights_to_series(alpha_weights(g), g.order)


def beta_series(g: Series) -> Series:
    """The beta weights as the series sum_k b_k x^{k+1} (order of g kept)."""
    return weights_to_series(beta_weights(g), g.order)


# ─────────────────────────────────────────────────────────────────────────────
# The substitution matrix, its logarithm, and the flow
# ─────────────────────────────────────────────────────────────────────────────
#
# The substitution matrix is the Riordan array of the pair (1, g/x).  The
# generator and the flow powers are single columns of log(1, g) and of the
# binomial power (1, g)**t.  Production streams that one column out of the
# difference vectors (M - I)^k e_1 (``_flow_column``), O(n^3); the dense
# TriMatrix.log / pow_binomial, O(n^4), stay as the oracle in ``verify`` and
# the tests.  The flow polynomials, all rows at once, come from the
# generator by the Lie recursion (``flow_triangle``).

def substitution_matrix(g: Series, size: int) -> TriMatrix:
    """Triangular matrix of (1, g): entry (n, m) = [x^n] g**m, the Riordan
    array of the pair (1, g/x)."""
    _require_normalized(g)
    if size - 1 > g.order:
        raise InsufficientOrder("%d rows need series order %d, have %d"
                                % (size, size - 1, g.order))
    return RiordanPair(Series.one(max(size - 1, 0)), g.div_x(1)).matrix(size)


def _flow_column(mat: TriMatrix, col: int, t: Coeff | None = None) -> list[Coeff]:
    """Rows col, col+1, ... of column col of log M, or of M**t with t given,
    for a unipotent triangular M.

    Both are sums sum_k w_k v_k over the difference vectors
    v_k = (M - I)^k e_col, with w_k = (-1)^(k-1)/k for the logarithm and
    w_k = binom(t, k) for the power.  Each v_k is one matrix-vector
    product and the stream stops at the first vector that vanishes, so a
    column costs O(size^3) where the dense log or power costs O(size^4).
    The vanishing vector is still added, scaled, as the dense sum adds it,
    so the entries keep the dense sum's types (Fraction(1, 1), not 1, on
    the diagonal of a power).
    """
    size = mat.size
    rows = mat.rows
    vec: list[Coeff] = [0] * size
    vec[col] = 1
    out: list[Coeff] = [0] * size
    if t is not None:
        out[col] = 1
    w: Coeff = 1
    for k in range(1, size):
        lo = col + k - 1                   # v_(k-1) vanishes above row lo
        nxt: list[Coeff] = [0] * size
        for i in range(lo + 1, size):
            nxt[i] = _dot(rows[i][lo:i], vec[lo:i])
        if t is None:
            w = Fraction((-1) ** (k - 1), k)
        else:
            w = w * (t - (k - 1)) / Fraction(k)
        for i in range(col, size):
            out[i] = out[i] + nxt[i] * w
        if all(v == 0 for v in nxt):
            break
        vec = nxt
    return out[col:]


def log_generator(g: Series) -> Series:
    """The generator omega of the substitution flow of (1, g).

    log(1, g) acts on series as a(x) -> omega(x) * a'(x) for a single series
    omega(x) = sum_{j>=1} omega_j x^{j+1}, read off the first column of the
    matrix logarithm.  It satisfies omega(g(x)) = omega(x) * g'(x).
    """
    _require_normalized(g)
    lg = _flow_column(substitution_matrix(g, g.order + 1), 1)
    return Series([0, 0] + lg[1:], g.order)


def substitution_power(g: Series, t: Coeff, order: int | None = None) -> Series:
    """The inner series of (1, g)**t by the binomial matrix power.

    Integer t reproduces iterated composition and reversion; rational or
    Poly t interpolates them.
    """
    _require_normalized(g)
    n = g.order if order is None else order
    mat = substitution_matrix(g, n + 1)
    column = _flow_column(mat, 1, t) if n >= 1 else []
    return Series([0] + column, n)


def substitution_power_lie(g: Series, t: Coeff, order: int | None = None) -> Series:
    """The same flow image out of the generator alone.

    Iterating a(x) -> omega(x) * a'(x) on x and summing t^j / j! of the
    iterates gives (1, g)**t applied to x.  Every derivative spends one
    order of precision, so the result order is at most half the input's.
    """
    n = g.order // 2 if order is None else order
    if g.order < 2 * n:
        raise InsufficientOrder("output order %d needs input order %d, have %d"
                                % (n, 2 * n, g.order))
    om = log_generator(g)
    term = Series.x(g.order)
    out = term.truncate(n)
    scale: Coeff = 1
    for j in range(1, n + 1):
        term = om * term.deriv()
        scale = scale * t / Fraction(j)
        out = out + term.truncate(n) * scale
    return out


def flow_triangle(omega: Series, size: int) -> TriMatrix:
    """The first ``size`` rows of the flow triangle of the generator omega.

    Entry (n, m) is the t^m coefficient of [x^(n+1)] exp(t * omega D) x, so
    row n read as a polynomial in t is ``composition_poly`` at n + 1.
    Column m is (1/m!) (omega D)^m x / x, built column by column by the Lie
    recursion x*col_m = (1/m) omega (x*col_(m-1))'.  Reads omega through
    x^size.
    """
    if omega.order < size:
        raise InsufficientOrder("%d rows need the generator through x^%d, "
                                "have x^%d" % (size, size, omega.order))
    w = [omega.coeff(k + 2) for k in range(size)]        # omega / x^2
    cols: list[list[Coeff]] = [[1] + [0] * (size - 1)]
    for m in range(1, size):
        prev = cols[-1]
        # (x*prev)' / x, shifted up one place: entry k + 1 is (k+1) prev_k
        shifted: list[Coeff] = [0] * size
        for k in range(size - 1):
            if prev[k] != 0:
                shifted[k + 1] = (k + 1) * prev[k]
        col: list[Coeff] = [0] * size
        for i in range(size):
            if w[i] == 0:
                continue
            for j in range(size - i):
                if shifted[j] != 0:
                    col[i + j] = col[i + j] + w[i] * shifted[j]
        cols.append([Fraction(1, m) * c if c != 0 else 0 for c in col])
    return TriMatrix([[cols[m][n] for m in range(n + 1)] for n in range(size)])


def composition_poly(g: Series, n: int, param: str = "t") -> Poly:
    """[x^n] of the flow image of x as a polynomial in the flow parameter:
    row n - 1 of the flow triangle, which reads g through x^n."""
    if n > g.order:
        raise InsufficientOrder("coefficient %d outside order %d" % (n, g.order))
    if n == 0:                  # the flow image of x has no constant term
        _require_normalized(g)
        return Poly(param)
    return Poly(param, flow_triangle(log_generator(g.truncate(n)), n).rows[n - 1])


# ─────────────────────────────────────────────────────────────────────────────
# Interpolating polynomials for [x^n] (g/x)**z
# ─────────────────────────────────────────────────────────────────────────────

def s_poly(g: Series, n: int, param: str = "z") -> Poly:
    """[x^n] (g/x)**z as a polynomial in z (the definitional route)."""
    _require_normalized(g)
    if n > g.order - 1:
        raise InsufficientOrder("coefficient %d needs series order %d, have %d"
                                % (n, n + 1, g.order))
    c = g.div_x(1).pow_param(param).coeff(n)
    return c if isinstance(c, Poly) else Poly.const(param, c)


def _s_ordered(weights: Sequence[Coeff], n: int, z: Coeff, descending: bool) -> Coeff:
    if n == 0:
        return z * 0 + 1
    if n > len(weights):
        raise InsufficientOrder("need %d weights, have %d" % (n, len(weights)))
    total: Coeff = 0
    for partition in partitions(n):
        comp = partition[::-1] if descending else partition
        term: Coeff = 1
        run = 0
        for part in comp:
            term = term * (z + run)
            run += part
        for part, mult in Counter(comp).items():
            term = term * weights[part - 1] ** mult / Fraction(factorial(mult))
        total = total + term
    return total


def s_alpha_poly(weights: Sequence[Coeff], n: int, z: Coeff | None = None) -> Coeff:
    """[x^n] (g/x)**z out of the alpha weights.

    Each partition of n, read as its ascending composition i1 <= ... <= im,
    contributes z (z+i1) (z+i1+i2) ... (z+i1+...+i_{m-1}) times the weight
    monomial prod w_i^{m_i} / m_i!.
    """
    return _s_ordered(weights, n, Poly.var("z") if z is None else z, False)


def s_beta_poly(weights: Sequence[Coeff], n: int, z: Coeff | None = None) -> Coeff:
    """[x^n] (g/x)**z out of the beta weights (descending compositions)."""
    return _s_ordered(weights, n, Poly.var("z") if z is None else z, True)


def s_omega_poly(weights: Sequence[Coeff], n: int, z: Coeff = 1,
                 t: Coeff | None = None) -> Coeff:
    """Coefficients of (flow image / x)**z out of the generator weights.

    Every ordered composition n = i1 + ... + im contributes

        t^m / m! * z (z+i1) ... (z+i1+...+i_{m-1}) * w_{i1} w_{i2} ... w_{im}.

    At t = 1 this reduces to the plain interpolating polynomial in z; at
    z = 1 it is the coefficient of x^{n+1} in the flow image of x.  Pass at
    most one of z, t symbolically.
    """
    if t is None:
        t = Poly.var("t")
    if n == 0:
        return t * 0 + z * 0 + 1
    if n > len(weights):
        raise InsufficientOrder("need %d weights, have %d" % (n, len(weights)))
    total: Coeff = 0
    for m in range(1, n + 1):
        for comp in compositions(n, m):
            term: Coeff = 1
            run = 0
            for part in comp:
                term = term * (z + run)
                run += part
                term = term * weights[part - 1]
            total = total + term * t ** m / Fraction(factorial(m))
    return total


# ─────────────────────────────────────────────────────────────────────────────
# Deformed families
# ─────────────────────────────────────────────────────────────────────────────

def family_alpha(g: Series, t: Coeff, order: int | None = None) -> Series:
    """Deform g by scaling every alpha weight by t (t = 1 gives back g)."""
    n = g.order if order is None else order
    if n > g.order:
        raise InsufficientOrder("order %d exceeds input order %d" % (n, g.order))
    return from_alpha([w * t for w in alpha_weights(g)], n)


def family_beta(g: Series, t: Coeff, order: int | None = None) -> Series:
    """Deform g by scaling every beta weight by t."""
    n = g.order if order is None else order
    if n > g.order:
        raise InsufficientOrder("order %d exceeds input order %d" % (n, g.order))
    return from_beta([w * t for w in beta_weights(g)], n)
