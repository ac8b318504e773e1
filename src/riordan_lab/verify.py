"""Named regression suites behind the command-line ``verify`` verb, and
the paper's claims they check.

Every printed triangle, closed form and structural identity the library
reproduces is stated here, and only here, as a check function: one exact
comparison of two values built independently, such as a closed form from
``bcomp`` against the triangle ``u_matrix`` builds, or the dense matrix
logarithm against the streamed generator.  The dense oracles (the Bell
matrix, its logarithm powers and binomial powers) live here too; the
library modules hold production code and closed forms only.  Each check
sits behind at least one line of a suite, so ``verify all`` reproduces
every claim.

A suite is a function ``(order) -> list[(label, ok)]``; the registry
``SUITES`` maps command-line names to suites, and ``run_all`` produces the
table for ``verify all``.  The suites named ``theorem1`` .. ``theorem9``
cover the nine numbered identities at the core of the library and the
closed-form families around them (see the README for what each one
states); the remaining suites cover the fixture matrices, the two
coefficient expansions, the power families, the logarithmic flow and the
infinite-product factorizations.  A suite whose lines read fixed rows,
columns or perturbations raises ``InsufficientOrder`` below the least order
at which they fit its window, so no true line is reported FAIL for lack of
terms.

Sampling is deterministic: every suite that draws random weight series
seeds its own ``random.Random``, so repeated runs print identical tables.

One suite is expected to fail: ``alphabeta`` includes the two-sided split
of a series into deformed ascending/descending products, which holds only
in degenerate situations (a single nonzero weight, or t in {0, 1}).  The
failure is genuine -- the first obstruction is an exact, hand-checkable
coefficient -- and the suite reports it rather than hiding it; see
``split_identity_check`` for the details.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from . import alphabeta as ab
from . import bcomp
from . import flow
from . import pseudo
from .combinat import catalan_number
from .errors import InsufficientOrder, NotPseudoInvolution
from .fixtures import load_b1_rows, load_matrix
from .riordan import (RiordanPair, TriMatrix, col_gf, diag_down_gf,
                      diag_up_poly)
from .series import Coeff, Poly, Series, binom_param

Check = tuple[str, bool]
SuiteFn = Callable[[int], "list[Check]"]

_PHIS = (-2, -1, Fraction(1, 2), 1, 3)


def _require_order(order: int, least: int) -> None:
    """A suite reads fixed rows, columns and perturbations; below ``least``
    they fall outside the window, so it raises instead of running."""
    if order < least:
        raise InsufficientOrder("this suite needs order >= %d, got %d"
                                % (least, order))


def _strip(mat: TriMatrix) -> TriMatrix:
    """mat without its row 0 and column 0."""
    return TriMatrix([row[1:] for row in mat.rows[1:]])


def _squared(p: Poly, order: int) -> Series:
    """p(x^2) as a series of the given order."""
    return p(Series([0, 0, 1], order))


# the three weight series with closed-form triangles, at a given order
_NAMED_B = {"geom": lambda k: Series.geometric(k, 1),
            "one_plus_x": bcomp.one_plus_x_bfun, "catalan": Series.catalan}


def _triangle(which: str, size: int) -> TriMatrix:
    """<B> for a named B; ``u_matrix`` reads only the weights it needs."""
    return bcomp.u_matrix(_NAMED_B[which](size), size)


def _random_bfun(rng: random.Random, order: int, terms: int = 6) -> Series:
    """Integer weight series with coefficients in [-3, 3]."""
    return Series([rng.randint(-3, 3) for _ in range(terms)], order)


def _random_normalized(rng: random.Random, order: int) -> Series:
    """A series x + c2 x^2 + ... with small integer coefficients."""
    return Series([0, 1] + [rng.randint(-3, 3) for _ in range(order - 1)],
                  order)


# ---------------------------------------------------------------------------
# fixture matrices
# ---------------------------------------------------------------------------

def suite_matrices(order: int = 16) -> list[Check]:
    """The stored triangles reproduce from their generators, entry for entry."""
    del order  # the fixtures pin their own sizes
    checks: list[Check] = []
    r = bcomp.rna_series(1, 8)
    checks.append(("lattice-path pair (R, xR): 7 rows",
                   RiordanPair(r, r).matrix(7) == load_matrix("rna_matrix")))
    checks.append(("composition triangle of 1/(1-x): 11 rows",
                   bcomp.u_matrix(Series.geometric(6, 1), 11)
                   == load_matrix("comp_matrix_geom")))
    checks.append(("Narayana triangle: 7 rows",
                   bcomp.narayana_matrix(7) == load_matrix("narayana_matrix")))
    checks.append(("composition triangle of 1 + x: 11 rows",
                   bcomp.u_matrix(bcomp.one_plus_x_bfun(6), 11)
                   == load_matrix("bcomp_one_plus_x")))
    checks.append(("composition triangle of C(x): 11 rows",
                   bcomp.u_matrix(Series.catalan(6), 11)
                   == load_matrix("bcomp_catalan")))
    checks.append(("row-doubled half of the C(x) triangle: 8 rows",
                   bcomp.half_matrix(8) == load_matrix("half_comp_matrix")))
    checks.append(("weight triangle of ((1+x)/(1-x)^2, x/(1-x)^2): 4 rows",
                   pseudo.example6_b_pair(6).matrix(4)
                   == load_matrix("b_triangle")))
    checks.append(("Lucas pair ((1+x^2)/(1-x^2), x/(1-x^2)): 6 rows",
                   pseudo.lucas_pair(6).matrix(6)
                   == load_matrix("lucas_matrix")))
    checks.append(("Fibonacci pair (1/(1-x^2), x/(1-x^2)): 6 rows",
                   pseudo.fibonacci_pair(6).matrix(6)
                   == load_matrix("fibonacci_matrix")))
    return checks


# ---------------------------------------------------------------------------
# the square-root factorization and the partition expansion
# ---------------------------------------------------------------------------

def _decomposition_samples(
        order: int) -> list[tuple[str, Series, Fraction, Series]]:
    rng = random.Random(31)
    named = [("1/(1-x)", Series.geometric(order, 1)),
             ("C(x)", Series.catalan(order)),
             ("1+x", bcomp.one_plus_x_bfun(order))]
    named += [("random #%d" % i, _random_bfun(rng, order)) for i in range(4)]
    out = []
    for label, bf in named:
        for phi in (Fraction(1), Fraction(1, 2)):
            g = pseudo.g_from_b(bf, phi, order)
            out.append(("B = %s, phi = %s" % (label, phi), bf, phi, g))
    return out


def suite_theorem1(order: int = 24) -> list[Check]:
    """Square-root factorization (1, xg) = (1, x sqrt(g)) (1, xh) with
    h(-x) h(x) = 1, for members generated from a weight series."""
    checks: list[Check] = []
    one = Series.one(order)
    for label, _bf, _phi, g in _decomposition_samples(order):
        d = pseudo.sqrt_decompose(g)
        ok = (d.sqrt_g ** 2 == g
              and d.h * d.h.alternate() == one
              and d.h.x_mul(1).compose(d.sqrt_g.x_mul(1)) == g.x_mul(1))
        checks.append(("h(-x) h(x) = 1 for " + label, ok))
    return checks


def suite_theorem2(order: int = 24) -> list[Check]:
    """The odd part of the factorization recovers the weight series:
    x B(x^2) = 2 s(x) where s = (h - 1/h)/2."""
    _require_order(order, 1)
    checks: list[Check] = []
    for label, bf, phi, g in _decomposition_samples(order):
        # the member generated at phi carries the weight series phi * B
        rec = pseudo.sqrt_decompose(g).b_fun
        checks.append(("x B(x^2) = 2 s(x) for " + label,
                       rec.agrees(bf * phi, rec.order)))
    return checks


def suite_theorem3(order: int = 24) -> list[Check]:
    """Closed-form expansion of [x^n] g^phi over odd partitions, against
    the defining fixed point raised to the power phi."""
    rng = random.Random(101)
    results = {phi: True for phi in _PHIS}
    for _ in range(25):
        bf = _random_bfun(rng, order)
        g1 = pseudo.g_from_b(bf, 1, order)
        polys = [pseudo.b_expansion(bf, n) for n in range(order + 1)]
        for phi in _PHIS:
            results[phi] &= (Series([p(phi) for p in polys], order)
                             == g1.pow_scalar(Fraction(phi)))
    return [("partition expansion at phi = %s, 25 random B, n <= %d"
             % (phi, order), ok) for phi, ok in results.items()]


# ---------------------------------------------------------------------------
# the lattice-path triangle R (B = 1/(1-x)) and the Narayana ladder
# ---------------------------------------------------------------------------

def theorem4_check(n: int, order: int) -> bool:
    """Column n+1 of the Narayana triangle has gf x^n N_n(x) / (1-x)^(2n+1)."""
    rhs = (Series.from_poly(bcomp.narayana_poly(n), order)
           * Series.geometric(order, 1) ** (2 * n + 1))
    return (col_gf(bcomp.narayana_matrix(order + 1), n + 1)
            == rhs.x_mul(n).truncate(order))


def rna_column_check(n: int, order: int) -> bool:
    """Column n+1 of R has gf x^(n+1) Ntilde_n(x^2) / (1-x^2)^(2n+1), with
    Ntilde_n the Narayana polynomial divided by its zero root (Ntilde_0 = 1)."""
    npoly = bcomp.narayana_poly(n)
    tilde = Poly("x", npoly.coeffs[1:]) if n else npoly
    rhs = _squared(tilde, order) * Series([1, 0, -1], order) ** (-(2 * n + 1))
    return (col_gf(_triangle("geom", order + 1), n + 1)
            == rhs.x_mul(n + 1).truncate(order))


def narayana_gf_check(order: int) -> bool:
    """The closed form (1 + t(1-x) - sqrt(1 - 2t(1+x) + t^2 (1-x)^2)) / (2t)
    has the Narayana polynomials as its t-coefficients, and they satisfy
    the equivalent quadratic t*N^2 - (1 + t(1-x))*N + 1 = 0."""
    x = Poly.var("x")
    rows = Series([bcomp.narayana_poly(n) for n in range(order + 1)], order)
    num = (Series([1, 1 - x], order + 2)
           - Series([1, -2 * (1 + x), (1 - x) ** 2], order + 2).sqrt())
    return ((num.div_x(1) / 2).truncate(order) == rows
            and (rows * rows).x_mul(1).truncate(order)
            == rows * Series([1, 1 - x], order) - 1)


def theorem5_check(n: int) -> bool:
    """The rising diagonal of R through row 2n is the Narayana polynomial."""
    return (diag_up_poly(_triangle("geom", 2 * n + 1), 2 * n)
            == bcomp.narayana_poly(n))


def rna_row_via_narayana_check(size: int) -> bool:
    """Rows of R read off Narayana-triangle entries: entry (r, c) is
    N_{(r+c)/2, c} for r - c even, so row 2n has N_{n+m, 2m} at position
    2m and row 2n+1 has N_{n+m+1, 2m+1} at position 2m+1."""
    nara = bcomp.narayana_matrix(size)
    return _triangle("geom", size) == TriMatrix.from_entry_fn(
        size, lambda r, c: 0 if (r - c) % 2 else nara.entry((r + c) // 2, c))


def suite_theorem4(order: int = 12) -> list[Check]:
    """Columns of the Narayana triangle and of the lattice-path triangle R,
    and the Narayana generating function."""
    _require_order(order, 6)
    return [("down-diagonal 2n - m of R, n = %d" % n, theorem4_check(n, order))
            for n in range(1, 6)] + [
        ("column n+1 of R is x^(n+1) Ntilde_n(x^2)/(1-x^2)^(2n+1), n <= 4",
         all(rna_column_check(n, order) for n in range(5))),
        ("Narayana polynomials: gf closed form and its quadratic",
         narayana_gf_check(order))]


def suite_theorem5(order: int = 12) -> list[Check]:
    """Up-diagonals of the lattice-path triangle are Narayana polynomials,
    and its rows are Narayana entries."""
    del order
    return [("up-diagonal 2n of R = Narayana row %d" % n, theorem5_check(n))
            for n in range(6)] + [
        ("entry (r, c) of R is N_{(r+c)/2, c}, 11 rows",
         rna_row_via_narayana_check(11))]


# ---------------------------------------------------------------------------
# B = 1 + x
# ---------------------------------------------------------------------------

def theorem6_check(n: int, order: int) -> bool:
    """Column n+1 of the B = 1+x triangle has gf x^(n+1) T_n(x^2) (1 + x^2)."""
    rhs = _squared(bcomp.t_poly(n), order) * Series([1, 0, 1], order)
    return (col_gf(_triangle("one_plus_x", order + 1), n + 1)
            == rhs.x_mul(n + 1).truncate(order))


def one_plus_x_down_diag_check(n: int, order: int) -> bool:
    """Down-diagonal 2n of the B = 1+x triangle has gf C_n x^n / (1-x)^(2n+1),
    equivalently the entries C_n binom(n+m, m-n)."""
    cn = catalan_number(n)
    gf = (Series.geometric(order, 1) ** (2 * n + 1) * cn).x_mul(n)
    entries = [cn * comb(n + m, m - n) if m >= n else 0
               for m in range(order + 1)]
    return (diag_down_gf(_triangle("one_plus_x", 2 * n + order + 1), 2 * n)
            == gf.truncate(order) == Series(entries, order))


def t_poly_gf_check(order: int) -> bool:
    """The closed form (1 - t(1+2x) - sqrt(1 - 2t(1+2x) + t^2)) / (2x(1+x)t^2)
    has T_n as its t-coefficients; equivalently
    x(1+x) t^2 T^2 - (1 - t(1+2x)) T + 1 = 0."""
    x = Poly.var("x")
    rows = Series([bcomp.t_poly(n) for n in range(order + 1)], order)
    num = (Series([1, -(1 + 2 * x)], order + 2)
           - Series([1, -2 * (1 + 2 * x), 1], order + 2).sqrt())
    return (num.div_x(2) == rows * (2 * x * (1 + x))
            and (rows * rows * (x * (1 + x))).x_mul(2).truncate(order)
            == rows * Series([1, -(1 + 2 * x)], order) - 1)


def t_from_narayana_check(n: int) -> bool:
    """T_n(x) = (1+x)^n * Ntilde_{n+1}(x/(1+x)) with Ntilde the Narayana
    polynomial divided by its zero root."""
    x = Poly.var("x")
    tilde = bcomp.narayana_poly(n + 1).coeffs[1:]
    return sum((x ** k * (1 + x) ** (n - k) * c for k, c in enumerate(tilde)),
               Poly("x")) == bcomp.t_poly(n)


def suite_theorem6(order: int = 12) -> list[Check]:
    """Columns and down-diagonals of the 1 + x triangle, and the
    polynomials T_n."""
    _require_order(order, 5)
    return [("up-diagonal 2n of <1+x>, n = %d" % n, theorem6_check(n, order))
            for n in range(1, 5)] + [
        ("down-diagonal 2n of <1+x> is C_n x^n/(1-x)^(2n+1), n <= 3",
         all(one_plus_x_down_diag_check(n, order) for n in range(4))),
        ("T_n: gf closed form and its quadratic", t_poly_gf_check(order)),
        ("T_n(x) = (1+x)^n Ntilde_(n+1)(x/(1+x)), n <= 5",
         all(t_from_narayana_check(n) for n in range(6)))]


# ---------------------------------------------------------------------------
# B = C(x) and the interpolating triangle
# ---------------------------------------------------------------------------

def theorem7_check(n: int) -> bool:
    """Row n+1 of the B = C triangle carries a row of the interpolating
    triangle with the variable squared: x^(n-1) * row_{n+1} = F_n(x^2), n >= 1."""
    row = _triangle("catalan", n + 2).rows[n + 1]
    return Poly("x", [0] * (n - 1) + row) == bcomp.f_poly(n)(Poly.var("x") ** 2)


def down_diag_supposition_check(n: int, order: int) -> bool:
    """Observed relation between down-diagonals (n >= 1): diagonal 2n of the
    B = 1+x triangle is x^(n-1) times diagonal 2n of the B = C triangle."""
    size = 3 * n + order
    d_c = diag_down_gf(_triangle("catalan", size), 2 * n)
    return (diag_down_gf(_triangle("one_plus_x", size), 2 * n)
            == d_c.truncate(order).x_mul(n - 1))


def f_gf_check(order: int) -> bool:
    """The row gf of the interpolating triangle, F(t, x) = sum_n F_n(t) x^n,
    is (1 - xt - sqrt(1 - 2xt(1+2x) + x^2 t^2)) / (2x^2 t), so it satisfies
    x^2 t F^2 - (1 - xt) F + 1 = 0."""
    t = Poly.var("t")
    rows = Series([bcomp.f_poly(n, param="t") for n in range(order + 1)],
                  order)
    num = (Series([1, -t], order + 2)
           - Series([1, -2 * t, t * t - 4 * t], order + 2).sqrt())
    return (num.div_x(2) == rows * (2 * t)
            and (rows * rows * t).x_mul(2).truncate(order)
            == rows * Series([1, -t], order) - 1)


def suite_theorem7(order: int = 12) -> list[Check]:
    """Rows of the row-doubled half of the C(x) triangle, its row gf, and
    the down-diagonals of the C(x) triangle against those of 1 + x."""
    del order
    return [("half-triangle row %d closed form" % n, theorem7_check(n))
            for n in range(1, 7)] + [
        ("down-diagonal 2n of <1+x> = x^(n-1) down-diagonal 2n of <C(x)>, "
         "n <= 3", all(down_diag_supposition_check(n, 6) for n in range(1, 4))),
        ("half-triangle rows: gf closed form and its quadratic", f_gf_check(8))]


def is_appell_bfun(b_fun: Series, size: int) -> bool:
    """Does stripping the first row and column of <B> leave a binomial
    (Appell-type) triangle binom(n, m) * b_{(n-m)/2}?"""
    return _strip(bcomp.u_matrix(b_fun, size + 1)) == TriMatrix.from_entry_fn(
        size, lambda n, m: 0 if (n - m) % 2
        else comb(n, m) * b_fun.coeff((n - m) // 2))


def catalan_b_appell_check(phi: bcomp.Scalar, order: int) -> bool:
    """The rows of the B = C triangle without their leading zero form an
    Appell sequence: [x^(n+1)] g[phi] = row_{n+1}(phi) is phi * n! times
    [x^n] cbar(x) e^(phi*x), for the triangle and for the closed-form g."""
    rows = _triangle("catalan", order + 2).rows
    appell = bcomp.cbar_series(order) * Series([0, phi], order).exp()
    return (Series([Poly("x", rows[n + 1])(phi) for n in range(order + 1)],
                   order)
            == (bcomp.catalan_b_series(phi, order + 1) - 1).div_x(1)
            == Series([phi * factorial(n) * c
                       for n, c in enumerate(appell.coeffs)], order))


def suite_theorem8(order: int = 12) -> list[Check]:
    """Only Catalan-type weight series give an Appell-type stripped
    triangle; perturbations must fail.  The C(x) rows are Appell in phi."""
    _require_order(order, 6)
    cat = Series.catalan(order)
    cat2 = Series([catalan_number(k) * 2 ** k for k in range(order + 1)],
                  order)
    # perturb low-index coefficients so the defect lands inside the window
    bad = Series([1, 1, 3, 5, 14, 42, 132], order)
    return [
        ("stripped <C(x)> is binomial", is_appell_bfun(cat, order)),
        ("stripped <C(2x)> is binomial", is_appell_bfun(cat2, order)),
        ("perturbed C(x) rejected", not is_appell_bfun(bad, order)),
        ("1/(1-x) rejected",
         not is_appell_bfun(Series.geometric(order, 1), order)),
        ("C(x) members: row_(n+1)(phi) = phi n! [x^n] cbar(x) e^(phi x), "
         "phi in {1, 2, 1/2}",
         all(catalan_b_appell_check(phi, order)
             for phi in (1, 2, Fraction(1, 2)))),
    ]


# ---------------------------------------------------------------------------
# exponential pairs
# ---------------------------------------------------------------------------

def theorem9_check(b_fun: Series, size: int) -> bool:
    """Down-diagonals of <B> against the exponential pair (1, x*B).

    For every 0 <= m <= n < size the entry of <B> in row 2n - m, column m,
    times (n - m + 1)!, must equal the exponential-pair entry (n, m),
    n!/m! * [x^(n-m)] B^m.  The pair's columns come from one running power
    of B, not from the power table behind <B>; B(0) may vanish, so the pair
    is not built as a ``RiordanPair``.
    """
    mat = bcomp.u_matrix(b_fun, 2 * size - 1)
    powers = [Series.one(size - 1)]                 # B^m
    for _ in range(1, size):
        powers.append(powers[-1] * b_fun)
    return TriMatrix.from_entry_fn(
        size, lambda n, m: mat.entry(2 * n - m, m) * factorial(n - m + 1)
    ) == TriMatrix.from_entry_fn(
        size, lambda n, m: Fraction(factorial(n), factorial(m))
        * powers[m].coeff(n - m))


def exp_diag_display_check(order: int, which: str) -> bool:
    """Down-diagonal generating functions of three exponential pairs, n <= order.

    which = "geom":       diag n of (1, x/(1-x))_E is (n+1)! N_n(x)/(1-x)^(2n+1)
    which = "one_plus_x": diag n of (1, x(1+x))_E  is ((2n)!/n!) x^n/(1-x)^(2n+1)
    which = "catalan":    diag n of (1, x C(x))_E  is ((2n)!/n!) x/(1-x)^(2n+1), n > 0
    """
    half = 2 * order
    mat = RiordanPair(Series.one(half), _NAMED_B[which](half)).exp_matrix(half + 1)
    geom = Series.geometric(order, 1)

    def closed(n: int) -> Series:
        if which == "geom":
            return (Series.from_poly(bcomp.narayana_poly(n), order)
                    * geom ** (2 * n + 1) * factorial(n + 1))
        shift = n if which == "one_plus_x" else 1
        return (geom ** (2 * n + 1) * Fraction(factorial(2 * n), factorial(n))
                ).x_mul(shift).truncate(order)

    ns = range(1 if which == "catalan" else 0, order + 1)
    return ([diag_down_gf(mat, n).truncate(order) for n in ns]
            == [closed(n) for n in ns])


def suite_theorem9(order: int = 12) -> list[Check]:
    """Down-diagonals of <B> against the exponential pair (1, xB),
    for random integer weight series, and the diagonals of three
    exponential pairs in closed form."""
    rng = random.Random(109)
    checks: list[Check] = []
    for i in range(10):
        bf = _random_bfun(rng, order)
        checks.append(("exponential-pair diagonals, random B #%d" % i,
                       theorem9_check(bf, max(order // 2, 2))))
    for which, pair in (("geom", "x/(1-x)"), ("one_plus_x", "x(1+x)"),
                        ("catalan", "x C(x)")):
        checks.append(("down-diagonals of the exponential pair (1, %s) in "
                       "closed form" % pair,
                       exp_diag_display_check(order // 2, which)))
    return checks


# ---------------------------------------------------------------------------
# the two coefficient expansions and the power families
# ---------------------------------------------------------------------------

def _normalize_monomials(
        rows: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for mults, coeff in rows.items():
        key = tuple(mults)
        while key and key[-1] == 0:
            key = key[:-1]
        out[key] = coeff
    return out


def suite_bpoly(order: int = 24) -> list[Check]:
    """Row polynomials of the composition triangle, built from the closed
    partition form ``u_entry``, give [x^n] g directly, and the stored
    phi = 1 monomial table matches the recursive oracle."""
    rng = random.Random(103)
    results = {phi: True for phi in _PHIS}
    for _ in range(25):
        bf = _random_bfun(rng, order)
        polys = [Poly("x", [bcomp.u_entry(bf, n, m) for m in range(n + 1)])
                 for n in range(order + 1)]
        for phi in _PHIS:
            results[phi] &= (Series([p(phi) for p in polys], order)
                             == pseudo.g_from_b(bf, phi, order))
    checks: list[Check] = [
        ("row polynomial u_n at phi = %s, 25 random B, n <= %d" % (phi, order),
         ok) for phi, ok in results.items()]
    stored = load_b1_rows()
    table_ok = all(
        _normalize_monomials(stored[n])
        == _normalize_monomials(pseudo.b_expansion_monomials(n))
        for n in range(len(stored)))
    checks.append(("stored monomial table rows 0..%d" % (len(stored) - 1),
                   table_ok))
    return checks


def suite_powers(order: int = 16) -> list[Check]:
    """beta-th powers of family members: the two-parameter row polynomial
    u_n(beta, phi) equals [x^n] (g^(phi))^beta, plus the closed form for
    powers of the lattice-path series."""
    pairs = [(Fraction(1), 1), (Fraction(2), 3), (Fraction(3), Fraction(1, 2)),
             (Fraction(1, 2), 2), (Fraction(1, 3), -1),
             (Fraction(5, 2), Fraction(2, 3)), (Fraction(-1), Fraction(1, 2)),
             (Fraction(-2), 3), (Fraction(7, 3), Fraction(-5, 2))]
    rng = random.Random(107)
    bfuns = [("1/(1-x)", Series.geometric(order, 1)),
             ("random", _random_bfun(rng, order))]
    checks: list[Check] = []
    for beta, phi in pairs:
        ok = all(Series([bcomp.u_beta_poly(bf, n, beta)(phi)
                         for n in range(order + 1)], order)
                 == pseudo.g_from_b(bf, phi, order).pow_scalar(beta)
                 for _label, bf in bfuns)
        checks.append(("u_n(beta, phi) at beta = %s, phi = %s, n <= %d"
                       % (beta, phi, order), ok))
    r = bcomp.rna_series(1, 8)
    for beta in (1, 2, 3):
        rb = r.pow_scalar(beta)
        checks.append(("closed form for R^%d, n <= 6" % beta,
                       all(bcomp.rna_power_coeff(beta, n) == rb.coeff(n)
                           for n in range(7))))
    z = Poly.var("z")
    checks.append(("symbolic power polynomial q_n(z), n <= 6",
                   all(bcomp.q_poly(r, n) == bcomp.rna_power_coeff(z, n)
                       for n in range(7))))
    return checks


# ---------------------------------------------------------------------------
# logarithm of the one-parameter flow
# ---------------------------------------------------------------------------

def log_structure_check(g: Series) -> bool:
    """Is every entry of the dense log(1, g) the rescaled generator,
    (n, m) -> m * omega_{n-m}?"""
    om = ab.log_generator(g)
    size = g.order + 1
    return ab.substitution_matrix(g, size).log() == TriMatrix.from_entry_fn(
        size, lambda n, m: m * om.coeff(n - m + 1) if n > m else 0)


def log_generator_equation_check(g: Series) -> bool:
    """Does omega(g(x)) = omega(x) * g'(x) hold through the stored order?"""
    om = ab.log_generator(g)
    return om.compose(g).agrees(om * g.deriv(), g.order - 1)


def _bell_matrix(g: Series, size: int) -> TriMatrix:
    """The matrix of the pair (g, xg): the substitution matrix of x*g
    without its row 0 and column 0."""
    flow._require_unit_constant(g)
    return _strip(ab.substitution_matrix(g.x_mul(1), size + 1))


def bell_log_structure_check(g: Series) -> bool:
    """Every entry of log(g, xg) is (m+1) * b_{n-m-1}: the rows and columns
    1, 2, ... of log(1, x*g) and its structure m * omega_{n-m}."""
    flow._require_unit_constant(g)
    return log_structure_check(g.x_mul(1))


def generator_equation_check(g: Series) -> bool:
    """g^2 b(xg) = b * (xg)' for the Bell generator b: with G = x*g and
    omega = x^2 b it reads omega(G) = omega * G'."""
    flow._require_unit_constant(g)
    return log_generator_equation_check(g.x_mul(1))


def l_matrix_via_log_powers(g: Series, size: int) -> TriMatrix:
    """The flow triangle built directly as columns (1/m!) (log M)^m e_0,
    M the matrix of (g, xg)."""
    lg = _bell_matrix(g, size).log()
    cols = [[1] + [0] * (size - 1)]
    for m in range(1, size):
        cols.append([Fraction(1, m) * sum(lg.entry(i, j) * cols[-1][j]
                                          for j in range(i + 1))
                     for i in range(size)])
    return TriMatrix.from_entry_fn(size, lambda n, m: cols[m][n])


def bell_power_matrix(g: Series, phi: Coeff, size: int) -> TriMatrix:
    """The binomial power sum_n binom(phi, n) (M - I)^n of the matrix M of
    (g, xg)."""
    return _bell_matrix(g, size).pow_binomial(phi)


def flow_parity_check(g: Series, size: int) -> bool:
    """Pseudo-involution criterion on the flow triangle: row n of L keeps
    only powers of the same parity as n (c_2n even, c_{2n+1} odd)."""
    mat = flow.l_matrix(g, size)
    return mat == TriMatrix.from_entry_fn(
        size, lambda n, m: 0 if (n - m) % 2 else mat.entry(n, m))


def power_matches_scaled_bfun(g: Series, phi: Fraction, upto: int) -> bool:
    """Empirical probe: does the flow member g^(phi) coincide with the member
    whose B-function is phi times the B-function of g?

    True for g solving g = 1 + x*g*B(x^2*g) with B geometric (the
    lattice-path case) and for the Pascal case B = 1; false for general B,
    so this is a probe rather than a theorem.
    """
    b = pseudo.b_from_g(g.truncate(upto))
    return flow.bell_power_series(g, phi, upto) == pseudo.g_from_b(b, phi, upto)


def inverse_weights_check(g: Series) -> bool:
    """Reversion exchanges the two weight systems and flips every sign."""
    gbar = g.revert()
    return (ab.alpha_weights(gbar) == [-w for w in ab.beta_weights(g)]
            and ab.beta_weights(gbar) == [-w for w in ab.alpha_weights(g)])


def family_inverse_check(g: Series, t: Coeff) -> bool:
    """Reversion carries each deformed family onto the mirrored family of
    the reverted series, at the same deformation parameter."""
    gbar = g.revert()
    return (ab.family_alpha(g, t).revert() == ab.family_beta(gbar, t)
            and ab.family_beta(g, t).revert() == ab.family_alpha(gbar, t))


def suite_flow(order: int = 12) -> list[Check]:
    """The matrix logarithm of a member's Bell pair: identity member,
    Legendre member, parity, and the lattice-path member's log triangle;
    the dense logarithm and binomial power against the streamed ones, the
    generator equations, the weight systems under reversion, and the flow
    against the weight-scaling family."""
    checks: list[Check] = []
    geom = Series.geometric(order, 1)
    ident_ok = (flow.l_matrix(geom, 9) == TriMatrix.identity(9)
                and all(flow.c_poly(geom, n)
                        == Poly("phi", [0] * n + [1]) for n in range(9)))
    checks.append(("geometric member: L = identity, c_n(phi) = phi^n",
                   ident_ok))

    r = bcomp.rna_series(1, max(order, 12))
    checks.append(("lattice-path member: L(R) is the 1/(1-x) triangle",
                   flow.l_matrix(r, 11) == load_matrix("comp_matrix_geom")))
    checks.append(("parity of the flow through R", flow_parity_check(r, order)))
    g_any = pseudo.g_from_b(Series([1, -2, 3, 1, 0, 2, 1], max(6, order)),
                            Fraction(2, 3), order)
    checks.append(("parity of the flow through a generated member",
                   flow_parity_check(g_any, order - 1)))
    gbad = Series([1, 1, 1, 1, 2, 3, 5, 8, 13], 8)
    checks.append(("parity fails off the pseudo-involution locus",
                   not flow_parity_check(gbad, 9)))

    # Legendre member: g = 1/sqrt(1 - 2 s x + x^2) with s = sqrt(1 - x^2);
    # column m of L is x^m P_m(s) with P_m the Legendre polynomials.
    m_ord = 10
    s = Series([1, 0, -1], m_ord).sqrt()
    inner = (Series.one(m_ord) - (s * 2).x_mul(1).truncate(m_ord)
             + Series([0, 0, 1], m_ord))
    g_leg = inner.sqrt().inverse()
    legendre = [Poly("y", [1]), Poly.var("y")]
    for n in range(1, 9):
        legendre.append(Poly.var("y") * legendre[n] * Fraction(2 * n + 1, n + 1)
                        - legendre[n - 1] * Fraction(n, n + 1))
    lmat = flow.l_matrix(g_leg, 9)
    leg_ok = all(
        col_gf(lmat, n) == legendre[n](s.truncate(8)).x_mul(n).truncate(8)
        for n in range(9))
    checks.append(("Legendre member: column m of L is x^m P_m(sqrt(1-x^2))",
                   leg_ok))
    checks.append(("Legendre member: generator b = sqrt(1 - x^2)",
                   flow.bell_log_generator(g_leg).agrees(s, m_ord - 3)))

    subs = [Series.catalan(order).x_mul(1).truncate(order),
            Series.geometric(order - 1, 1).x_mul(1),
            r.truncate(order - 1).x_mul(1),
            _random_normalized(random.Random(89), order)]
    subgroups = [subs[1], ab.from_alpha([0, Fraction(3)], order)]
    members = [r, g_any]
    size = order - 1
    checks += [
        ("dense log(1, g) entries are m * omega_(n-m), 4 series",
         all(log_structure_check(g) for g in subs)),
        ("generator equation omega(g) = omega * g', 4 series",
         all(log_generator_equation_check(g) for g in subs)),
        ("reversion swaps the alpha and beta weights and flips their signs, "
         "4 series", all(inverse_weights_check(g) for g in subs)),
        ("reversion maps each deformed family onto the mirrored one, "
         "4 series, t in {1/2, -2}",
         all(family_inverse_check(g, t) for g in subs
             for t in (Fraction(1, 2), -2))),
        ("split product = g on one-parameter subgroups, t in {1/3, -1, 2}",
         all(split_identity_check(g, t) for g in subgroups
             for t in (Fraction(1, 3), -1, 2))),
        ("negated-weight product = gbar o gbar on one-parameter subgroups",
         all(involution_split_check(g) for g in subgroups)),
        ("tangent relations at t = 0 and t = 1 on one-parameter subgroups",
         all(derivative_relations_check(g) for g in subgroups)),
        ("dense log(g, xg) entries are (m+1) * b_(n-m-1), R and a "
         "generated member", all(bell_log_structure_check(g) for g in members)),
        ("generator equation g^2 b(xg) = b (xg)', R and a generated member",
         all(generator_equation_check(g) for g in members)),
        ("columns (1/m!) (log M)^m e_0 of the dense log are L, R and a "
         "generated member",
         all(l_matrix_via_log_powers(g, size) == flow.l_matrix(g, size)
             for g in members)),
        ("column 0 of the dense binomial power is g^(phi), "
         "phi in {2, 1/3, -5/3}",
         all(col_gf(bell_power_matrix(g, phi, size), 0)
             == flow.bell_power_series(g, phi, size - 1)
             for g in members for phi in (2, Fraction(1, 3), Fraction(-5, 3)))),
    ]

    # read through x^10: the 1+x and C(x) members leave the family at x^7
    top = r.order
    scaling = [(r, Fraction(5, 2)), (Series.geometric(top, 1), Fraction(5, 2)),
               (bcomp.rna_series(1, top, beta=3), Fraction(1, 2))]
    g1, gc = bcomp.one_plus_x_series(1, top), bcomp.catalan_b_series(1, top)
    leaving = [(g1, Fraction(1, 2)), (g1, 2), (gc, 2)]
    checks.append(("geometric weights: the flow is the weight-scaling family",
                   all(power_matches_scaled_bfun(g, phi, 10)
                       for g, phi in scaling)))
    checks.append(("B = 1+x and C(x): the flow leaves the weight-scaling "
                   "family", not any(power_matches_scaled_bfun(g, phi, 10)
                                     for g, phi in leaving)))
    return checks


# ---------------------------------------------------------------------------
# infinite-product factorizations
# ---------------------------------------------------------------------------

def split_identity_check(g: Series, t: Coeff) -> bool:
    """Does the beta deformation at 1-t, composed after the alpha
    deformation at t, give back g through the stored order?

    True for t in {0, 1}, and for a single nonzero weight, where both
    deformations lie in one one-parameter subgroup and their weights add.
    False for generic g: on the alphabeta suite's samples the product agrees
    with g through x^5 and first differs at x^6 or later, and for
    g = w1^a(w2^c(x)) it exceeds g at x^6 by exactly t(1-t)/2 * a*c^2."""
    return ab.family_beta(g, 1 - t).compose(ab.family_alpha(g, t)) == g


def involution_split_check(g: Series) -> bool:
    """Do both deformations at t = -1, composed, give the double inverse
    iterate gbar(gbar(x)) (and, from the reverted series, g(g(x))), both as
    compositions and as flow powers, through the stored order?

    True for a single nonzero weight.  False for generic g: on the alphabeta
    suite's samples both products agree through x^7 and first differ at x^8
    or later, and for g = w1^a(w2^c(x)) the product minus gbar(gbar(x)) is
    zero below x^8 and exactly -a^3*c^2 at x^8."""
    gbar = g.revert()
    return (ab.family_alpha(g, -1).compose(ab.family_beta(g, -1))
            == gbar.compose(gbar) == ab.substitution_power(g, -2)
            and ab.family_alpha(gbar, -1).compose(ab.family_beta(gbar, -1))
            == g.compose(g) == ab.substitution_power(g, 2))


def lagrange_pair_check(weights: Sequence[Coeff], n: int) -> bool:
    """The two ordered interpolations with negated weights are exchanged by
    the substitution z -> -z-n up to the factor z/(z+n), in both directions."""
    z = Poly.var("z")
    shifted = Poly("z", (-n, -1))
    neg = [-w for w in weights]
    return (z * ab.s_alpha_poly(weights, n, shifted)
            == (z + n) * ab.s_beta_poly(neg, n, z)
            and z * ab.s_beta_poly(weights, n, shifted)
            == (z + n) * ab.s_alpha_poly(neg, n, z))


def derivative_relations_report(g: Series) -> dict[str, bool]:
    """Flow-parameter derivatives of the deformed families, relation by
    relation.

    At t = 0 the families move along the weight series (negated weight
    series for the reverted input); those four relations are exact.  The
    claimed t = 1 tangents -- beta(g(x)) for the alpha family and
    alpha(x) * g'(x) for the beta family -- depend on the generic split
    identity and share its finite-order obstruction, so they hold only
    through the order where the split identity itself holds.
    """
    t = Poly.var("t")
    a_ser, b_ser = ab.alpha_series(g), ab.beta_series(g)
    gbar = g.revert()

    def d_at(series: Series, point: int) -> Series:
        return series.map_coeffs(
            lambda c: c.deriv()(point) if isinstance(c, Poly) else 0)

    ga_t, gb_t = ab.family_alpha(g, t), ab.family_beta(g, t)
    return {
        "alpha_at_0": d_at(ga_t, 0) == a_ser,
        "beta_at_0": d_at(gb_t, 0) == b_ser,
        "inverse_alpha_at_0": d_at(ab.family_alpha(gbar, t), 0) == -b_ser,
        "inverse_beta_at_0": d_at(ab.family_beta(gbar, t), 0) == -a_ser,
        "alpha_at_1": d_at(ga_t, 1) == b_ser.compose(g),
        "beta_at_1": d_at(gb_t, 1).agrees(a_ser * g.deriv(), g.order - 1),
    }


def derivative_relations_check(g: Series) -> bool:
    """True when every relation in derivative_relations_report holds."""
    return all(derivative_relations_report(g).values())


def pseudo_involution_symmetry_check(g: Series) -> bool:
    """For a series whose reversion is -g(-x), the generator must be an even
    function and the beta weights the alternately-signed alpha weights."""
    ab._require_normalized(g)
    if g.revert() != -g.alternate():
        raise NotPseudoInvolution("compositional inverse is not -g(-x)")
    om = ab.log_generator(g)
    return om.alternate() == om and ab.beta_weights(g) == [
        w if k % 2 == 0 else -w for k, w in enumerate(ab.alpha_weights(g))]


def suite_alphabeta(order: int = 12) -> list[Check]:
    """Ascending/descending factorizations: round trips, the printed
    interpolation polynomials, the index-exchange identity, the deformed
    split products and the tangent relations.

    The split-product and t = 1 tangent lines are expected to FAIL: the
    identities hold only for degenerate weight series, and the first
    obstruction is exact (see ``split_identity_check``).
    """
    _require_order(order, 1)
    rng = random.Random(87)
    checks: list[Check] = []
    rt_order = order + 4
    samples = [Series.catalan(rt_order).x_mul(1).truncate(rt_order),
               Series.geometric(rt_order - 1, 1).x_mul(1),
               bcomp.rna_series(1, rt_order - 1).x_mul(1)]
    samples += [_random_normalized(rng, rt_order) for _ in range(7)]
    rt_ok = all(ab.from_alpha(ab.alpha_weights(g), g.order) == g
                and ab.from_beta(ab.beta_weights(g), g.order) == g
                for g in samples)
    checks.append(("weight round trips, 10 series, order %d" % rt_order, rt_ok))

    z = Poly.var("z")
    a1, a2, a3, a4 = (Fraction(2), Fraction(3), Fraction(5), Fraction(7))
    ws = [a1, a2, a3, a4]
    asc_ok = (
        ab.s_alpha_poly(ws, 1) == z * a1
        and ab.s_alpha_poly(ws, 2) == z * a2 + binom_param(z + 1, 2) * a1 ** 2
        and ab.s_alpha_poly(ws, 3) == (z * a3 + z * (z + 1) * a1 * a2
                                       + binom_param(z + 2, 3) * a1 ** 3)
        and ab.s_alpha_poly(ws, 4) == (
            z * a4 + z * (z + 1) * a1 * a3 + z * (z + 2) * a2 ** 2 / 2
            + z * (z + 1) * (z + 2) * a1 ** 2 * a2 / 2
            + binom_param(z + 3, 4) * a1 ** 4))
    checks.append(("ascending s_1..s_4 match their closed forms", asc_ok))
    desc_ok = (
        ab.s_beta_poly(ws, 1) == z * a1
        and ab.s_beta_poly(ws, 2) == z * a2 + binom_param(z + 1, 2) * a1 ** 2
        and ab.s_beta_poly(ws, 3) == (z * a3 + z * (z + 2) * a1 * a2
                                      + binom_param(z + 2, 3) * a1 ** 3)
        and ab.s_beta_poly(ws, 4) == (
            z * a4 + z * (z + 3) * a1 * a3 + z * (z + 2) * a2 ** 2 / 2
            + z * (z + 2) * (z + 3) * a1 ** 2 * a2 / 2
            + binom_param(z + 3, 4) * a1 ** 4))
    checks.append(("descending s_1..s_4 match their closed forms", desc_ok))

    wlists = [[Fraction(v) for v in (1, 2, 3, 4, 5, 6, 7, 8)],
              [Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(7),
               Fraction(-2, 3), Fraction(1), Fraction(4), Fraction(-5)]]
    lag_ok = all(lagrange_pair_check(wl, n)
                 for wl in wlists for n in range(1, 9))
    checks.append(("index exchange z/(z+n) s_n(alpha, -z-n) = s_n(beta, z), "
                   "n <= 8", lag_ok))

    gs = [_random_normalized(rng, order) for _ in range(10)]
    split_ok = all(split_identity_check(g, t)
                   for g in gs for t in (Fraction(1, 2), 2, -1))
    checks.append(("split product g_beta^(1-t) o g_alpha^(t) = g, "
                   "10 random g, t in {1/2, 2, -1}", split_ok))
    inv_ok = all(involution_split_check(g) for g in gs)
    checks.append(("negated-weight product equals gbar o gbar, 10 random g",
                   inv_ok))

    reports = [derivative_relations_report(g) for g in gs]
    at0_keys = ("alpha_at_0", "beta_at_0", "inverse_alpha_at_0",
                "inverse_beta_at_0")
    checks.append(("tangent relations at t = 0 (four families)",
                   all(r[k] for r in reports for k in at0_keys)))
    checks.append(("tangent relations at t = 1 (beta o g and alpha * g')",
                   all(r["alpha_at_1"] and r["beta_at_1"] for r in reports)))

    rxr = bcomp.rna_series(1, order - 1).x_mul(1)
    checks.append(("pseudo-involution symmetry alpha(-x) = beta(x) on x R(x)",
                   pseudo_involution_symmetry_check(rxr)))
    return checks


# ---------------------------------------------------------------------------
# pseudo-involution detector
# ---------------------------------------------------------------------------

def suite_detector(order: int = 24) -> list[Check]:
    """Members produced by the weight-series fixed point must test as
    pseudo-involutions; perturbed members must not."""
    _require_order(order, 6)
    rng = random.Random(88)
    checks: list[Check] = []
    pos_ok = True
    for _ in range(5):
        bf = _random_bfun(rng, order)
        for phi in (1, Fraction(1, 2)):
            g = pseudo.g_from_b(bf, phi, order)
            if not RiordanPair(g, g).is_pseudo_involution():
                pos_ok = False
    checks.append(("generated members pass, 10 cases, order %d" % order,
                   pos_ok))
    pasc_ok = all(RiordanPair.pascal(order, phi).is_pseudo_involution()
                  for phi in (1, 2, Fraction(1, 2)))
    checks.append(("scaled Pascal members pass", pasc_ok))
    g = pseudo.g_from_b(Series.geometric(order, 1), 1, order)
    bumped = g + Series([0] * 5 + [1], order)
    checks.append(("perturbed member rejected",
                   not RiordanPair(bumped, bumped).is_pseudo_involution()))
    return checks


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES: dict[str, SuiteFn] = {
    "matrices": suite_matrices,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
    "theorem3": suite_theorem3,
    "theorem4": suite_theorem4,
    "theorem5": suite_theorem5,
    "theorem6": suite_theorem6,
    "theorem7": suite_theorem7,
    "theorem8": suite_theorem8,
    "theorem9": suite_theorem9,
    "bpoly": suite_bpoly,
    "powers": suite_powers,
    "flow": suite_flow,
    "alphabeta": suite_alphabeta,
    "detector": suite_detector,
}


def run_suite(name: str, order: int | None = None) -> list[Check]:
    """Run one suite; ``order`` of None means the suite's own default."""
    fn = SUITES[name]
    return fn() if order is None else fn(order)


def suite_passed(checks: list[Check]) -> bool:
    return all(ok for _label, ok in checks)


def run_all(order: int | None = None) -> dict[str, list[Check]]:
    """Run every suite in registry order."""
    return {name: run_suite(name, order) for name in SUITES}
