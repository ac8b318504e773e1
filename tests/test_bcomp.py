"""Composition triangles <B> and their closed-form families."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riordan_lab import bcomp as B
from riordan_lab import pseudo
from riordan_lab import verify as V
from riordan_lab.combinat import partitions
from riordan_lab.errors import InsufficientOrder
from riordan_lab.fixtures import load_matrix
from riordan_lab.pseudo import b_expansion, g_from_b
from riordan_lab.riordan import (RiordanPair, col_gf, diag_up_poly, row_poly)
from riordan_lab.series import Poly, Series, falling_factorial

bfun_lists = st.lists(st.integers(-3, 3), min_size=1, max_size=5)
small_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=3)


# ---------------------------------------------------------------------------
# the lattice-path series R and its triangles
# ---------------------------------------------------------------------------

def test_lattice_path_series_values():
    r = B.rna_series(1, 12)
    assert r.coeffs == (1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423, 978, 2283)


def test_lattice_path_pair_matrix():
    r = B.rna_series(1, 6)
    assert RiordanPair(r, r).matrix(7) == load_matrix("rna_matrix")


def test_lattice_path_functional_equation():
    phi = Fraction(5, 2)
    g = B.rna_series(phi, 12)
    inner = Series.one(12) - g.x_mul(2).truncate(12)
    assert g == Series.one(12) + (g.x_mul(1).truncate(12) * phi) * inner.inverse()


def test_beta_variant_is_the_scaled_weight_member():
    g = B.rna_series(Fraction(7, 2), 12, beta=3)
    assert g == g_from_b(Series.geometric(6, 3), Fraction(7, 2), 12)


def test_beta_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        B.rna_series(1, 5, beta=0)


def test_composition_matrix_and_row_polys():
    mat = B.u_matrix(Series.geometric(5, 1), 11)
    assert mat == load_matrix("comp_matrix_geom")
    for n in range(11):
        assert B.rna_row_poly(n) == row_poly(mat, n)


def test_scaled_weight_rows():
    beta = Fraction(2, 3)
    mat = B.u_matrix(Series.geometric(5, 1), 11)
    mat_b = B.u_matrix(Series.geometric(5, beta), 11)
    for n in range(11):
        assert B.rna_beta_row_poly(n, beta) == row_poly(mat_b, n)
    assert B.scale_entries(mat, beta) == mat_b


@given(bfun_lists, small_fracs)
def test_entry_scaling_law(coeffs, beta):
    size = 8
    bf = Series(coeffs, size)
    scaled = Series([c * beta ** k for k, c in enumerate(bf.coeffs)], size)
    assert B.u_matrix(scaled, size) == B.scale_entries(B.u_matrix(bf, size),
                                                       beta)


def test_row_polys_evaluate_to_series_coefficients():
    for phi in (1, 2, Fraction(1, 2), -3):
        rp = B.rna_series(phi, 10)
        for n in range(11):
            assert B.rna_row_poly(n)(phi) == rp.coeff(n)


def test_column_and_narayana_route_checks():
    assert V.rna_column_check(3, 12)
    assert V.rna_row_via_narayana_check(9)


# ---------------------------------------------------------------------------
# Narayana ladder
# ---------------------------------------------------------------------------

def test_narayana_matrix_and_gf():
    assert B.narayana_matrix(7) == load_matrix("narayana_matrix")
    assert V.narayana_gf_check(8)


def test_down_diagonals_give_row_convolutions():
    for n in range(1, 6):
        assert V.theorem4_check(n, 12)


def test_up_diagonals_are_narayana_rows():
    for n in range(6):
        assert V.theorem5_check(n)


# ---------------------------------------------------------------------------
# powers of R and the two-parameter rows
# ---------------------------------------------------------------------------

def test_power_coefficient_closed_form():
    for beta in (1, 2, 3, Fraction(1, 2)):
        power = B.rna_series(1, 8).pow_scalar(Fraction(beta))
        for n in range(9):
            assert B.rna_power_coeff(beta, n) == power.coeff(n)


def test_power_polynomial_symbolic():
    z = Poly.var("z")
    r = B.rna_series(1, 10)
    for n in range(9):
        assert B.q_poly(r, n) == B.rna_power_coeff(z, n)


def test_two_parameter_rows():
    bf = Series([1, 2, -1, 3], 4)
    phi = Fraction(5, 4)
    for beta in (1, 2, Fraction(3, 2)):
        power = g_from_b(bf, phi, 9).pow_scalar(Fraction(beta))
        for n in range(10):
            assert B.u_beta_poly(bf, n, beta)(phi) == power.coeff(n)
    for n in range(10):
        assert B.u_beta_poly(bf, n, 1) == B.u_poly(bf, n)


# ---------------------------------------------------------------------------
# B = 1 + x
# ---------------------------------------------------------------------------

def test_one_plus_x_matrix_rows_entries():
    mat = B.u_matrix(B.one_plus_x_bfun(5), 11)
    assert mat == load_matrix("bcomp_one_plus_x")
    for n in range(11):
        assert B.one_plus_x_row_poly(n) == row_poly(mat, n)
        for m in range(n + 1):
            assert B.one_plus_x_entry(n, m) == mat.entry(n, m)


def test_one_plus_x_series_and_equation():
    phi = Fraction(3, 2)
    g = B.one_plus_x_series(phi, 12)
    assert g == g_from_b(Series([1, 1], 6), phi, 12)
    assert g == Series.one(12) + (g.x_mul(1).truncate(12) * phi) * (
        Series.one(12) + g.x_mul(2).truncate(12))


def test_one_plus_x_diagonals_and_columns():
    for n in range(4):
        assert V.one_plus_x_down_diag_check(n, 8)
    big = B.u_matrix(B.one_plus_x_bfun(10), 21)
    for n in range(9):
        assert B.one_plus_x_up_diag_poly(n) == diag_up_poly(big, 2 * n)
    for m in range(11):
        assert B.one_plus_x_column_series(m, 20) == col_gf(big, m)


def test_t_polys_and_theorem6():
    assert B.t_poly(0) == Poly("x", [1])
    assert B.t_poly(1) == Poly("x", [1, 2])
    assert B.t_poly(2) == Poly("x", [1, 5, 5])
    assert V.t_poly_gf_check(8)
    for n in range(6):
        assert V.t_from_narayana_check(n)
    for n in range(5):
        assert V.theorem6_check(n, 14)


# ---------------------------------------------------------------------------
# B = C(x)
# ---------------------------------------------------------------------------

def test_catalan_weight_matrix_rows_entries():
    mat = B.u_matrix(Series.catalan(5), 11)
    assert mat == load_matrix("bcomp_catalan")
    for n in range(11):
        assert B.catalan_b_row_poly(n) == row_poly(mat, n)
        for m in range(n + 1):
            assert B.catalan_b_entry(n, m) == mat.entry(n, m)


def test_catalan_weight_series_and_equation():
    for phi in (1, 2, Fraction(1, 2), -2):
        assert B.catalan_b_series(phi, 12) == g_from_b(Series.catalan(6),
                                                       phi, 12)
    phi = Fraction(1, 2)
    g = B.catalan_b_series(phi, 10)
    comp = Series.catalan(10).compose(g.x_mul(2).truncate(10))
    assert g == Series.one(10) + (g.x_mul(1).truncate(10) * phi) * comp


def test_half_matrix_and_row_identities():
    assert B.half_matrix(8) == load_matrix("half_comp_matrix")
    for n in range(1, 7):
        assert V.theorem7_check(n)
    assert V.f_gf_check(8)


def test_down_diagonal_supposition_low_rows():
    for n in range(1, 4):
        assert V.down_diag_supposition_check(n, 6)


def test_catalan_members_have_appell_tails():
    for phi in (1, 2, Fraction(1, 2)):
        assert V.catalan_b_appell_check(phi, 8)


def test_appell_characterization():
    assert V.is_appell_bfun(Series.catalan(6), 10)
    cat2 = Series([Fraction(B.catalan_number(k) * 2 ** k) for k in range(7)])
    assert V.is_appell_bfun(cat2, 10)
    bad = Series([1, 1, 3, 5, 14, 42, 132])  # b_2 != C_2 * b_1^2
    assert not V.is_appell_bfun(bad, 10)
    assert not V.is_appell_bfun(Series.geometric(6, 1), 10)


def test_row_sum_identity_from_the_characterization():
    bb = Series.catalan(8)
    for n in range(5):
        lhs = sum(bb.coeff(n - m) * comb(2 * n + 1, 2 * m + 1)
                  for m in range(n + 1))
        rhs = sum(B.u_entry(bb, 2 * n + 2, q) for q in range(2 * n + 3))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# exponential-pair diagonals
# ---------------------------------------------------------------------------

def test_exponential_pair_entries_two_routes():
    for bf in (Series.geometric(9, 1), Series([1, 1], 9), Series.catalan(9),
               Series([1, 2, -1, 3, 0, 1, 4, -2, 1, 5])):
        assert V.theorem9_check(bf, 6)
        em = RiordanPair(Series.one(9), bf).exp_matrix(10)
        for n in range(10):
            for m in range(n + 1):
                assert B.exp_pair_entry_partitions(bf, n, m) == em.entry(n, m)


@given(bfun_lists)
def test_exponential_diagonal_identity_random(coeffs):
    bf = Series(coeffs, 8)
    assert V.theorem9_check(bf, 4)


def test_exponential_diagonal_displays():
    for which in ("geom", "one_plus_x", "catalan"):
        assert V.exp_diag_display_check(6, which)


# ---------------------------------------------------------------------------
# alternative row formulas
# ---------------------------------------------------------------------------

def test_rows_via_convolution_polys():
    for bf in (Series.geometric(6, 1), Series([1, 1], 6), Series.catalan(6),
               Series([1, -2, 3, Fraction(1, 2), 0, 2, 1])):
        for n in range(12):
            assert B.u_row_via_conv(bf, n) == B.u_poly(bf, n)


def test_exponential_weight_rows():
    efun = Series([Fraction(1, B.factorial(k)) for k in range(8)])
    for n in range(14):
        assert B.exp_bfun_row_poly(n) == B.u_poly(efun, n)


def test_cbar_series_values():
    cb = B.cbar_series(8)
    assert cb.coeff(0) == 1
    assert cb.coeff(2) == Fraction(1, 2)
    assert cb.coeff(4) == Fraction(1, 12)


# ---------------------------------------------------------------------------
# the B-power table against the partition closed forms
# ---------------------------------------------------------------------------

def _oracle_bfuns(order):
    """Random dense and sparse B carrying exactly ``order`` + 1 coefficients,
    and last a B with Poly coefficients in t."""
    rng = random.Random(order)
    dense = Series([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(order + 1)], order)
    sparse = [0] * (order + 1)
    sparse[0] = rng.randint(1, 5)
    sparse[rng.randint(0, order)] = -3
    no_constant = [0] * (order + 1)
    no_constant[order] = Fraction(7, 2)
    t = Poly.var("t")
    symbolic = Series([1 + t, Fraction(1, 2) * t * t, -2, 3 * t][:order + 1],
                      order)
    return [dense, Series(sparse, order), Series(no_constant, order), symbolic]


@pytest.mark.parametrize("size", [1, 2, 7, 10])
def test_table_triangle_matches_partition_entries(size):
    order = max(0, (size - 2) // 2)
    for bf in _oracle_bfuns(order):
        mat = B.u_matrix(bf, size)
        for n in range(size):
            want = [B.u_entry(bf, n, m) for m in range(n + 1)]
            assert mat.rows[n] == want
            assert B.u_poly(bf, n) == Poly("x", want)
            assert B.u_beta_poly(bf, n, 1) == Poly("x", want)
            if n:
                assert B.u_row_via_conv(bf, n) == Poly("x", want)


def test_table_triangle_reads_only_the_weights_it_needs():
    # <B> from a B padded far past the rows' needs equals, repr for repr,
    # the one from a B cut at index (size - 2) // 2
    for make in (lambda k: Series.geometric(k, 1), B.one_plus_x_bfun,
                 Series.catalan):
        for size in range(1, 16):
            short = B.u_matrix(make(max(0, (size - 2) // 2)), size)
            assert repr(B.u_matrix(make(size + 5), size).rows) == \
                repr(short.rows), size


def test_table_triangle_needs_enough_weights():
    B.u_matrix(Series([1, 2], 1), 5)
    with pytest.raises(InsufficientOrder):
        B.u_matrix(Series([1, 2], 1), 6)
    with pytest.raises(InsufficientOrder):
        B.u_poly(Series([1, 2], 1), 5)


@pytest.mark.parametrize("top", [0, 1, 2, 7, 10])
def test_expansion_rows_match_partition_expansion(top):
    order = max(0, (top - 1) // 2)
    *rational, symbolic = _oracle_bfuns(order)
    for bf in rational:
        assert B.b_expansion_rows(bf, top) == [b_expansion(bf, n)
                                               for n in range(top + 1)]
    # the partition sum takes rational B only: compare the Poly-coefficient
    # B after substituting values for t
    rows = B.b_expansion_rows(symbolic, top)
    for t in (2, Fraction(-1, 3)):
        bt = symbolic.map_coeffs(lambda c: c(t) if isinstance(c, Poly) else c)
        for n, row in enumerate(rows):
            at_t = Poly("phi", [c(t) if isinstance(c, Poly) else c
                                for c in row.coeffs])
            assert at_t == b_expansion(bt, n)
    with pytest.raises(InsufficientOrder):
        B.b_expansion_rows(Series([1], 0), 3)


# ---------------------------------------------------------------------------
# the partition closed forms against their per-partition loops
# ---------------------------------------------------------------------------

def _weight_loop(b_fun, n, m, odd):
    """Sum over partitions of n into m parts (odd parts only if ``odd``) of
    prod_p b_index(p)^mult / mult!, one partition at a time."""
    total = 0
    for part in partitions(n, m):
        if odd and any(p % 2 == 0 for p in part):
            continue
        w = Fraction(1)
        for p in sorted(set(part)):
            mult = part.count(p)
            index = (p - 1) // 2 if odd else p - 1
            w = w * Fraction(1, factorial(mult)) * b_fun.coeff(index) ** mult
        total = total + w
    return total


def _u_entry_loop(b_fun, n, m):
    if m > n:
        return 0
    if n == 0:
        return 1
    if m == 0 or (n - m) % 2:
        return 0
    total = _weight_loop(b_fun, n, m, True)
    if total == 0:
        return 0
    return falling_factorial((n + m) // 2, m - 1) * total


def _b_expansion_loop(b_fun, n):
    if n == 0:
        return Poly.const("phi", 1)
    phi = Poly.var("phi")
    total = Poly("phi")
    for q in range(1, n + 1):
        for part in partitions(n, q):
            if any(p % 2 == 0 for p in part):
                continue
            weight = Fraction(1)
            for p in sorted(set(part)):
                mult = part.count(p)
                weight *= Fraction(b_fun.coeff((p - 1) // 2)) ** mult / factorial(mult)
            if weight != 0:
                k = (n + q) // 2
                total = total + phi * falling_factorial(phi + (k - 1), q - 1) * weight
    return total


def _exp_pair_loop(b_fun, n, m):
    if n == 0:
        return 1
    return factorial(n) * _weight_loop(b_fun, n, m, False)


def _same(got, want):
    return got == want and repr(got) == repr(want)


@pytest.mark.parametrize("order", [0, 1, 3, 5])
def test_partition_closed_forms_match_their_loops(order):
    *rational, symbolic = _oracle_bfuns(order)
    for bf in rational + [symbolic]:
        for n in range(2 * order + 3):
            for m in range(n + 2):
                assert _same(B.u_entry(bf, n, m), _u_entry_loop(bf, n, m))
    for bf in rational:
        for n in range(2 * order + 3):
            assert _same(b_expansion(bf, n), _b_expansion_loop(bf, n))
        for n in range(order + 2):
            for m in range(n + 1):
                assert _same(B.exp_pair_entry_partitions(bf, n, m),
                             _exp_pair_loop(bf, n, m))


def test_partition_closed_forms_share_one_weight_sum(monkeypatch):
    def broken(*args):
        raise RuntimeError("weight sum")
    monkeypatch.setattr(B, "weight_sum", broken)
    monkeypatch.setattr(pseudo, "weight_sum", broken)
    bf = Series([1, 2, 3], 2)
    for call in (lambda: B.u_entry(bf, 5, 3), lambda: b_expansion(bf, 5),
                 lambda: B.exp_pair_entry_partitions(bf, 3, 2)):
        with pytest.raises(RuntimeError, match="weight sum"):
            call()


def test_theorem9_reads_no_power_of_b(monkeypatch):
    def broken(*args):
        raise RuntimeError("Series power")
    monkeypatch.setattr(Series, "__pow__", broken)
    for bf in (Series.catalan(9), Series([0, 2, -1, 3], 9)):
        assert V.theorem9_check(bf, 6)
