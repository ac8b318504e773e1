"""One-parameter flows inside the Bell subgroup: logs, powers, generators."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riordan_lab import bcomp as B
from riordan_lab import flow as F
from riordan_lab import verify as V
from riordan_lab.alphabeta import substitution_power
from riordan_lab.errors import BadConstantTerm
from riordan_lab.pseudo import g_from_b
from riordan_lab.riordan import RiordanPair, TriMatrix, col_gf
from riordan_lab.series import Poly, Series

N = 12


# ---------------------------------------------------------------------------
# the Pascal member g = 1/(1-x)
# ---------------------------------------------------------------------------

def test_pascal_member_log_is_trivial():
    geom = Series.geometric(N, 1)
    pas = RiordanPair(geom, geom)
    assert pas.matrix(N + 1) == TriMatrix.from_entry_fn(
        N + 1, lambda n, m: comb(n, m))
    expx = Series.x(N).exp()
    assert RiordanPair(expx, Series.one(N)).exp_matrix(N + 1) == pas.matrix(N + 1)
    assert F.bell_log_generator(geom) == Series([1], N - 1)
    assert V.bell_log_structure_check(geom)
    assert V.generator_equation_check(geom)
    assert F.l_matrix(geom, 9) == TriMatrix.identity(9)
    assert F.c_poly(geom, 5) == Poly("phi", [0, 0, 0, 0, 0, 1])


def test_pascal_member_powers_are_binomial_powers():
    geom = Series.geometric(N, 1)
    for phi in (2, Fraction(1, 2), Fraction(-3, 2)):
        assert V.bell_power_matrix(geom, phi, 9) == \
            RiordanPair.pascal(8, phi).matrix(9)
        assert F.bell_power_series(geom, phi, 8) == Series.geometric(8, phi)


# ---------------------------------------------------------------------------
# the lattice-path member R
# ---------------------------------------------------------------------------

def test_lattice_path_log_is_the_geometric_triangle():
    r = B.rna_series(1, N)
    assert V.bell_log_structure_check(r)
    assert V.generator_equation_check(r)
    assert F.l_matrix(r, 11) == B.u_matrix(Series.geometric(5, 1), 11)
    assert V.l_matrix_via_log_powers(r, 11) == F.l_matrix(r, 11)


@pytest.mark.parametrize("size", [0, 1, 2, 7, 12])
def test_flow_triangle_matches_the_dense_log_powers(size):
    dense = Series([1, Fraction(1, 2), -3, 0, 2, Fraction(-1, 9), 4, 1, -2,
                    Fraction(5, 3), 0, 7, -1], N)
    sparse = Series([1, 0, 0, -2] + [0] * 8 + [3], N)
    for g in (dense, sparse, dense.truncate(max(size - 1, 0))):
        assert F.l_matrix(g, size) == V.l_matrix_via_log_powers(g, size)


def test_lattice_path_powers():
    r = B.rna_series(1, N)
    for phi in (1, 3, Fraction(1, 2), Fraction(-5, 3)):
        assert F.bell_power_series(r, phi, N) == B.rna_series(phi, N)
    mat = RiordanPair(r, r).matrix(9)
    assert V.bell_power_matrix(r, 2, 9) == mat * mat
    assert V.bell_power_matrix(r, -1, 9) == RiordanPair(r, r).inv().matrix(9)
    half1 = V.bell_power_matrix(r, Fraction(1, 3), 9)
    half2 = V.bell_power_matrix(r, Fraction(2, 3), 9)
    assert half1 * half2 == mat
    assert V.flow_parity_check(r, 11)


small_phis = st.fractions(min_value=-2, max_value=2, max_denominator=3)
bfun_lists = st.lists(st.integers(-2, 2), min_size=1, max_size=4)


@given(bfun_lists, small_phis, small_phis)
def test_flow_group_law(coeffs, alpha, beta):
    g = g_from_b(Series([1] + coeffs, 4), 1, 8)
    lhs = V.bell_power_matrix(g, alpha, 7) * V.bell_power_matrix(g, beta, 7)
    assert lhs == V.bell_power_matrix(g, alpha + beta, 7)


def test_symbolic_parameter_reproduces_coefficient_polys():
    r = B.rna_series(1, N)
    sym = V.bell_power_matrix(r, Poly.var("phi"), 8)
    for n in range(8):
        entry = sym.entry(n, 0)
        if not isinstance(entry, Poly):
            entry = Poly.const("phi", entry)
        assert entry == F.c_poly(r, n)


def test_coefficient_polys_from_the_generator():
    r = B.rna_series(1, N)
    gen = F.bell_log_generator(r)
    for n in range(9):
        assert F.c_poly_formula(gen, n) == F.c_poly(r, n)
    for beta in (2, Fraction(1, 2)):
        for phi in (1, Fraction(3, 2)):
            direct = F.bell_power_series(r, phi, 9).pow_scalar(Fraction(beta))
            for n in range(9):
                assert F.c_beta_poly_formula(gen, n, beta)(phi) == \
                    direct.coeff(n)


def test_scaled_weight_member_is_a_pascal_conjugate():
    beta = 2
    phi = Fraction(1, 2)
    cat = Series.catalan(N // 2)
    cbx2 = Series([cat.coeff(k // 2) * beta ** (k // 2) if k % 2 == 0 else 0
                   for k in range(N + 1)], N)
    conj = RiordanPair(cbx2, cbx2)
    scaled = B.rna_series(1, N, beta=beta)
    lhs = V.bell_power_matrix(scaled, phi, N - 1)
    rhs = (conj.inv() * RiordanPair.pascal(N, phi) * conj).matrix(N - 1)
    assert lhs == rhs
    inv_closed = Series.one(N) / Series([1, 0, beta], N)
    assert conj.inv().f.agrees(inv_closed, N - 2)


def test_flow_versus_scaled_weight_family():
    # the two one-parameter families through g coincide exactly for the
    # geometric-weight members ...
    assert V.power_matches_scaled_bfun(B.rna_series(1, N), Fraction(5, 2), 10)
    assert V.power_matches_scaled_bfun(Series.geometric(N, 1), Fraction(5, 2), 10)
    assert V.power_matches_scaled_bfun(B.rna_series(1, N, beta=3),
                                       Fraction(1, 2), 10)
    # ... but not for other weights: the flow leaves the weight-scaling curve
    g1 = B.one_plus_x_series(1, N)
    assert not V.power_matches_scaled_bfun(g1, Fraction(1, 2), 10)
    assert not V.power_matches_scaled_bfun(g1, 2, 10)
    gc = B.catalan_b_series(1, N)
    assert not V.power_matches_scaled_bfun(gc, 2, 10)


# ---------------------------------------------------------------------------
# the Legendre flow
# ---------------------------------------------------------------------------

M_ORD = 10


def _sqrt_one_minus_x2() -> Series:
    return Series([1, 0, -1], M_ORD).sqrt()


def _legendre_polys(count: int) -> list:
    polys = [Poly("y", [1]), Poly.var("y")]
    for n in range(1, count):
        nxt = (Poly.var("y") * polys[n] * Fraction(2 * n + 1, n + 1)
               - polys[n - 1] * Fraction(n, n + 1))
        polys.append(nxt)
    return polys


def test_legendre_member_closed_form():
    s = _sqrt_one_minus_x2()
    af = s.inverse()
    pair = RiordanPair(af, af)
    g_leg = (pair * RiordanPair.pascal(M_ORD, 1) * pair.inv()).f
    inner = Series.one(M_ORD) - (s * 2).x_mul(1).truncate(M_ORD) + \
        Series([0, 0, 1], M_ORD)
    closed = inner.sqrt().inverse()
    assert g_leg.agrees(closed, M_ORD - 2)
    phi = Fraction(3, 2)
    inner_phi = Series.one(M_ORD) - (s * (2 * phi)).x_mul(1).truncate(M_ORD) + \
        Series([0, 0, phi * phi], M_ORD)
    closed_phi = inner_phi.sqrt().inverse()
    assert F.bell_power_series(closed.truncate(M_ORD - 2), phi, M_ORD - 2) == \
        closed_phi.truncate(M_ORD - 2)


def test_legendre_generator_and_columns():
    s = _sqrt_one_minus_x2()
    inner = Series.one(M_ORD) - (s * 2).x_mul(1).truncate(M_ORD) + \
        Series([0, 0, 1], M_ORD)
    g_base = inner.sqrt().inverse()
    assert F.bell_log_generator(g_base).agrees(s, M_ORD - 3)
    assert V.flow_parity_check(g_base.truncate(9), 9)
    legendre = _legendre_polys(9)
    lmat = F.l_matrix(g_base, 9)
    for n in range(9):
        want = legendre[n](s.truncate(8)).x_mul(n).truncate(8)
        assert col_gf(lmat, n) == want


def test_legendre_power_expansion():
    s = _sqrt_one_minus_x2()
    phi = Fraction(3, 2)
    inner_phi = Series.one(M_ORD) - (s * (2 * phi)).x_mul(1).truncate(M_ORD) + \
        Series([0, 0, phi * phi], M_ORD)
    closed_phi = inner_phi.sqrt().inverse()
    legendre = _legendre_polys(9)
    acc = Series.zero(8)
    for n in range(9):
        acc = acc + legendre[n](s.truncate(8)).x_mul(n).truncate(8) * phi ** n
    assert acc == closed_phi.truncate(8)


# ---------------------------------------------------------------------------
# negatives and round trips
# ---------------------------------------------------------------------------

def test_parity_fails_off_the_pseudo_involution_locus():
    gbad = Series([1, 1, 1, 1, 2, 3, 5, 8, 13], 8)
    assert not V.flow_parity_check(gbad, 9)
    gen = F.bell_log_generator(gbad)
    assert gen.alternate() != gen


def test_arbitrary_member_round_trip():
    g = g_from_b(Series([1, -2, 3, 1, 0, 2, 1], 6), Fraction(2, 3), N)
    assert V.bell_log_structure_check(g)
    assert V.generator_equation_check(g)
    assert V.flow_parity_check(g, 11)
    for phi in (Fraction(1, 2), -2):
        got = F.bell_power_series(g, phi, 10)
        for n in range(11):
            assert F.c_poly(g, n)(phi) == got.coeff(n)


# ---------------------------------------------------------------------------
# the Bell flow as the reindexed substitution flow
# ---------------------------------------------------------------------------

def test_bell_power_is_the_substitution_power_of_xg():
    t = Poly.var("t")
    for g in (Series([1, 1], 5), B.rna_series(1, 7),
              Series([1, Fraction(1, 2), -3, 0, 2, Fraction(-1, 9)], 5)):
        xg = g.x_mul(1)
        for phi in (0, 1, Fraction(-5, 7), t):
            for order in range(g.order):
                got = F.bell_power_series(g, phi, order)
                assert got == substitution_power(xg, phi, order + 1).div_x(1)
                dense = V.bell_power_matrix(g, phi, order + 1)
                assert repr(got) == repr(col_gf(dense, 0))


def test_bell_power_keeps_the_dense_types():
    g = Series([1, 1], 3)
    assert repr(F.bell_power_series(g, Fraction(1, 2))) == (
        "Series([Fraction(1, 1), Fraction(1, 2), Fraction(-1, 4), "
        "Fraction(1, 4)], order=3)")
    assert repr(F.bell_log_generator(g)) == (
        "Series([Fraction(1, 1), Fraction(-1, 1), Fraction(3, 2)], order=2)")


def test_flow_needs_unit_constant_term():
    g = Series([2, 1], 4)
    for call in (lambda: F.bell_log_generator(g),
                 lambda: F.bell_power_series(g, Fraction(1, 2)),
                 lambda: F.l_matrix(g, 5),
                 lambda: V.bell_power_matrix(g, 2, 5),
                 lambda: V.bell_log_structure_check(g)):
        with pytest.raises(BadConstantTerm):
            call()
