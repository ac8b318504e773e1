"""The weight-series fixed point, its factorization, and the worked families."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riordan_lab.errors import InsufficientOrder, NotPseudoInvolution
from riordan_lab.fixtures import load_matrix
from riordan_lab.pseudo import (arcsinh_row_poly, b_expansion,
                                b_expansion_monomials, b_from_g,
                                example6_b_pair, example6_series,
                                fibonacci_pair, g_from_b, lucas_pair,
                                sqrt_decompose)
from riordan_lab.riordan import RiordanPair, row_poly
from riordan_lab.series import Poly, Series

bfun_lists = st.lists(st.integers(-3, 3), min_size=1, max_size=6)


# ---------------------------------------------------------------------------
# the fixed point g = 1 + x g B(x^2 g)
# ---------------------------------------------------------------------------

def test_constant_weight_gives_geometric():
    assert g_from_b(Series([1], 10), 1, 10) == Series.geometric(10, 1)
    assert g_from_b(Series([1], 10), Fraction(1, 2), 10) == \
        Series.geometric(10, Fraction(1, 2))


def test_geometric_weight_gives_lattice_path_series():
    g = g_from_b(Series.geometric(12, 1), 1, 12)
    assert g.coeffs == (1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423, 978, 2283)


def test_zero_scale_gives_one():
    assert g_from_b(Series([1, 2, 3], 8), 0, 8) == Series.one(8)


@given(bfun_lists, st.sampled_from([1, 2, Fraction(1, 2), Fraction(-2, 3)]))
def test_fixed_point_equation(coeffs, phi):
    order = 10
    bf = Series(coeffs, order)
    g = g_from_b(bf, phi, order)
    inner = g.x_mul(2).truncate(order)
    lhs = Series.one(order) + (g * bf.compose(inner) * phi).x_mul(1).truncate(order)
    assert lhs == g


@given(bfun_lists, st.sampled_from([1, 3, Fraction(1, 2)]))
def test_extraction_round_trip(coeffs, phi):
    order = 12
    bf = Series(coeffs, order)
    g = g_from_b(bf, phi, order)
    back = b_from_g(g)
    assert back.agrees(bf * phi, back.order)


def test_extraction_rejects_non_members():
    with pytest.raises(NotPseudoInvolution):
        b_from_g(Series.catalan(8))


def _b_from_g_two_products(g):
    """B-extraction with two series products per coefficient: x*g times a
    running power of x^2*g, then that power times x^2*g."""
    n = g.order
    kmax = (n - 1) // 2
    xg = g.x_mul(1).truncate(n)
    inner = g.x_mul(2).truncate(n)
    power = Series.one(n)
    residual = g - 1
    bs = []
    for k in range(kmax + 1):
        c = residual.coeff(2 * k + 1)
        bs.append(c)
        if c != 0:
            residual = residual - (xg * power) * c
        power = power * inner
    if not residual.is_zero():
        raise NotPseudoInvolution("fails first at x^%d" % residual.valuation())
    return Series(bs, kmax)


def _extraction_inputs():
    rng = random.Random(17)
    t = Poly.var("t")
    for order in (1, 2, 7, 12, 17):
        for phi in (1, Fraction(-2, 3), t):
            cs = [rng.choice([0, 1, -2, Fraction(1, 2), Fraction(-3, 4)])
                  for _ in range(order // 2 + 1)]
            yield g_from_b(Series(cs, order // 2), phi, order)
    yield g_from_b(Series([2, Fraction(1, 2), -1], 2), 1, 5) + Series.x(5) ** 5


def test_extraction_makes_one_series_product_per_coefficient(monkeypatch):
    inputs = list(_extraction_inputs())
    want = [repr(_b_from_g_two_products(g)) for g in inputs]
    mul = Series.__mul__
    products = []

    def spy(self, other):
        if isinstance(other, Series):
            products.append(1)
        return mul(self, other)
    monkeypatch.setattr(Series, "__mul__", spy)
    for g, text in zip(inputs, want):
        products.clear()
        back = b_from_g(g)
        assert len(products) == back.order      # none for b_0, one per b_k after
        assert repr(back) == text
    # a non-member names the first failing coefficient as before
    member = g_from_b(Series([1, -2, Fraction(1, 3), 2], 4), 1, 9)
    for k, g in ((4, member + Series.x(9) ** 4), (8, member - Series.x(9) ** 8),
                 (2, Series.catalan(8))):
        with pytest.raises(NotPseudoInvolution) as info:
            b_from_g(g)
        with pytest.raises(NotPseudoInvolution) as old:
            _b_from_g_two_products(g)
        assert str(info.value).endswith(" x^%d" % k)
        assert str(old.value).endswith(" x^%d" % k)


# ---------------------------------------------------------------------------
# square-root factorization
# ---------------------------------------------------------------------------

def test_decomposition_identities():
    g = g_from_b(Series([1, 1, 2], 16), 1, 16)
    d = sqrt_decompose(g)
    assert d.sqrt_g ** 2 == g
    assert d.h * d.h.alternate() == Series.one(16)
    assert all(d.s.coeff(2 * k) == 0 for k in range(9))
    rec = d.b_fun
    assert rec.agrees(Series([1, 1, 2], rec.order), rec.order)


def _horner_g_from_b(b_fun, phi, order):
    """The earlier fixed-point solver, kept as an oracle: one Horner
    evaluation of (phi*B)(x^2 g) per order m, O(order^4)."""
    pb = (b_fun * phi).zero_extended(max(order, b_fun.order))
    g = Series.one(0)
    for m in range(1, order + 1):
        gm = g.zero_extended(m)
        inner = gm.x_mul(2).truncate(m)
        acc = Series.zero(m)
        for k in range(m // 2, -1, -1):
            acc = acc * inner
            c = pb.coeff(k)
            if c != 0:
                acc = acc + c
        g = gm.x_mul(1).truncate(m) * acc + 1
    return g.zero_extended(order) if order == 0 else g


def _solver_bfuns(rng, order):
    """Dense, sparse, constant and long B for ``order``, each carrying at
    least the (order-1)//2 + 1 coefficients the solver needs."""
    need = max(0, (order - 1) // 2)
    dense = Series([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(need + 1)], need)
    sparse = Series([0] * need + [rng.randint(1, 5)], need)
    long = Series([rng.randint(-3, 3) for _ in range(order + 3)], order + 2)
    return [dense, sparse, Series([Fraction(3, 2)], need), long]


@pytest.mark.parametrize("phi", [0, 1, Fraction(2, 3), Fraction(-5, 7),
                                 Poly.var("phi")],
                         ids=["0", "1", "2/3", "-5/7", "symbolic"])
def test_incremental_solver_matches_horner(phi):
    rng = random.Random(23)
    for order in (0, 1, 2, 3, 8, 13):
        for bf in _solver_bfuns(rng, order):
            assert g_from_b(bf, phi, order) == _horner_g_from_b(bf, phi, order)


def test_incremental_solver_matches_horner_on_poly_weights():
    t = Poly.var("t")
    bf = Series([1 + t, 0, Fraction(1, 2) * t * t, -2, 3 * t], 4)
    for phi in (1, Fraction(-5, 7)):
        for order in (0, 1, 2, 9):
            assert g_from_b(bf, phi, order) == _horner_g_from_b(bf, phi, order)


def test_incremental_solver_needs_enough_weights():
    for order in range(3, 12):
        need = (order - 1) // 2
        bf = Series(list(range(1, need + 2)), need)
        assert g_from_b(bf, 1, order) == _horner_g_from_b(bf, 1, order)
        with pytest.raises(InsufficientOrder):
            g_from_b(bf.truncate(need - 1), 1, order)


def test_decomposition_rejects_non_members():
    with pytest.raises(NotPseudoInvolution):
        sqrt_decompose(Series.catalan(10))


def _members():
    """Pseudo-involutions from dense, gapped and constant B, and g = 1."""
    return [g_from_b(Series([1, -2, Fraction(3, 4), 5, Fraction(-1, 3), 2,
                             7], 6), Fraction(2, 3), 13),
            g_from_b(Series([0, 1], 4), 1, 9),       # g lives on x^(3k)
            g_from_b(Series([2], 6), Fraction(-5, 7), 12),
            g_from_b(Series([0, 0, Fraction(1, 2)], 7), -3, 15),
            Series.one(5)]


def test_member_round_trip_uses_no_composition(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("composition called in the member round trip")

    members = _members()
    with monkeypatch.context() as patch:
        patch.setattr(Series, "compose", refuse)
        runs = [(sqrt_decompose(g), RiordanPair(g, g).inv(),
                 RiordanPair(g, g).is_pseudo_involution()) for g in members]
    for g, (d, inv, ok) in zip(members, runs):
        one = Series.one(g.order)
        assert ok
        assert repr(d.h.coeffs[0]) == "1"
        assert d.sqrt_g ** 2 == g
        assert d.h * d.h.alternate() == one
        # (1, x sqrt g)(1, xh) = (1, xg), through the composing product
        assert RiordanPair(one, d.sqrt_g) * RiordanPair(one, d.h) == \
            RiordanPair(one, g)
        size = g.order + 1
        assert inv.matrix(size) == RiordanPair(g, g).matrix(size).inverse()
        assert inv == RiordanPair(g.alternate(), g.alternate())


def test_general_pair_inverse_still_composes():
    c = Series.catalan(9)
    bumped = Series(list(c.coeffs[:-1]) + [c.coeffs[-1] + 1], 9)
    for f, g in ((Series([1, 1], 9), c), (bumped, c), (c, bumped),
                 (Series([2, 0, -1, Fraction(1, 3)], 9), Series.geometric(9, 2))):
        pair = RiordanPair(f, g)
        assert pair.inv().matrix(10) == pair.matrix(10).inverse()


# ---------------------------------------------------------------------------
# the coefficient expansion in the scale parameter
# ---------------------------------------------------------------------------

def test_expansion_trivial_rows():
    assert b_expansion(Series([5], 4), 0) == 1
    assert b_expansion(Series([5], 4), 1) == Poly("phi", [0, 5])


@given(bfun_lists, st.sampled_from([1, -1, Fraction(1, 2), 3]))
def test_expansion_matches_powers(coeffs, phi):
    order = 10
    bf = Series(coeffs, order)
    gp = g_from_b(bf, 1, order).pow_scalar(Fraction(phi))
    for n in range(order + 1):
        assert b_expansion(bf, n)(phi) == gp.coeff(n)


def test_expansion_needs_enough_weights():
    with pytest.raises(InsufficientOrder):
        b_expansion(Series([1], 1), 9)


def test_monomial_table_row_four():
    # 4 = 1+1+1+1 (coefficient (4)_3/4! = 1) and 4 = 3+1 (coefficient 3)
    assert b_expansion_monomials(4) == {(4, 0): Fraction(1),
                                        (1, 1): Fraction(3)}
    assert b_expansion_monomials(0) == {(): Fraction(1)}


def test_monomial_table_collapses_to_expansion():
    rng = random.Random(9)
    bf = Series([rng.randint(-3, 3) for _ in range(5)], 8)
    for n in range(9):
        total = Fraction(0)
        for mults, coeff in b_expansion_monomials(n).items():
            prod = Fraction(1)
            for i, m in enumerate(mults):
                prod *= Fraction(bf.coeff(i)) ** m
            total += coeff * prod
        assert total == b_expansion(bf, n)(1)


# ---------------------------------------------------------------------------
# the arcsinh exponential array
# ---------------------------------------------------------------------------

def test_arcsinh_row_closed_form():
    x = Poly.var("x")
    assert arcsinh_row_poly(0) == 1
    assert arcsinh_row_poly(1) == x
    assert arcsinh_row_poly(2) == x * x
    assert arcsinh_row_poly(3) == x * (x + 1) * (x - 1)
    assert arcsinh_row_poly(4) == x * x * (x + 2) * (x - 2)


def test_arcsinh_rows_match_the_exponential_array():
    order = 8
    asinh = (Series.x(order + 1) +
             Series([1, 0, 1], order + 1).sqrt()).log()  # log(x + sqrt(1+x^2))
    pair = RiordanPair(Series.one(order), asinh.div_x(1))
    mat = pair.exp_matrix(order + 1)
    for q in range(order + 1):
        assert row_poly(mat, q) == arcsinh_row_poly(q)


# ---------------------------------------------------------------------------
# the two-parameter worked family and its companions
# ---------------------------------------------------------------------------

def test_family_member_zero_is_geometric():
    assert example6_series(0, 8) == Series.geometric(8, 1)


def test_family_weight_rows():
    tri = example6_b_pair(6).matrix(4)
    assert tri == load_matrix("b_triangle")
    for m in range(4):
        g = example6_series(m, 16)
        back = b_from_g(g)
        row = [tri.entry(m, j) for j in range(m + 1)]
        assert list(back.coeffs[:m + 1]) == row
        assert all(c == 0 for c in back.coeffs[m + 1:])


def test_family_h_is_an_odd_power_of_the_base():
    base = sqrt_decompose(example6_series(0, 14)).h
    # h - 1/h = x pins h = (x + sqrt(x^2 + 4)) / 2
    assert base - base.inverse() == Series.x(14)
    for m in (1, 2, 3):
        d = sqrt_decompose(example6_series(m, 14))
        assert d.h == base ** (2 * m + 1)


def test_lucas_rows_are_lucas_polynomials():
    mat = lucas_pair(8).matrix(8)
    polys = [Poly("x", [2]), Poly.var("x")]
    for n in range(2, 8):
        polys.append(Poly.var("x") * polys[n - 1] + polys[n - 2])
    for n in range(1, 8):
        assert row_poly(mat, n) == polys[n]
    assert row_poly(mat, 0) == 1  # the multiplier starts at 1, not 2


def test_fibonacci_rows_are_fibonacci_polynomials():
    mat = fibonacci_pair(8).matrix(8)
    polys = [Poly("x", [1]), Poly.var("x")]
    for n in range(2, 8):
        polys.append(Poly.var("x") * polys[n - 1] + polys[n - 2])
    for n in range(8):
        assert row_poly(mat, n) == polys[n]


def test_power_sums_of_h_give_lucas_rows():
    # h - 1/h = x forces L_n(x) = h^n + (-1)^n h^(-n)
    order = 10
    base = sqrt_decompose(example6_series(0, order)).h
    mat = lucas_pair(order).matrix(order)
    for n in range(1, 8):
        power_sum = base ** n + base ** (-n) * (-1) ** n
        want = Series([mat.entry(n, j) for j in range(n + 1)], order)
        assert power_sum == want


def test_fixture_matrices_for_companion_pairs():
    assert lucas_pair(6).matrix(6) == load_matrix("lucas_matrix")
    assert fibonacci_pair(6).matrix(6) == load_matrix("fibonacci_matrix")
