"""Triangular matrices, pairs, and their serializations."""

import json
import random
from fractions import Fraction
from math import comb

import pytest

from riordan_lab.errors import (BadArgument, BadConstantTerm,
                                 InsufficientOrder, NotPseudoInvolution)
from riordan_lab.riordan import (RiordanPair, TriMatrix, a_sequence, coeff_str,
                                 col_gf, conv_polys, diag_down_gf,
                                 diag_up_poly, matrix_from_json_dict,
                                 matrix_to_csv, matrix_to_json_dict,
                                 matrix_to_text, row_poly)
from riordan_lab.series import Poly, Series


def random_unipotent(rng: random.Random, size: int) -> TriMatrix:
    return TriMatrix.from_entry_fn(
        size, lambda n, m: 1 if n == m else Fraction(rng.randint(-6, 6),
                                                     rng.randint(1, 3)))


def pascal_matrix(size: int) -> TriMatrix:
    return TriMatrix.from_entry_fn(size, lambda n, m: comb(n, m))


# ---------------------------------------------------------------------------
# TriMatrix algebra
# ---------------------------------------------------------------------------

def test_identity_and_entry():
    eye = TriMatrix.identity(4)
    assert eye.size == 4
    assert eye.entry(2, 2) == 1 and eye.entry(3, 1) == 0
    assert eye.entry(1, 3) == 0  # above the diagonal


def test_matrix_product_against_pascal_square():
    p = pascal_matrix(7)
    square = TriMatrix.from_entry_fn(7, lambda n, m: comb(n, m) * 2 ** (n - m))
    assert p * p == square


def test_inverse_of_random_unipotent():
    rng = random.Random(5)
    for size in (1, 2, 5, 8):
        m = random_unipotent(rng, size)
        assert m * m.inverse() == TriMatrix.identity(size)
        assert m.inverse() * m == TriMatrix.identity(size)


def test_add_sub_scale():
    p = pascal_matrix(4)
    assert p + p == p.scale(2)
    assert p - p == p.scale(0)
    assert p.scale(Fraction(1, 2)).scale(2) == p


def test_unipotent_detection():
    assert pascal_matrix(5).is_unipotent()
    assert not pascal_matrix(5).scale(2).is_unipotent()


def test_log_of_pascal_is_the_creation_matrix():
    want = TriMatrix.from_entry_fn(6, lambda n, m: n if m == n - 1 else 0)
    assert pascal_matrix(6).log() == want


def test_log_then_binomial_power_consistency():
    rng = random.Random(6)
    m = random_unipotent(rng, 6)
    assert m.pow_binomial(2) == m * m
    assert m.pow_binomial(-1) == m.inverse()
    half = m.pow_binomial(Fraction(1, 2))
    assert half * half == m
    assert m.pow_binomial(0) == TriMatrix.identity(6)


def test_binomial_power_symbolic_specializes():
    m = pascal_matrix(5)
    sym = m.pow_binomial(Poly.var("phi"))
    for phi in (1, 3, Fraction(-1, 2)):
        num = m.pow_binomial(phi)
        for n in range(5):
            for k in range(n + 1):
                c = sym.entry(n, k)
                value = c(phi) if isinstance(c, Poly) else c
                assert value == num.entry(n, k)


def test_truncated():
    p = pascal_matrix(6)
    assert p.truncated(3) == pascal_matrix(3)


# ---------------------------------------------------------------------------
# RiordanPair
# ---------------------------------------------------------------------------

def test_pascal_pair_matrix():
    assert RiordanPair.pascal(6, 1).matrix(7) == pascal_matrix(7)
    scaled = RiordanPair.pascal(6, Fraction(1, 2)).matrix(7)
    want = TriMatrix.from_entry_fn(
        7, lambda n, m: comb(n, m) * Fraction(1, 2) ** (n - m))
    assert scaled == want


def _untruncated_matrix(pair, size):
    """Entry (n, m) = [x^n] f * (x*g)^m with every product at full order."""
    rows = [[0] * (k + 1) for k in range(size)]
    col = pair.f
    for m in range(size):
        for r in range(m, size):
            rows[r][m] = col.coeff(r - m)
        col = col * pair.g
    return TriMatrix(rows)


@pytest.mark.parametrize("size", [1, 2, 7, 10])
def test_pair_matrix_matches_untruncated_column_products(size):
    rng = random.Random(size)
    t = Poly.var("t")
    for extra in (0, 3):
        order = size - 1 + extra
        dense = Series([rng.randint(1, 5)]
                       + [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(order)], order)
        sparse = Series([1] + [0] * (order - 1) + [-2], order)
        symbolic = Series([2 + t, 0, t * t, -1], order)
        for f, g in ((dense, sparse), (sparse, dense), (symbolic, dense),
                     (dense, symbolic)):
            pair = RiordanPair(f, g)
            assert pair.matrix(size) == _untruncated_matrix(pair, size)
    with pytest.raises(InsufficientOrder):
        RiordanPair(Series.one(size - 1), Series.one(size)).matrix(size + 1)


@pytest.mark.parametrize("size", [2, 3, 7, 10])
def test_pair_matrix_reads_g_one_order_below_f(size):
    f = Series([2, -1, Fraction(1, 3), 0, 5, 1, -2, 4, Fraction(-7, 2), 1], 9)
    g = Series([1, 3, 0, Fraction(-1, 2), 2, 0, 1, -1, 6, Fraction(2, 5)], 9)
    want = RiordanPair(f, g).matrix(size)
    short = RiordanPair(f.truncate(size - 1), g.truncate(size - 2))
    assert short.matrix(size) == want
    for f_order, g_order in ((size - 1, size - 3), (size - 2, size - 1)):
        if min(f_order, g_order) < 0:
            continue
        with pytest.raises(InsufficientOrder):
            RiordanPair(f.truncate(f_order), g.truncate(g_order)).matrix(size)


def test_pair_rejects_zero_constant_terms():
    for f, g in ((Series.x(3), Series.one(3)), (Series.one(3), Series.x(3))):
        with pytest.raises(BadConstantTerm):
            RiordanPair(f, g)


def test_identity_pair():
    pair = RiordanPair.identity(5)
    assert pair.matrix(6) == TriMatrix.identity(6)
    assert pair.xg() == Series.x(6)


def test_pair_product_matches_matrix_product():
    p = RiordanPair.pascal(8, 1)
    c = Series.catalan(8)
    q = RiordanPair(c, c)
    assert (p * q).matrix(8) == p.matrix(8) * q.matrix(8)
    assert (q * p).matrix(8) == q.matrix(8) * p.matrix(8)


def test_pair_inverse():
    c = Series.catalan(8)
    pair = RiordanPair(c, c)
    prod = pair * pair.inv()
    assert prod.matrix(8) == TriMatrix.identity(8)


def test_column_generating_functions():
    c = Series.catalan(8)
    pair = RiordanPair(c, c)
    mat = pair.matrix(9)
    for m in range(4):
        want = (c * (c.x_mul(1).truncate(8)) ** m).truncate(8 - m)
        assert col_gf(mat, m).truncate(8 - m) == want


def test_exponential_pair_is_pascal_for_exp():
    expx = Series.x(8).exp()
    pair = RiordanPair(expx, Series.one(8))
    assert pair.exp_matrix(9) == pascal_matrix(9)


def test_pseudo_involution_examples():
    from riordan_lab.bcomp import catalan_b_series, rna_series
    r = rna_series(1, 10)
    assert RiordanPair(r, r).is_pseudo_involution()
    gc = catalan_b_series(1, 10)
    assert RiordanPair(gc, gc).is_pseudo_involution()
    assert RiordanPair.pascal(10, 1).is_pseudo_involution()
    assert RiordanPair.pascal(10, Fraction(3, 2)).is_pseudo_involution()
    # neither (C, xC) nor (1+x, x(1+x)) qualifies
    c = Series.catalan(10)
    assert not RiordanPair(c, c).is_pseudo_involution()
    opx = Series([1, 1], 10)
    assert not RiordanPair(opx, opx).is_pseudo_involution()


def test_pseudo_involution_degenerate_multipliers():
    negx = Series([-1], 6)
    assert RiordanPair(Series.one(6), negx).is_pseudo_involution()
    assert RiordanPair(negx, negx).is_pseudo_involution()
    with pytest.raises(NotPseudoInvolution):
        RiordanPair(Series.one(6), Series([2], 6)).is_pseudo_involution()


def test_a_sequence_of_geometric_is_one_plus_x():
    g = Series.geometric(8, 1)
    assert a_sequence(g) == Series([1, 1], 8)


def test_a_sequence_of_catalan():
    # g = C(x): A = 1 + x A-ish? verify the defining identity g = A(x g)
    g = Series.catalan(8)
    a = a_sequence(g)
    assert a.compose(g.x_mul(1).truncate(a.order)) == g.truncate(a.order)


def test_conv_polys_specialize_to_powers():
    g = Series.geometric(8, 1)
    polys = conv_polys(g, 7)
    for z in (1, 2, Fraction(1, 2)):
        gz = g.pow_scalar(Fraction(z))
        for n in range(7):
            assert polys[n](z) == gz.coeff(n)


def test_row_and_diagonal_helpers():
    p = pascal_matrix(7)
    assert row_poly(p, 3) == Poly("x", [1, 3, 3, 1])
    assert diag_up_poly(p, 6) == Poly("x", [1, 5, 6, 1])  # rows 6,5,4,3
    d = diag_down_gf(p, 2)  # entries (2,0), (3,1), (4,2), ...
    assert d.coeffs[:4] == (1, 3, 6, 10)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_coeff_str_always_fractional():
    assert coeff_str(3) == "3/1"
    assert coeff_str(Fraction(-7, 2)) == "-7/2"


def test_json_round_trip_bit_exact():
    mat = TriMatrix([[1], [Fraction(1, 3), 1], [2, Fraction(-5, 7), 1]])
    data = matrix_to_json_dict(mat)
    text = json.dumps(data)
    back = matrix_from_json_dict(json.loads(text))
    assert back == mat
    assert json.loads(text)["rows"][1] == ["1/3", "1/1"]


def test_json_size_mismatch_rejected():
    data = {"size": 3, "rows": [["1/1"]]}
    with pytest.raises(BadArgument):
        matrix_from_json_dict(data)


def test_csv_layout():
    mat = TriMatrix([[1], [Fraction(1, 2), 1]])
    assert matrix_to_csv(mat) == "1/1\n1/2,1/1\n"


def test_text_layout_aligns_columns():
    mat = TriMatrix([[1], [10, 1], [100, Fraction(1, 2), 1]])
    assert matrix_to_text(mat) == "  1\n 10    1\n100  1/2  1\n"
