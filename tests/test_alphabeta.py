"""Infinite-product factorizations of substitution series and their flows.

The two-sided split identities are genuinely false for generic series; the
tests below pin the exact first obstruction instead of asserting the identity.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riordan_lab import alphabeta, cli, flow, verify
from riordan_lab.alphabeta import (_apply_factor, _flow_column,
                                   _substitute_factor, alpha_series,
                                   alpha_weights, beta_series,
                                   beta_weights, composition_poly,
                                   factor_column_gf, factor_series,
                                   family_alpha, family_beta, flow_triangle,
                                   from_alpha, from_beta, log_generator,
                                   s_alpha_poly, s_beta_poly, s_omega_poly,
                                   s_poly, series_to_weights,
                                   substitution_matrix, substitution_power,
                                   substitution_power_lie, weights_to_series)
from riordan_lab.errors import InsufficientOrder, NotPseudoInvolution
from riordan_lab.riordan import RiordanPair, TriMatrix
from riordan_lab.series import Poly, Series, binom_param
from riordan_lab.verify import (derivative_relations_check,
                                derivative_relations_report,
                                family_inverse_check, inverse_weights_check,
                                involution_split_check, lagrange_pair_check,
                                log_generator_equation_check,
                                log_structure_check,
                                pseudo_involution_symmetry_check,
                                split_identity_check)

N = 12


def _cat() -> Series:
    return Series.catalan(N).x_mul(1).truncate(N)


def _rna() -> Series:
    return Series([1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423, 978], 11).x_mul(1)


def _mob() -> Series:
    return Series.geometric(N - 1, 1).x_mul(1)


def _rnd() -> Series:
    return Series([0, 1, -2, Fraction(1, 3), 5, 0, -1, 2, Fraction(7, 2),
                   1, -4, 6, 9], N)


def _two_factor() -> Series:
    return from_alpha([Fraction(1, 2), Fraction(3)] + [0] * (N - 3), N)


# ---------------------------------------------------------------------------
# single factors
# ---------------------------------------------------------------------------

def test_factor_series_closed_form():
    for k, w in [(1, Fraction(1)), (1, Fraction(-2, 3)), (2, Fraction(1, 2)),
                 (3, Fraction(2)), (4, Fraction(-1))]:
        base = Series([1] + [0] * (k - 1) + [-k * w], N).pow_scalar(
            Fraction(-1, k))
        assert factor_series(k, w, N + 1) == base.x_mul(1)
        for m in range(4):
            assert factor_column_gf(k, w, m, N) == \
                (base ** m).truncate(N - m).x_mul(m)
    assert factor_series(1, Fraction(3), 8) == Series.geometric(7, 3).x_mul(1)


def test_same_type_factors_compose_by_adding_weights():
    for k in (1, 2, 3):
        a, b = Fraction(1, 2), Fraction(-3)
        fa, fb = factor_series(k, a, N), factor_series(k, b, N)
        assert fa.compose(fb) == factor_series(k, a + b, N)
        assert fb.compose(fa) == factor_series(k, a + b, N)
        assert fa.revert() == factor_series(k, -a, N)


def test_factor_log_is_a_single_monomial():
    for k, w in [(1, Fraction(2)), (2, Fraction(1, 3)), (3, Fraction(-1))]:
        f = factor_series(k, w, 9)
        assert log_generator(f) == Series([0] * (k + 1) + [w], 9)
        assert log_structure_check(f)


# ---------------------------------------------------------------------------
# the substitution matrix and weight extraction
# ---------------------------------------------------------------------------

def test_substitution_matrix_columns_are_powers():
    g0 = Series([0, 1, 1, 2, -1, 3, Fraction(1, 2), 0, 2, -5, 1, 4, -2], N)
    mat = substitution_matrix(g0, N + 1)
    for m in range(N + 1):
        gm = g0 ** m
        for r in range(N + 1):
            want = gm.coeff(r) if r >= m else 0
            assert mat.entry(r, m) == want


def test_hand_worked_two_factor_weights():
    a, c = Fraction(1, 2), Fraction(3)
    g2 = _two_factor()
    assert alpha_weights(g2) == [a, c] + [0] * (N - 3)
    bw = beta_weights(g2)
    assert bw[0] == a and bw[1] == c and bw[2] == -a * c


def test_weight_round_trips():
    for g in (_cat(), _rna(), _mob(), _two_factor(), _rnd()):
        assert from_alpha(alpha_weights(g), g.order) == g
        assert from_beta(beta_weights(g), g.order) == g
    mob = _mob()
    assert alpha_weights(mob) == [1] + [0] * (N - 2)
    assert beta_weights(mob) == [1] + [0] * (N - 2)


small_weights = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    min_size=1, max_size=5)


@given(small_weights)
def test_weight_round_trip_random(ws):
    g = from_alpha(ws, len(ws) + 1)
    assert alpha_weights(g) == ws
    assert from_beta(beta_weights(g), g.order) == g


def test_weight_packing_helpers():
    rnd = _rnd()
    ws = alpha_weights(rnd)
    assert series_to_weights(weights_to_series(ws)) == ws
    assert alpha_series(rnd) == weights_to_series(ws, N)
    assert series_to_weights(beta_series(rnd)) == beta_weights(rnd)


# ---------------------------------------------------------------------------
# interpolating polynomials
# ---------------------------------------------------------------------------

def test_interpolating_polys_agree_between_routes():
    for g in (_cat(), _rnd(), _two_factor()):
        aw, bw = alpha_weights(g), beta_weights(g)
        for n in range(8):
            sp = s_poly(g, n)
            assert s_alpha_poly(aw, n) == sp
            assert s_beta_poly(bw, n) == sp
        mat = substitution_matrix(g, 9)
        for n in range(9):
            for m in range(1, n + 1):
                assert mat.entry(n, m) == s_alpha_poly(aw, n - m, Fraction(m))
                assert mat.entry(n, m) == s_beta_poly(bw, n - m, Fraction(m))


def test_symbolic_forms_ascending():
    z = Poly.var("z")
    a1, a2, a3, a4 = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    aw = [a1, a2, a3, a4]
    assert s_alpha_poly(aw, 1) == z * a1
    assert s_alpha_poly(aw, 2) == z * a2 + binom_param(z + 1, 2) * a1 ** 2
    assert s_alpha_poly(aw, 3) == (z * a3 + z * (z + 1) * a1 * a2
                                   + binom_param(z + 2, 3) * a1 ** 3)
    assert s_alpha_poly(aw, 4) == (
        z * a4 + z * (z + 1) * a1 * a3 + z * (z + 2) * a2 ** 2 / 2
        + z * (z + 1) * (z + 2) * a1 ** 2 * a2 / 2
        + binom_param(z + 3, 4) * a1 ** 4)


def test_symbolic_forms_descending():
    z = Poly.var("z")
    a1, a2, a3, a4 = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    bw = [a1, a2, a3, a4]
    assert s_beta_poly(bw, 1) == z * a1
    assert s_beta_poly(bw, 2) == z * a2 + binom_param(z + 1, 2) * a1 ** 2
    assert s_beta_poly(bw, 3) == (z * a3 + z * (z + 2) * a1 * a2
                                  + binom_param(z + 2, 3) * a1 ** 3)
    assert s_beta_poly(bw, 4) == (
        z * a4 + z * (z + 3) * a1 * a3 + z * (z + 2) * a2 ** 2 / 2
        + z * (z + 2) * (z + 3) * a1 ** 2 * a2 / 2
        + binom_param(z + 3, 4) * a1 ** 4)


def test_deformation_coefficients_ascending():
    t = Poly.var("t")
    b1, b2, b3, b4, b5 = (Fraction(2), Fraction(3), Fraction(5), Fraction(7),
                          Fraction(11))
    ta = [w * t for w in (b1, b2, b3, b4, b5)]
    assert s_alpha_poly(ta, 1, Fraction(1)) == b1 * t
    assert s_alpha_poly(ta, 2, Fraction(1)) == b2 * t + b1 ** 2 * t ** 2
    assert s_alpha_poly(ta, 3, Fraction(1)) == (
        b3 * t + 2 * b1 * b2 * t ** 2 + b1 ** 3 * t ** 3)
    assert s_alpha_poly(ta, 4, Fraction(1)) == (
        b4 * t + (2 * b1 * b3 + Fraction(3, 2) * b2 ** 2) * t ** 2
        + 3 * b1 ** 2 * b2 * t ** 3 + b1 ** 4 * t ** 4)
    assert s_alpha_poly(ta, 5, Fraction(1)) == (
        b5 * t + (2 * b1 * b4 + 3 * b2 * b3) * t ** 2
        + (3 * b1 ** 2 * b3 + 4 * b1 * b2 ** 2) * t ** 3
        + 4 * b1 ** 3 * b2 * t ** 4 + b1 ** 5 * t ** 5)


def test_deformation_coefficients_descending():
    t = Poly.var("t")
    b1, b2, b3, b4, b5 = (Fraction(2), Fraction(3), Fraction(5), Fraction(7),
                          Fraction(11))
    tb = [w * t for w in (b1, b2, b3, b4, b5)]
    assert s_beta_poly(tb, 1, Fraction(1)) == b1 * t
    assert s_beta_poly(tb, 2, Fraction(1)) == b2 * t + b1 ** 2 * t ** 2
    assert s_beta_poly(tb, 3, Fraction(1)) == (
        b3 * t + 3 * b1 * b2 * t ** 2 + b1 ** 3 * t ** 3)
    assert s_beta_poly(tb, 4, Fraction(1)) == (
        b4 * t + (4 * b1 * b3 + Fraction(3, 2) * b2 ** 2) * t ** 2
        + 6 * b1 ** 2 * b2 * t ** 3 + b1 ** 4 * t ** 4)
    assert s_beta_poly(tb, 5, Fraction(1)) == (
        b5 * t + (5 * b1 * b4 + 4 * b2 * b3) * t ** 2
        + (10 * b1 ** 2 * b3 + Fraction(15, 2) * b1 * b2 ** 2) * t ** 3
        + 10 * b1 ** 3 * b2 * t ** 4 + b1 ** 5 * t ** 5)


# ---------------------------------------------------------------------------
# the log generator and its composition sums
# ---------------------------------------------------------------------------

def test_generator_routes():
    z = Poly.var("z")
    for g in (_cat(), _rnd(), _mob(), _rna()):
        assert log_structure_check(g)
        assert log_generator_equation_check(g)
        om = series_to_weights(log_generator(g))
        for n in range(7):
            assert s_omega_poly(om, n, z, Fraction(1)) == s_poly(g, n)
        for n in range(1, 8):
            assert s_omega_poly(om, n - 1, Fraction(1)) == \
                composition_poly(g, n)


def test_composition_poly_is_the_reindexed_bell_row():
    # [x^n] of the flow image of x is c_(n-1) of the Bell member g/x
    for g in (_cat(), _rnd(), _mob(), _rna(), _two_factor()):
        assert composition_poly(g, 0) == 0
        for n in range(1, g.order + 1):
            assert composition_poly(g, n) == \
                flow.c_poly(g.div_x(1), n - 1, "t"), n
    with pytest.raises(InsufficientOrder):
        flow_triangle(log_generator(_rnd().truncate(4)), 5)


def test_flows_take_the_generator_of_g_truncated_to_the_rows(monkeypatch):
    seen = []

    def spy(g):
        seen.append(g.order)
        return log_generator(g)

    monkeypatch.setattr(alphabeta, "log_generator", spy)
    monkeypatch.setattr(flow, "log_generator", spy)
    g = _rnd()
    bell = g.div_x(1)
    for n in range(1, 6):
        seen.clear()
        composition_poly(g, n)
        flow.c_poly(bell, n - 1)
        flow.l_matrix(bell, n)
        verify.flow_parity_check(bell, n)
        assert seen == [n] * 4, n


def test_moebius_generator_is_x_squared():
    mob = _mob()
    assert log_generator(mob) == Series([0, 0, 1], mob.order)


def test_substitution_formula_bridges_to_bell_flow():
    # same composition sum, prefix products started at beta instead of 1
    bf = Series([1, -2, 3, Fraction(1, 2), 0, 2], 5)
    weights = list(bf.coeffs)
    for n in range(1, 7):
        for beta in (1, 2, Fraction(3, 2)):
            row = flow.c_beta_poly_formula(bf, n, beta)
            for phi in (1, Fraction(1, 2), -2):
                assert s_omega_poly(weights, n, beta, phi) == row(phi)


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def test_substitution_flow_powers():
    for g in (_cat(), _rnd()):
        assert substitution_power(g, 1) == g
        assert substitution_power(g, 0) == Series.x(g.order)
        assert substitution_power(g, -1) == g.revert()
        assert substitution_power(g, 2) == g.compose(g)
        half = substitution_power(g, Fraction(1, 2))
        assert half.compose(half) == g
        assert substitution_power_lie(g, Fraction(2, 3)) == \
            substitution_power(g, Fraction(2, 3), g.order // 2)


# ---------------------------------------------------------------------------
# families, inverses, and the claimed identities
# ---------------------------------------------------------------------------

def test_families_and_inverse_identities():
    for g in (_cat(), _rnd(), _two_factor()):
        assert family_alpha(g, 1) == g and family_beta(g, 1) == g
        assert family_alpha(g, 0) == Series.x(g.order)
        assert inverse_weights_check(g)
        assert family_inverse_check(g, Fraction(1, 2))
        assert family_inverse_check(g, -2)


def test_tangent_relations_hold_at_zero_only():
    for g in (_cat(), _rnd(), _two_factor()):
        rep = derivative_relations_report(g)
        assert rep["alpha_at_0"] and rep["beta_at_0"]
        assert rep["inverse_alpha_at_0"] and rep["inverse_beta_at_0"]
        assert not rep["alpha_at_1"] and not rep["beta_at_1"]
        assert not derivative_relations_check(g)


def test_split_identities_degenerate_cases_pass():
    mob = _mob()
    single = from_alpha([0, Fraction(3)] + [0] * (N - 3), N)
    for tv in (Fraction(1, 3), Fraction(-1), Fraction(2)):
        assert split_identity_check(mob, tv)
        assert split_identity_check(single, tv)
    g2 = _two_factor()
    assert split_identity_check(g2, 0) and split_identity_check(g2, 1)
    assert involution_split_check(mob)
    assert involution_split_check(single)
    # one-parameter subgroups satisfy the t = 1 tangents too
    assert derivative_relations_check(mob)
    assert derivative_relations_check(single)


def test_split_identities_fail_generically():
    for tv in (Fraction(1, 3), Fraction(-1), Fraction(2)):
        for g in (_cat(), _rnd(), _two_factor()):
            assert not split_identity_check(g, tv)
    for g in (_cat(), _rnd(), _two_factor(), _rna()):
        assert not involution_split_check(g)


def test_first_split_obstruction_is_exact():
    a, c = Fraction(1, 2), Fraction(3)
    assert split_identity_check(from_alpha([a, c, 0, 0], 5), Fraction(1, 2))
    assert not split_identity_check(from_alpha([a, c, 0, 0, 0], 6),
                                    Fraction(1, 2))
    g2t = from_alpha([a, c] + [0] * 6, 8)
    mixed = family_beta(g2t, Fraction(1, 2)).compose(
        family_alpha(g2t, Fraction(1, 2)))
    # defect t(1-t)/2 * a*c^2 at t = 1/2
    assert mixed.coeff(6) - g2t.coeff(6) == \
        Fraction(1, 4) * Fraction(1, 2) * a * c ** 2


def test_negated_weight_obstruction_is_exact():
    a, c = Fraction(1, 2), Fraction(3)
    g2t = from_alpha([a, c] + [0] * 6, 8)
    prod = from_alpha([-w for w in alpha_weights(g2t)], 8).compose(
        from_beta([-w for w in beta_weights(g2t)], 8))
    square = g2t.revert().compose(g2t.revert())
    assert all(prod.coeff(i) == square.coeff(i) for i in range(8))
    assert prod.coeff(8) - square.coeff(8) == -a ** 3 * c ** 2


def test_symbolic_split_defect_polynomial():
    a, c = Fraction(1, 2), Fraction(3)
    g2t = from_alpha([a, c] + [0] * 6, 8)
    tp = Poly.var("t")
    sym_mixed = family_beta(g2t, 1 - tp).compose(family_alpha(g2t, tp))
    for i in range(6):
        assert sym_mixed.coeff(i) - g2t.coeff(i) == 0
    want = a * c ** 2 * Fraction(1, 2)
    assert sym_mixed.coeff(6) - g2t.coeff(6) == Poly("t", (0, want, -want))


def test_deformed_family_matches_scaled_interpolation():
    cat = _cat()
    tv = Fraction(2, 5)
    gat = family_alpha(cat, tv)
    scaled = [w * tv for w in alpha_weights(cat)]
    for n in range(6):
        assert s_poly(gat, n) == s_alpha_poly(scaled, n)


def test_lagrange_exchange():
    for wlist in ([Fraction(k) for k in range(1, 7)],
                  [Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(7),
                   Fraction(-2, 3), Fraction(1)]):
        for n in range(1, 7):
            assert lagrange_pair_check(wlist, n)


def test_pseudo_involution_symmetry():
    assert pseudo_involution_symmetry_check(_mob())
    assert pseudo_involution_symmetry_check(_rna())
    with pytest.raises(NotPseudoInvolution):
        pseudo_involution_symmetry_check(_cat())


# ---------------------------------------------------------------------------
# production routes against the dense oracles
# ---------------------------------------------------------------------------

_SPARSE = [1, 0, Fraction(2, 3), 0, 0, -1, 0, 0, 0, 4, 0, 0, Fraction(1, 5)]
_DENSE = [1, Fraction(1, 2), -3, Fraction(5, 7), 2, 1, Fraction(-1, 9), 3,
          -2, Fraction(4, 5), 1, -1, Fraction(2, 3)]


def test_streamed_columns_match_the_dense_log_and_power():
    # g = 1 is the identity: every difference vector vanishes at once
    for size in (1, 2, 7, 12):
        for cs in ([1], _SPARSE, _DENSE):
            g = Series(cs[:size], size - 1)
            bell = RiordanPair(g, g).matrix(size)
            subst = substitution_matrix(g.x_mul(1), size)
            for mat in (bell, subst):
                dense = [(None, mat.log())] + [
                    (t, mat.pow_binomial(t))
                    for t in (0, 1, Fraction(-5, 7), Poly.var("t"))]
                for t, want in dense:
                    for col in range(size):
                        got = _flow_column(mat, col, t)
                        column = [want.entry(n, col) for n in range(col, size)]
                        assert got == column, (size, cs, t, col)
                        assert repr(got) == repr(column), (size, cs, t, col)


def _peel_inputs(n):
    """Valuation-1 series of order n: dense, with gaps, and scaled x."""
    dense = [0, 1, Fraction(1, 2), -3, Fraction(2, 5), 1, 0, -1, 7,
             Fraction(-3, 4), 2, 1, -2, 5]
    gaps = [0, -2, 0, 0, 3, 0, Fraction(1, 3), 0, 0, 0, -1, 0, 2, 0]
    return [Series(dense, n), Series(gaps, n), Series([0, Fraction(3, 2)], n)]


def test_peel_helpers_match_horner_composition():
    t = Poly.var("t")
    for n in range(13):
        for cur in _peel_inputs(n):
            for k in range(1, n + 2):
                for w in (Fraction(-3, 4), 2, t):
                    f = factor_series(k, w, n)
                    assert _substitute_factor(cur, k, w) == cur.compose(f), \
                        (n, cur, k, w)
                    assert _apply_factor(cur, k, w) == f.compose(cur), \
                        (n, cur, k, w)


def test_production_flows_use_no_dense_log_power_or_compose(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("dense route called from production")

    monkeypatch.setattr(TriMatrix, "log", refuse)
    monkeypatch.setattr(TriMatrix, "pow_binomial", refuse)
    monkeypatch.setattr(Series, "compose", refuse)
    t = Poly.var("t")
    g = _rnd()
    bell = g.div_x(1)
    weights = alpha_weights(g), beta_weights(g)
    from_alpha(weights[0], N), from_beta(weights[1], N)
    from_alpha([w * t for w in weights[0]], N)
    log_generator(g)
    substitution_power(g, Fraction(2, 3)), substitution_power(g, t)
    composition_poly(g, 6), substitution_power_lie(g, 2)
    flow.bell_log_generator(bell), flow.bell_power_series(bell, -2)
    flow.l_matrix(bell, 8), flow.c_poly(bell, 6)
    for argv in (["flow", "log", "--b", "1+x", "--order", "8"],
                 ["alphabeta", "expand", "--g", "x*catalan", "--order", "8"]):
        assert cli.run(argv).exit_code == 0
