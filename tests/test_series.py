"""Series and Poly arithmetic, directed cases plus algebraic properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riordan_lab.errors import (BadArgument, BadConstantTerm,
                                NonzeroConstant, NotReversible)
from riordan_lab.pseudo import b_from_g, g_from_b
from riordan_lab.series import (Poly, Series, binom_param, falling_factorial,
                                format_terms)

ORD = 8

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_ints = st.integers(-5, 5)
coeffs = small_ints | rationals


def series_list(first=None, second=None):
    body = st.lists(coeffs, min_size=ORD + 1, max_size=ORD + 1)

    def fix(cs):
        cs = list(cs)
        if first is not None:
            cs[0] = first
        if second is not None:
            cs[1] = second
        return Series(cs, ORD)

    return body.map(fix)


any_series = series_list()
unit_series = series_list(first=Fraction(1))          # constant term 1
normalized = series_list(first=Fraction(0), second=Fraction(1))


# ---------------------------------------------------------------------------
# construction and basics
# ---------------------------------------------------------------------------

def test_constructor_pads_and_truncates():
    s = Series([1, 2], 4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    t = Series([1, 2, 3, 4, 5, 6], 3)
    assert t.coeffs == (1, 2, 3, 4)
    assert Series([5]).order == 0


def test_equality_requires_matching_order():
    assert Series([1, 1], 1) != Series([1, 1], 2)
    assert Series([1, 1], 1) == Series([1, 1, 7], 1)


def test_named_series():
    assert Series.one(3).coeffs == (1, 0, 0, 0)
    assert Series.zero(2).coeffs == (0, 0, 0)
    assert Series.x(3).coeffs == (0, 1, 0, 0)
    assert Series.geometric(4, 1).coeffs == (1, 1, 1, 1, 1)
    assert Series.geometric(4, Fraction(1, 2)).coeffs == (
        1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
    assert Series.catalan(5).coeffs == (1, 1, 2, 5, 14, 42)


def test_catalan_fixed_point():
    c = Series.catalan(10)
    assert c * c.x_mul(1).truncate(10) + Series.one(10) == c


def test_geometric_inverts_linear():
    g = Series.geometric(6, 3)
    assert g * Series([1, -3], 6) == Series.one(6)


def test_coeff_and_shift():
    s = Series([2, 3, 5], 4)
    assert [s.coeff(k) for k in range(5)] == [2, 3, 5, 0, 0]
    assert s.x_mul(2).coeffs == (0, 0, 2, 3, 5, 0, 0)
    assert s.x_mul(2).order == 6


def test_alternate_flips_odd_coefficients():
    s = Series([1, 2, 3, 4], 3)
    assert s.alternate().coeffs == (1, -2, 3, -4)


@given(any_series)
def test_alternate_is_an_involution(s):
    assert s.alternate().alternate() == s


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------

@given(any_series, any_series, any_series)
def test_mul_distributes(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(any_series, any_series)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(any_series)
def test_scalar_ops(s):
    assert s * 2 == s + s
    assert s - s == Series.zero(ORD)
    assert -s + s == Series.zero(ORD)
    assert s * Fraction(1, 2) + s * Fraction(1, 2) == s


@given(unit_series)
def test_inverse_multiplies_to_one(s):
    assert s * s.inverse() == Series.one(ORD)
    assert s / s == Series.one(ORD)


def test_inverse_needs_nonzero_constant():
    with pytest.raises(ZeroDivisionError):
        Series.x(4).inverse()
    with pytest.raises(ZeroDivisionError):
        Series([Poly("t"), 1], 4).inverse()


@given(unit_series, st.integers(-3, 3))
def test_integer_powers(s, k):
    direct = Series.one(ORD)
    base = s if k >= 0 else s.inverse()
    for _ in range(abs(k)):
        direct = direct * base
    assert s ** k == direct


# ---------------------------------------------------------------------------
# log / exp / sqrt / rational powers
# ---------------------------------------------------------------------------

@given(unit_series)
def test_exp_log_round_trip(s):
    assert s.log().exp() == s


@given(series_list(first=Fraction(0)))
def test_log_exp_round_trip(u):
    assert u.exp().log() == u


@given(unit_series)
def test_sqrt_squares_back(s):
    r = s.sqrt()
    assert r * r == s
    assert r.constant == 1


def test_sqrt_one_plus_x():
    r = Series([1, 1], 6).sqrt()
    assert r.coeffs[:4] == (1, Fraction(1, 2), Fraction(-1, 8),
                            Fraction(1, 16))


def test_log_requires_unit_constant():
    with pytest.raises(BadConstantTerm):
        Series([2, 1], 4).log()
    with pytest.raises(BadConstantTerm):
        Series([1, 1], 4).exp()


@given(unit_series, st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_pow_scalar_adds_exponents(s, q):
    assert s.pow_scalar(q) * s.pow_scalar(1 - q) == s


def test_pow_scalar_integral_avoids_unit_requirement():
    s = Series([2, 1], 5)
    assert s.pow_scalar(2) == s * s
    with pytest.raises(BadConstantTerm):
        s.pow_scalar(Fraction(1, 2))


def test_pow_param_then_evaluate():
    g = Series.geometric(6, 1)
    sym = g.pow_param("phi")
    for phi in (2, Fraction(1, 2), -1):
        want = g.pow_scalar(Fraction(phi))
        for n in range(7):
            c = sym.coeff(n)
            value = c(phi) if isinstance(c, Poly) else c
            assert value == want.coeff(n)


def test_pow_param_rejects_parameter_collision():
    lifted = Series([Poly("phi", (1,)), Poly("phi", (0, 1))], 3)
    with pytest.raises(BadArgument):
        lifted.pow_param("phi")


# ---------------------------------------------------------------------------
# composition and reversion
# ---------------------------------------------------------------------------

@given(any_series, series_list(first=Fraction(0)),
       series_list(first=Fraction(0)))
def test_compose_associates(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_compose_requires_zero_constant():
    with pytest.raises(NonzeroConstant):
        Series([1, 1], 3).compose(Series([1, 1], 3))


@given(normalized)
def test_revert_round_trip(g):
    gbar = g.revert()
    x = Series.x(ORD)
    assert g.compose(gbar) == x
    assert gbar.compose(g) == x
    assert gbar.revert() == g


def test_revert_with_non_unit_slope():
    g = Series([0, 2, 1], 6)
    assert g.compose(g.revert()) == Series.x(6)


def test_revert_needs_invertible_slope():
    with pytest.raises(NotReversible):
        Series([0, 0, 1], 4).revert()
    with pytest.raises(NotReversible):
        Series([0, Poly("t"), 1], 4).revert()


def test_known_reversion():
    # revert(x / (1 - x)) = x / (1 + x)
    g = Series.geometric(5, 1).x_mul(1).truncate(6)
    assert g.revert() == Series([0, 1, -1, 1, -1, 1, -1], 6)


def _lagrange_revert(w):
    """Reversion by Lagrange inversion: [x^n] revert(w) is
    [x^(n-1)] (w/x)^(-n) / n."""
    c1 = w.coeffs[1] if w.order >= 1 else 0
    if w.coeffs[0] != 0 or c1 == 0:
        raise NotReversible("not of the form x*(unit)")
    inv = w.div_x(1).inverse()
    out = [0]
    p = Series.one(inv.order)
    for n in range(1, w.order + 1):
        p = p * inv
        out.append(p.coeff(n - 1) / Fraction(n))
    return Series(out, w.order)


def _reversion_inputs(order, rng):
    """x*(unit) series of the given order: dense with a non-unit slope,
    sparse, dense with slope 1, and four with Poly coefficients."""
    def rnd():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    def rnd_poly():
        return Poly("t", [rnd(), rng.randint(-2, 2)])

    cases = {
        "slope": [0, Fraction(-3, 2)] + [rnd() for _ in range(order - 1)],
        "sparse": [0, 1] + [rnd() if k % 3 == 0 else 0
                            for k in range(2, order + 1)],
        "dense": [0, 1] + [rnd() for _ in range(order - 1)],
        "poly": [0, 1] + [rnd_poly() for _ in range(order - 1)],
        "poly_gapped": [0, Fraction(2, 3)] + [rnd_poly() if k % 3 == 0 else 0
                                              for k in range(2, order + 1)],
        "poly_mixed": [0, 1] + [rnd_poly() if k % 2 == 0 else rnd()
                                for k in range(2, order + 1)],
        "poly_constant_slope": [0, Poly.const("t", 3)] + [
            rnd_poly() for _ in range(order - 1)],
    }
    return {name: Series(cs[:order + 1], order) for name, cs in cases.items()}


@pytest.mark.parametrize("order", [0, 1, 2, 3, 8, 20])
def test_revert_matches_lagrange_inversion(order):
    rng = random.Random(order)
    for name, w in _reversion_inputs(order, rng).items():
        if order == 0:
            for fn in (_lagrange_revert, Series.revert):
                with pytest.raises(NotReversible):
                    fn(w)
            continue
        want, got = _lagrange_revert(w), w.revert()
        assert got == want, name
        assert repr(got) == repr(want), name


def _to_ring(s, x):
    """A series with rational coefficients as a polynomial of x's ring."""
    qq = x.ring.domain
    return sum((qq(c.numerator, c.denominator) * x ** k
                for k, c in enumerate(map(Fraction, s.coeffs))), x.ring(0))


def _from_ring(r, x, order):
    """The coefficients of x^0 .. x^order of a ring polynomial."""
    return [Fraction(int(c.numerator), int(c.denominator))
            for c in (r.coeff(x ** k) for k in range(order + 1))]


@pytest.mark.parametrize("order", [1, 2, 5, 12])
def test_revert_matches_sympy(order):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_series_reversion
    _, x, y = sympy.polys.rings.ring("x, y", sympy.QQ)
    rng = random.Random(100 + order)
    for name, w in _reversion_inputs(order, rng).items():
        if name.startswith("poly"):
            continue
        r = rs_series_reversion(_to_ring(w, x), x, order + 1, y)
        assert list(w.revert().coeffs) == _from_ring(r, y, order), name


def _kernel_inputs(order, rng, first):
    """Series of the given order and constant term: dense rational, sparse
    with int and Fraction zeros, and all-int."""
    def rnd():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    cases = {
        "dense": [rnd() for _ in range(order)],
        "sparse": [rng.choice([0, Fraction(0), rnd()]) for _ in range(order)],
        "ints": [rng.randint(-4, 4) for _ in range(order)],
    }
    return {name: Series([first] + cs, order) for name, cs in cases.items()}


SYMPY_KERNELS = {
    # name: (constant term, riordan_lab call, ring_series call at precision n)
    "mul": (Fraction(-3, 2), lambda s, t: s * t,
            lambda rs, p, q, x, n: rs.rs_mul(p, q, x, n)),
    "inverse": (Fraction(5, 3), lambda s, t: s.inverse(),
                lambda rs, p, q, x, n: rs.rs_series_inversion(p, x, n)),
    "sqrt": (1, lambda s, t: s.sqrt(),
             lambda rs, p, q, x, n: rs.rs_nth_root(p, 2, x, n)),
    "log": (1, lambda s, t: s.log(),
            lambda rs, p, q, x, n: rs.rs_log(p, x, n)),
    "exp": (0, lambda s, t: s.exp(),
            lambda rs, p, q, x, n: rs.rs_exp(p, x, n)),
}
for _q in (3, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)):
    SYMPY_KERNELS["pow_scalar %s" % _q] = (
        1, lambda s, t, q=_q: s.pow_scalar(q),
        lambda rs, p, q, x, n, e=_q: rs.rs_pow(
            rs.rs_nth_root(p, e.denominator, x, n), e.numerator, x, n))


@pytest.mark.parametrize("kernel", sorted(SYMPY_KERNELS))
@pytest.mark.parametrize("order", [0, 1, 2, 5, 12])
def test_kernels_match_sympy_ring_series(kernel, order):
    sympy = pytest.importorskip("sympy")
    from sympy.polys import ring_series
    _, x = sympy.polys.rings.ring("x", sympy.QQ)
    first, ours, theirs = SYMPY_KERNELS[kernel]
    rng = random.Random(200 + order)
    inputs = _kernel_inputs(order, rng, first)
    others = list(_kernel_inputs(order, rng, Fraction(2, 7)).values())
    for (name, s), t in zip(inputs.items(), others):
        r = theirs(ring_series, _to_ring(s, x), _to_ring(t, x), x, order + 1)
        assert list(ours(s, t).coeffs) == _from_ring(r, x, order), name


@pytest.mark.parametrize("order", [0, 1, 2, 5, 12])
def test_compose_matches_sympy_ring_series(order):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_subs
    _, x = sympy.polys.rings.ring("x", sympy.QQ)
    rng = random.Random(300 + order)
    outers = _kernel_inputs(order, rng, Fraction(-3, 2))
    inners = _kernel_inputs(order, rng, 0)
    for outer_name, f in outers.items():
        for inner_name, g in inners.items():
            r = rs_subs(_to_ring(f, x), {x: _to_ring(g, x)}, x, order + 1)
            assert list(f.compose(g).coeffs) == _from_ring(r, x, order), \
                (outer_name, inner_name)


# Each kernel on hand-built inputs, with the repr its output had when every
# kernel summed with its own loop: ints stay ints, a Fraction anywhere in a
# sum (even a Fraction 0 the loop did not skip) makes a Fraction, and the
# zero Polys and constant Polys a Poly sum leaves stay Polys.
KERNEL_REPRS = (
    # mul
    ('Series([1, 2, 0, -1], 3) * Series([3, 0, 1, 1], 3)',
     'Series([3, 6, 1, 0], order=3)'),
    ('Series([1, Fraction(0), 2, 0], 3) * Series([1, 1, Fraction(0), 1], 3)',
     'Series([1, 1, 2, 3], order=3)'),
    ('Series([Fraction(1, 2), 1, 0, 2], 3) '
     '* Series([2, Fraction(0), 1, 1], 3)',
     'Series([Fraction(1, 1), 2, Fraction(1, 2), Fraction(11, 2)], order=3)'),
    ("Series([1, t, 0, Fraction(1, 2)], 3) "
     "* Series([1, 0, Poly('t'), t + 1], 3)",
     "Series([1, Poly('t', [0, 1]), 0, Poly('t', [Fraction(3, 2), 1])], "
     'order=3)'),
    ("Series([1, 1], 3) * Series([Poly('t'), 3], 3)",
     'Series([0, 3, 3, 0], order=3)'),
    # inverse
    ('Series([1, 0, 2, 0, 1], 4).inverse()',
     'Series([Fraction(1, 1), Fraction(0, 1), Fraction(-2, 1), '
     'Fraction(0, 1), Fraction(3, 1)], order=4)'),
    ('Series([2, Fraction(0), 1], 4).inverse()',
     'Series([Fraction(1, 2), Fraction(0, 1), Fraction(-1, 4), '
     'Fraction(0, 1), Fraction(1, 8)], order=4)'),
    ('Series([1, 0, t, 0, 0], 5).inverse()',
     'Series([Fraction(1, 1), Fraction(0, 1), '
     "Poly('t', [0, Fraction(-1, 1)]), Poly('t', []), "
     "Poly('t', [0, 0, Fraction(1, 1)]), Poly('t', [])], order=5)"),
    # sqrt
    ('Series([1, 0, 2, 0, 1], 4).sqrt()',
     'Series([1, Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), '
     'Fraction(0, 1)], order=4)'),
    ('Series([1, Fraction(0), Fraction(1, 3)], 3).sqrt()',
     'Series([1, Fraction(0, 1), Fraction(1, 6), Fraction(0, 1)], order=3)'),
    ("Series([1, Poly('t'), 1, t], 4).sqrt()",
     "Series([1, Poly('t', []), Poly('t', [Fraction(1, 2)]), "
     "Poly('t', [0, Fraction(1, 2)]), Poly('t', [Fraction(-1, 8)])], "
     'order=4)'),
    # exp, and the Poly exp behind pow_param
    ('Series([0, 1, 0, Fraction(1, 2)], 4).exp()',
     'Series([1, Fraction(1, 1), Fraction(1, 2), Fraction(2, 3), '
     'Fraction(13, 24)], order=4)'),
    ('Series([0, 2, 0, 0], 3).exp()',
     'Series([1, Fraction(2, 1), Fraction(2, 1), Fraction(4, 3)], order=3)'),
    ('Series([0, 0, t, 0, 1], 5).exp()',
     "Series([1, Fraction(0, 1), Poly('t', [0, Fraction(1, 1)]), "
     "Poly('t', []), Poly('t', [Fraction(1, 1), 0, Fraction(1, 2)]), "
     "Poly('t', [])], order=5)"),
    ("Series([1, 0, 1], 5).pow_param('phi')",
     "Series([1, Fraction(0, 1), Poly('phi', [0, Fraction(1, 1)]), "
     "Poly('phi', []), Poly('phi', [0, Fraction(-1, 2), Fraction(1, 2)]), "
     "Poly('phi', [])], order=5)"),
    # revert
    ('Series([0, 1, 0, 1], 5).revert()',
     'Series([0, Fraction(1, 1), Fraction(0, 1), Fraction(-1, 1), '
     'Fraction(0, 1), Fraction(3, 1)], order=5)'),
    ('Series([0, 1, 2, 0, 1], 4).revert()',
     'Series([0, Fraction(1, 1), Fraction(-2, 1), Fraction(8, 1), '
     'Fraction(-41, 1)], order=4)'),
    ('Series([0, Fraction(2, 3), 0, Fraction(0), 1], 5).revert()',
     'Series([0, Fraction(3, 2), Fraction(0, 1), Fraction(0, 1), '
     'Fraction(-243, 32), Fraction(0, 1)], order=5)'),
    ("Series([0, 1, Poly('t'), t, 0], 4).revert()",
     'Series([0, Fraction(1, 1), Fraction(0, 1), '
     "Poly('t', [0, Fraction(-1, 1)]), Fraction(0, 1)], order=4)"),
    ("Series([0, Fraction(3, 2), 0, 1, 0, Poly('t'), t, 0, Poly('t')], 9)"
     ".revert()",
     'Series([0, Fraction(2, 3), Fraction(0, 1), Fraction(-16, 81), '
     'Fraction(0, 1), Fraction(128, 729), '
     "Poly('t', [0, Fraction(-128, 2187)]), Fraction(-4096, 19683), "
     "Poly('t', [0, Fraction(1024, 6561)]), "
     "Poly('t', [Fraction(450560, 1594323)])], order=9)"),
    # g_from_b
    ('g_from_b(Series([1, 2], 2), 1, 5)',
     'Series([1, 1, 1, 3, 7, 13], order=5)'),
    ('g_from_b(Series([0, Fraction(1, 2)], 3), 1, 7)',
     'Series([1, 0, 0, Fraction(1, 2), Fraction(0, 1), Fraction(0, 1), '
     'Fraction(1, 2), Fraction(0, 1)], order=7)'),
    ('g_from_b(Series([1, 0, 1], 2), Fraction(1, 2), 5)',
     'Series([1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), '
     'Fraction(1, 16), Fraction(17, 32)], order=5)'),
    ('g_from_b(Series([1, Fraction(0), 2], 2), 1, 5)',
     'Series([1, 1, 1, 1, 1, 3], order=5)'),
    ('g_from_b(Series([0, 1], 2), t, 6)',
     "Series([1, 0, 0, Poly('t', [0, 1]), Poly('t', []), Poly('t', []), "
     "Poly('t', [0, 0, 2])], order=6)"),
    ('g_from_b(Series([1, 1], 2), t, 5)',
     "Series([1, Poly('t', [0, 1]), Poly('t', [0, 0, 1]), "
     "Poly('t', [0, 1, 0, 1]), Poly('t', [0, 0, 3, 0, 1]), "
     "Poly('t', [0, 0, 0, 6, 0, 1])], order=5)"),
    # b_from_g
    ('b_from_g(Series([1, 1, 1, 3, 7, 13], 5))',
     'Series([1, 2, 0], order=2)'),
    ('b_from_g(g_from_b(Series([0, Fraction(1, 2)], 3), 1, 7))',
     'Series([0, Fraction(1, 2), Fraction(0, 1), Fraction(0, 1)], order=3)'),
    ('b_from_g(g_from_b(Series([1, Fraction(0), 2], 2), 1, 5))',
     'Series([1, 0, 2], order=2)'),
    ('b_from_g(g_from_b(Series([1, 1], 3), Fraction(-5, 7), 6))',
     'Series([Fraction(-5, 7), Fraction(-5, 7), Fraction(0, 1)], order=2)'),
)


@pytest.mark.parametrize("call, want", KERNEL_REPRS)
def test_kernels_keep_the_coefficient_types(call, want):
    scope = {"Fraction": Fraction, "Poly": Poly, "Series": Series,
             "g_from_b": g_from_b, "b_from_g": b_from_g, "t": Poly.var("t")}
    assert repr(eval(call, scope)) == want


# ---------------------------------------------------------------------------
# calculus and coefficient maps
# ---------------------------------------------------------------------------

@given(any_series, any_series)
def test_derivative_product_rule(f, g):
    lhs = (f * g).deriv()
    rhs = f.deriv() * g.truncate(ORD - 1) + f.truncate(ORD - 1) * g.deriv()
    assert lhs == rhs


def test_map_coeffs():
    s = Series([1, 2, 3], 2)
    assert s.map_coeffs(lambda c: c * c) == Series([1, 4, 9], 2)


def test_agrees_prefix():
    a = Series([1, 2, 3, 4], 3)
    b = Series([1, 2, 3, 9, 9], 4)
    assert a.agrees(b, 2)
    assert not a.agrees(b, 3)


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------

def test_poly_basics():
    p = Poly.var("t")
    assert p.coeffs == (0, 1)
    q = Poly("t", [1, 0, 2])
    assert q(3) == 19
    assert q.coeff(2) == 2 and q.coeff(5) == 0
    assert not q.is_constant()
    assert Poly.const("t", 7).is_constant()
    assert Poly.const("t", 7).constant() == 7


def test_poly_strips_trailing_zeros():
    assert Poly("t", [1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly("t", [0, 0]) == 0


def test_poly_equality_with_scalars():
    assert Poly("t", [5]) == 5
    assert Poly("t", [Fraction(1, 2)]) == Fraction(1, 2)
    assert Poly("t", [0, 1]) != 1


@given(st.lists(coeffs, min_size=1, max_size=5),
       st.lists(coeffs, min_size=1, max_size=5), coeffs)
def test_poly_evaluation_is_a_homomorphism(ps, qs, v):
    p, q = Poly("t", ps), Poly("t", qs)
    assert (p * q)(v) == p(v) * q(v)
    assert (p + q)(v) == p(v) + q(v)


@given(st.lists(coeffs, min_size=1, max_size=6),
       st.lists(coeffs, min_size=1, max_size=6))
def test_poly_derivative_product_rule(ps, qs):
    p, q = Poly("t", ps), Poly("t", qs)
    assert (p * q).deriv() == p.deriv() * q + p * q.deriv()


def test_poly_compose_via_call():
    p = Poly("t", [1, 1])          # 1 + t
    q = Poly("t", [0, 0, 2])       # 2 t^2
    assert p(q) == Poly("t", [1, 0, 2])


def test_poly_param_must_be_string():
    with pytest.raises(BadArgument):
        Poly(1, [0, 1])


def test_format_terms_rendering():
    assert str(Poly("t", [0, 1])) == "t"
    assert str(Poly("t", [1, -2, Fraction(1, 2)])) == "1 - 2*t + 1/2*t^2"
    assert str(Poly("t", [])) == "0"
    assert format_terms([0, 0, 3], "x") == "3*x^2"


# ---------------------------------------------------------------------------
# parametric helpers
# ---------------------------------------------------------------------------

def test_falling_factorial_values():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert falling_factorial(7, 0) == 1
    z = Poly.var("z")
    assert falling_factorial(z, 2) == z * z - z


@given(st.integers(0, 8), st.integers(0, 6))
def test_binom_param_matches_comb_at_integers(n, k):
    from math import comb
    assert binom_param(Fraction(n), k) == comb(n, k)


def test_binom_param_symbolic():
    z = Poly.var("z")
    assert binom_param(z + 1, 2) == (z + 1) * z / 2
