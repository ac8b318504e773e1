"""The little series-expression language: parse, print, evaluate."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from riordan_lab.errors import BadConstantTerm, ParseError
from riordan_lab.exprs import (BinOp, Call, Lit, Named, Neg, Power, Var,
                               eval_series, parse, series_from_text, to_text,
                               tokenize)
from riordan_lab.series import Series

# Fifty-odd expressions covering every grammar production, precedence mix,
# and whitespace habit; the printer must be a section of the parser on all.
CORPUS = [
    "0",
    "42",
    "x",
    "catalan",
    "geom",
    "one_plus_x",
    "-x",
    "--x",
    "- - 3",
    "1 + x",
    "1+x+x*x",
    "1 - x - x",
    "2 * x",
    "x * x * x",
    "1/(1-x)",
    "1 / (1 - x) / (1 + x)",
    "(x)",
    "((x))",
    "(1 + x) * (1 - x)",
    "1 - (x - 1)",
    "x - -x",
    "-(1 + x)",
    "-1 * -x",
    "x^2",
    "x^0",
    "x ^ 12",
    "geom^(-1)",
    "(1+x)^(1/2)",
    "(1 - x)^(-1)",
    "(1-x)^(-1/2)",
    "(1 + x)^(3/2)",
    "x^2 * x^3",
    "(x^2)^3",
    "-x^2",
    "2^5",
    "sqrt(1 + x)",
    "sqrt(1 - 4 * x)",
    "log(1 + x)",
    "exp(x)",
    "exp(-x)",
    "log(exp(x) * exp(x))",
    "sqrt(exp(x))",
    "exp(x + x)",
    "1 + sqrt(1 + x) - sqrt(1 + x)",
    "catalan * (1 - x * catalan)",
    "geom - x * geom",
    "one_plus_x^2",
    "x * catalan^2",
    "1 - sqrt(1 - 4*x)",
    "(1 - sqrt(1 - 4*x)) / 2",
    "1 + x * geom^2",
    "exp(log(1 + x))",
    "  1   +   x  ",
    "1+2*3-4/(1+x)",
    "-sqrt(1+x)^2",
]


def test_corpus_is_big_enough():
    assert len(CORPUS) >= 50


@pytest.mark.parametrize("text", CORPUS)
def test_print_is_a_section_of_parse(text):
    node = parse(text)
    printed = to_text(node)
    assert parse(printed) == node
    assert to_text(parse(printed)) == printed


@pytest.mark.parametrize("text", CORPUS)
def test_reprinting_preserves_the_series(text):
    node = parse(text)
    assert eval_series(node, 8) == series_from_text(to_text(node), 8)


# random grammar-producible ASTs round trip through the printer ---------------

_exponents = st.fractions(min_value=-3, max_value=3, max_denominator=4)

_atoms = st.one_of(
    st.integers(0, 9).map(lambda v: Lit(Fraction(v))),
    st.just(Var()),
    st.sampled_from(["catalan", "geom", "one_plus_x"]).map(Named),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["sqrt", "log", "exp"]), children)
        .map(lambda p: Call(*p)),
        children.map(Neg),
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children)
        .map(lambda p: BinOp(*p)),
        st.tuples(children.filter(lambda n: not isinstance(n, (Neg, Power))),
                  _exponents).map(lambda p: Power(*p)),
    )


_nodes = st.recursive(_atoms, _extend, max_leaves=12)


@given(_nodes)
@example(Neg(BinOp("/", Power(Var(), Fraction(0)), Var())))
@example(BinOp("/", Power(Var(), Fraction(2)), Lit(Fraction(3))))
@example(BinOp("/", Power(Var(), Fraction(0)), Lit(Fraction(1))))
def test_printer_round_trips_random_asts(node):
    assert parse(to_text(node)) == node


def test_bare_exponent_is_a_nonnegative_integer():
    # a rational or signed exponent needs parentheses; "/" after a bare
    # exponent is division
    assert parse("x^2/3") == parse("(x^2)/3")
    assert parse("x^(2/3)") == Power(Var(), Fraction(2, 3))
    with pytest.raises(ParseError) as info:
        parse("x^-1")
    assert info.value.offset == 2


# evaluation -------------------------------------------------------------------

def test_named_and_basic_series():
    assert series_from_text("1/(1-x)", 4) == Series([1, 1, 1, 1, 1], 4)
    assert series_from_text("catalan", 4) == Series([1, 1, 2, 5, 14], 4)
    assert series_from_text("geom", 6) == Series.geometric(6, 1)
    assert series_from_text("one_plus_x", 3) == Series([1, 1], 3)
    assert series_from_text("1+2*3-4", 5) == Series([3], 5)


def test_rational_power_squares_back():
    root = series_from_text("(1+x)^(1/2)", 10)
    assert root * root == Series([1, 1], 10)


def test_functions_match_series_methods():
    assert series_from_text("sqrt(1+x)", 8) == Series([1, 1], 8).sqrt()
    assert series_from_text("log(1+x)", 8) == Series([1, 1], 8).log()
    assert series_from_text("exp(x)", 8) == Series.x(8).exp()
    assert series_from_text("exp(log(1+x))", 8) == Series([1, 1], 8)


def test_catalan_functional_equation_via_text():
    assert series_from_text("catalan * (1 - x * catalan)", 9) == Series.one(9)
    lhs = series_from_text("1 - sqrt(1 - 4*x)", 9)
    assert lhs == (Series.catalan(8) * 2).x_mul(1)


def test_negative_and_integer_powers():
    assert series_from_text("(1 - x)^(-1)", 6) == Series.geometric(6, 1)
    assert series_from_text("geom^(-1)", 5) == Series([1, -1], 5)
    assert series_from_text("x^2 * x^3", 6) == Series.x(6) ** 5
    assert series_from_text("2^5", 0) == Series([32], 0)


def test_precedence_of_minus_and_power():
    # ^ binds tighter than unary minus
    assert series_from_text("-x^2", 4) == -(Series.x(4) ** 2)
    assert series_from_text("x - -x", 4) == Series.x(4) * 2


# errors -----------------------------------------------------------------------

def test_unrecognized_character_offset():
    with pytest.raises(ParseError) as info:
        tokenize("1 $ 2")
    assert info.value.offset == 2


def test_truncated_input():
    with pytest.raises(ParseError) as info:
        parse("1 + ")
    assert info.value.offset == 4
    assert set(info.value.expected) == {"int", "name", "(", "-"}


def test_unclosed_parenthesis():
    with pytest.raises(ParseError) as info:
        parse("(1+x")
    assert info.value.offset == 4
    assert info.value.expected == (")",)


def test_unknown_name_lists_the_alternatives():
    with pytest.raises(ParseError) as info:
        parse("1 + foo")
    assert info.value.offset == 4
    assert "catalan" in info.value.expected and "x" in info.value.expected


def test_symbolic_exponent_rejected():
    with pytest.raises(ParseError) as info:
        parse("x^y")
    assert info.value.expected == ("int", "(")


def test_chained_power_rejected():
    with pytest.raises(ParseError):
        parse("x^2^3")


def test_trailing_garbage():
    with pytest.raises(ParseError) as info:
        parse("1 2")
    assert info.value.offset == 2


def test_zero_denominator_exponent():
    with pytest.raises(ParseError):
        parse("x^(1/0)")


def test_domain_errors_are_not_parse_errors():
    with pytest.raises(BadConstantTerm):
        series_from_text("1/x", 5)
    with pytest.raises(BadConstantTerm):
        series_from_text("x^(-2)", 5)
    with pytest.raises(BadConstantTerm):
        series_from_text("log(x)", 5)
