from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from bottcher.coeffs import Exact
from bottcher.errors import ParseError
from bottcher.keys import Key
from bottcher.parser import parse
from bottcher.printer import format_series
from bottcher.series import TruncationGrid, make_series

F = Fraction


def test_basic_keys():
    f = parse("z^2 + z^3*l1")
    assert set(f.terms) == {Key(2, (0,)), Key(3, (1,))}


def test_negative_exponent_and_sign():
    f = parse("z^2 - z^3*l1^-1")
    assert f.coeff(Key(3, (-1,))) == Exact.of(-1)


def test_fractional_exponent():
    f = parse("z^(1/2)")
    assert set(f.terms) == {Key(F(1, 2), ())}
    assert parse("z^1/2") == f  # grammar: rat := INT('/'INT)?


def test_complex_literal():
    f = parse("(1+2i)*z^2")
    assert f.coeff(Key(2, ())) == Exact.of(1, 2)
    g = parse("(1/2-1/3i)")
    assert g.coeff(Key(0, ())) == Exact.of(F(1, 2), F(-1, 3))


def test_parenthesized_expression_power():
    f = parse("(z + z^2)^2")
    assert f.coeff(Key(3, ())) == Exact.of(2)


def test_unary_minus():
    f = parse("-z + z^2")
    assert f.coeff(Key(1, ())) == Exact.of(-1)


def test_constants_and_products():
    f = parse("3/2*z*l1^2")
    assert f.coeff(Key(1, (2,))) == Exact.of(F(3, 2))


def test_errors_carry_position():
    with pytest.raises(ParseError):
        parse("z^^2")
    with pytest.raises(ParseError):
        parse("z +")
    with pytest.raises(ParseError):
        parse("q + z")
    with pytest.raises(ParseError):
        parse("l3", depth=2)
    with pytest.raises(ParseError, match="zero denominator"):
        parse("z^(1/0)")
    with pytest.raises(ParseError, match="arithmetic error"):
        parse("10^400*z", mode="float")  # float overflow while lowering


def test_depth_inference():
    assert parse("z^2").depth == 0
    assert parse("z^2 + z^3*l2^-1").depth == 2


# -- canonical printing ------------------------------------------------------------


def test_print_orders_terms_lex():
    f = parse("z^3*l1 + z^2 - z^3*l1^-1")
    assert format_series(f) == "z^2 - z^3*l1^-1 + z^3*l1"


def test_print_parse_roundtrip_examples():
    for text in (
        "z^2 + z^3*l1",
        "z - 2*z^2 + 1/3*z^3*l1^-2",
        "z^(1/2) + 3/2*z",
        "(1+2i)*z^2 - z^3",
        "l1 + l1^2",
    ):
        f = parse(text)
        assert parse(format_series(f), grid=f.grid) == f


small_series = st.lists(
    st.tuples(
        st.fractions(min_value=F(1, 2), max_value=5, max_denominator=4),
        st.integers(-3, 3),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
    ),
    min_size=1,
    max_size=5,
)


@given(small_series)
def test_print_parse_identity_property(triples):
    grid = TruncationGrid(8, 10, 1, 10)
    terms = {}
    for zexp, l1, c in triples:
        key = Key(zexp, (l1,))
        terms[key] = Exact.of(c + terms[key].rational_parts()[0]) if key in terms else Exact.of(c)
    f = make_series(terms, grid)
    if f.is_zero():
        return
    assert parse(format_series(f), grid=grid) == f
