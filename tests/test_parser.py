import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from bottcher.coeffs import Exact
from bottcher.errors import BottcherError, ParseError
from bottcher.keys import Key
from bottcher.parser import parse
from bottcher.printer import format_series
from bottcher.series import TransSeries, TruncationGrid, make_series

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
    for depth in (None, 0, 2):  # l0 is no logarithm at any depth
        with pytest.raises(ParseError, match="l0") as err:
            parse("z^2+l0", depth=depth)
        assert err.value.col == 4
    for text, depth in (("z^2 + l3", 2), ("z^2 + l0", None)):  # the col of the l, not the space
        with pytest.raises(ParseError) as err:
            parse(text, depth=depth)
        assert err.value.col == 6
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


# -- seeded fuzz ----------------------------------------------------------------------


def _random_series(rng):
    depth = rng.randint(0, 2)
    grid = TruncationGrid(z_cap=24, block_cap=16, depth=depth)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        z = F(rng.randint(-6, 20), rng.randint(1, 4))
        key = Key(z, tuple(rng.randint(-3, 3) for _ in range(depth)))
        terms[key] = Exact.of(F(rng.randint(-9, 9), rng.randint(1, 6)),
                              F(rng.randint(-9, 9), rng.randint(1, 6)) * rng.randint(0, 1))
    return make_series(terms, grid)


def test_print_parse_roundtrip_fuzz():
    rng = random.Random(7)
    for _ in range(300):
        f = _random_series(rng)
        g = parse(format_series(f), grid=f.grid)
        # the power z^-k shifts the frontier Cut(z_cap - 1) of z^1 to
        # Cut(z_cap - 1 - k), so the parse agrees with f below its own
        # frontier, and whole when f has no negative z-exponent
        assert g.terms == {k: c for k, c in f.terms.items() if k < g.frontier}, format_series(f)
        if all(k.z >= 0 for k in f.terms):
            assert g.terms == f.terms, format_series(f)


_FUZZ_TOKENS = ["z", "l1", "l2", "i", "(", ")", "+", "-", "*", "/", "^", " ", "LG", "#"]


def _grammar_tokens(rng, depth=0):
    """Tokens of a random expression of the parser's grammar."""
    r = rng.random()
    if depth > 2 or r < 0.4:
        return [rng.choice(["z", "l1", "l2", str(rng.randint(0, 12))])]
    if r < 0.55:
        return ["(", str(rng.randint(0, 5)), rng.choice("+-"), str(rng.randint(1, 5)), "i", ")"]
    if r < 0.7:
        q = [str(rng.randint(-3, 5))] + (["/", str(rng.randint(1, 4))] if rng.random() < 0.5 else [])
        return ["("] + _grammar_tokens(rng, depth + 1) + [")", "^", "("] + q + [")"]
    return _grammar_tokens(rng, depth + 1) + [rng.choice("+-*")] + _grammar_tokens(rng, depth + 1)


def _fuzz_text(rng):
    if rng.random() < 0.5:
        toks = _grammar_tokens(rng)
        if rng.random() < 0.5:  # one mutation: drop, insert or replace a token
            j = rng.randrange(len(toks) + 1)
            new = [rng.choice(_FUZZ_TOKENS)]
            toks[j:j + rng.randint(0, 1)] = new if rng.random() < 0.7 else []
    else:
        toks = [str(rng.randint(0, 12)) if rng.random() < 0.3 else rng.choice(_FUZZ_TOKENS)
                for _ in range(rng.randint(0, 12))]
    text = ""
    for tok in toks:
        if text[-1:].isdigit() and tok[:1].isdigit():
            text += " "  # keep numbers small: 2^99999 would only test bignums
        text += tok
    return text


def test_parse_token_strings_fuzz():
    """Random token strings parse or raise a BottcherError, nothing else."""
    rng = random.Random(11)
    for _ in range(2000):
        text = _fuzz_text(rng)
        try:
            assert isinstance(parse(text, z_cap=6, block_cap=6), TransSeries)
        except BottcherError:
            pass
