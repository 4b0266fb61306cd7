from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from bottcher.keys import Key, ell_key, min_key, zero_key

zexps = st.fractions(min_value=-4, max_value=4, max_denominator=6)
lvecs = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
keys = st.builds(Key, zexps, lvecs)


@given(keys, keys)
def test_trichotomy(a, b):
    assert (a < b) + (a == b) + (a > b) == 1


@given(keys, keys, keys)
def test_order_translation_invariant(a, b, c):
    if a < b:
        assert a + c < b + c


@given(keys, keys)
def test_addition_commutes(a, b):
    assert a + b == b + a


def test_lex_examples():
    assert Key(2, (-1,)) < Key(2, (0,))
    assert Key(Fraction(1, 2), (100,)) < Key(1, (-100,))
    assert Key(0, (0, 1)) > zero_key(2)
    assert not Key(0, (-1, 5)).is_positive()


def test_pad_and_units():
    k = Key(1, (2,))
    assert k.pad(3) == Key(1, (2, 0, 0))
    assert ell_key(3, 2) == Key(0, (0, 1, 0))
    assert min_key(None, k) == k and min_key(k, None) == k
    assert min_key(k, Key(1, (1,))) == Key(1, (1,))


def test_hash_of_int_and_fraction_z():
    a, b = Key(2, (1,)), Key(Fraction(2), [1])
    assert a == b and hash(a) == hash(b)
    assert hash(Key(Fraction(3, 2), (0, -1))) == hash(Key(Fraction(6, 4), [0, -1]))
    assert len({a, b, Key(Fraction(4, 2), (1,))}) == 1


def test_scale():
    assert Key(Fraction(3, 2), (1, -2)).scale(2) == Key(3, (2, -4))
    assert Key(1, (1,)).scale(0) == zero_key(1)
