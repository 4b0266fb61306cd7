import math
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from crosschecks import noncanonical_zexps
from bottcher.keys import Cut, Key, as_zexp, ell_key, front_zscale, zero_key
from bottcher.series import TruncationGrid

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
    assert min(k, Key(1, (1,))) == Key(1, (1,)) and min(k, Cut(1)) == Cut(1)


def test_hash_of_int_and_fraction_z():
    a, b = Key(2, (1,)), Key(Fraction(2), [1])
    assert a == b and hash(a) == hash(b)
    assert hash(Key(Fraction(3, 2), (0, -1))) == hash(Key(Fraction(6, 4), [0, -1]))
    assert len({a, b, Key(Fraction(4, 2), (1,))}) == 1


def test_scale():
    assert Key(Fraction(3, 2), (1, -2)).scale(2) == Key(3, (2, -4))
    assert Key(1, (1,)).scale(0) == zero_key(1)


# A z-exponent is canonical: an int exactly when integral, else a Fraction.
# Integral values are drawn on their own too, so both types always occur.
canon_zexps = st.one_of(st.integers(-4, 4).map(Fraction), zexps)


def _spellings(q: Fraction) -> list:
    """q as a Fraction, as text, as a float and, when integral, as an int."""
    return [q, str(q), float(q)] + ([int(q)] if q.denominator == 1 else [])


def test_as_zexp_is_canonical():
    for x, want in [(2, 2), (Fraction(4, 2), 2), ("6/3", 2), (2.0, 2), (True, 1),
                    (Fraction(1, 2), Fraction(1, 2)), ("-3/6", Fraction(-1, 2)),
                    (0.5, Fraction(1, 2)), (1 / 3, Fraction(1, 3))]:
        got = as_zexp(x)
        assert got == want and type(got) is type(want) and not noncanonical_zexps(got), x
    irrational = as_zexp(1 + math.sqrt(2))  # its exact binary value
    assert irrational == Fraction(1 + math.sqrt(2)) and type(irrational) is Fraction


@given(canon_zexps, canon_zexps, lvecs, lvecs)
def test_every_spelling_of_an_exponent_gives_one_canonical_key(x, y, lx, ly):
    """A key or cut built from an int, a Fraction, text or a float of one value
    is equal, hash-equal and ordered alike, and holds the same canonical z."""
    ref, other = Key(x, lx), Key(y, ly)
    assert not noncanonical_zexps(ref, other, Cut(x))
    for sx in _spellings(x):
        k, c = Key(sx, lx), Cut(sx)
        assert k == ref and hash(k) == hash(ref), sx
        assert type(k.z) is type(ref.z) and k.z == x, sx
        assert c == Cut(x) and hash(c) == hash(Cut(x)) and type(c.z) is type(ref.z), sx
        assert (k < other) == (ref < other) == ((x, lx) < (y, ly)), sx
        assert (c < other) == (x <= y) and (other < c) == (y < x), sx
    # a cut at x is below every key at x, whatever the mix of int and Fraction
    assert Cut(x) < ref and not Cut(x) > Key(Fraction(x), (-5, -5))


@given(canon_zexps, canon_zexps, lvecs, lvecs, st.integers(-3, 3),
       st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
def test_key_arithmetic_stays_canonical(x, y, lx, ly, n, q):
    """+, -, negation, scale, front_zscale, cuts, key + cut and a grid's z_cap
    land in the canonical form, at the value of the rational arithmetic."""
    a, b = Key(x, lx), Key(y, ly)
    results = [
        (a + b, x + y), (a - b, x - y), (-a, -x), (a.scale(n), x * n),
        (front_zscale(a, q), x * q), (front_zscale(Cut(x), q), x * q),
        (a + Cut(y), x + y), (Cut(x) + b, x + y),
    ]
    for got, want in results:
        assert got.z == want and not noncanonical_zexps(got), (got, want)
    for cap in _spellings(abs(x) + 1):
        grid = TruncationGrid(cap, 4, 2)
        assert grid.z_cap == abs(x) + 1 and not noncanonical_zexps(grid.z_cap, grid.trunc_key())
        assert grid == TruncationGrid(abs(x) + 1, 4, 2) and hash(grid) == hash(TruncationGrid(abs(x) + 1, 4, 2))


def test_integral_sums_and_scalings_of_fractional_keys_are_ints():
    half, three_halves = Key(Fraction(1, 2), (1,)), Key(Fraction(3, 2), (-1,))
    for k in (half + three_halves, three_halves - half, three_halves.scale(2),
              front_zscale(Key(3, (0,)), Fraction(1, 3)), half + Cut(Fraction(3, 2))):
        assert type(k.z) is int, k
    assert Key(1, (0,)).is_positive() and not Key(0, (-1,)).is_positive()
