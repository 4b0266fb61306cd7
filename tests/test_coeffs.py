import math
import operator
import random
import struct
import time
from collections import Counter
from fractions import Fraction

import pytest

from crosschecks import binomial, exact_add_reference, exact_mul_reference
from bottcher.coeffs import (
    EXACT,
    FLOAT,
    Exact,
    c_from,
    c_pow_rational,
    exp_coeff,
    nth_root_fraction,
    ratio_scaler,
)
from bottcher.errors import ModeError
from bottcher.io_json import coeff_from_json, coeff_to_json
from bottcher.keys import Key
from bottcher.series import TruncationGrid, identity_series, monomial, scale

F = Fraction


def test_ring_basics():
    a = Exact.of(F(1, 2), F(1, 3))
    b = Exact.of(F(1, 2), F(-1, 3))
    assert a + b == Exact.of(1)
    assert (a - a).is_zero()
    assert a * b == Exact.of(F(1, 4) + F(1, 9))  # |a|^2 for conjugates
    assert a * a.inverse() == Exact.of(1)


def test_log_relations_are_canonical():
    # log(4) = 2 log 2, log(3/2) = log 3 - log 2, log(8/27)+3log(3/2)=... etc.
    l2 = Exact.log_of_rational(2)
    assert Exact.log_of_rational(4) == l2 + l2
    assert Exact.log_of_rational(F(1, 2)) == -l2
    l32 = Exact.log_of_rational(F(3, 2))
    assert l32 + l2 == Exact.log_of_rational(3)
    assert Exact.log_of_rational(1).is_zero()
    combo = Exact.log_of_rational(F(8, 27))
    assert combo == l2.scale(3) - Exact.log_of_rational(3).scale(3)


def test_log_of_a_rational_with_large_prime_factors_stops():
    # 2^31 - 1 is prime: trial division up to its square root proves it
    assert Exact.log_of_rational(2**31 - 1).parts == {((2**31 - 1, 1),): (1, 0)}
    t0 = time.monotonic()
    with pytest.raises(ModeError):
        Exact.log_of_rational(F(3, (2**31 - 1) * (2**61 - 1)))
    assert time.monotonic() - t0 < 2.0


def test_log_evaluation():
    v = Exact.log_of_rational(F(9, 8)).evaluate()
    assert abs(v - math.log(9 / 8)) < 1e-14
    sq = Exact.log_of_rational(2) * Exact.log_of_rational(2)
    assert abs(sq.evaluate() - math.log(2) ** 2) < 1e-14


def test_exp_of_log_exact_roundtrip():
    for q in (F(4), F(9, 8), F(1, 6)):
        assert exp_coeff(Exact.log_of_rational(q), EXACT) == Exact.of(q)
    with pytest.raises(ModeError):
        exp_coeff(Exact.log_of_rational(2).scale(F(1, 2)), EXACT)


def test_pow_rational():
    assert c_pow_rational(Exact.of(4), F(1, 2)) == Exact.of(2)
    assert c_pow_rational(Exact.of(F(8, 27)), F(-1, 3)) == Exact.of(F(3, 2))
    assert c_pow_rational(Exact.of(0, 1), F(2)) == Exact.of(-1)  # i^2
    with pytest.raises(ModeError):
        c_pow_rational(Exact.of(2), F(1, 2))
    assert abs(c_pow_rational(2 + 0j, F(1, 2)) - math.sqrt(2)) < 1e-14


def test_nth_root():
    assert nth_root_fraction(F(27, 8), 3) == F(3, 2)
    assert nth_root_fraction(F(2), 2) is None


def test_nth_root_of_integers_past_the_float_range():
    big = 2**60 + 12345  # its square is not a float: round(m ** 0.5) misses it
    assert nth_root_fraction(F(big**2), 2) == big
    assert nth_root_fraction(F(1, big**2), 2) == F(1, big)
    assert nth_root_fraction(F(big**2 + 1), 2) is None
    assert nth_root_fraction(F(10**400), 2) == 10**200  # m ** 0.5 overflows
    assert nth_root_fraction(F(3**500, 7**300), 5) == F(3**100, 7**60)
    assert nth_root_fraction(F(10**400), 3) is None
    assert nth_root_fraction(F(10**400 + 1, 10**400), 2) is None


def test_nth_root_of_seeded_perfect_powers_and_neighbours():
    rng = random.Random(1301)
    for n in range(2, 8):
        for _ in range(100):
            r = rng.randrange(2, 10 ** rng.randint(1, 60))
            d = rng.randrange(1, 10**6)
            assert nth_root_fraction(F(r**n, d**n), n) == F(r, d)
            # (r - 1)^n < r^n - 1 < r^n < r^n + 1 < (r + 1)^n
            assert nth_root_fraction(F(r**n + 1), n) is None
            assert nth_root_fraction(F(r**n - 1), n) is None


def test_pow_rational_of_huge_perfect_powers():
    big = 2**60 + 12345
    assert c_pow_rational(Exact.of(F(big**2)), F(3, 2)) == Exact.of(big**3)
    assert c_pow_rational(Exact.of(F(1, 10**400)), F(-1, 2)) == Exact.of(10**200)
    with pytest.raises(ModeError):
        c_pow_rational(Exact.of(F(big**2 + 1)), F(1, 2))


def test_binomial_values():
    assert binomial(F(1, 2), 3) == F(1, 16)
    assert binomial(F(3), 2) == 3
    assert binomial(F(3), 5) == 0
    assert binomial(F(-1), 4) == 1


def test_pow_integer_exponents():
    for n in range(-7, 8):
        assert c_pow_rational(Exact.of(F(2, 3)), n) == Exact.of(F(2, 3) ** n), n
    # square-and-multiply: a huge exponent costs a few dozen products
    assert c_pow_rational(Exact.of(1), 10**7) == Exact.of(1)
    assert c_pow_rational(Exact.of(-1), 10**7 + 1) == Exact.of(-1)


# monomials in log 2, log 3 and log 5; () is the constant
MONOS = [(), ((2, 1),), ((3, 1),), ((2, 2),), ((2, 1), (3, 1)), ((5, 1),)]


def _draw_exact(rng):
    """Mostly single-part values (the fast paths), some with 2-3 parts."""
    parts = {}
    for _ in range(rng.choice([0, 1, 1, 1, 2, 3])):
        im = rng.choice([0, F(rng.randint(-4, 4), rng.randint(1, 3))])
        parts[rng.choice(MONOS)] = (F(rng.randint(-4, 4), rng.randint(1, 3)), F(im))
    return Exact(parts)


def _ref_parts(pairs):
    """Sum (monomial, (re, im)) pairs into a dict without zero entries."""
    out = {}
    for k, (re, im) in pairs:
        r0, i0 = out.get(k, (0, 0))
        out[k] = (r0 + re, i0 + im)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _ref_mono(k1, k2):
    m = dict(k1)
    for p, e in k2:
        m[p] = m.get(p, 0) + e
    return tuple(sorted((p, e) for p, e in m.items() if e))


def test_exact_fast_paths_match_a_dict_reference():
    rng = random.Random(1201)
    for _ in range(600):
        a = _draw_exact(rng)
        # -a, a multiple of a, and a with its first part negated make sums and
        # cross terms cancel: (x + y log 2)(x - y log 2) = x^2 - y^2 log^2 2
        flip = Exact({k: (-v[0], -v[1]) if i else v for i, (k, v) in enumerate(a.parts.items())})
        b = rng.choice([_draw_exact(rng), -a, a.scale(rng.choice([2, F(-1, 3)])), flip])
        prod = _ref_parts(
            (_ref_mono(k1, k2), (x * u - y * v, x * v + y * u))
            for k1, (x, y) in a.parts.items()
            for k2, (u, v) in b.parts.items()
        )
        total = _ref_parts([*a.parts.items(), *b.parts.items()])
        assert (a * b).parts == prod
        assert (a + b).parts == total
        assert a * b == b * a and hash(a * b) == hash(b * a)
        for c in (a * b, a + b, a - b, -a):
            assert all(v != (0, 0) for v in c.parts.values()), c
        zero = a + (-a)
        assert zero.is_zero() and zero == Exact({}) and hash(zero) == hash(Exact({}))


def _draw_multi_part(rng):
    """2-4 parts, each real, imaginary or mixed."""
    parts = {}
    for _ in range(rng.randint(2, 4)):
        x = F(rng.randint(-4, 4), rng.randint(1, 3))
        y = F(rng.randint(-4, 4), rng.randint(1, 3))
        kind = rng.choice(["real", "real", "imag", "mixed"])
        parts[rng.choice(MONOS)] = {"real": (x, F(0)), "imag": (F(0), y), "mixed": (x, y)}[kind]
    return Exact(parts)


def test_exact_real_parts_match_the_full_complex_formula():
    """Real parts skip the imaginary products and sums; against the full
    formula the parts, their order and the hash are the same, and no (0, 0)
    part is stored.  Partners of a make sums and cross terms cancel:
    (x + y log 2)(x - y log 2), (x + i y log 2)(x - i y log 2), a + (-a)."""
    rng = random.Random(1414)
    i = Exact.of(0, 1)
    zeros = 0
    for _ in range(500):
        a = _draw_multi_part(rng)
        flip = Exact({k: (-v[0], -v[1]) if j else v for j, (k, v) in enumerate(a.parts.items())})
        b = rng.choice([_draw_multi_part(rng), -a, flip, i * a, a.scale(F(-1, 2)), Exact.of(2)])
        for got, want in ((a * b, exact_mul_reference(a, b)), (a + b, exact_add_reference(a, b))):
            assert list(got.parts.items()) == list(want.parts.items()), (a, b)
            assert hash(got) == hash(want)
            assert all(v != (0, 0) for v in got.parts.values()), got
            assert all(type(x) is F for v in got.parts.values() for x in v)
            zeros += got.is_zero()
    assert zeros > 20


def test_exact_takes_pythons_number_protocol():
    """a * q, q * a and 1 / a are scale and inverse; bool and complex are
    is_zero and evaluate."""
    rng = random.Random(1919)
    for _ in range(400):
        a = _draw_multi_part(rng)
        q = rng.choice([2, -1, F(rng.randint(-5, 5), rng.randint(1, 4))])
        assert a * q == q * a == a.scale(q)
        assert bool(a) is not a.is_zero()
        assert complex(a) == a.evaluate()
        if not a.is_rational_complex():
            with pytest.raises(ModeError):
                1 / a
        b = Exact.of(F(rng.randint(-5, 5), rng.randint(1, 4)), F(rng.randint(-5, 5), 3))
        if b:
            assert 1 / b == b.inverse()
    assert not Exact({})


def test_float_operators_match_the_float_formulas_bit_for_bit():
    """c * q, q * c and 1 / c on complex c and Fraction q round exactly as
    c * float(q) and 1.0 / c, signed zeros included."""
    rng = random.Random(2718)
    special = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e300]

    def bits(z):
        return struct.pack("<dd", z.real, z.imag)

    for _ in range(20000):
        c = complex(*(rng.choice([rng.uniform(-1e3, 1e3), rng.choice(special)]) for _ in "ri"))
        q = F(rng.randint(-50, 50), rng.randint(1, 30))
        assert bits(c * q) == bits(q * c) == bits(c * float(q))
        if c:
            assert bits(1 / c) == bits(1.0 / c)


def test_a_float_is_refused_in_exact_mode():
    """A float entered exact mode as its binary fraction (0.1 as
    3602879701896397/36028797018963968); like a complex it raises ModeError."""
    grid = TruncationGrid(4, 4, 0)
    f = identity_series(grid)
    for v in (0.1, 2.0, 0.5j):
        with pytest.raises(ModeError):
            c_from(v, EXACT)
        with pytest.raises(ModeError):
            monomial(Key(2, ()), grid, EXACT, coeff=v)
        with pytest.raises(ModeError):
            scale(f, v)
        with pytest.raises(ModeError):
            Exact.of(1, 1).scale(v)


def _draw_rational(rng):
    """0, +-ints, and fractions with denominators up to about 10^30."""
    kind = rng.randrange(5)
    if kind == 0:
        return F(0)
    if kind == 1:
        return F(rng.randint(-(10**6), 10**6))
    return F(rng.randint(-(10**30), 10**30), rng.randint(1, 10 ** rng.randint(1, 30)))


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def test_real_values_match_fraction_arithmetic():
    """A real rational is held as an int pair: every operator gives the
    Fraction result, parts and rational_parts still read Fractions, and one
    value built four ways compares and hashes equal."""
    rng = random.Random(3232)
    for _ in range(2000):
        p, q = _draw_rational(rng), _draw_rational(rng)
        n = rng.choice([0, 1, -1, rng.randint(-(10**9), 10**9)])
        a, b = Exact.of(p), Exact.of(q)
        for got, want in (
            (a + b, p + q), (a - b, p - q), (a * b, p * q), (-a, -p),
            (a.scale(n), p * n), (a.scale(q), p * q), (a * n, p * n), (q * a, p * q),
        ):
            assert got.rational_parts() == (want, 0), (p, q, n)
            assert got == Exact.of(want) and hash(got) == hash(Exact.of(want))
            assert got.parts == ({(): (want, 0)} if want else {})
            assert all(type(x) is F for v in got.parts.values() for x in v)
        if p:
            assert a.inverse().rational_parts() == (1 / p, 0)
            assert (1 / a).rational_parts() == (1 / p, 0)
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        assert bool(a) is bool(p) and a.is_zero() is (p == 0)
        assert (a == b) is (p == q)
        assert _bits(complex(a)) == _bits(complex(float(p), 0.0))
        ways = [Exact({(): (p, 0)}), a, (a + b) - b, coeff_from_json(coeff_to_json(a), EXACT)]
        assert all(w == a and hash(w) == hash(a) for w in ways), p


def test_real_operands_with_complex_or_log_operands_match_the_reference():
    """A real value meets a complex or log p value through the parts dict;
    the results equal the full formulas, and a real result is a real value."""
    rng = random.Random(3233)
    for _ in range(500):
        a = Exact.of(_draw_rational(rng))
        c = _draw_multi_part(rng)
        for got, want in (
            (a * c, exact_mul_reference(a, c)),
            (c * a, exact_mul_reference(c, a)),
            (a + c, exact_add_reference(a, c)),
            (c + a, exact_add_reference(c, a)),
        ):
            assert list(got.parts.items()) == list(want.parts.items()), (a, c)
            assert got == want and hash(got) == hash(want)
        back = (a + c) - c
        assert back == a and hash(back) == hash(a) and back.rational_parts() == a.rational_parts()


def test_an_int_pair_weight_scales_as_its_fraction():
    """`ratio_scaler` takes a weight as an int pair (n, d), d > 0, in any
    terms.  In exact mode it equals c.scale(Fraction(n, d)) on real, complex
    and log p values, in the same canonical form; in float mode it is, bit
    for bit, c times the correctly rounded n / d."""
    rng = random.Random(4141)
    exact, flt = ratio_scaler(EXACT), ratio_scaler(FLOAT)
    special = [0.0, -0.0, 1.0, -1e300, 1e-300]
    kinds = Counter()
    for _ in range(3000):
        g = rng.choice([1, 2, 6, rng.randint(1, 10**6)])
        n = g * rng.choice([0, 1, -1, rng.randint(-50, 50), rng.randint(-(10**20), 10**20)])
        d = g * rng.randint(1, 10 ** rng.randint(1, 20))
        c = rng.choice([Exact.of(_draw_rational(rng)), _draw_exact(rng), _draw_multi_part(rng)])
        kinds[c.is_real(), c.is_rational_complex(), n < 0, math.gcd(n, d) > 1] += 1
        got, want = exact(c, n, d), c.scale(F(n, d))
        assert got == want and hash(got) == hash(want), (c, n, d)
        assert list(got.parts.items()) == list(want.parts.items()), (c, n, d)
        z = rng.choice([complex(c), complex(*(rng.choice(special) for _ in "ri"))])
        assert _bits(flt(z, n, d)) == _bits(z * operator.truediv(n, d)), (z, n, d)
    # real, complex and log p values, each with negative n and n / d not in lowest terms
    assert all(kinds[real, rational, True, True]
               for real in (True, False) for rational in (True, False))
