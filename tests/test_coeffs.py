import math
import random
import time
from fractions import Fraction

import pytest

from crosschecks import binomial, exact_add_reference, exact_mul_reference
from bottcher.coeffs import Exact, c_pow_rational, exp_of_log_exact, nth_root_fraction
from bottcher.errors import ModeError

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
        assert exp_of_log_exact(Exact.log_of_rational(q)) == Exact.of(q)
    with pytest.raises(ModeError):
        exp_of_log_exact(Exact.log_of_rational(2).scale(F(1, 2)))


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
