import math
from fractions import Fraction

import pytest

from bottcher.coeffs import (
    Exact,
    binomial,
    c_pow_rational,
    exp_of_log_exact,
    nth_root_fraction,
)
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
