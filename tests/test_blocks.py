from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from bottcher import blocks as B
from bottcher.coeffs import Exact
from bottcher.compose import compose, compose_ell
from bottcher.errors import ShapeError
from bottcher.keys import Key
from bottcher.series import (
    TruncationGrid,
    agree_below_frontier,
    exp_minus_one,
    log1p,
    make_series,
    monomial,
    mul,
    mul_monomial,
    pow_rational,
    series_inverse,
)

F = Fraction


def blk(terms, depth=2, cap=8):
    """A block: the z-order-0 series with log keys `terms`."""
    grid = TruncationGrid(z_cap=4, block_cap=cap, depth=depth, ell_stop=10)
    return make_series({Key(0, k): c for k, c in terms.items()}, grid)


def test_D1_examples():
    # D_m = l_m^2 d/dl_m: the definition sends l_1 to l_1^2
    assert B.D_m(blk({(1, 0): 1}), 1) == blk({(2, 0): 1})
    assert B.D_m(blk({(0, 0): 5}), 1).is_zero()
    assert B.D_m(blk({(2, 1): 1}), 1) == blk({(3, 1): 2})


def test_D2_and_domain():
    assert B.D_m(blk({(0, 3): 1}), 2) == blk({(0, 4): 3})
    with pytest.raises(ShapeError):
        B.D_m(blk({(1, 0): 1}), 2)  # uses l1, not in B_2


@given(st.dictionaries(st.tuples(st.integers(1, 4), st.integers(-2, 3)),
                       st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool),
                       min_size=1, max_size=4))
def test_D1_raises_order(terms):
    r = blk({k: Exact.of(v) for k, v in terms.items()})
    dr = B.D_m(r, 1)
    if not dr.is_zero():
        assert B.ord_ell(dr, 1) >= B.ord_ell(r, 1) + 1


def test_dist_examples():
    a = blk({(1, 0): 1})
    b = blk({(1, 0): 1, (3, 0): 1})
    assert B.dist_ell(a, b, 1) == 2.0**-3
    assert B.dist_ell(a, a, 1) == 0.0


def test_classes():
    B.check_class(blk({(1, 0): 1}), "B_m+", 1)
    B.check_class(blk({(0, 1): 1}), "B_>=m+", 1)
    with pytest.raises(ShapeError):
        B.check_class(blk({(0, 1): 1}), "B_m+", 1)  # ord_l1 = 0
    with pytest.raises(ShapeError):
        B.check_class(blk({(-1, 0): 1}), "B_>=m+", 1)


def test_log_exp_roundtrip():
    v = blk({(1, 0): F(1, 2), (1, -1): F(1, 3), (0, 2): -1})
    back = exp_minus_one(log1p(v))
    assert agree_below_frontier(back, v)


def test_inverse():
    r = blk({(0, 0): 2, (1, 0): 1})
    prod = mul(r, series_inverse(r))
    assert agree_below_frontier(prod, blk({(0, 0): 1}))


def test_pow_rational_block():
    r = blk({(0, 0): 1, (1, 0): 1})
    half = pow_rational(r, F(1, 2))
    assert agree_below_frontier(mul(half, half), r)


def test_log_images_of_pure_power():
    # l1 o z^2 = l1/2 exactly; l2 o z^2 = l2 sum (-log2 l2)^i
    z2 = monomial(Key(2, (0, 0)), blk({}).grid)
    assert compose_ell(1, z2) == blk({(1, 0): F(1, 2)})
    e2 = compose_ell(2, z2)
    l2log = Exact.log_of_rational(2)
    assert e2.coeff(Key(0, (0, 1))) == Exact.of(1)
    assert e2.coeff(Key(0, (0, 2))) == -l2log
    assert e2.coeff(Key(0, (0, 3))) == l2log * l2log
    assert all(k.l[0] == 0 for k in e2.terms)


def test_substitute_is_morphism():
    # l_j -> l_j o f0 with f0 = z^2 (1 + l1) is composition with f0
    f0 = mul_monomial(blk({(0, 0): 1, (1, 0): 1}), Key(2, (0, 0)))
    a = blk({(1, 0): 1, (0, 1): 2})
    b = blk({(2, -1): F(1, 3)})
    lhs = compose(mul(a, b), f0)
    rhs = mul(compose(a, f0), compose(b, f0))
    assert agree_below_frontier(lhs, rhs)


def test_pure_log_right_factor_adds_no_tail():
    # the z^0 part of a block composes to exactly 1, so the frontier of l1 o f0
    # comes from the image of l1 alone (the block cap of its expansion)
    f0 = mul_monomial(blk({(0, 0): 1, (0, 1): 1}), Key(2, (0, 0)))
    out = compose(blk({(1, 0): 1}), f0)
    assert out.frontier == Key(0, (2, 8))
    assert out == compose_ell(1, f0)
