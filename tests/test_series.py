import math
import random
import signal
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from crosschecks import (
    agree_below_frontier,
    d_dz,
    dist_z,
    dist_z_info,
    leading_block,
    mul_all_pairs,
    power_sum_by_powers,
    power_sum_rational_weights,
    supp,
    weak_delta,
    zero_series,
)
from bottcher.coeffs import EXACT, FLOAT, Exact
from bottcher.errors import EmptySeriesError, ShapeError
from bottcher.io_json import series_to_json
from bottcher.keys import Cut, Key
from bottcher.parser import parse
from bottcher.series import (
    TransSeries,
    TruncationGrid,
    add,
    binomial_body,
    embed,
    exp_minus_one,
    leading_term,
    log1p,
    make_series,
    mul,
    mul_monomial,
    ord_key,
    ord_z,
    pow_rational,
    power_sum,
    scale,
    sub,
)

F = Fraction
GRID = TruncationGrid(z_cap=8, block_cap=6, depth=2)


def S(text, grid=GRID):
    return parse(text, grid=grid)


# -- strategies ---------------------------------------------------------------

small_keys = st.builds(
    Key,
    st.fractions(min_value=F(1, 2), max_value=4, max_denominator=4),
    st.tuples(st.integers(-2, 3), st.integers(-2, 2)),
)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


@st.composite
def series(draw, max_terms=4):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(small_keys)] = Exact.of(draw(coeffs))
    return make_series(terms, GRID)


# -- spec examples --------------------------------------------------------------


def test_add_examples():
    assert add(S("z + z^2"), S("-z^2")) == S("z")
    assert add(S("z^2*l1"), S("z^2*l1")) == S("2*z^2*l1")
    f = S("z^2 + z^3*l1")
    assert add(f, zero_series(GRID)) == f


def test_mul_examples():
    assert mul(S("z"), S("z")) == S("z^2")
    assert mul(S("z*l1"), S("z*l1^-1")) == S("z^2")
    sq = mul(S("z + z^2"), S("z + z^2"))
    assert sq == S("z^2 + 2*z^3 + z^4")


# z-exponents with denominators 1, 2, 3 and 5, negative ones and z = 0; float
# mode may also draw float exponents
Z_EXPS = [F(-1), F(-1, 2), F(0), F(1, 5), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(7, 3), F(5, 2)]
FLOAT_Z_EXPS = [0.1, 0.2, 0.7, 1.3]


def _draw_coeff(rng, mode):
    if mode == FLOAT:
        return complex(rng.uniform(-2, 2), rng.choice([0.0, rng.uniform(-2, 2)]))
    im = rng.choice([0, F(rng.randint(-3, 3), 2)])
    c = Exact.of(F(rng.randint(-5, 5), rng.randint(1, 6)), im)
    if rng.random() < 0.2:
        c = c + Exact.log_of_rational(rng.choice([2, 3, F(3, 2)]))
    return c


def _draw_series(rng, mode):
    """A series on its own grid and depth 0-2, its terms in shuffled order."""
    depth = rng.randint(0, 2)
    grid = TruncationGrid(rng.choice([F(1, 3), F(2), F(5, 2), F(4)]), rng.randint(1, 6), depth, 6)
    exps = Z_EXPS + (FLOAT_Z_EXPS if mode == FLOAT else [])
    terms = {}
    for _ in range(rng.choice([0, 1, 3, 6, 12])):
        l = tuple(rng.randint(-2, 2) for _ in range(depth))
        terms[Key(rng.choice(exps), l)] = _draw_coeff(rng, mode)
    cands = [Key(rng.choice(Z_EXPS), (1,) * depth)] if rng.random() < 0.3 else []
    f = make_series(terms, grid, mode, cands)
    items = list(f.terms.items())
    rng.shuffle(items)
    return TransSeries(f.depth, f.mode, f.grid, dict(items), f.frontier)


def test_mul_matches_all_pairs_reference():
    """`mul` forms only the z-block pairs below z_cap; the all-pairs product
    must agree exactly: the same terms in the same order, float bits
    included, and the same frontier and grid."""
    rng = random.Random(1212)
    for _ in range(200):
        modes = rng.choice([(EXACT, EXACT), (FLOAT, FLOAT), (EXACT, FLOAT)])
        a, b = (_draw_series(rng, m) for m in modes)
        got, want = mul(a, b), mul_all_pairs(a, b)
        assert list(got.terms.items()) == list(want.terms.items())
        assert (got.frontier, got.grid, got.mode) == (want.frontier, want.grid, want.mode)


def test_mul_skips_cancelled_keys_before_the_block_cap_cut():
    """(1 + l1 + l2)(1 - l1 + l2) = 1 + 2 l2 + l2^2 - l1^2: with block_cap 3
    the frontier is the fourth nonzero key l1^2, past the cancelled l1 and
    l1 l2."""
    grid = TruncationGrid(3, 3, 2, 6)
    for mode in (EXACT, FLOAT):
        a, b = (embed(S(t, grid), grid, mode) for t in ("1 + l1 + l2", "1 - l1 + l2"))
        got = mul(a, b)
        assert list(got.terms) == [Key(0, (0, 0)), Key(0, (0, 1)), Key(0, (0, 2))]
        assert got.frontier == Key(0, (2, 0))
        assert series_to_json(got) == series_to_json(mul_all_pairs(a, b))


def _draw_cancelling_pair(rng, mode):
    """a and b with the same keys, b's coefficients those of a up to sign (or
    with their log 2 / log 3 part negated), 2-4 keys per z-block and
    block_cap 1-3: cross terms c_i c_j - c_j c_i cancel exactly, in float
    mode too, and a product block holds more than block_cap keys."""
    depth = rng.randint(1, 2)
    grid = TruncationGrid(rng.choice([F(2), F(3), F(9, 2)]), rng.randint(1, 3), depth, 6)
    ta, tb = {}, {}
    for z in rng.sample([F(0), F(1, 2), F(1), F(3, 2)], rng.randint(1, 2)):
        for _ in range(rng.randint(2, 4)):
            k = Key(z, tuple(rng.randint(-1, 2) for _ in range(depth)))
            x, y = F(rng.randint(1, 5), rng.randint(1, 3)), F(rng.randint(1, 3), rng.randint(1, 2))
            log = Exact.log_of_rational(rng.choice([2, 3]))
            sign = rng.choice([1, -1])
            if mode == EXACT and rng.random() < 0.5:
                ta[k] = Exact.of(x) + log.scale(y)
                tb[k] = Exact.of(sign * x) + log.scale(-sign * y)
            else:
                ta[k] = Exact.of(x, rng.choice([0, y]))
                tb[k] = ta[k].scale(sign)
    a, b = (make_series(t, grid, EXACT) for t in (ta, tb))
    return embed(a, grid, mode), embed(b, grid, mode)


def test_mul_matches_all_pairs_reference_under_cancellation():
    """Blocks with more than block_cap keys, some of whose sums are 0: `mul`
    forms sums only up to the block_cap + 1-th nonzero key, which then lies
    past zero keys; the all-pairs product agrees on term order, coefficients
    (float bits included) and frontier."""
    rng = random.Random(1515)
    cut = 0
    for _ in range(300):
        mode = rng.choice([EXACT, FLOAT])
        a, b = _draw_cancelling_pair(rng, mode)
        got, want = mul(a, b), mul_all_pairs(a, b)
        assert list(got.terms.items()) == list(want.terms.items()), (a, b)
        assert got.frontier == want.frontier
        cut += isinstance(want.frontier, Key)
    assert cut > 150


def _outcome(fn):
    """fn() or the class of the ShapeError it raises, within a 5 s budget."""

    def expire(signum, frame):
        raise TimeoutError("power sum still running after 5 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        return fn()
    except ShapeError as e:
        return type(e)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _draw_power_sum_operand(rng, mode):
    """A v for a power sum at depth 0-2: log-free terms, pure-log terms,
    negative log exponents and Dulac-shaped keys Key(b, (-deg,)), 0-5 terms,
    in float mode maybe z-exponents handed in as floats, maybe a low frontier,
    and now and then a key with ord(v) <= 0.  Returns v, whether its
    exponents were drawn as floats and the pure-log power count of the
    reference `sum_powers`."""
    depth = rng.randint(0, 2)
    z_cap = rng.choice([F(1), F(2), F(5, 2), F(3)])
    block_cap = rng.randint(1, 4)
    log_powers = rng.choice([2, 6])
    grid = TruncationGrid(z_cap, block_cap, depth)
    exps = [F(n, d) for d in range(1, 6) for n in range(1, 3 * d) if F(n, d) < z_cap]
    floats = mode == FLOAT and rng.random() < 0.3
    if floats:  # as floats, thirds and fifths would not add exactly
        exps = [float(x) for x in exps]
    zl = (0,) * depth

    def draw_key():
        shape = rng.choice(["log-free", "log", "pure-log", "dulac"] if depth else ["log-free"])
        if shape == "log-free":
            return Key(rng.choice(exps), zl)
        if shape == "dulac":
            return Key(rng.choice(exps), (-rng.randint(0, 2),) + zl[1:])
        l = tuple(rng.randint(-2, 2) for _ in range(depth))
        if shape == "log":
            return Key(rng.choice(exps), l)
        return Key(0, l) if Key(0, l).is_positive() else Key(0, tuple(-x for x in l))

    terms = {}
    for _ in range(rng.choice([0, 1, 1, 2, 3, 5])):
        k = draw_key()
        if not k.is_zero():
            terms[k] = _draw_coeff(rng, mode)
    if rng.random() < 0.05:  # ord(v) <= 0: no power sum, a ShapeError on both routes
        bad = [Key(F(-1, 2), zl), Key(0, zl)] + ([Key(0, (-1,) + zl[1:])] if depth else [])
        terms[rng.choice(bad)] = _draw_coeff(rng, mode)
    cands = []
    if not terms or rng.random() < 0.3:
        fz = rng.choice(exps)
        cands = [rng.choice([Cut(fz), Key(fz, (rng.randint(-1, 1),) * depth)])]
    return make_series(terms, grid, mode, cands), floats, log_powers


def _below(f, front):
    return {k: c for k, c in f.terms.items() if k < front}


def test_power_sums_of_log_free_series_match_the_power_by_power_sum():
    """`log1p`, `exp_minus_one`, `binomial_body` and the geometric sum
    `power_sum(v, -1, 1, 1, one=True)` of the log images are one Miller
    recurrence under a positive weight.  Against the power-by-power
    reference `sum_powers`, on log-free v and on v with logs, pure-log and
    Dulac-shaped keys, with base_z below, at and above 0.  Exact mode: the
    frontier is never lower and the terms below the lesser frontier are
    identical.  Float mode, below the lesser frontier: coefficients equal to
    1e-12 relative; for a log-free v the frontier is never lower and the
    support is the same, otherwise a key only one route stores is rounding
    dust of a zero sum, under 1e-15 of the largest coefficient.  Exponents
    drawn as floats arrive as exact keys.  Nothing is stored at or above the
    frontier, and ord(v) <= 0 raises ShapeError on both routes, in time."""
    rng = random.Random(1313)
    checked = Counter()
    for _ in range(400):
        mode = rng.choice([EXACT, FLOAT])
        v, floats, log_powers = _draw_power_sum_operand(rng, mode)
        assert all(type(k.z) is Fraction for k in v.terms), v
        checked["float exponents"] += floats
        kind = rng.choice(["log", "exp", "pow", "pow", "geom"])
        beta = rng.choice([F(1, 2), F(-1), F(3, 2), F(-2, 3), F(2), F(0), F(7, 5)])
        base_z = F(0)
        if kind in ("pow", "geom"):
            base_z = rng.choice([F(-3, 2), F(-1, 3), F(0), F(1, 2), F(4, 3), v.grid.z_cap])
        got = _outcome(
            {
                "log": lambda: log1p(v),
                "exp": lambda: exp_minus_one(v),
                "pow": lambda: binomial_body(v, beta, base_z),
                "geom": lambda: power_sum(v, -1, 1, 1, base_z, one=True),
            }[kind]
        )
        want = _outcome(lambda: power_sum_by_powers(v, kind, beta, base_z, log_powers))
        if not isinstance(want, TransSeries):
            assert got is want, (v, kind)
            checked["error"] += 1
            continue
        case = (v, kind, beta, base_z)
        assert all(k < got.frontier for k in got.terms), case
        if base_z > 0:  # compare the products `compose` forms
            shift = Key(base_z, (0,) * v.depth)
            got, want = mul_monomial(got, shift), mul_monomial(want, shift)
        logs = any(any(k.l) for k in v.terms)
        checked["log" if logs else "log-free"] += 1
        checked["frontier rose"] += got.frontier > want.frontier
        front = min(got.frontier, want.frontier)
        gb, wb = _below(got, front), _below(want, front)
        if mode == EXACT or not logs:
            assert got.frontier >= want.frontier, case
            assert sorted(gb) == sorted(wb), case
        if mode == EXACT:
            assert gb == wb, case
            continue
        scale = max(map(abs, wb.values()), default=0)
        for k in gb.keys() | wb.keys():
            if k in gb and k in wb:
                assert abs(gb[k] - wb[k]) <= 1e-12 * abs(wb[k]), (case, k, gb[k], wb[k])
            else:
                assert abs(gb.get(k, 0) + wb.get(k, 0)) <= 1e-15 * scale, (case, k)
    assert checked["log"] > 150 and checked["log-free"] > 100, checked
    assert checked["error"] > 5 and checked["frontier rose"] > 10, checked
    assert checked["float exponents"] > 30, checked


def _bits(c):
    """A float coefficient by its bits (signed zeros apart); exact ones as they are."""
    return (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c


def test_power_sum_integer_weights_match_the_rational_weights_bit_for_bit():
    """`power_sum` forms each weight (a + s) lambda(k) / lambda(N) - s from
    integers.  Against the same recurrence with the weight formed as a
    `Fraction` (`power_sum_rational_weights`), on seeded v of depth 0, 1 and
    2 in exact and float mode, for log, exp, the binomial body at rational
    and fractional beta and the geometric sum: the same keys in the same
    order, the same frontier and the same coefficients, float bits included.
    A float beta is made exact first: `pow_rational` at float(1/3) is
    `pow_rational` at 1/3, in both modes."""
    rng = random.Random(2207)
    settings = {"log": (1, 0, 1), "exp": (0, 1, 1), "geom": (-1, 1, 1)}
    checked = Counter()
    for _ in range(400):
        mode = rng.choice([EXACT, FLOAT])
        v, floats, _ = _draw_power_sum_operand(rng, mode)
        kind = rng.choice(["log", "exp", "pow", "pow", "geom"])
        if kind == "pow":
            beta = rng.choice([F(1, 2), F(-1), F(3, 2), F(-2, 3), F(2), F(7, 5)])
            args = (1, beta, beta)
        else:
            args = settings[kind]
        base_z = rng.choice([F(0), F(1, 2)])
        one = kind in ("pow", "geom")
        got = _outcome(lambda: power_sum(v, *args, base_z, one))
        want = _outcome(lambda: power_sum_rational_weights(v, *args, base_z, one))
        case = (v, args, base_z)
        if not isinstance(want, TransSeries):
            assert got is want, case
            continue
        assert got.frontier == want.frontier, case
        assert list(got.terms) == list(want.terms), case
        assert [_bits(c) for c in got.terms.values()] == [_bits(c) for c in want.terms.values()], case
        checked[mode, v.depth] += 1
        checked[kind, type(args[1]).__name__] += 1
        checked["float exponents"] += floats
        checked["terms"] += len(got.terms)
    for mode in (EXACT, FLOAT):
        assert all(checked[mode, depth] > 20 for depth in (0, 1, 2)), checked
    assert all(checked[kind, "int"] > 20 for kind in ("log", "exp", "geom")), checked
    assert checked["pow", "Fraction"] > 40, checked
    assert checked["float exponents"] > 10 and checked["terms"] > 1000, checked
    for mode in (EXACT, FLOAT):
        f = parse("z^(3/2) + z^2 - 1/3*z^(7/3)", z_cap=6, block_cap=8, depth=0, mode=mode)
        got, want = pow_rational(f, 1 / 3), pow_rational(f, F(1, 3))
        assert got == want and got.frontier == want.frontier
        assert [_bits(c) for c in got.terms.values()] == [_bits(c) for c in want.terms.values()]


def test_float_power_sums_store_no_dust_of_zero_sums():
    """(1 + v)^2 = 1 + 2 v + v^2 has no term at a sum of three keys of v.
    In float mode Miller's recurrence reaches such keys as sums that cancel
    only up to rounding (about 1e-16); it stores none of them, so the float
    body has the support and the frontier of the exact one."""
    grid = TruncationGrid(2, 40, 1, 6)
    text = "3/2*z^(2/5) - 1/2*z^(1/2) - 8/5*z^(3/5) - z^(2/3) + 9/10*z^(4/5)*l1^-2"
    v = make_series(S(text, grid).terms, grid)  # frontier Cut(2), not the parser's
    exact, flt = binomial_body(v, 2), binomial_body(make_series(v.terms, grid, FLOAT), 2)
    square = add(add(S("1", grid), scale(v, 2)), mul(v, v))
    assert flt.frontier == exact.frontier == square.frontier
    assert sorted(flt.terms) == sorted(exact.terms) == sorted(_below(square, square.frontier))
    assert all(abs(flt.terms[k] - complex(c)) < 1e-12 for k, c in exact.terms.items())


def test_float_exponent_sums_are_exact():
    """x = sqrt(2)/4 and y = 1 - x are floats whose exact sum 1 + 2^-54
    rounds to 1.0.  Each becomes its exact binary value, so z^x z^y is the
    key z^(1 + 2^-54), not z: exp(v) - 1 of v = i z^x + i z^y + i z + i z l1
    has i at z and i^2 at z^x z^y (2 z^x z^y / 2 from v^2 / 2), just above
    z l1.  A block cap of 1 keeps z alone in its block and puts the frontier
    at z l1."""
    x = math.sqrt(2) / 4
    y = 1 - x
    assert Fraction(x) + Fraction(y) > 1 and x + y == 1.0
    xy = Key(x, (0,)) + Key(y, (0,))
    assert xy == Key(Fraction(x) + Fraction(y), (0,)) and xy != Key(1, (0,))
    assert type(Key(1.0).z) is Fraction and Key(1.0) == Key(1)
    for block_cap in (1, 2, 8):
        grid = TruncationGrid(2, block_cap, 1, 6)
        keys = [Key(x, (0,)), Key(y, (0,)), Key(1.0, (0,)), Key(1.0, (1,))]
        e = exp_minus_one(make_series(dict.fromkeys(keys, 1j), grid, FLOAT))
        assert all(type(k.z) is Fraction for k in e.terms)
        assert e.terms[Key(1, (0,))] == 1j
        assert all(k < e.frontier for k in e.terms)
        if block_cap == 1:
            assert e.frontier == Key(1, (1,))
        else:
            assert e.terms[Key(1, (1,))] == pytest.approx(1j)
            assert e.terms[xy] == pytest.approx(-1)


def test_d_dz_examples():
    assert d_dz(S("z^2")) == S("2*z")
    assert d_dz(S("l1")) == S("z^-1*l1^2")
    assert d_dz(S("z*l1")) == S("l1 + l1^2")
    # iterated-log rule at depth 2: d l2/dz = z^-1 l1 l2^2
    assert d_dz(S("l2")) == S("z^-1*l1*l2^2")


def test_order_and_leading():
    f = S("z^2 + z^3*l1")
    assert ord_z(f) == 2
    assert ord_key(S("z^2*l1^-1 + z^2")) == Key(2, (-1, 0))
    alpha, blk = leading_block(S("z^2 + z^2*l1 + z^3"))
    assert alpha == 2
    assert blk.coeff(Key(0, (0, 0))) == Exact.of(1) and blk.coeff(Key(0, (1, 0))) == Exact.of(1)
    assert ord_key(zero_series(GRID)) is None
    with pytest.raises(EmptySeriesError):
        leading_term(zero_series(GRID))


def test_pow_rational_of_zero():
    # zero below z^2: any power beta > 0 is zero below z^(2 beta)
    f = make_series({}, GRID, EXACT, [Cut(2)])
    assert pow_rational(f, F(3, 2)).is_zero()
    assert pow_rational(f, F(3, 2)).frontier == Cut(3)
    assert pow_rational(f, 2).frontier == Cut(4)
    assert pow_rational(zero_series(GRID), 2).frontier == Cut(8)  # capped by the grid
    # the untrusted z^2 could be there: its power sits at the frontier, not below
    assert all(k >= Cut(3) for k in pow_rational(S("z^2"), F(3, 2)).terms)
    with pytest.raises(EmptySeriesError):
        pow_rational(f, -1)
    with pytest.raises(EmptySeriesError):
        pow_rational(make_series({}, GRID, EXACT, [Cut(0)]), 2)


def test_leading_block_keeps_the_frontier():
    # block_cap 2 drops l1^2 and l1^3: they are untrusted, not exact zeros
    f = parse("z + z*l1 + z*l1^2 + z*l1^3", z_cap=4, block_cap=2)
    assert f.frontier == Key(1, (2,))
    alpha, blk = leading_block(f)
    assert alpha == 1 and blk.frontier == Key(0, (2,))
    assert not agree_below_frontier(blk, parse("1 + 2*l1", z_cap=4, block_cap=2))
    # a frontier above the block trusts all of it; one at or below trusts none
    assert leading_block(parse("z + z*l1", z_cap=4))[1].frontier == Cut(4)
    low = make_series({Key(1, (0,)): 1}, f.grid, frontier_candidates=[Cut(1)])
    assert leading_block(low)[1].frontier == Cut(0)


def test_supports():
    f = S("z^2 + z^3*l1 + z^3*l1^2")
    assert supp(f) == [Key(2, (0, 0)), Key(3, (1, 0)), Key(3, (2, 0))]


def test_dist_examples():
    assert dist_z(S("z + z^2"), S("z")) == 0.25
    f = S("z^2 + z^3*l1")
    assert dist_z(f, f) == 0.0
    v, status = dist_z_info(S("z"), S("z"))
    assert v == 0.0 and status == "indistinguishable-at-frontier"
    _, status = dist_z_info(S("z + z^2"), S("z"))
    assert status == "measured"


def test_weak_delta():
    f = S("z^2 + z^2*l1")
    seq = [f, f, f]
    exact_one = Exact.of(1)
    assert weak_delta(seq, Key(2, (1, 0))) == [exact_one] * 3
    assert all(c.is_zero() for c in weak_delta(seq, Key(1, (5, 0))))


# -- algebraic properties ---------------------------------------------------------


@given(series(), series(), series())
def test_ring_axioms(a, b, c):
    lhs = mul(mul(a, b), c)
    rhs = mul(a, mul(b, c))
    assert agree_below_frontier(lhs, rhs)
    lhs = mul(a, add(b, c))
    rhs = add(mul(a, b), mul(a, c))
    assert agree_below_frontier(lhs, rhs)


@given(series(), series())
def test_commutativity(a, b):
    assert mul(a, b) == mul(b, a)
    assert add(a, b) == add(b, a)


@given(series(), series(), series())
def test_ultrametric(a, b, c):
    dab, dbc, dac = dist_z(a, b), dist_z(b, c), dist_z(a, c)
    assert dac <= max(dab, dbc) + 1e-15


@given(series(), series())
def test_leibniz(a, b):
    lhs = d_dz(mul(a, b))
    rhs = add(mul(d_dz(a), b), mul(a, d_dz(b)))
    assert agree_below_frontier(lhs, rhs)


@given(series(), series())
def test_frontier_soundness_mul(a, b):
    """Recomputing on an enlarged grid never changes coefficients below the
    original result's exact frontier."""
    out = mul(a, b)
    big = TruncationGrid(z_cap=16, block_cap=24, depth=2)
    out_big = mul(embed(a, big), embed(b, big))
    for k, c in out.terms.items():
        if k < out.frontier:
            assert out_big.coeff(k) == c, (k, c, out_big.coeff(k))


def test_truncation_records_first_loss():
    tight = TruncationGrid(z_cap=8, block_cap=2, depth=1)
    f = make_series(
        {Key(1, (j,)): Exact.of(1) for j in range(5)}, tight
    )
    assert f.frontier == Key(1, (2,))
    assert len(f.terms) == 2


def test_embedding_pads_depth():
    f = parse("z + z*l1", grid=TruncationGrid(8, 6, 1, 10))
    g = embed(f, GRID)
    assert g.depth == 2
    assert g.coeff(Key(1, (1, 0))) == Exact.of(1)
