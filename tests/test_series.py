import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from crosschecks import d_dz, dist_z, dist_z_info, mul_all_pairs, power_sum, weak_delta
from bottcher.coeffs import EXACT, FLOAT, Exact
from bottcher.errors import EmptySeriesError, ShapeError
from bottcher.io_json import series_to_json
from bottcher.keys import Cut, Key
from bottcher.parser import parse
from bottcher.series import (
    TransSeries,
    TruncationGrid,
    add,
    _recurrent,
    agree_below_frontier,
    binomial_body,
    embed,
    exp_minus_one,
    leading_block,
    leading_term,
    log1p,
    make_series,
    monomial,
    mul,
    mul_monomial,
    ord_key,
    ord_z,
    pow_rational,
    split_leading,
    sub,
    sum_powers,
    supp,
    zero_series,
)

F = Fraction
GRID = TruncationGrid(z_cap=8, block_cap=6, depth=2, ell_stop=10)


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
    try:
        return fn()
    except ShapeError as e:
        return type(e)


def _draw_log_free(rng, mode):
    """A log-free v for a power sum: denominators up to 5, 0-5 terms, maybe a low frontier."""
    depth = rng.randint(0, 1)
    z_cap = rng.choice([F(1), F(2), F(5, 2), F(3)])
    grid = TruncationGrid(z_cap, rng.randint(1, 4), depth, 6)
    exps = [F(n, d) for d in range(1, 6) for n in range(1, 3 * d) if F(n, d) < z_cap]
    terms = {}
    for _ in range(rng.choice([0, 1, 1, 2, 3, 5])):
        terms[Key(rng.choice(exps), (0,) * depth)] = _draw_coeff(rng, mode)
    if rng.random() < 0.05:  # ord(v) <= 0: no power sum, the same error on both routes
        terms[Key(rng.choice([F(-1, 2), F(0)]), (0,) * depth)] = _draw_coeff(rng, mode)
    cands = []
    if not terms or rng.random() < 0.3:
        fz = rng.choice(exps)
        cands = [rng.choice([Cut(fz), Key(fz, (rng.randint(-1, 1),) * depth)])]
    return make_series(terms, grid, mode, cands)


def test_power_sums_of_log_free_series_match_the_power_by_power_sum():
    """`log1p`, `exp_minus_one` and `binomial_body` solve a log-free v by the
    one-pass recurrence.  Against `sum_powers`: exact mode gives the same
    series_to_json, a body shifted by z^base_z (base_z > 0) the same product
    as `compose` forms; float mode the same frontier and support with
    coefficients equal to 1e-12 relative; and the same error."""
    rng = random.Random(1313)
    checked = 0
    for _ in range(200):
        mode = rng.choice([EXACT, FLOAT])
        v = _draw_log_free(rng, mode)
        kind = rng.choice(["log", "exp", "pow", "pow"])
        beta = rng.choice([F(1, 2), F(-1), F(3, 2), F(-2, 3), F(2), F(0), F(7, 5)])
        base_z = F(0)
        if kind == "pow":
            base_z = rng.choice([F(-3, 2), F(-1, 3), F(0), F(1, 2), F(4, 3), v.grid.z_cap])
        got = _outcome(
            {
                "log": lambda: log1p(v),
                "exp": lambda: exp_minus_one(v),
                "pow": lambda: binomial_body(v, beta, base_z),
            }[kind]
        )
        want = _outcome(lambda: power_sum(v, kind, beta, base_z))
        if not isinstance(want, TransSeries):
            assert got is want, (v, kind)
            continue
        checked += 1
        assert _recurrent(v, base_z), v
        if base_z > 0:
            shift = Key(base_z, (0,) * v.depth)
            got, want = mul_monomial(got, shift), mul_monomial(want, shift)
        gj, wj = series_to_json(got), series_to_json(want)
        if mode == EXACT:
            assert gj == wj, (v, kind, beta, base_z)
            continue
        assert gj["frontier"] == wj["frontier"]
        assert [(e["z"], e["l"]) for e in gj["terms"]] == [(e["z"], e["l"]) for e in wj["terms"]]
        for g, w in zip(gj["terms"], wj["terms"]):
            gv, wv = complex(g["re"], g["im"]), complex(w["re"], w["im"])
            assert abs(gv - wv) <= 1e-12 * abs(wv), (v, kind, beta, g, w)
    assert checked > 180


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
    big = TruncationGrid(z_cap=16, block_cap=24, depth=2, ell_stop=20)
    out_big = mul(embed(a, big), embed(b, big))
    for k, c in out.terms.items():
        if k < out.frontier:
            assert out_big.coeff(k) == c, (k, c, out_big.coeff(k))


@pytest.mark.parametrize("text", ["z^2 + z^3*l1 + z^4", "z^2 + z^2*l1 + z^2*l2^-1"])
def test_sum_powers_with_a_shared_power_list(text):
    v = split_leading(S(text))[2]
    pows = [monomial(Key(0, (0, 0)), GRID)]
    geom = lambda i: F(1)
    finite = lambda i: F(1) if i < 3 else F(0)  # 1 + v + v^2
    for coeff_of, base_z in ((geom, 0), (finite, F(3, 2)), (geom, 1)):
        alone = sum_powers(v, coeff_of, base_z)
        shared = sum_powers(v, coeff_of, base_z, pows)
        assert series_to_json(shared) == series_to_json(alone)
    assert all(series_to_json(p) == series_to_json(mul(pows[i - 1], v)) for i, p in enumerate(pows) if i)


def test_truncation_records_first_loss():
    tight = TruncationGrid(z_cap=8, block_cap=2, depth=1, ell_stop=10)
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
