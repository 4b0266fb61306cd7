import heapq
import importlib
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from crosschecks import (
    agree_below_frontier,
    compose_ell,
    compose_log,
    compose_termwise,
    conjugate,
    d_dz,
    invert_graded,
)
from bottcher.coeffs import Exact
from bottcher.compose import (
    Composer,
    compose,
    compose_power,
    invert,
    reduce_alpha,
    reduce_lambda,
    shape_of,
)
from bottcher.errors import ModeError, ShapeError
from bottcher.keys import Cut, Key
from bottcher.normalize import normalize, solve_W
from bottcher.parser import parse
from bottcher.series import (
    TruncationGrid,
    add,
    embed,
    exp_minus_one,
    identity_series,
    log1p,
    make_series,
    monomial,
    mul,
    pow_rational,
    residual_keys,
    scale,
    split_leading,
    sub,
)

F = Fraction
GRID = TruncationGrid(z_cap=8, block_cap=6, depth=2)


def S(text, grid=GRID):
    return parse(text, grid=grid)


def assert_agree(a, b):
    assert agree_below_frontier(a, b), (a, b)


# -- shapes -----------------------------------------------------------------------


def test_shape_classification():
    assert shape_of(S("z^2 + z^3")).classification == "strongly_hyperbolic"
    assert shape_of(S("z + z^2")).classification == "parabolic"
    assert shape_of(S("2*z + z^2")).classification == "hyperbolic"
    assert shape_of(S("z^(1/2)")).classification == "strongly_hyperbolic"
    with pytest.raises(ShapeError):
        shape_of(S("z*l1 + z^2"))  # log in the leading term


# -- compose_power ------------------------------------------------------------------


def test_compose_power_examples():
    out = compose_power(F(1, 2), S("z^2 + z^3"))
    expect = S("z + 1/2*z^2 - 1/8*z^3 + 1/16*z^4 - 5/128*z^5 + 7/256*z^6 - 21/1024*z^7")
    assert_agree(out, expect)
    assert compose_power(F(2), S("z")) == S("z^2")
    assert_agree(compose_power(F(1, 3), S("z^3")), S("z"))


@given(st.sampled_from([F(1, 2), F(2), F(3, 2), F(1, 3)]))
def test_compose_power_inverse(beta):
    f = S("z^2 + z^3 + z^4*l1")
    assert_agree(compose_power(1 / beta, compose_power(beta, f)), f)


def test_compose_power_mode_error_hints_float():
    # lambda^beta = 2^(1/2) has no exact value; float mode is the escape hatch
    with pytest.raises(ModeError, match="float"):
        compose_power(F(1, 2), S("2*z^2 + z^3"))
    g = make_series({Key(2, (0, 0)): 2 + 0j, Key(3, (0, 0)): 1 + 0j}, GRID, "float")
    out = compose_power(F(1, 2), g)
    assert abs(out.coeff(Key(1, (0, 0))) - 2**0.5) < 1e-14


# -- compose_log --------------------------------------------------------------------


def test_compose_log_examples():
    assert compose_log(S("z")) == S("-l1^-1")
    out = compose_log(S("z^2 + z^3"))
    expect = S("-2*l1^-1 + z - 1/2*z^2 + 1/3*z^3 - 1/4*z^4 + 1/5*z^5 - 1/6*z^6 + 1/7*z^7")
    assert_agree(out, expect)


def test_compose_log_rational_lambda_exact():
    out = compose_log(S("4*z"))
    assert out.coeff(Key(0, (0, 0))) == Exact.log_of_rational(4)
    assert out.coeff(Key(0, (-1, 0))) == Exact.of(-1)


def test_compose_log_float_lambda():
    import math

    e = math.e
    f = make_series({Key(1, (0,)): complex(e)}, TruncationGrid(6, 6, 1, 8), "float")
    out = compose_log(f)
    assert abs(out.coeff(Key(0, (0,))) - 1.0) < 1e-14
    assert out.coeff(Key(0, (-1,))) == -1.0


# -- compose_ell --------------------------------------------------------------------


def test_compose_ell_examples():
    assert_agree(compose_ell(1, S("z^3")), S("1/3*l1"))
    assert compose_ell(1, S("z")) == S("l1")
    e2 = compose_ell(2, S("z^3"))
    l3 = Exact.log_of_rational(3)
    assert e2.coeff(Key(0, (0, 1))) == Exact.of(1)
    assert e2.coeff(Key(0, (0, 2))) == -l3
    assert e2.coeff(Key(0, (0, 3))) == l3 * l3


def test_compose_ell_depth_overflow():
    from bottcher.errors import DepthOverflowError

    with pytest.raises(DepthOverflowError):
        compose_ell(3, S("z^2"))


def test_composer_builds_each_log_image_once():
    c = Composer(S("z^2 + z^3*l1 + z^4*l2^-1"))
    e1 = c.ell_image(1)
    e2 = c.ell_image(2)
    assert c.ell_image(1) is e1
    assert c.ell_image(2) is e2
    assert e2 == compose_ell(2, S("z^2 + z^3*l1 + z^4*l2^-1"))


def test_ell_image_rejects_an_index_below_one():
    c = Composer(S("z^2 + z^3*l1"))
    c.ell_image(2)  # with l1 and l2 built, an unchecked index would wrap round the list
    for j in (0, -1):
        with pytest.raises(ValueError, match="log index"):
            c.ell_image(j)


# -- compose ------------------------------------------------------------------------


def test_compose_polynomial_case():
    assert_agree(compose(S("z^2"), S("z + z^2")), S("z^2 + 2*z^3 + z^4"))


def test_compose_matches_polynomial_substitution_oracle():
    g = [F(0), F(2), F(-1), F(3)]  # 2z - z^2 + 3z^3
    f = [F(0), F(1), F(1, 2), F(0), F(-2)]  # z + z^2/2 - 2 z^4
    want = oracles.dcompose(g, f, 8)
    gs = S("2*z - z^2 + 3*z^3")
    fs = S("z + 1/2*z^2 - 2*z^4")
    out = compose(gs, fs)
    for n, c in enumerate(want):
        if Key(n, (0, 0)) < out.frontier:
            assert out.coeff(Key(n, (0, 0))) == Exact.of(c), n


def test_integer_powers_of_a_log_right_factor_have_no_tail():
    """binom(d, i) = 0 for i > d: z^d o f is a finite sum for an integer
    d >= 1, so with a pure-log u its only frontier is the grid's Cut(z_cap)."""
    grid = TruncationGrid(6, 10, 1, 12)
    f = S("z^2 + z^2*l1", grid)
    assert compose(S("z", grid), f) == f
    z2 = compose(S("z^2", grid), f)
    assert z2 == S("z^4 + 2*z^4*l1 + z^4*l1^2", grid)
    assert compose(S("z", grid), f).frontier == z2.frontier == Cut(6)


def test_compose_ell_factor():
    assert_agree(compose(S("z*l1"), S("z^2")), S("1/2*z^2*l1"))


def test_compose_identity_laws():
    f = S("z^2 + z^3*l1 + z^4*l2^-1")
    ident = identity_series(GRID)
    assert_agree(compose(f, ident), f)
    assert_agree(compose(ident, f), f)


@given(
    st.sampled_from(["z^2", "z^2 + z^3", "z^2 + z^2*l1", "z^3 + z^4*l1^-1"]),
    st.sampled_from(["z + z^2", "z + z*l1", "z + z^2*l1^-2"]),
    st.sampled_from(["z + z^3", "z + z*l1^2"]),
)
@settings(max_examples=12)
def test_compose_associativity(fa, fb, fc):
    a, b, c = S(fa), S(fb), S(fc)
    assert_agree(compose(compose(a, b), c), compose(a, compose(b, c)))


@given(
    st.sampled_from(["z^2", "z^2 + z^3", "z^2 + z^2*l1"]),
    st.sampled_from(["z + z^2", "z + z*l1"]),
)
@settings(max_examples=8)
def test_chain_rule(gt, ft):
    g, f = S(gt), S(ft)
    lhs = d_dz(compose(g, f))
    rhs = mul(compose(d_dz(g), f), d_dz(f))
    assert_agree(lhs, rhs)


def _bits(c):
    """A coefficient, a float one by the bits of its parts (signed zeros apart)."""
    return (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c


def _below(s, front):
    return {k: _bits(c) for k, c in s.terms.items() if k < front}


def _random_g(rng, grid, mode, zs, ls, n=6):
    """n random terms z^d l^l over the given exponents, exact coefficients."""
    terms = {
        Key(rng.choice(zs), tuple(rng.choice(ls) for _ in range(grid.depth))):
        rng.choice([F(1), F(-1), F(1, 2), F(-2, 3), F(3)])
        for _ in range(n)
    }
    return make_series(terms, grid, mode)


HALVES = [F(k, 2) for k in range(-1, 8)]
# (right factor, its grid, g's grid or None for the same, g's z-exponents, g's log exponents)
TERMWISE_CASES = {
    "log-free": ("z^(3/2) + z^2", (6, 8, 0), None, HALVES, [0]),
    "depth-1": ("z^2 + z^2*l1 + z^3", (8, 4, 1), None, HALVES, [-1, 0, 1, 2]),
    "depth-2": ("z^3 + z^4*l1^2*l2^-1", (12, 4, 2), None, [F(k, 2) for k in range(1, 8)], [-1, 0, 1]),
    "lambda 4": ("4*z^2 + z^3*l1", (8, 6, 1), None, HALVES, [0, 1]),
    "other grid": ("z^2 + z^3*l1", (8, 6, 1), (7, 4, 2), HALVES, [-1, 0, 1]),
    # each body has <= 3 keys per z-block, the union of a group's up to 5
    "group overflow": ("z^2 + z^3*l1 + z^3*l1^-1", (6, 3, 1), None, HALVES, [0]),
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("case", sorted(TERMWISE_CASES))
def test_compose_matches_termwise_sum(case, mode):
    """One canonicalization per log group gives the term-by-term sum: the
    same frontier, and the same terms and float bits below it."""
    ft, fgrid, ggrid, zs, ls = TERMWISE_CASES[case]
    fgrid = TruncationGrid(*fgrid)
    ggrid = fgrid if ggrid is None else TruncationGrid(*ggrid)
    f = S(ft, fgrid) if mode == "exact" else parse(ft, grid=fgrid, mode="float")
    rng = random.Random(f"{case}/{mode}")
    right = Composer(f)
    for _ in range(6):
        g = _random_g(rng, ggrid, "exact" if case == "other grid" else mode, zs, ls)
        new, old = compose(g, right), compose_termwise(g, right)
        assert new.frontier == old.frontier, (g, new.frontier, old.frontier)
        assert _below(new, new.frontier) == _below(old, old.frontier), g


def test_group_overflow_case_sets_the_frontier_by_block_cap():
    """The "group overflow" case: the union of the log group's pieces
    overflows a z-block that no single shifted body overflows, and that sets
    the frontier."""
    ft, fgrid, _, _, _ = TERMWISE_CASES["group overflow"]
    grid = TruncationGrid(*fgrid)
    f, g = S(ft, grid), S("z^(1/2) + z + z^(3/2) + z^2", grid)
    right = Composer(f)
    out, old = compose(g, right), compose_termwise(g, right)
    assert out.frontier == Key(3, (1,))
    assert sum(k.z == 3 for k in out.terms) == grid.block_cap
    for d in (F(1, 2), F(1), F(3, 2), F(2)):
        assert out.frontier < right.body(d).frontier + Key(2 * d, (0,))
    assert out == old and out.frontier == old.frontier


def test_compose_frontier_rises_where_a_partial_sum_cancels():
    """The groups' products of g o f cancel z^3 l1^3 exactly.  The term-by-term
    sum truncated its z^3 block to block_cap before the last group cancelled
    that key, which put its frontier there; one sum over the groups counts only
    the keys that stay nonzero.  Below the old frontier both agree, and below
    the new one the result agrees with a larger block_cap."""
    grid = TruncationGrid(6, 2, 1)
    f, g = S("z^2 + z^3*l1", grid), S("2*z - z*l1 + 2*z^(3/2)*l1^3", grid)
    new, old = compose(g, f), compose_termwise(g, f)
    assert old.frontier == Key(3, (3,)) and new.frontier == Key(5, (7,))
    assert _below(new, old.frontier) == _below(old, old.frontier)
    wide = TruncationGrid(6, 12, 1)
    assert_agree_below(compose(embed(g, wide), embed(f, wide)), new, new.frontier)


def test_compose_canonicalizes_once_per_log_group(monkeypatch):
    """With its bodies built, composing the 60-term log-free phi of
    z^(3/2) + z^2 canonicalizes its one log group once and returns it: no
    `make_series` per term of g, and none to sum a single group."""
    f = parse("z^(3/2) + z^2", z_cap=6, block_cap=8, depth=0)
    phi = normalize(f, verify=False).phi
    assert len(phi.terms) == 60 and {k.l for k in phi.terms} == {()}
    right = Composer(f)
    want = compose(phi, right)
    calls = []
    for name in ("bottcher.compose", "bottcher.series"):
        mod = importlib.import_module(name)
        monkeypatch.setattr(mod, "make_series", _counting(mod.make_series, calls))
    got = compose(phi, right)
    assert got == want and got.frontier == want.frontier
    assert len(calls) == 1


def _counting(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return wrapped


# -- inversion -----------------------------------------------------------------------


def test_invert_pure_power():
    q = invert(S("z^2"))
    assert q == S("z^(1/2)")
    # z^(7/2) in g depends on f at z^8, which the grid cuts off
    assert q.frontier == Cut(F(7, 2))


def test_invert_matches_reversion_oracle():
    f = [F(0), F(1), F(1)]  # z + z^2
    want = oracles.revert_coeffs(f, 7)
    q = invert(S("z + z^2"))
    for n, c in enumerate(want):
        if n >= 1 and Key(n, (0, 0)) < q.frontier:
            assert q.coeff(Key(n, (0, 0))) == Exact.of(c)


@given(st.sampled_from(["z + z^2", "z + z*l1", "z^2 + z^3", "z^2 + z^2*l1",
                        "z + z*l1^2*l2^-1"]))
@settings(max_examples=10)
def test_invert_defining_property(text):
    f = S(text)
    q = invert(f)
    ident = identity_series(GRID)
    assert_agree(compose(f, q), ident)
    assert_agree(compose(q, f), ident)


def test_invert_stops_at_block_cap():
    """The solve stops at the first residual key past block_cap solved terms
    in one z-block: the frontier is that key mapped back, with every later
    z-block unsolved, so nothing is stored at or above it."""
    g = invert(S("z^3 + 1/2*z^(7/2)*l1^-1", TruncationGrid(6, 2, 1, 4)))
    assert g.frontier == Key(F(5, 6), (-1,))
    assert len(g.terms) == 6 and all(k < g.frontier for k in g.terms)


def test_solve_linear_pivots_come_off_a_heap(monkeypatch):
    """The pivot is the least residual key, popped from a heap instead of a
    `min` over the whole residual.  Solving W of z^(3/2) + z^2 on (6, 8, 0),
    58 terms, with a warmed Composer makes 650 `Key.__lt__` calls, against
    3841 when each pivot scanned the residual.  On the a = 0 path
    (`invert`) the pivots come off in strictly ascending order, each key
    once, and the block_cap stop of `test_invert_stops_at_block_cap` holds."""
    C = importlib.import_module("bottcher.compose")  # the package exports compose()
    right = Composer(S("z^(3/2) + z^2", TruncationGrid(6, 8, 0)))
    rhs = scale(log1p(right.u), 1 / right.alpha)
    C.solve_linear(right, 1, -1 / right.alpha, rhs)  # build the bodies once
    calls = [0]
    less = Key.__lt__

    def counting(self, other):
        calls[0] += 1
        return less(self, other)

    monkeypatch.setattr(Key, "__lt__", counting)
    w = C.solve_linear(right, 1, -1 / right.alpha, rhs)
    assert len(w.terms) == 58 and w.frontier == Cut(F(9, 2))
    assert calls[0] < 1000, calls
    monkeypatch.undo()
    pivots = []

    class RecordingHeap:
        heappush = staticmethod(heapq.heappush)

        @staticmethod
        def heappop(heap):
            pivots.append(heapq.heappop(heap))
            return pivots[-1]

    monkeypatch.setattr(C, "heapq", RecordingHeap)
    g = invert(S("z^3 + 1/2*z^(7/2)*l1^-1", TruncationGrid(6, 2, 1, 4)))
    assert len(pivots) > 6 and all(a < b for a, b in zip(pivots, pivots[1:])), pivots
    assert g.frontier == Key(F(5, 6), (-1,))
    assert len(g.terms) == 6 and all(k < g.frontier for k in g.terms)


def test_invert_builds_one_composer(monkeypatch):
    C = importlib.import_module("bottcher.compose")  # the package exports compose()
    built = []

    class CountingComposer(C.Composer):
        def __init__(self, f):
            built.append(f)
            super().__init__(f)

    monkeypatch.setattr(C, "Composer", CountingComposer)
    f = S("z^2 + z^2*l1 + z^3")
    invert(f)
    assert built == [f]


def test_invert_graded_cross_check():
    for text in ("z + z^2", "z + z*l1", "z^2 + z^3*l1^-1"):
        f = S(text)
        assert_agree(invert(f), invert_graded(f))


def _close(a, b, mode):
    return a == b if mode == "exact" else abs(a - b) <= 1e-9


def assert_agree_below(a, b, front):
    keys = set(a.terms) | set(b.terms)
    assert all(_close(a.coeff(k), b.coeff(k), a.mode) for k in keys if k < front), (a, b)


def assert_invert_frontier_sound(f, big):
    """invert(f) agrees with invert(f + h) on the grid `big` below its frontier.

    h = 3 n for a key n at f's frontier: the frontier key itself, or
    z^z0 l1^-2 (z^z0 at depth 0) for a cut at z0.  f + h carries big's
    frontier, so a coefficient of invert(f) that depends on f at or above
    f's frontier shows as a difference.
    """
    q, fr, depth = invert(f), f.frontier, f.grid.depth
    n = Key(fr.z, (-2,) + (0,) * (depth - 1) if depth else ()) if isinstance(fr, Cut) else fr
    lifted = add(make_series(f.terms, big, f.mode), monomial(n, big, f.mode, 3))
    assert_agree_below(q, invert(lifted), q.frontier)


def test_invert_frontier_is_sound():
    small = TruncationGrid(z_cap=4, block_cap=4, depth=1)
    big = TruncationGrid(z_cap=5, block_cap=6, depth=1)
    for text in ("z^2", "z^3", "z^2 + z^3", "z^2 + z^2*l1 + z^3", "z^(1/2) + z*l1"):
        assert_invert_frontier_sound(S(text, small), big)


def _random_series(rng):
    """lambda z^alpha plus 1-3 higher terms, on a small grid, exact or float."""
    alpha = rng.choice([F(1, 2), F(2, 3), F(3, 4), F(3, 2), F(2), F(5, 2), F(3)])
    lam, depth = rng.choice([F(1), F(4), F(1, 4), F(9)]), rng.randint(0, 2)
    grid = TruncationGrid(max(alpha, 1 / alpha) + 1, 3, depth, 4)
    terms = {Key(alpha, (0,) * depth): lam}
    for _ in range(rng.randint(1, 3)):
        l = tuple(rng.randint(-2, 2) for _ in range(depth))
        e = rng.choice([F(0), F(1, 2), F(1), F(3, 2)])
        if e == 0 and not Key(0, l).is_positive():
            e = F(1, 2)  # a z^alpha term must lie above the leading one
        terms[Key(alpha + e, l)] = rng.choice([F(1), F(-1), F(1, 2), F(-2, 3), F(2)])
    return make_series(terms, grid, rng.choice(["exact", "float"]))


def test_invert_seeded_fuzz():
    """30 seeded inputs: g o f = z, the graded route and frontier soundness.

    An exact input whose lambda powers are irrational raises ModeError; it is
    checked in float mode, as the error asks, and so is the graded route,
    which needs more such powers than `invert`.
    """
    rng = random.Random(2026)
    for _ in range(30):
        f = _random_series(rng)
        try:
            g, q = invert(f), invert_graded(f)
        except ModeError:
            f = make_series(f.terms, f.grid, "float")
            g, q = invert(f), invert_graded(f)
        assert not residual_keys(sub(compose(g, f), identity_series(f.grid, f.mode))), f
        assert_agree_below(g, q, min(g.frontier, q.frontier))
        big = TruncationGrid(f.grid.z_cap + F(1, 2), 4, f.grid.depth, 5)
        assert_invert_frontier_sound(f, big)


def _kernel_outputs(f):
    """name -> output of each kernel operation on f."""
    g = S("z + z^2*l1" if f.depth else "z + z^2", f.grid)
    u, right = split_leading(f)[2], Composer(f)
    res = normalize(f, verify=False)
    return {
        "add": add(f, g),
        "mul": mul(f, g),
        "compose": compose(g, right),
        "pow_half": pow_rational(f, F(1, 2)),
        "pow_minus_one": pow_rational(f, -1),
        "log1p": log1p(u),
        "exp_minus_one": exp_minus_one(u),
        **{f"ell_image_{j}": right.ell_image(j) for j in range(1, f.depth + 1)},
        "invert": invert(f),
        "solve_W": solve_W(res.reduced),
        "phi": res.phi,
    }


def test_every_operation_stores_only_trusted_terms():
    """Stored means trusted: no operation stores a term at or above its own
    frontier, on seeded inputs with and without logs.  The fixed case once
    stored 14 terms at or above its frontier Cut(3/2)."""
    grid = TruncationGrid(3, 6, 1)
    fixed = compose(S("z + z^2*l1", grid), S("z^(1/2) + z + z*l1", grid))
    assert fixed.frontier == Cut(F(3, 2))
    assert all(k < fixed.frontier for k in fixed.terms)
    rng = random.Random(34)
    kinds = set()
    for _ in range(30):
        f = _random_series(rng)
        kinds.add(any(any(k.l) for k in f.terms))
        try:
            outs = _kernel_outputs(f)
        except ModeError:  # an irrational lambda power: float mode, as the error asks
            outs = _kernel_outputs(make_series(f.terms, f.grid, "float"))
        for name, out in outs.items():
            assert all(k < out.frontier for k in out.terms), (f, name, out.frontier)
    assert kinds == {False, True}


# -- conjugation and reductions ---------------------------------------------------------


def test_frontier_soundness_compose():
    """Recomputing a composition with enlarged caps never changes a
    coefficient below the original result's exact frontier."""
    big = TruncationGrid(z_cap=14, block_cap=16, depth=2)
    from bottcher.series import embed

    cases = [
        ("z + z*l1 + z^2", "z^2 + z^2*l1"),
        ("z + z^2*l1^-1", "z^2 + z^3*l1^-1"),
        ("z + z*l1^2*l2^-1", "z^3 + z^4*l2"),
        ("z - 1/2*z^2", "z + z^2"),
    ]
    for gt, ft in cases:
        g, f = S(gt), S(ft)
        out = compose(g, f)
        out_big = compose(embed(g, big), embed(f, big))
        for k, c in out.terms.items():
            if k < out.frontier:
                assert out_big.coeff(k) == c, (gt, ft, k)


def test_conjugate_identity():
    f = S("z^2 + z^3*l1")
    assert_agree(conjugate(identity_series(GRID), f), f)
    assert_agree(conjugate(identity_series(GRID), S("z^2")), S("z^2"))


def test_conjugate_requires_parabolic():
    with pytest.raises(ShapeError):
        conjugate(S("2*z"), S("z^2"))


def test_reduce_lambda_examples():
    psi, red = reduce_lambda(S("4*z^2"))
    assert psi == S("4*z")
    assert red == S("z^2")
    psi2, red2 = reduce_lambda(S("z^2 + z^3"))
    assert psi2 == S("z") and red2 == S("z^2 + z^3")


def test_reduce_lambda_float_e():
    import math

    grid = TruncationGrid(6, 6, 1, 8)
    f = make_series({Key(2, (0,)): complex(math.e)}, grid, "float")
    psi, red = reduce_lambda(f)
    assert abs(psi.coeff(Key(1, (0,))) - math.e) < 1e-14
    assert abs(red.coeff(Key(2, (0,))) - 1.0) < 1e-14


def test_reduce_lambda_with_logs_rational():
    # lambda = 4, log-bearing tail: stays exact thanks to log-prime coefficients
    psi, red = reduce_lambda(S("4*z^2 + z^3*l1"))
    assert shape_of(red).classification == "strongly_hyperbolic"
    assert red.coeff(Key(2, (0, 0))) == Exact.of(1)


def test_reduce_alpha():
    assert_agree(reduce_alpha(S("z^(1/2)")), S("z^2"))
    f = S("z^(1/2) + z")
    g = reduce_alpha(f)
    assert shape_of(g).alpha == 2
    assert_agree(compose(f, g), identity_series(GRID))
    with pytest.raises(ShapeError):
        reduce_alpha(S("z^2"))
