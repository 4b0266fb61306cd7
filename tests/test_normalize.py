import math
import random
import re
import signal
from dataclasses import fields, replace
from fractions import Fraction

import pytest

import crosschecks as B  # the B_m metric d_m
import oracles
from crosschecks import (
    agree_below_frontier,
    apply_K_op,
    apply_S_op,
    apply_T_op,
    binomial_bound_check,
    conjugate,
    convergence_mode,
    dist_z,
    ell1_distance_on_parabolic,
    full_grid_normalize,
    leading_block,
    mul_all_pairs,
    semigroup_contains_reference,
    support_of_composition_bound,
)
from bottcher.coeffs import EXACT, FLOAT, Exact
from bottcher.compose import compose, shape_of
from bottcher.errors import BottcherError, ShapeError
from bottcher.io_json import series_from_json, series_to_json
from bottcher.keys import Cut, Key
from bottcher.normalize import (
    NormalizationResult,
    SemigroupSpec,
    _front_json,
    bottcher_R_op,
    bottcher_iterates,
    bottcher_op,
    bottcher_sequence,
    check_conjugation,
    enumerate_semigroup,
    normalize,
    order_bound_check,
    prenormalize,
    semigroup_contains,
    solve_W,
    support_predict,
    verify_normalization,
)
from bottcher.parser import parse
from bottcher.series import (
    TruncationGrid,
    add,
    embed,
    exp_minus_one,
    identity_series,
    make_series,
    monomial,
    mul,
    ord_z,
    residual_keys,
    sub,
)

F = Fraction


def S(text, z_cap=8, block_cap=6, depth=None):
    probe = parse(text, z_cap=z_cap, block_cap=block_cap)
    d = probe.depth if depth is None else depth
    return parse(text, grid=TruncationGrid(z_cap, block_cap, d))


def assert_agree(a, b):
    assert agree_below_frontier(a, b), (a, b)


BLOCK_GRID = TruncationGrid(z_cap=4, block_cap=8, depth=1)


def blk(terms):
    """A depth-1 block: the z-order-0 series with log keys `terms`."""
    return make_series({Key(0, k): c for k, c in terms.items()}, BLOCK_GRID)


# -- Bottcher operator ---------------------------------------------------------------


def test_bottcher_op_pure_power():
    f = S("z^2")
    ident = identity_series(f.grid, f.mode)
    assert bottcher_op(f, ident) == ident


def test_bottcher_op_first_iterate():
    out = bottcher_op(S("z^2 + z^3"), identity_series(S("z^2").grid))
    assert_agree(out, S("z + 1/2*z^2 - 1/8*z^3 + 1/16*z^4 - 5/128*z^5 + 7/256*z^6 - 21/1024*z^7"))


def test_bottcher_op_fixed_point():
    f = S("z^2 + z^3")
    res = normalize(f, verify=False)
    assert_agree(bottcher_op(f, res.phi), res.phi)


def test_bottcher_op_requires_shapes():
    with pytest.raises(ShapeError):
        bottcher_op(S("2*z^2"), identity_series(S("z").grid))
    with pytest.raises(ShapeError):
        bottcher_op(S("z^2"), S("2*z"))


# -- weak-iteration operator values (the alpha = 2, a = 1 anchor family) ---------------


def r_op_block_coeffs(alpha, a, seed_t1):
    """l1 and l1^2 coefficients of R_f(id + seed*z*l1) for f = z^a-block."""
    grid = TruncationGrid(6, 8, 1, 12)
    f = parse(f"z^2 + {a}*z^2*l1", grid=grid) if alpha == 2 else None
    ident = identity_series(grid)
    h = ident if seed_t1 == 0 else add(ident, monomial(Key(1, (1,)), grid))
    out = bottcher_R_op(f, h)
    return out.coeff(Key(1, (1,))), out.coeff(Key(1, (2,)))


def test_r_op_on_identity_general_formula():
    # R_f(id) = id + (a/alpha) z l1 + (1/(2 alpha))(1/alpha - 1) a^2 z l1^2 + ...
    for a in (1, 2, 3):
        c1, c2 = r_op_block_coeffs(2, a, 0)
        assert c1 == Exact.of(F(a, 2))
        assert c2 == Exact.of(F(1, 4) * F(-1, 2) * a * a)


def test_r_op_on_shifted_seed_general_formula():
    # R_f(id+z l1) = id + (1/alpha)(a + 1/alpha) z l1
    #              + ((1/(2 alpha))(1/alpha-1)(a+1/alpha)^2 + a/alpha^2) z l1^2 + ...
    alpha = F(2)
    for a in (1, 2, 5):
        c1, c2 = r_op_block_coeffs(2, a, 1)
        assert c1 == Exact.of((a + F(1, 2)) / 2)
        expect2 = F(1, 4) * F(-1, 2) * (a + F(1, 2)) ** 2 + F(a, 4)
        assert c2 == Exact.of(expect2)


def test_r_op_ignores_higher_blocks():
    # R_f is built from z^alpha + z^alpha R_alpha only
    grid_f = S("z^2 + z^2*l1 + z^3 + z^4*l1^2", z_cap=6, block_cap=8)
    plain = S("z^2 + z^2*l1", z_cap=6, block_cap=8)
    ident = identity_series(grid_f.grid, grid_f.mode)
    assert_agree(bottcher_R_op(grid_f, ident), bottcher_R_op(plain, ident))


def test_non_contraction_witness_distance():
    # ord_l1(R) >= 2 forces d(R_f(id+z l1), R_f(id)) = 1/2 in the l1-metric
    f = S("z^2 + z^2*l1^3")
    ident = identity_series(f.grid, f.mode)
    h = add(ident, monomial(Key(1, (1,)), f.grid))
    assert ell1_distance_on_parabolic(h, ident) == 0.5
    r1, r2 = bottcher_R_op(f, h), bottcher_R_op(f, ident)
    assert ell1_distance_on_parabolic(r1, r2) == 0.5
    assert r1.coeff(Key(1, (1,))) == Exact.of(F(1, 4))  # = 1/alpha^2


# -- prenormalization --------------------------------------------------------------------


def test_prenorm_W_hand_values():
    # independent by-hand solve of W = log(1+l1)/2 + (W o f)/2, f = z^2 (1 + l1)
    w = solve_W(parse("z^2 + z^2*l1", grid=BLOCK_GRID))
    assert w.coeff(Key(0, (1,))) == Exact.of(F(2, 3))
    assert w.coeff(Key(0, (2,))) == Exact.of(F(-2, 7))
    assert w.coeff(Key(0, (3,))) == Exact.of(F(4, 15))
    assert w.coeff(Key(0, (4,))) == Exact.of(F(-136, 651))


def test_prenormalize_canonical_values():
    f = S("z^2 + z^2*l1")
    phi1 = prenormalize(f)
    assert phi1.coeff(Key(1, (0,))) == Exact.of(1)
    assert phi1.coeff(Key(1, (1,))) == Exact.of(F(2, 3))
    assert phi1.coeff(Key(1, (2,))) == Exact.of(F(-4, 63))
    assert all(k.z == 1 for k in phi1.terms)  # canonical form id + zS


def test_prenormalize_is_R_fixed_point():
    f = S("z^2 + z^2*l1")
    phi1 = prenormalize(f)
    assert_agree(bottcher_R_op(f, phi1), phi1)


def test_prenormalize_deeper_log_block():
    # obstruction supported on l2 only: diagonal 1 - 1/alpha, log(alpha) enters W
    f = S("z^2 + z^2*l2", z_cap=5, block_cap=6)
    res = normalize(f)
    assert res.verification["conjugation_exact_below_frontier"]
    phi1 = prenormalize(f)
    assert phi1.coeff(Key(1, (0, 1))) == Exact.of(1)
    assert phi1.coeff(Key(1, (0, 2))) == -Exact.log_of_rational(2)


def test_prenormalize_noop():
    f = S("z^2 + z^3")
    assert prenormalize(f) == identity_series(f.grid, f.mode)


@pytest.mark.parametrize("text", ["z^2 + z^2*l1^-1", "z^2 + z^2*l1^-1*l2^3"])
def test_lex_negative_alpha_block_is_a_log_leading_term(text):
    # a lex-negative key at z = alpha is the least key of f, so shape_of rejects
    # it before the alpha block R could leave the class B_>=1+ (ord R > 0)
    f = S(text)
    for fn in (prenormalize, normalize):
        with pytest.raises(ShapeError, match="leading term contains logarithms"):
            fn(f)


def test_prenormalize_kills_alpha_block():
    f = S("z^2 + z^2*l1 + z^3*l1")

    phi1 = prenormalize(f)
    g = conjugate(phi1, f)
    for k in g.terms:
        if k < g.frontier and k.z == 2:
            assert k == Key(2, (0,)), k


def test_T_S_K_operator_identity():
    # at the solved S the pair T_f(S) = S_f(S) holds; K_f is the derived remainder
    r = blk({(1,): 1})
    s = exp_minus_one(solve_W(parse("z^2 + z^2*l1", grid=BLOCK_GRID)))
    assert_agree(apply_T_op(s, r, 2), apply_S_op(s, r, 2))


def test_K_op_is_half_contraction_on_samples(rng):
    r = blk({(1,): 1, (2,): F(1, 2)})
    for _ in range(10):
        t1 = blk({(j,): F(rng.randint(-3, 3)) for j in range(1, 5)})
        t2 = blk({(j,): F(rng.randint(-3, 3)) for j in range(1, 5)})
        d_in = B.dist_ell(t1, t2, 1)
        if d_in == 0:
            continue
        d_out = B.dist_ell(apply_K_op(t1, r, 2), apply_K_op(t2, r, 2), 1)
        assert d_out <= 0.5 * d_in + 1e-15


# -- direct normalization -------------------------------------------------------------------


def test_normalize_direct_oracle():
    f = S("z^2 + z^3", z_cap=10)
    res = normalize(f, verify=False)
    want = oracles.bottcher_coeffs([F(0), F(0), F(1), F(1)], 2, 8)
    for n in range(2, 9):
        key = Key(n, (0,))
        if key < res.phi.frontier:
            assert res.phi.coeff(key) == Exact.of(want[n]), n
    assert res.beta == 2


def test_normalize_direct_oracle_alpha_three():
    f = S("z^3 + z^5", z_cap=12)
    res = normalize(f, verify=False)
    want = oracles.bottcher_coeffs([F(0), F(0), F(0), F(1), F(0), F(1)], 3, 8)
    for n in range(2, 9):
        key = Key(n, (0,))
        if key < res.phi.frontier:
            assert res.phi.coeff(key) == Exact.of(want[n]), n


def test_normalize_float_matches_exact_polynomial():
    from bottcher.series import embed

    f = S("z^2 + z^3 - 1/4*z^4", z_cap=9)
    exact = normalize(f, verify=False)
    fl = normalize(embed(f, f.grid, mode="float"), verify=False)
    for k, c in exact.phi.terms.items():
        if k < exact.phi.frontier:
            assert abs(fl.phi.coeff(k) - c.evaluate()) < 1e-10, k


def test_normalize_float_fractional_alpha_verifies():
    # float-mode verification must not count rounding dust as a residual
    f = parse("z^(3/2) + z^2", mode="float", z_cap=6, block_cap=8)
    res = normalize(f)
    assert res.verification["conjugation_exact_below_frontier"]


def test_normalize_direct_trivial():
    f = S("z^2")
    res = normalize(f)
    assert res.iterations == 0
    assert res.phi == identity_series(f.grid, f.mode)


def test_normalize_order_bound_case():
    f = S("z^3 + z^5*l1")
    res = normalize(f)
    diff = sub(res.phi, identity_series(f.grid, f.mode))
    assert diff.is_zero() or ord_z(diff) >= 3  # 5 - 3 + 1
    assert order_bound_check(f, res.phi)


def test_normalize_full_pipeline_cases():
    for text in ("z^2 + z^3", "z^2 + z^2*l1", "z^2 + z^3*l1^-1"):
        res = normalize(S(text))
        assert res.verification["conjugation_exact_below_frontier"], text
        assert res.verification["order_bound_ok"], text


# -- verification by phi o f = phi^alpha ---------------------------------------------


def _conjugation_oracle(f, phi):
    """The inversion-based check: phi o f o phi^(-1) - z^alpha below its frontier."""
    conj = conjugate(phi, f)
    alpha = shape_of(f).alpha
    r = sub(conj, monomial(Key(alpha, (0,) * conj.depth), conj.grid, conj.mode))
    bad = residual_keys(r)
    return r.frontier, min(bad) if bad else None


_VERIFY_CASES = [
    ("z^2 + z^3", dict(z_cap=12, block_cap=6)),
    ("z^2 + z^2*l1", dict(z_cap=12, block_cap=8)),
    ("z^3 + z^4*l1^2*l2^-1", dict(z_cap=12, block_cap=6)),
    ("z^2 + z^3*l1^-1", dict(z_cap=12, block_cap=8)),
    ("z^(3/2) + z^2", dict(z_cap=5, block_cap=8)),
    ("z^(3/2) + z^2", dict(z_cap=5, block_cap=8, mode="float")),
    ("z^(1/2) + z", dict(z_cap=4, block_cap=8)),
]


@pytest.mark.parametrize(
    "text,kw", _VERIFY_CASES,
    ids=[f"{t}|{kw['z_cap']}|{kw.get('mode', 'exact')}" for t, kw in _VERIFY_CASES],
)
def test_check_conjugation_matches_inversion_oracle(text, kw):
    kw = dict(kw)
    mode = kw.pop("mode", "exact")
    f = S(text, **kw)
    if mode == "float":
        from bottcher.series import embed

        f = embed(f, f.grid, mode="float")
    res = normalize(f, verify=False)
    phi, g = res.phi, res.composer.f  # g: the series phi normalizes
    below = sorted(k for k in phi.terms if k < phi.frontier and k != Key(1, (0,) * phi.depth))
    bad_phi = add(phi, monomial(below[0], phi.grid, phi.mode))
    want = _conjugation_oracle(g, phi)
    assert want[1] is None
    assert check_conjugation(g, phi) == want
    assert check_conjugation(res.composer, phi) == want
    want = _conjugation_oracle(g, bad_phi)
    assert want[1] is not None and want[1] < want[0]
    assert check_conjugation(res.composer, bad_phi) == want


@pytest.mark.parametrize("text", ["z^2 + z^3*l1^-1", "z^(3/2) + z^2"])
def test_verification_builds_no_inverse(text, monkeypatch):
    import importlib

    f = S(text, z_cap=6, block_cap=8)
    res = normalize(f, verify=False)

    def no_inversion(f):
        raise AssertionError("verification inverted a series")

    monkeypatch.setattr(importlib.import_module("bottcher.compose"), "invert", no_inversion)
    report = verify_normalization(f, res)
    assert report["conjugation_exact_below_frontier"], report


def test_irrational_float_exponents_normalize_and_verify():
    """A float alpha = 1 + sqrt(2) enters as its exact binary value, so the
    exponent sums are associative and phi verifies below Cut(6); with float
    keys a residual showed at z = 5.6213..., below the checked frontier."""
    a = 1 + math.sqrt(2)
    f = make_series({Key(a): 1, Key(a + 0.5): 1, Key(2 * a): -0.5}, TruncationGrid(6, 8, 0), FLOAT)
    res = normalize(f)
    assert res.verification["conjugation_exact_below_frontier"], res.verification
    assert res.verification["checked_below"] == ("6", "cut")
    assert all(type(k.z) is Fraction for k in res.phi.terms)
    assert type(res.phi.frontier.z) is Fraction


def test_verification_reuses_the_normalization_composer(monkeypatch):
    import importlib

    f = S("z^3 + z^4*l1^2*l2^-1", z_cap=12, block_cap=6, depth=2)
    res = normalize(f, verify=False)

    def no_log_images(v):
        raise AssertionError("verification rebuilt the log images l_j o f")

    monkeypatch.setattr(importlib.import_module("bottcher.compose"), "log1p", no_log_images)
    report = verify_normalization(f, res)
    assert report["conjugation_exact_below_frontier"], report


@pytest.mark.parametrize(
    "text,grid,name",
    [("z^(1/2) + z + z*l1", (4, 8, 1), "invert"), ("2*z^2 + z^3*l1", (6, 6, 1), "reduce_lambda")],
)
def test_verification_reduces_only_a_new_series(text, grid, name, monkeypatch):
    """The series `normalize` was given is not reduced again; an equal copy is."""
    import importlib

    z_cap, block_cap, depth = grid
    f = S(text, z_cap=z_cap, block_cap=block_cap, depth=depth)
    res = normalize(f)
    mod = importlib.import_module("bottcher.compose" if name == "invert" else "bottcher.normalize")
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    real = getattr(mod, name)
    monkeypatch.setattr(mod, name, counted)
    assert verify_normalization(f, res) == res.verification
    assert calls == []
    copy = S(text, z_cap=z_cap, block_cap=block_cap, depth=depth)
    assert copy is not f and copy == f
    assert verify_normalization(copy, res) == res.verification
    assert calls == [1]
    assert res.verification["conjugation_exact_below_frontier"]


def _module_container_sizes():
    import sys

    return {
        (name, attr): len(v)
        for name, mod in list(sys.modules.items())
        if name == "bottcher" or name.startswith("bottcher.")
        for attr, v in vars(mod).items()
        if isinstance(v, (dict, list, set))
    }


def test_interleaved_normalizations_share_no_module_state():
    texts = {"A": "z^2 + z^3*l1^-1", "B": "z^2 + z^2*l1 + z^3"}
    alone = {}
    for name, text in texts.items():
        f = S(text)
        res = normalize(f, verify=False)
        alone[name] = (res, verify_normalization(f, res))

    f_a, f_b = S(texts["A"]), S(texts["B"])
    before = _module_container_sizes()
    res_a = normalize(f_a, verify=False)
    res_b = normalize(f_b, verify=False)
    rep_a = verify_normalization(f_a, res_a)
    rep_b = verify_normalization(f_b, res_b)
    assert _module_container_sizes() == before
    assert (res_a, rep_a) == alone["A"]
    assert (res_b, rep_b) == alone["B"]
    assert rep_a["conjugation_exact_below_frontier"] and rep_b["conjugation_exact_below_frontier"]


@pytest.mark.parametrize(
    "text,kw",
    [
        ("z^2 + z^2*l1 + z^3", dict(z_cap=8, block_cap=8)),
        ("z^2 + z^2*l2", dict(z_cap=6, block_cap=8)),
        ("z^(3/2) + z^2", dict(z_cap=6, block_cap=8)),
    ],
)
def test_normalization_builds_no_inverse(text, kw, monkeypatch):
    import importlib

    def no_inversion(f):
        raise AssertionError("normalization inverted a series")

    monkeypatch.setattr(importlib.import_module("bottcher.compose"), "invert", no_inversion)
    res = normalize(S(text, **kw))
    assert res.verification["conjugation_exact_below_frontier"], res.verification


def test_normalize_phi_factorization():
    # the z^1 block of phi is the canonical prenormalization id + zS
    f = S("z^2 + z^2*l1 + z^3")
    _, blk_phi = leading_block(normalize(f, verify=False).phi)
    _, blk_pre = leading_block(prenormalize(f))
    assert len(blk_phi.terms) == f.grid.block_cap
    assert_agree(blk_phi, blk_pre)


def test_uniqueness_across_beta_spaces():
    # iterating inside id + L^(3/2) or id + L^2 gives the same fixed point: the
    # Picard iterate agrees with phi below the reach 1 + alpha^k (beta - 1)
    f = S("z^2 + z^3", z_cap=9)
    ident = identity_series(f.grid, f.mode)
    phi = normalize(f, verify=False).phi

    def stopping_index(beta):
        k = 0
        while 1 + 2**k * (beta - 1) < f.grid.z_cap:
            k += 1
        return k

    assert [stopping_index(b) for b in (F(3, 2), F(2))] == [4, 3]
    for beta in (F(3, 2), F(2)):
        assert_agree(bottcher_sequence(f, ident, stopping_index(beta)), phi)
    assert not agree_below_frontier(bottcher_sequence(f, ident, 2), phi)


def test_normalize_rejects_hyperbolic():
    with pytest.raises(ShapeError):
        normalize(S("2*z + z^2"))


def test_normalize_float_mode_log_case():
    from bottcher.series import embed

    f_exact = S("z^2 + z^2*l1", z_cap=5)
    f = embed(f_exact, f_exact.grid, mode="float")
    res = normalize(f)
    assert res.verification["conjugation_exact_below_frontier"]
    want = prenormalize(f_exact).coeff(Key(1, (1,))).evaluate()
    assert abs(prenormalize(f).coeff(Key(1, (1,))) - want) < 1e-12


def test_normalize_reduces_lambda():
    res = normalize(S("4*z^2 + z^5"))
    assert res.psi is not None
    assert res.verification["conjugation_exact_below_frontier"]


def test_normalize_alpha_below_one():
    res = normalize(S("z^(1/2) + z"))
    assert res.inverted_input
    assert res.alpha == 2
    assert res.verification["conjugation_exact_below_frontier"]


def test_normalize_combined_reductions():
    # lambda != 1 and alpha < 1 together: invert first, then strip lambda
    res = normalize(S("4*z^(1/2) + z^2"))
    assert res.inverted_input and res.psi is not None
    assert res.alpha == 2
    assert res.verification["conjugation_exact_below_frontier"]


def test_normalize_combined_reductions_with_logs():
    # exact throughout: the inverse is trusted inside its z^(3/2) block only,
    # where it divides by powers of alpha and (1/4)^(3/2) = 1/8
    f = S("(1/4)*z^(2/3) - 2/3*z^(2/3)*l1^2 - 2/3*z^(7/6) + z^(8/3)",
          z_cap=5, block_cap=4)
    res = normalize(f)
    assert res.inverted_input and res.psi is not None
    assert res.alpha == F(3, 2)
    assert res.verification["conjugation_exact_below_frontier"]
    assert res.verification["order_bound_ok"]


@pytest.mark.parametrize("text", ["3*z^2 + z^3", "5*z^2 + z^3", "9*z^3 + z^4", "4*z^(1/2) + z"])
def test_float_lambda_reduction_matches_exact(text):
    from bottcher.series import embed

    f = S(text)
    want = normalize(f).phi
    res = normalize(embed(f, f.grid, mode="float"))
    assert res.verification["conjugation_exact_below_frontier"]
    assert res.phi.frontier == want.frontier
    for k in set(want.terms) | set(res.phi.terms):
        assert abs(res.phi.coeff(k) - want.coeff(k).evaluate()) <= 1e-9, k


# -- the least working grid -------------------------------------------------------------------


def _random_log_input(rng):
    """z^alpha plus 1-3 higher terms, at least one with logarithms, z_cap <= 8."""
    alpha = rng.choice([F(3, 2), F(2), F(5, 2), F(3)])
    depth = rng.randint(1, 2)
    terms = {Key(alpha, (0,) * depth): F(1)}
    for i in range(rng.randint(1, 3)):
        l = tuple(rng.randint(-2, 2) for _ in range(depth))
        if i == 0 and not any(l):
            l = (1,) + l[1:]
        e = rng.choice([F(0), F(1, 2), F(1)])  # below z_cap: a log term is kept
        if e == 0 and not Key(0, l).is_positive():
            e = F(1)  # a z^alpha term must lie above the leading one
        terms[Key(alpha + e, l)] = rng.choice([F(1), F(-1), F(1, 2), F(-2, 3)])
    z_cap = rng.randint(int(alpha) + 2, 8 if depth == 1 else 6)
    return make_series(terms, TruncationGrid(z_cap, 3, depth, 5))


def _differential_inputs():
    """The golden inputs with logarithms at their first coefficient, then 15
    seeded log inputs.  A log-free input is solved on its full grid, which
    `test_solve_grid_is_cut_only_for_log_inputs` checks."""
    from test_normalize_golden import COEFFS, cases

    out = []
    for text, (z_cap, block_cap, depth, *rest), mode in cases():
        if "l" in text and f"({COEFFS[1]})" not in text:
            grid = TruncationGrid(z_cap, block_cap, depth, rest[0] if rest else 12)
            out.append(parse(text, grid=grid, mode=mode))
    rng = random.Random(1111)
    return out + [_random_log_input(rng) for _ in range(15)]


@pytest.mark.parametrize("f", _differential_inputs(), ids=repr)
def test_least_grid_matches_full_grid_solve(f):
    """normalize and its verification agree with the solve on the whole grid.

    phi's terms and frontier, `checked_below`, and the first bad key of phi
    with its least trusted coefficient past z perturbed.
    """
    res = normalize(f, verify=False)
    ref, right = full_grid_normalize(f)
    assert series_to_json(res.phi) == series_to_json(ref)
    checked, bad = check_conjugation(right, ref)
    report = verify_normalization(f, res)
    assert bad is None and report["checked_below"] == _front_json(checked)
    trusted = sorted(k for k in ref.terms if k != Key(1, (0,) * ref.depth))
    if not trusted:
        return
    bump = monomial(trusted[0], ref.grid, ref.mode, 3)
    checked, bad = check_conjugation(right, add(ref, bump))
    report = verify_normalization(f, replace(res, phi=add(res.phi, bump)))
    assert bad is not None
    assert report["checked_below"] == _front_json(checked)
    assert report["first_bad_key"] == (str(bad.z), list(bad.l))


def _normalize_report(f):
    """phi's series_to_json, its verification report and that of phi with its
    least trusted coefficient past z perturbed; or the error's type."""
    try:
        res = normalize(f, verify=False)
    except BottcherError as e:
        return type(e)
    reports = [verify_normalization(f, res)]
    trusted = sorted(k for k in res.phi.terms if k != Key(1, (0,) * f.depth))
    if trusted:
        bump = monomial(trusted[0], f.grid, f.mode, 3)
        reports.append(verify_normalization(f, replace(res, phi=add(res.phi, bump))))
    return series_to_json(res.phi), reports


def test_normalize_is_unchanged_by_the_block_cap_cut(monkeypatch):
    """`series.mul` forms each block's sums only up to its block_cap + 1-th
    nonzero key.  With every `mul` replaced by the all-pairs product, which
    forms every sum, normalize gives the same phi (every stored term and the
    frontier) and verification gives the same reports, in exact and float
    mode, on seeded log inputs with block_cap 2-4 and depth 1-2."""
    import importlib

    rng = random.Random(1616)
    inputs = []
    for _ in range(30):
        f = _random_log_input(rng)
        grid = replace(f.grid, z_cap=min(f.grid.z_cap, 5), block_cap=rng.randint(2, 4))
        inputs.append(embed(f, grid, rng.choice([EXACT, FLOAT])))
    got = [_normalize_report(f) for f in inputs]
    for name in ("bottcher.series", "bottcher.compose"):  # where normalize reaches mul
        monkeypatch.setattr(importlib.import_module(name), "mul", mul_all_pairs)
    want = [_normalize_report(f) for f in inputs]
    assert got == want
    assert sum(isinstance(g, tuple) for g in got) > 20


@pytest.mark.parametrize(
    "text,grid,cut",
    [
        ("z^3 + z^4*l1^2*l2^-1", (12, 6, 2, 10), True),
        ("z^(3/2) + z^2", (6, 8, 0, 16), False),
        ("z^2 + z^3", (12, 6, 0), False),
    ],
)
def test_solve_grid_is_cut_only_for_log_inputs(text, grid, cut):
    f = parse(text, grid=TruncationGrid(*grid))
    z_cap = normalize(f, verify=False).composer.f.grid.z_cap
    assert z_cap < grid[0] if cut else z_cap == grid[0]


def _trusted(phi):
    return {k: c for k, c in phi.terms.items() if k < phi.frontier}


def test_trusted_terms_survive_grid_refinement():
    """A trusted coefficient is a coefficient of the untruncated phi.  So on a
    grid with a larger z_cap, block_cap or both, every key trusted on the
    smaller grid is trusted with the same coefficient, and no other key
    below the smaller frontier is trusted: an oracle-free check of the
    exactness contract, on seeded log inputs."""
    rng = random.Random(1717)
    rose = 0
    for _ in range(20):
        f = _random_log_input(rng)
        phi = normalize(f, verify=False).phi
        small = _trusted(phi)
        for dz, db in ((2, 0), (0, 2), (2, 2)):
            grid = replace(f.grid, z_cap=f.grid.z_cap + dz, block_cap=f.grid.block_cap + db)
            big = normalize(make_series(f.terms, grid), verify=False).phi
            assert all(k < big.frontier for k in small), (f, grid)
            below = {k: c for k, c in _trusted(big).items() if k < phi.frontier}
            assert below == small, (f, grid)
            rose += big.frontier > phi.frontier
    assert rose > 20


def test_grid_stores_three_caps():
    """The grid is z_cap, block_cap and depth: a fourth argument (the retired
    ell_stop, which bounded nothing) is neither stored nor compared, the JSON
    grid has no such field, and JSON written with it still loads."""
    assert [f.name for f in fields(TruncationGrid)] == ["z_cap", "block_cap", "depth"]
    assert TruncationGrid(6, 8, 1, 4) == TruncationGrid(6, 8, 1)
    phi = normalize(parse("z^2 + z^2*l1", grid=TruncationGrid(6, 8, 1))).phi
    js = series_to_json(phi)
    assert js["grid"] == {"z_cap": "6", "block_cap": 8}
    assert js["frontier"] == {"z": "1", "l": [8]} and len(js["terms"]) == 8
    old = {**js, "grid": {**js["grid"], "ell_stop": 4}}
    assert series_from_json(old) == phi


# -- contraction / invariance properties ------------------------------------------------------


def test_contraction_equality_case():
    alpha, beta = F(2), F(2)
    z_cap = beta + (alpha - 1) * (beta - 1) + 2
    grid = TruncationGrid(z_cap, 4, 1, 8)
    f = parse("z^2 + z^3 + z^4", grid=grid)
    ident = identity_series(grid)
    h1 = add(ident, monomial(Key(beta, (0,)), grid))
    o_in = ord_z(sub(h1, ident))
    out1, out2 = bottcher_op(f, h1), bottcher_op(f, ident)
    o_out = ord_z(sub(out1, out2))
    assert o_out == o_in + (alpha - 1) * (beta - 1)  # minimal Lipschitz constant attained


def test_invariance_of_beta_space():
    # P_f maps id + L^beta into itself for 1 <= beta <= ord_z(f - z^alpha) - alpha + 1
    f = S("z^2 + z^4")
    ident = identity_series(f.grid, f.mode)
    for htext in ("z + z^3", "z + z^3*l1 + z^4"):
        h = S(htext)
        out = bottcher_op(f, h)
        assert ord_z(sub(out, ident)) >= 3


# -- sequences and convergence mode ------------------------------------------------------------


def test_bottcher_sequence_basics():
    f = S("z^2 + z^3")
    ident = identity_series(f.grid, f.mode)
    assert bottcher_sequence(f, ident, 0) == ident
    assert bottcher_sequence(S("z^2"), ident, 3) == ident


@pytest.mark.parametrize("run", [bottcher_iterates, bottcher_sequence])
def test_bottcher_iterates_reject_a_negative_step_count(run):
    """n < 0 is no number of steps; one check in `bottcher_iterates` serves both."""
    f = parse("z^2 + z^3", z_cap=6)
    with pytest.raises(ValueError, match="n must be >= 0"):
        run(f, identity_series(f.grid, f.mode), -2)


def test_bottcher_sequence_approaches_phi():
    f = S("z^2 + z^3", z_cap=9)
    ident = identity_series(f.grid, f.mode)
    res = normalize(f, verify=False)
    iterates = bottcher_iterates(f, ident, 4)
    # agreement order beta + n(alpha-1)(beta-1) = 2 + n
    for n, it in enumerate(iterates):
        d = dist_z(it, res.phi)
        assert d <= 2.0 ** -(2 + n) + 1e-15


def test_weak_trajectory_to_prenorm_coefficient():
    f = S("z^2 + z^2*l1", z_cap=5)
    ident = identity_series(f.grid, f.mode)
    traj = [s.coeff(Key(1, (1,))) for s in bottcher_iterates(f, ident, 8)]
    target = F(2, 3)
    vals = [c.rational_parts()[0] for c in traj]
    deltas = [abs(v - target) for v in vals]
    assert all(b < a for a, b in zip(deltas[1:], deltas[2:]))
    assert deltas[6] <= F(1) / 2**6


def test_convergence_mode_iff():
    f = S("z^2 + z^3", z_cap=6, depth=1)
    ident = identity_series(f.grid, f.mode)
    assert convergence_mode(f, ident)["power_metric"] is True
    h = add(ident, monomial(Key(1, (1,)), f.grid))
    out = convergence_mode(f, h)
    assert out == {"weak_always": True, "power_metric": False}
    f2 = S("z^2 + z^2*l1", z_cap=5)
    phi1 = prenormalize(f2)
    assert convergence_mode(f2, phi1)["power_metric"] is True
    assert convergence_mode(f2, identity_series(f2.grid))["power_metric"] is False


# -- support control ------------------------------------------------------------------------------


def test_support_predict_generators_instantiated():
    f = S("z^2 + z^3*l1", z_cap=12, block_cap=8)
    spec = support_predict(f)
    gens = {(g.z, g.l) for g in spec.generators}
    for expect in [(1, (0,)), (2, (0,)), (4, (0,)), (8, (0,)),
                   (0, (1,)), (1, (1,)), (2, (1,)), (4, (1,)), (8, (1,))]:
        assert (F(expect[0]), expect[1]) in gens
    assert len(gens) == 9


def test_support_predict_pure_power():
    spec = support_predict(S("z^2", z_cap=12, depth=1))
    gens = {(g.z, g.l) for g in spec.generators}
    assert gens == {(F(1), (0,)), (F(2), (0,)), (F(4), (0,)), (F(8), (0,)), (F(0), (1,))}


def test_support_containment_of_phi():
    f = S("z^2 + z^3*l1", z_cap=12, block_cap=8)
    spec = support_predict(f)
    res = normalize(f, verify=False)
    for k in res.phi.terms:
        if k < res.phi.frontier:
            assert spec.contains(k), k


def test_semigroup_membership_corners():
    gens = [Key(1, (0,)), Key(0, (1,))]
    assert semigroup_contains(gens, Key(3, (4,)))
    assert not semigroup_contains(gens, Key(3, (-1,)))
    assert not semigroup_contains(gens, Key(F(1, 2), (0,)))
    gens2 = [Key(1, (-2,)), Key(0, (1,))]
    assert semigroup_contains(gens2, Key(2, (-1,)))  # (1,-2)+(1,-2)+3 units
    assert not semigroup_contains(gens2, Key(1, (-3,)))


def _semigroup_case(rng):
    """Generators of depth 0-2 (z-generators with any logs, lex-positive
    pure-log ones, now and then the zero key) and a target: half the time a
    sum of generators, else any key, negative coordinates included."""
    depth = rng.randint(0, 2)

    def logs(lo, hi):
        return tuple(rng.randint(lo, hi) for _ in range(depth))

    gens = [Key(F(rng.randint(1, 4), rng.choice((1, 2))), logs(-2, 2))
            for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0, 3) if depth else 0):
        m = rng.randrange(depth)
        gens.append(Key(0, (0,) * m + (rng.randint(1, 2),) + logs(-2, 2)[m + 1:]))
    if rng.random() < 0.1:
        gens.append(Key(0, (0,) * depth))
    if gens and rng.random() < 0.5:
        w = Key(0, (0,) * depth)
        for _ in range(rng.randint(0, 4)):
            w = w + rng.choice(gens)
    else:
        w = Key(F(rng.randint(-1, 8), 2), logs(-3, 3))
    return gens, w


def test_semigroup_contains_matches_the_nested_search():
    rng = random.Random(20231)
    answers = []
    for _ in range(2000):
        gens, w = _semigroup_case(rng)
        want = semigroup_contains_reference(gens, w)
        assert semigroup_contains(gens, w) == want, (gens, w)
        answers.append(want)
    assert 0.2 < sum(answers) / len(answers) < 0.8


def _stop(signum, frame):
    raise TimeoutError("still running after 5 s")


def test_generators_that_are_not_lex_positive_raise():
    g = S("z + z^2", z_cap=8, depth=1)
    f = S("z + l1^-1", z_cap=8, depth=1)
    cases = [
        lambda: semigroup_contains([Key(0, (-1,))], Key(0, (2,))),
        lambda: enumerate_semigroup(SemigroupSpec((Key(-1, (0,)),), Cut(5))),
        lambda: support_of_composition_bound(g, f).contains(Key(0, (-1,))),
    ]
    old = signal.signal(signal.SIGALRM, _stop)
    try:
        for case, bad in zip(cases, ("Key(0, (-1,))", "Key(-1, (0,))", "Key(0, (-1,))")):
            signal.alarm(5)
            with pytest.raises(ValueError, match=re.escape(bad)):
                case()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    # the zero key is dropped, not an error
    assert semigroup_contains([Key(0, (0,)), Key(1, (0,))], Key(2, (0,)))
    spec = SemigroupSpec((Key(0, (0,)), Key(1, (0,))), Cut(3))
    assert enumerate_semigroup(spec) == [Key(1, (0,)), Key(2, (0,))]


def test_support_of_composition_bound():
    g = S("z + z^2", z_cap=8, depth=1)
    f = S("z*l1", z_cap=8)
    spec = support_of_composition_bound(g, f)
    out = compose(f, g)
    for k in out.terms:
        if k < out.frontier:
            assert spec.contains(k), k


def test_support_of_composition_bound_trivial():
    f = S("z^2 + z^3*l1", z_cap=8)
    ident = identity_series(f.grid, f.mode)
    spec = support_of_composition_bound(ident, f)
    for k in f.terms:
        assert spec.contains(k)


# -- scalar checks ----------------------------------------------------------------------------------


def test_order_bound_check_examples():
    f = S("z^2 + z^3", z_cap=10)
    res = normalize(f, verify=False)
    assert order_bound_check(f, res.phi)
    assert order_bound_check(S("z^2"), identity_series(f.grid))


def test_binomial_bound_examples():
    assert binomial_bound_check(2, 1, 3)
    from crosschecks import binomial

    assert abs(binomial(F(1, 2), 3)) == F(1, 16)
    assert binomial_bound_check(2, 0, 1)
    assert binomial_bound_check(3, 2, 10)
