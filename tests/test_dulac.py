import cmath
import math
import random
from fractions import Fraction

import pytest

from crosschecks import defect_decay_check, noncanonical_zexps, ord_e_inv
from bottcher.coeffs import EXACT, FLOAT, Exact
from bottcher.domains import AsymptoticSpec, DomainSpec, invariant_threshold
from bottcher.dulac import (
    DulacSeriesZ,
    DulacSeriesZeta,
    _germ,
    compare_formal_numeric,
    dulac_normalize_full,
    is_dulac,
    number_kind,
    numbers_like,
    partial_normalizations,
    to_z_chart,
    to_zeta_chart,
    whole_series,
    zeta_chart_map,
    zeta_function,
    zeta_map,
)
from bottcher.errors import DomainError, ShapeError
from bottcher.io_json import dulac_zeta_from_json
from bottcher.keys import Cut, Key
from bottcher.koenigs import koenigs_normalize
from bottcher.parser import parse
from bottcher.series import TruncationGrid, embed, make_series, negate

F = Fraction


def _zeta(alpha, c0, ladder, mode=EXACT):
    """The zeta chart alpha zeta + c0 + sum e^(-beta zeta) Q(zeta) of a ladder [(beta, Q)]."""
    terms = {Key(b, (-deg,)): c for b, q in ladder for deg, c in enumerate(q)}
    return DulacSeriesZeta(F(alpha), c0, whole_series(terms, mode))


def test_to_zeta_pure_power():
    d = DulacSeriesZ(1, 2, [])
    out = to_zeta_chart(d)
    assert out.alpha == 2 and out.c0.is_zero() and out.v.terms == {}


def test_to_zeta_log_ladder():
    # z^2 - z^3 log z = z^2 + z^3 * P1(-log z), P1(v) = v
    d = DulacSeriesZ(1, 2, [(3, [0, 1])])
    out = to_zeta_chart(d, e_cap=F(4))
    assert {k: c.rational_parts()[0] for k, c in out.v.terms.items()} == {
        Key(1, (-1,)): F(-1),
        Key(2, (-2,)): F(1, 2),
        Key(3, (-3,)): F(-1, 3),
    }


def test_to_zeta_lambda_float():
    d = DulacSeriesZ(complex(math.e), 2, [], mode="float")
    out = to_zeta_chart(d)
    assert abs(out.c0 + 1.0) < 1e-14  # c0 = -log lambda = -1
    assert out.v.terms == {}


def test_to_zeta_lambda_rational_exact():
    d = DulacSeriesZ(4, 2, [(3, [1])])
    out = to_zeta_chart(d, e_cap=F(3))
    assert out.c0 == -Exact.log_of_rational(4)
    back = to_z_chart(out, e_cap=F(3))
    assert back.terms == {Key(2, (0,)): Exact.of(4), Key(3, (0,)): Exact.of(1)}


def test_to_z_default_cap_is_the_frontier_of_v():
    """A zeta ladder read from JSON is known below its top rung + 1, an
    all-zero or empty rung included; `to_z_chart` cuts there by default."""
    zero, one = {"re": "0", "im": "0"}, {"re": "1", "im": "0"}
    for top in ([zero], []):
        ladder = [{"beta": "1", "Q": [one]}, {"beta": "3", "Q": top}]
        d = dulac_zeta_from_json({"alpha": "2", "c0": zero, "ladder": ladder})
        assert d.v.frontier == Cut(4) and d.betas() == [1]
        # z^2 exp(-z) = z^2 - z^3 + z^4/2 - z^5/6 + ... below z^(2 + 4)
        assert sorted({k.z for k in to_z_chart(d).terms}) == [2, 3, 4, 5]
    only_empty = dulac_zeta_from_json({"alpha": "2", "c0": zero, "ladder": [{"beta": "1", "Q": []}]})
    assert to_z_chart(only_empty).terms == {Key(2, (0,)): Exact.of(1)}


def test_dulac_series_z_shape_errors():
    """The ladder reader checks lambda and the exponents when it builds the germ."""
    for lam, mode in ((0, EXACT), (0j, FLOAT)):
        with pytest.raises(ShapeError, match="lambda must be nonzero"):
            DulacSeriesZ(lam, 2, [(3, [1])], mode)
    for ladder in ([(2, [1])], [(1, [1])], [(3, [1]), (3, [0, 1])], [(4, [1]), (F(5, 2), [1]), (4, [2])]):
        with pytest.raises(ShapeError, match="strictly increase"):
            DulacSeriesZ(1, 2, ladder)
    # an unsorted ladder is sorted, not an error
    d = DulacSeriesZ(1, 2, [(4, [1]), (3, [0, 2])])
    assert d.terms == {Key(2, (0,)): Exact.of(1), Key(3, (-1,)): Exact.of(2), Key(4, (0,)): Exact.of(1)}


def _seeded_ladder(rng, mode):
    """1-3 rungs above alpha = 2 (one may lie past the chart cap 4), degree
    <= 2, each P ending in a nonzero coefficient."""
    def coeff(nonzero):
        while True:
            if mode == EXACT:
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
            else:
                c = complex(rng.uniform(-2, 2), rng.choice((0.0, rng.uniform(-1, 1))))
            if c or not nonzero:
                return c

    exps = sorted(rng.sample([F(5, 2), 3, F(7, 2), 4, F(9, 2), 5, F(13, 2)], rng.randint(1, 3)))
    return [(a, [coeff(False) for _ in range(rng.randint(0, 2))] + [coeff(True)]) for a in exps]


def _term_map(terms):
    return {(float(k.z), k.l): complex(c) for k, c in terms.items()}


ROUNDTRIP_CAP = F(4)
ROUNDTRIP_GRIDS = [TruncationGrid(8, 6, depth, 10) for depth in (0, 1, 2)]


def _roundtrip_inputs():
    """The Dulac series of `test_roundtrips`: fixed and seeded ladders, exact
    and float, lambda 1 and not.  A 7/3 rung has exponents in thirds."""
    rng = random.Random(1151)
    for mode, lam in ((EXACT, 1), (EXACT, F(1, 2)), (FLOAT, 1), (FLOAT, complex(2, 1))):
        ladders = [[], [(3, [0, 1])], [(F(5, 2), [1]), (3, [2, 0, 1])], [(F(7, 3), [1]), (3, [0, 1])]]
        ladders += [_seeded_ladder(rng, mode) for _ in range(6)]
        for ladder in ladders:
            yield DulacSeriesZ(lam, 2, ladder, mode)


def _on_grid(d, grid):
    """The germ d on `grid`; None at depth 0 when d has a log term."""
    if grid.depth == 0:
        if any(k.l != (0,) for k in d.terms):
            return None
        return make_series({Key(k.z, ()): c for k, c in d.terms.items()}, grid, d.mode)
    return embed(d, grid)


def test_roundtrips():
    """z -> zeta -> z below a common cap, exact and float; and the germ read
    the same from a series of grid depth 0 (log-free germs), 1 and 2."""
    cap, grids = ROUNDTRIP_CAP, ROUNDTRIP_GRIDS
    for d in _roundtrip_inputs():
        rt = to_z_chart(to_zeta_chart(d, e_cap=cap), e_cap=cap)
        kept = {k: c for k, c in d.terms.items() if k.z - 2 < cap}
        if d.mode == EXACT:
            assert rt.terms == kept
        else:
            want, got = _term_map(kept), _term_map(rt.terms)
            assert all(abs(got.get(k, 0) - want.get(k, 0)) < 1e-9 for k in {*want, *got})
        for grid in grids:
            f = _on_grid(d, grid)
            if f is not None:
                assert f.depth == grid.depth and _germ(f) == _germ(d)


def test_roundtrip_exponents_are_fractions_in_both_modes():
    """Float mode means float coefficients only: every exponent of both
    charts and every key and frontier z of the germ on each grid is an exact
    rational in canonical form (an int when integral, else a `Fraction`), on
    the inputs of `test_roundtrips`."""
    for d in _roundtrip_inputs():
        zeta = to_zeta_chart(d, e_cap=ROUNDTRIP_CAP)
        rt = to_z_chart(zeta, e_cap=ROUNDTRIP_CAP)
        exps = [zeta.alpha] + [k.z for x in (d, zeta.v, rt) for k in x.terms]
        exps += [x.frontier.z for x in (d, zeta.v, rt)]
        for grid in ROUNDTRIP_GRIDS:
            f = _on_grid(rt, grid)
            if f is not None:
                exps += [k.z for k in f.terms] + [f.frontier.z]
        assert not noncanonical_zexps(*exps), (d, exps)


def test_to_zeta_takes_a_depth0_series():
    f = parse("z^2 + z^3 - 1/2*z^(7/2)", z_cap=8, depth=0)
    assert f.depth == 0
    assert _germ(f) == (2, Exact.of(1), {Key(3, (0,)): Exact.of(1), Key(F(7, 2), (0,)): Exact.of(F(-1, 2))})
    want = to_zeta_chart(DulacSeriesZ(1, 2, [(3, [1]), (F(7, 2), [F(-1, 2)])]))
    got = to_zeta_chart(f)
    assert (got.alpha, got.c0, got.v.terms) == (want.alpha, want.c0, want.v.terms)


def test_ord_e_inv():
    d = _zeta(1, 0, [(2, [1]), (3, [0, 1])])
    assert ord_e_inv(d) == 2
    assert ord_e_inv(_zeta(1, 0, [])) is None


def test_order_coherence_across_charts():
    # min beta of the zeta-chart defect equals min(alpha_i) - alpha
    d = DulacSeriesZ(1, 2, [(F(7, 2), [0, 3]), (4, [1])])
    out = to_zeta_chart(d, e_cap=F(4))
    assert ord_e_inv(out) == F(7, 2) - 2


# -- the Dulac class -------------------------------------------------------------------------


def test_is_dulac_examples():
    assert is_dulac(parse("z^2 + z^3*l1^-1", z_cap=8))
    assert not is_dulac(parse("z^2 + z^2*l1", z_cap=8))
    assert not is_dulac(parse("z^2 + z^3*l2^-1", z_cap=8))


def test_germ_series_and_shape_errors():
    """A germ is its depth-1 series, c z^a (-log z)^deg at Key(a, (-deg,));
    the chart map and the normalizer reject a series outside the class."""
    d = DulacSeriesZ(1, 2, [(3, [0, 2]), (F(7, 2), [1])])
    assert d.depth == 1
    assert d.terms == {Key(2, (0,)): Exact.of(1), Key(3, (-1,)): Exact.of(2), Key(F(7, 2), (0,)): Exact.of(1)}
    for bad, msg in (("z^2 + z^2*l1", "not a Dulac series"), ("z^2 + z^3*l2^-1", "not a Dulac series")):
        for op in (to_zeta_chart, dulac_normalize_full):
            with pytest.raises(ShapeError, match=msg):
                op(parse(bad, z_cap=8))
    with pytest.raises(ShapeError, match="no certified terms"):
        to_zeta_chart(parse("z^2 + z^3", z_cap=2))


# -- formal normalization of Dulac series ---------------------------------------------------


def test_dulac_normalize_polynomial():
    d = DulacSeriesZ(1, 2, [(3, [1])])  # z^2 + z^3
    phi, res = dulac_normalize_full(d, z_cap=9)
    assert phi is res.phi
    lead, first, second = sorted(phi.terms.items())[:3]
    assert lead == (Key(1, (0,)), Exact.of(1))
    assert first == (Key(2, (0,)), Exact.of(F(1, 2)))
    assert second == (Key(3, (0,)), Exact.of(F(1, 8)))


def test_dulac_normalize_identity():
    d = DulacSeriesZ(1, 2, [])
    phi = dulac_normalize_full(d, z_cap=6)[0]
    assert phi.terms == {Key(1, (0,)): Exact.of(1)}


def test_dulac_normalize_log_case_closure_and_realness():
    d = DulacSeriesZ(1, 2, [(3, [0, -1])])  # z^2 - z^3 (-log z) = z^2 + z^3 log z
    phi, res = dulac_normalize_full(d, z_cap=8)
    assert res.verification["conjugation_exact_below_frontier"]
    assert is_dulac(phi)
    assert all(c.is_real() for c in phi.terms.values())


# -- partial normalizations -------------------------------------------------------------------


def test_partials():
    phi = _zeta(1, 0, [(1, [F(1, 2)]), (2, [0, F(1, 8)])])
    p0 = partial_normalizations(phi, 0)
    assert p0.v.terms == {}
    p1 = partial_normalizations(phi, 1)
    assert p1.betas() == [1] and p1.v.terms == {Key(1, (0,)): Exact.of(F(1, 2))}
    z = complex(2.0, 0.3)
    want = z + 0.5 * cmath.exp(-z)
    assert abs(zeta_function(p1, numbers_like(z))(z) - want) < 1e-14
    want += z * cmath.exp(-2 * z) / 8  # the degree-0 gap of the second rung adds 0
    assert abs(zeta_function(partial_normalizations(phi, 2), numbers_like(z))(z) - want) < 1e-14
    with pytest.raises(DomainError):
        partial_normalizations(phi, 3)


def test_zeta_function_converts_log_coefficients_in_the_point_type():
    """Coefficients with log p parts convert losslessly at an mpmath point
    and to complex numbers at a complex one."""
    mpmath = pytest.importorskip("mpmath")
    log2, log3 = Exact.log_of_rational(F(2)), Exact.log_of_rational(F(3))
    v = whole_series({Key(1, (0,)): Exact.of(F(1, 2)), Key(1, (-1,)): log3}, EXACT)
    d = DulacSeriesZeta(F(2), -log2, v)
    with mpmath.workdps(50):
        z = mpmath.mpc(7, 0.25)
        want = 2 * z - mpmath.log(2) + mpmath.exp(-z) * (mpmath.mpf(1) / 2 + z * mpmath.log(3))
        assert abs(zeta_function(d, numbers_like(z))(z) - want) < mpmath.mpf("1e-45")
    z = complex(7, 0.25)
    want = 2 * z - math.log(2) + cmath.exp(-z) * (0.5 + z * math.log(3))
    assert abs(zeta_function(d, numbers_like(z))(z) - want) < 1e-13 * abs(want)


@pytest.mark.parametrize("ladder", [[(1, [1])], [(1, [10**20])], [(1, [0] * 20 + [1])],
                                    [(1, [F(1, 2)]), (2, [0, 0, -(10**6)])]],
                         ids=["e^-zeta", "1e20", "zeta^20", "two rungs"])
@pytest.mark.parametrize("alpha", [0, 2])
def test_zeta_function_leaves_out_only_rungs_below_the_last_digit(alpha, ladder):
    """A rung is cut by its bound, coefficients and degree included, against the
    last digit of alpha zeta + c0: past beta Re zeta = 53 ln 2 the double value
    still agrees with the germ summed at 50 digits, and a germ with
    alpha = c0 = 0 (homological's g) keeps every rung."""
    mpmath = pytest.importorskip("mpmath")
    f = zeta_chart_map(_zeta(alpha, 0, ladder))
    for x in (30.0, 37.0, 38.44, 57.7, 80.0):
        z = complex(x, 0.5)
        with mpmath.workdps(50):
            w = mpmath.mpc(z)
            want = complex(alpha * w + sum(mpmath.mpf(c.numerator) / c.denominator * w**deg * mpmath.exp(-b * w)
                                           for b, q in ladder for deg, c in enumerate(map(F, q))))
        assert abs(f(z) - want) <= 64 * 2.0**-52 * abs(want), (x, f(z), want)


# -- defect decay and formal/numeric comparison ------------------------------------------------


def test_defect_decay_trivial():
    phi0 = _zeta(1, 0, [])
    rep = defect_decay_check(lambda z: 2 * z, phi0, 0, 2.0, [2.0 + 0.5 * i for i in range(20)])
    assert rep["sup"] == 0.0


def test_defect_decay_exponential():
    f = lambda z: 2 * z + cmath.exp(-z)
    phi0 = _zeta(1, 0, [])
    xs = [2.0 + 0.4 * i for i in range(30)]
    rep = defect_decay_check(f, phi0, 0, 2.0, xs)
    assert rep["pass"]
    assert abs(rep["fitted_rate"] - 1.0) < 0.05  # defect is exactly e^-zeta


def test_defect_decays_faster_per_rung():
    # raw defect of phi_n decays like e^-(beta_{n+1}) zeta: rates increase with n
    f = lambda z: 2 * z + cmath.exp(-z)
    d = DulacSeriesZ(
        1, 2, [(3, [-1]), (4, [F(1, 2)]), (5, [F(-1, 6)]), (6, [F(1, 24)])]
    )
    phi_hat = to_zeta_chart(dulac_normalize_full(d, z_cap=8)[0])
    xs = [2.5 + 0.25 * i for i in range(24)]
    rates = []
    for n in (0, 1, 2):
        phin = partial_normalizations(phi_hat, n)
        rep = defect_decay_check(f, phin, 0, 2.0, xs, noise_floor=1e-13)
        rates.append(rep["fitted_rate"])
    assert rates[0] < rates[1] < rates[2]
    assert abs(rates[0] - 1.0) < 0.1  # defect of the identity is e^-zeta exactly


def test_compare_formal_numeric_identity():
    spec = AsymptoticSpec(2.0, 1.0, 1)
    dom = DomainSpec.standard_quadratic(1.0)
    res = koenigs_normalize(lambda z: 2 * z, spec, dom, R=3.0, tol=1e-13)
    xs = [3.0 + 0.5 * i for i in range(16)]
    rep = compare_formal_numeric(res.evaluator, _zeta(1, 0, []), 0, xs)
    assert rep["beta_n"] == 0.0
    assert max(s * math.exp(x) for s, x in zip(rep["statistic"], xs)) < 1e-9


def test_compare_formal_numeric_weights_by_beta_n():
    """The statistic of phi_hat_n is |phi - phi_hat_n| e^(beta_n Re zeta)."""
    phi = lambda z: z + 0.5 * cmath.exp(-z)
    phi_hat = _zeta(1, 0, [(1, [F(1, 2)]), (2, [F(1, 8)])])
    xs = [1.0 + 0.25 * i for i in range(16)]
    assert compare_formal_numeric(phi, phi_hat, 1, xs)["sup"] < 1e-12
    rep = compare_formal_numeric(phi, phi_hat, 2, xs)
    assert rep["beta_n"] == 2.0
    assert all(abs(s - 0.125) < 1e-9 for s in rep["statistic"])


def test_compare_formal_numeric_negative_control():
    # f(zeta) = 2 zeta + e^-zeta is z^2 e^-z in the z-chart; its formal
    # normalization matches the numeric one, a wrong-sign Q1 must not.
    f = lambda z: 2 * z + cmath.exp(-z)
    spec = AsymptoticSpec(2.0, 1.0, 1)
    dom = DomainSpec.standard_quadratic(1.0)
    R = invariant_threshold(f, spec, dom)
    res = koenigs_normalize(f, spec, dom, R, tol=1e-14)
    d = DulacSeriesZ(
        1, 2, [(3, [-1]), (4, [F(1, 2)]), (5, [F(-1, 6)]), (6, [F(1, 24)])]
    )
    phi_hat = to_zeta_chart(dulac_normalize_full(d, z_cap=8)[0])
    wrong = DulacSeriesZeta(phi_hat.alpha, phi_hat.c0, negate(phi_hat.v))
    xs = [R + 8.0 * i / 23 for i in range(24)]
    good = compare_formal_numeric(res.evaluator, phi_hat, 1, xs)
    bad = compare_formal_numeric(res.evaluator, wrong, 1, xs)
    assert good["pass"]
    assert not bad["pass"]
    assert bad["sup"] > 10 * good["sup"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known bug: `_decay_report`'s relative trend rule passes a 1e-2 error "
    "in rung 2 (sup 4.34e-2 against the true 3.34e-2) and a 1e-3 error in rung 1",
)
@pytest.mark.parametrize("rung, delta", [(1, F(1, 1000)), (2, F(1, 100))])
def test_bridge_compare_sees_a_small_error_in_phi_hat(capsys, monkeypatch, rung, delta):
    """`bridge compare` at its derived precision, with the degree-0 coefficient
    of one rung of phi_hat raised by delta, must fail that rung."""
    import json

    import bottcher.cli as cli

    def perturbed(phi):
        d = to_zeta_chart(phi)
        k = Key(d.betas()[rung - 1], (0,))
        terms = {**d.v.terms, k: d.v.terms[k] + Exact.of(delta)}
        return DulacSeriesZeta(d.alpha, d.c0, make_series(terms, d.v.grid, d.v.mode))

    monkeypatch.setattr(cli, "to_zeta_chart", perturbed)
    cli.main(["bridge", "compare", "z^2 - z^3 + 1/2*z^4", "--n", str(rung), "--json"])
    assert not json.loads(capsys.readouterr().out)["reports"][str(rung)]["pass"]


def test_zeta_map_is_minus_log_f_at_e_to_minus_zeta():
    """F(zeta) = -log f(e^(-zeta)) for a monic Dulac f, l1^-1 being zeta; far
    out, every rung is below the working precision and F is alpha zeta."""
    mpmath = pytest.importorskip("mpmath")
    F_ = zeta_map(parse("z^2 - z^3*l1^-1 + 1/2*z^4", z_cap=6))
    want = lambda z, exp, log: 2 * z - log(1 - z * exp(-z) + exp(-2 * z) / 2)
    with mpmath.workdps(40):
        z = mpmath.mpc(3, 0.5)
        assert abs(F_(z) - want(z, mpmath.exp, mpmath.log)) < mpmath.mpf("1e-38")
        far = mpmath.mpc(10**6, 10**30)
        assert F_(far) == 2 * far
    z = complex(3, 0.5)
    assert abs(F_(z) - want(z, cmath.exp, cmath.log)) < 1e-14
    with pytest.raises(ShapeError, match="leading coefficient must be 1"):
        zeta_map(parse("2*z^2 - z^3", z_cap=6))


def _bridge_inputs(text, mode=EXACT):
    """(phi_hat, F, spec, dom, R) of `bridge compare` for text, on a small grid."""
    phi, res = dulac_normalize_full(parse(text, mode=mode, z_cap=6), z_cap=6, block_cap=6)
    spec = AsymptoticSpec(alpha=float(res.alpha), eps=1.0, k=1)
    dom = DomainSpec.standard_quadratic(1.0)
    F_ = zeta_map(res.reduced)
    return to_zeta_chart(phi), F_, spec, dom, invariant_threshold(F_, spec, dom)


def _mp_bits(v):
    return v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, None)


@pytest.mark.parametrize(
    "text, mode",
    [("z^2 - z^3 + 1/2*z^4", EXACT), ("(1+1i)*z^2 - z^3", EXACT), ("(1+1i)*z^2 - z^3", FLOAT)],
)
def test_compare_at_real_ray_points_gives_the_bits_of_complex_points(text, mode):
    """The statistic at mpf ray points x equals, element by element, the one
    computed at mpc(x) with a fresh evaluator; a real germ and a complex lambda."""
    mpmath = pytest.importorskip("mpmath")
    phi_hat, F_, spec, dom, R = _bridge_inputs(text, mode)
    with mpmath.workdps(30):
        xs = [mpmath.mpf(R) + mpmath.mpf(8) * i / 11 for i in range(12)]
        for n in (1, 2, 3):
            numeric = lambda: koenigs_normalize(F_, spec, dom, R, tol=1e-25).evaluator
            got = compare_formal_numeric(numeric(), phi_hat, n, xs)["statistic"]
            fresh, beta = numeric(), float(phi_hat.betas()[n - 1])
            formal = zeta_function(partial_normalizations(phi_hat, n), numbers_like(mpmath.mpc(0)))
            want = [
                float(abs(fresh(mpmath.mpc(x)) - formal(mpmath.mpc(x)))) * math.exp(beta * float(x))
                for x in xs
            ]
            assert got == want


def test_real_ray_points_keep_the_real_parts_of_complex_points():
    """Both sides of the comparison, at an mpf x and at mpc(x), agree bit for
    bit: the real parts are equal and the imaginary part is zero."""
    mpmath = pytest.importorskip("mpmath")
    phi_hat, F_, spec, dom, R = _bridge_inputs("z^2 - z^3*l1^-1 + 1/2*z^4")
    with mpmath.workdps(30):
        formal = zeta_function(partial_normalizations(phi_hat, 2), numbers_like(mpmath.mpf(1)))
        for i in range(6):
            x = mpmath.mpf(R) + i
            for side in (F_, formal, koenigs_normalize(F_, spec, dom, R, tol=1e-25).evaluator):
                at_x, at_mpc = side(x), side(mpmath.mpc(x))
                assert _mp_bits(mpmath.mpc(at_x)) == _mp_bits(at_mpc) and at_mpc.imag == 0


def test_maps_convert_their_constants_per_kind_with_the_bits_of_fresh_maps():
    """One F and one zeta-chart map called at 30, 60, 30 and 10 digits and then
    at float points give a fresh conversion's bits at each step."""
    mpmath = pytest.importorskip("mpmath")
    text = "z^2 - z^3*l1^-1 + (1/3+1i)*z^4"
    # 21/10 zeta + 1/10 zeta e^(-13/10 zeta) - 7/10 e^(-21/10 zeta)
    d = _zeta(F(21, 10), 0, [(F(13, 10), [0, F(1, 10)]), (F(21, 10), [F(-7, 10)])])
    F_, f = zeta_map(parse(text, z_cap=6)), zeta_chart_map(d)
    for dps in (30, 60, 30, 10):
        with mpmath.workdps(dps):
            for z in (mpmath.mpc(3, 0.5), mpmath.mpf("3.25")):
                assert _mp_bits(F_(z)) == _mp_bits(zeta_map(parse(text, z_cap=6))(z))
                assert _mp_bits(f(z)) == _mp_bits(zeta_function(d, numbers_like(z))(z))
    for z in (complex(3, 0.5), 3.25):
        assert repr(F_(z)) == repr(zeta_map(parse(text, z_cap=6))(z))
        assert repr(f(z)) == repr(zeta_function(d, numbers_like(z))(z))


def test_numbers_like_runs_once_per_call_and_once_per_kind(monkeypatch):
    """compare_formal_numeric converts phi_hat_n once per call; F and the
    zeta-chart map convert their constants again only when the number kind changes."""
    mpmath = pytest.importorskip("mpmath")
    import bottcher.dulac as dulac

    calls = []

    def counted(x):
        calls.append(number_kind(x))
        return numbers_like(x)

    monkeypatch.setattr(dulac, "numbers_like", counted)
    phi_hat = _zeta(1, 0, [(1, [F(1, 2)]), (2, [0, F(1, 8)])])
    with mpmath.workdps(30):
        xs = [mpmath.mpf(3) + i for i in range(10)]
        compare_formal_numeric(lambda z: z, phi_hat, 2, xs)
        compare_formal_numeric(lambda z: z, phi_hat, 1, xs)
    assert len(calls) == 2
    calls.clear()
    F_, f = zeta_map(parse("z^2 - z^3 + 1/2*z^4", z_cap=6)), zeta_chart_map(_zeta(2, 0, [(1, [1])]))
    for prec in (100, 100, 200, 200, 100):
        with mpmath.workprec(prec):
            for _ in range(3):
                F_(mpmath.mpc(4, 0.5)), f(mpmath.mpc(4, 0.5))
                F_(mpmath.mpf(5)), f(mpmath.mpf(5))
    for _ in range(3):
        F_(complex(4, 0.5)), f(4.0)
    assert calls == [100] * 2 + [200] * 2 + [100] * 2 + [False] * 2
