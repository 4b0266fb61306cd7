import cmath
import math
import random
from fractions import Fraction

import pytest

from crosschecks import defect_decay_check, ord_e_inv
from bottcher.coeffs import EXACT, FLOAT, Exact
from bottcher.domains import AsymptoticSpec, DomainSpec, invariant_threshold
from bottcher.dulac import (
    DulacSeriesZ,
    DulacSeriesZeta,
    compare_formal_numeric,
    dulac_normalize_full,
    evaluate_zeta,
    from_transseries,
    is_dulac,
    partial_normalizations,
    to_transseries,
    to_z_chart,
    to_zeta_chart,
)
from bottcher.errors import DomainError, ShapeError
from bottcher.keys import Key
from bottcher.koenigs import koenigs_normalize
from bottcher.parser import parse
from bottcher.series import TruncationGrid

F = Fraction


def test_to_zeta_pure_power():
    d = DulacSeriesZ(1, 2, [])
    out = to_zeta_chart(d)
    assert out.alpha == 2 and out.c0.is_zero() and out.ladder == []


def test_to_zeta_log_ladder():
    # z^2 - z^3 log z = z^2 + z^3 * P1(-log z), P1(v) = v
    d = DulacSeriesZ(1, 2, [(3, [0, 1])])
    out = to_zeta_chart(d, e_cap=F(4))
    assert [(b, [c.rational_parts()[0] for c in q]) for b, q in out.ladder] == [
        (F(1), [F(0), F(-1)]),
        (F(2), [F(0), F(0), F(1, 2)]),
        (F(3), [F(0), F(0), F(0), F(-1, 3)]),
    ]


def test_to_zeta_lambda_float():
    d = DulacSeriesZ(complex(math.e), 2, [], mode="float")
    out = to_zeta_chart(d)
    assert abs(out.c0 + 1.0) < 1e-14  # c0 = -log lambda = -1
    assert out.ladder == []


def test_to_zeta_lambda_rational_exact():
    d = DulacSeriesZ(4, 2, [(3, [1])])
    out = to_zeta_chart(d, e_cap=F(3))
    assert out.c0 == -Exact.log_of_rational(4)
    back = to_z_chart(out, e_cap=F(3))
    assert back.lam == Exact.of(4)
    assert back.ladder[0][0] == 3 and back.ladder[0][1][0] == Exact.of(1)


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


def _ladder_map(ladder):
    return {(float(a), deg): complex(c) for a, p in ladder for deg, c in enumerate(p)}


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


def test_roundtrips():
    """z -> zeta -> z below a common cap, and transseries -> Dulac -> transseries,
    on fixed and seeded ladders, exact and float, at grid depths 0, 1 and 2."""
    cap, grids = ROUNDTRIP_CAP, ROUNDTRIP_GRIDS
    for d in _roundtrip_inputs():
        rt = to_z_chart(to_zeta_chart(d, e_cap=cap), e_cap=cap)
        kept = [(a, p) for a, p in d.ladder if a - d.alpha < cap]
        assert rt.alpha == d.alpha
        if d.mode == EXACT:
            assert rt.lam == d.lam and rt.ladder == kept
        else:
            assert abs(rt.lam - d.lam) < 1e-12
            want, got = _ladder_map(kept), _ladder_map(rt.ladder)
            assert all(abs(got.get(k, 0) - want.get(k, 0)) < 1e-9 for k in {*want, *got})
        for grid in grids:
            back = from_transseries(to_transseries(d, grid))
            assert (back.lam, back.alpha, back.ladder) == (d.lam, d.alpha, d.ladder)
    # a depth-0 series: every term is a degree-0 rung
    back = from_transseries(parse("z^2 + z^3 - 1/2*z^(7/2)", z_cap=8, depth=0))
    assert (back.alpha, back.ladder) == (2, [(3, [Exact.of(1)]), (F(7, 2), [Exact.of(F(-1, 2))])])


def test_roundtrip_exponents_are_fractions_in_both_modes():
    """Float mode means float coefficients only: every rung exponent of both
    charts and every key and frontier z of the embedded series is a
    `Fraction`, on the inputs of `test_roundtrips`."""
    for d in _roundtrip_inputs():
        zeta = to_zeta_chart(d, e_cap=ROUNDTRIP_CAP)
        rt = to_z_chart(zeta, e_cap=ROUNDTRIP_CAP)
        exps = [zeta.alpha, rt.alpha] + [b for x in (d, zeta, rt) for b, _ in x.ladder]
        for grid in ROUNDTRIP_GRIDS:
            f = to_transseries(rt, grid)
            exps += [k.z for k in f.terms] + [f.frontier.z]
        assert all(type(b) is F for b in exps), (d, exps)


def test_ord_e_inv():
    d = DulacSeriesZeta(1, 0, [(2, [1]), (3, [0, 1])])
    assert ord_e_inv(d) == 2
    assert ord_e_inv(DulacSeriesZeta(1, 0, [])) is None


def test_order_coherence_across_charts():
    # min beta of the zeta-chart defect equals min(alpha_i) - alpha
    d = DulacSeriesZ(1, 2, [(F(7, 2), [0, 3]), (4, [1])])
    out = to_zeta_chart(d, e_cap=F(4))
    assert ord_e_inv(out) == F(7, 2) - 2


# -- transseries embedding -------------------------------------------------------------


def test_is_dulac_examples():
    assert is_dulac(parse("z^2 + z^3*l1^-1", z_cap=8))
    assert not is_dulac(parse("z^2 + z^2*l1", z_cap=8))
    assert not is_dulac(parse("z^2 + z^3*l2^-1", z_cap=8))


def test_to_from_transseries():
    d = DulacSeriesZ(1, 2, [(3, [0, 2]), (F(7, 2), [1])])
    grid = TruncationGrid(8, 6, 1, 10)
    f = to_transseries(d, grid)
    assert f.coeff(Key(3, (-1,))) == Exact.of(2)
    assert f.coeff(Key(F(7, 2), (0,))) == Exact.of(1)
    back = from_transseries(f)
    assert back.alpha == 2 and len(back.ladder) == 2
    with pytest.raises(ShapeError):
        from_transseries(parse("z^2 + z^2*l1", z_cap=8))


# -- formal normalization of Dulac series ---------------------------------------------------


def test_dulac_normalize_polynomial():
    d = DulacSeriesZ(1, 2, [(3, [1])])  # z^2 + z^3
    phi, res = dulac_normalize_full(d, z_cap=9)
    assert phi.alpha == 1
    assert phi.ladder[0][1][0] == Exact.of(F(1, 2))
    assert phi.ladder[1][1][0] == Exact.of(F(1, 8))


def test_dulac_normalize_identity():
    d = DulacSeriesZ(1, 2, [])
    phi = dulac_normalize_full(d, z_cap=6)[0]
    assert phi.ladder == []


def test_dulac_normalize_log_case_closure_and_realness():
    d = DulacSeriesZ(1, 2, [(3, [0, -1])])  # z^2 - z^3 (-log z) = z^2 + z^3 log z
    phi, res = dulac_normalize_full(d, z_cap=8)
    assert res.verification["conjugation_exact_below_frontier"]
    for _, p in phi.ladder:
        for c in p:
            assert c.is_real()


# -- partial normalizations -------------------------------------------------------------------


def test_partials():
    phi = DulacSeriesZeta(1, 0, [(1, [F(1, 2)]), (2, [F(1, 8)])])
    p0 = partial_normalizations(phi, 0)
    assert p0.ladder == []
    p1 = partial_normalizations(phi, 1)
    assert len(p1.ladder) == 1
    z = complex(2.0, 0.3)
    want = z + 0.5 * cmath.exp(-z)
    assert abs(evaluate_zeta(p1, z) - want) < 1e-14
    with pytest.raises(DomainError):
        partial_normalizations(phi, 3)


# -- defect decay and formal/numeric comparison ------------------------------------------------


def test_defect_decay_trivial():
    phi0 = DulacSeriesZeta(1, 0, [])
    rep = defect_decay_check(lambda z: 2 * z, phi0, 0, 2.0, [2.0 + 0.5 * i for i in range(20)])
    assert rep["sup"] == 0.0


def test_defect_decay_exponential():
    f = lambda z: 2 * z + cmath.exp(-z)
    phi0 = DulacSeriesZeta(1, 0, [])
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
    phi = DulacSeriesZeta(1, 0, [(1, [0])])
    rep = compare_formal_numeric(res, phi, 1, [3.0 + 0.5 * i for i in range(16)])
    assert rep["sup"] < 1e-9


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
    wrong = DulacSeriesZeta(
        1, 0, [(b, [-c for c in q]) for b, q in phi_hat.ladder], phi_hat.mode
    )
    xs = [R + 8.0 * i / 23 for i in range(24)]
    good = compare_formal_numeric(res, phi_hat, 1, xs)
    bad = compare_formal_numeric(res, wrong, 1, xs)
    assert good["pass"]
    assert not bad["pass"]
    assert bad["sup"] > 10 * good["sup"]
