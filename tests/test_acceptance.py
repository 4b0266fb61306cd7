"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with `pytest -s tests/test_acceptance.py` to see them)."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracles
from crosschecks import (
    agree_below_frontier,
    binomial,
    binomial_bound_check,
    convergence_mode,
    ell1_distance_on_parabolic,
    prenorm_block_map,
    zero_series,
)
from bottcher.coeffs import EXACT, FLOAT, Exact
from bottcher.compose import Composer, compose
from bottcher.domains import AsymptoticSpec, DomainSpec, invariant_threshold
from bottcher.dulac import (
    compare_formal_numeric,
    dulac_normalize_full,
    is_dulac,
    to_zeta_chart,
)
from bottcher.keys import Key
from bottcher.koenigs import (
    homological_residual,
    identity_deviation_bound,
    koenigs_normalize,
    koenigs_residual,
    solve_homological,
)
from bottcher.normalize import (
    bottcher_R_op,
    bottcher_iterates,
    bottcher_op,
    normalize,
    order_bound_check,
    prenormalize,
    support_predict,
)
from bottcher.parser import parse
from bottcher.series import (
    TruncationGrid,
    add,
    identity_series,
    monomial,
    mul_monomial,
    ord_z,
    sub,
)

F = Fraction


@contextmanager
def criterion(num, desc, limit):
    t0 = time.monotonic()
    yield
    dt = time.monotonic() - t0
    assert dt < limit, f"criterion {num} exceeded its {limit}s budget: {dt:.1f}s"
    print(f"\nACCEPTANCE {num:02d} PASS ({dt:.2f}s < {limit:g}s): {desc}")


def S(text, z_cap=8, block_cap=8, depth=None, mode=EXACT):
    probe = parse(text, z_cap=z_cap, block_cap=block_cap)
    d = probe.depth if depth is None else depth
    return parse(text, grid=TruncationGrid(z_cap, block_cap, d), mode=mode)


_SUITE_SPECS = [
    ("z^2 + z^3", dict(z_cap=12, block_cap=6)),
    ("z^2 + z^2*l1", dict(z_cap=12, block_cap=8)),
    ("z^3 + z^4*l1^2*l2^-1", dict(z_cap=12, block_cap=6)),
    ("z^2 + z^3*l1^-1", dict(z_cap=12, block_cap=8)),  # z^2 - z^3 log z (Dulac)
]
_SUITE_CACHE = {}


def suite_case(i):
    if i not in _SUITE_CACHE:
        text, kw = _SUITE_SPECS[i]
        f = S(text, **kw)
        _SUITE_CACHE[i] = (f, normalize(f))
    return _SUITE_CACHE[i]


def test_acceptance_01_weak_operator_anchor_values():
    with criterion(1, "weak-iteration operator reproduces the alpha=2, a=1 values", 1.0):
        f = S("z^2 + z^2*l1", z_cap=6)
        ident = identity_series(f.grid, f.mode)
        r1 = bottcher_R_op(f, ident)
        assert r1.coeff(Key(1, (0,))) == Exact.of(1)
        assert r1.coeff(Key(1, (1,))) == Exact.of(F(1, 2))
        assert r1.coeff(Key(1, (2,))) == Exact.of(F(-1, 8))
        h = add(ident, monomial(Key(1, (1,)), f.grid))
        r2 = bottcher_R_op(f, h)
        assert r2.coeff(Key(1, (1,))) == Exact.of(F(3, 4))
        assert r2.coeff(Key(1, (2,))) == Exact.of(F(-1, 32))


def test_acceptance_02_non_contraction_witness():
    with criterion(2, "l1-metric distance 1/2 is preserved when ord_l1(R) >= 2", 5.0):
        f = S("z^2 + z^2*l1^3", z_cap=6)
        ident = identity_series(f.grid, f.mode)
        h = add(ident, monomial(Key(1, (1,)), f.grid))
        assert ell1_distance_on_parabolic(h, ident) == 0.5
        d = ell1_distance_on_parabolic(bottcher_R_op(f, h), bottcher_R_op(f, ident))
        assert d == 0.5


def test_acceptance_03_contraction_suite(rng):
    with criterion(3, "contraction factor 2^-((alpha-1)(beta-1)) on 200 random triples", 30.0):
        alphas = [F(3, 2), F(2), F(3)]
        betas = [F(2), F(5, 2), F(3)]
        combos = [(a, b) for a in alphas for b in betas]
        checked = 0
        equalities = 0

        def build(grid, base_ord, coeffs_pool):
            terms = {}
            n_terms = rng.randint(1, 2)
            for j in range(n_terms):
                z = base_ord + F(rng.choice((0, 1, 2)), 2)
                l1 = rng.choice((0, 0, 1))
                c = F(rng.choice(coeffs_pool))
                if z < grid.z_cap:
                    terms[Key(z, (l1,))] = Exact.of(c)
            return terms

        case = 0
        while checked < 191:
            alpha, beta = combos[case % len(combos)]
            case += 1
            gain = (alpha - 1) * (beta - 1)
            grid = TruncationGrid(beta + gain + alpha + 2, 4, 1, 8)
            ident = identity_series(grid)
            f = add(monomial(Key(alpha, (0,)), grid),
                    make_from(build(grid, alpha + beta - 1, (1, -1, 2, 3)), grid))
            h1 = add(ident, make_from(build(grid, beta, (1, -2, 2)), grid))
            h2 = add(ident, make_from(build(grid, beta, (1, -1, 3)), grid))
            diff = sub(h1, h2)
            if diff.is_zero():
                continue
            o_in = ord_z(diff)
            out = sub(bottcher_op(f, h1), bottcher_op(f, h2))
            if not out.is_zero():
                lead = min(out.terms)
                assert lead >= out.frontier or lead.z >= o_in + gain, (
                    alpha, beta, o_in, lead,
                )
                # the geometric bound: P_f multiplies the relative z-order by alpha
                assert lead >= out.frontier or lead.z >= 1 + alpha * (o_in - 1), (
                    alpha, beta, o_in, lead,
                )
            checked += 1

        for alpha, beta in combos:
            gain = (alpha - 1) * (beta - 1)
            grid = TruncationGrid(beta + gain + alpha + 2, 4, 1, 8)
            ident = identity_series(grid)
            f = add(monomial(Key(alpha, (0,)), grid),
                    monomial(Key(alpha + beta - 1, (0,)), grid))
            h1 = add(ident, monomial(Key(beta, (0,)), grid))
            out = sub(bottcher_op(f, h1), bottcher_op(f, ident))
            assert ord_z(out) == beta + gain, (alpha, beta)  # equality attained
            checked += 1
            equalities += 1
        assert checked >= 200 and equalities == 9


def make_from(terms, grid):
    from bottcher.series import make_series

    return make_series(terms, grid)


def test_acceptance_04_bottcher_oracle():
    with criterion(4, "normalize(z^2+z^3) matches the degree-by-degree solver to order 12", 5.0):
        f = S("z^2 + z^3", z_cap=14, block_cap=4)
        res = normalize(f, verify=False)
        want = oracles.bottcher_coeffs([F(0), F(0), F(1), F(1)], 2, 12)
        assert want[2] == F(1, 2) and want[3] == F(1, 8)
        for n in range(2, 13):
            key = Key(n, ())
            assert key < res.phi.frontier, n
            assert res.phi.coeff(key) == Exact.of(want[n]), n


def test_acceptance_05_normalization_suite():
    with criterion(5, "conjugate(phi, f) = z^alpha below frontier on the 4-case suite", 60.0):
        for i in range(4):
            f, res = suite_case(i)
            assert res.verification["conjugation_exact_below_frontier"], _SUITE_SPECS[i][0]


def test_acceptance_06_order_bound():
    with criterion(6, "ord_z(phi - id) >= ord_z(f - z^alpha) - alpha + 1 on the suite", 30.0):
        for i in range(4):
            f, res = suite_case(i)
            assert order_bound_check(f, res.phi), _SUITE_SPECS[i][0]
            assert res.verification["order_bound_ok"]


def test_suite_phi_is_bottcher_fixed_point():
    # one more Picard step changes nothing below the frontier: the geometric
    # stopping index did not stop early
    cases = [suite_case(i) for i in range(4)]
    f = S("z^(3/2) + z^2", z_cap=6, block_cap=8)
    cases.append((f, normalize(f, verify=False)))
    for f, res in cases:
        assert agree_below_frontier(bottcher_op(res.composer, res.phi), res.phi), f


def test_acceptance_07_support_containment():
    with criterion(7, "supp(phi) inside the predicted semigroup (cutoff z_cap = 12)", 60.0):
        for i in range(4):
            f, res = suite_case(i)
            spec = support_predict(f)
            assert spec.cutoff.z == 12
            for k in res.phi.terms:
                if k < res.phi.frontier:
                    assert spec.contains(k), (i, k)


def test_acceptance_08_convergence_mode():
    with criterion(8, "power-metric iff Lb_z(h) = Lb_z(phi); weak rate <= poly(n)/2^n", 30.0):
        f = S("z^2 + z^2*l1", z_cap=5, block_cap=8)
        phi1 = prenormalize(f)
        # seeded at phi1: every z-block freezes immediately (fixed point)
        its = bottcher_iterates(f, phi1, 3)
        for it in its[1:]:
            d = sub(it, phi1)
            assert d.is_zero()
        assert convergence_mode(f, phi1)["power_metric"] is True
        # seeded at id: the (1,1)-trajectory approaches 2/3 but never freezes
        ident = identity_series(f.grid, f.mode)
        mode = convergence_mode(f, ident)
        assert mode == {"weak_always": True, "power_metric": False}
        traj = [
            s.coeff(Key(1, (1,))).rational_parts()[0]
            for s in bottcher_iterates(f, ident, 10)
        ]
        target = F(2, 3)
        for a, b in zip(traj, traj[1:]):
            assert a != b  # the leading block never exactly stabilizes
        deltas = [abs(v - target) for v in traj[1:]]
        ns = list(range(1, len(deltas) + 1))
        logs = [math.log(float(d)) for d in deltas]
        mean_n = sum(ns) / len(ns)
        mean_l = sum(logs) / len(logs)
        slope = sum((n - mean_n) * (l - mean_l) for n, l in zip(ns, logs)) / sum(
            (n - mean_n) ** 2 for n in ns
        )
        # |Delta_n| <= C poly(n)/2^n requires decay rate at least log 2
        assert slope <= -(math.log(2.0) - 1e-8)


def test_acceptance_09_binomial_bound():
    with criterion(9, "|binom(1/alpha^n, i)| <= 1/alpha^n exactly", 10.0):
        assert abs(binomial(F(1, 2), 3)) == F(1, 16)
        for alpha in (2, 3):
            for n in range(0, 13):
                for i in range(1, 41):
                    assert binomial_bound_check(alpha, n, i), (alpha, n, i)


def test_acceptance_10_prenormalization_cross_check():
    with criterion(10, "graded-solver phi1 matches the float weak-iteration limit", 10.0):
        f = S("z^2 + z^2*l1", z_cap=5, block_cap=10)
        phi1 = prenormalize(f)
        exact_s = {
            k.l[0]: c.rational_parts()[0]
            for k, c in phi1.terms.items()
            if k.l[0] >= 1 and k < phi1.frontier
        }
        grid = TruncationGrid(z_cap=5, block_cap=10, depth=1)
        r = monomial(Key(0, (1,)), grid, FLOAT)
        f0 = Composer(mul_monomial(add(monomial(Key(0, (0,)), grid, FLOAT), r), Key(2, (0,))))
        t = zero_series(grid, FLOAT)
        for _ in range(60):
            t = prenorm_block_map(r, t, F(2), f0=f0)
        for deg in range(1, 7):
            got = t.coeff(Key(0, (deg,)))
            assert abs(got - float(exact_s[deg])) < 1e-8, deg


def test_acceptance_11_koenigs_pipeline():
    with criterion(11, "certified R; residual < 1e-10 at 100 points; |phi - id| <= 2M", 10.0):
        import cmath

        spec = AsymptoticSpec(2.0, 1.0, 1)
        dom = DomainSpec.standard_quadratic(1.0)
        fmap = lambda z: 2 * z + cmath.exp(-z)
        R = invariant_threshold(fmap, spec, dom)
        res = koenigs_normalize(fmap, spec, dom, R, tol=1e-11)
        for i in range(100):
            zeta = complex(R + 10.0 * i / 99, 0.25)
            assert koenigs_residual(res, fmap, zeta) < 1e-10
            dev = abs(res.evaluator(zeta) - zeta)
            assert dev <= 2.0 * spec.M(zeta.real)
            assert identity_deviation_bound(res, zeta) == pytest.approx(
                2.0 * spec.M(zeta.real)
            )


def test_acceptance_12_homological_solver():
    with criterion(12, "phi_g o f - 2 phi_g = g with residual < 1e-12; e^Re-bounded", 5.0):
        import cmath

        spec = AsymptoticSpec(2.0, 1.0, 1)
        dom = DomainSpec.standard_quadratic(1.0)
        f = lambda z: 2 * z
        g = lambda z: cmath.exp(-z)
        res = solve_homological(f, g, 1.0, spec, dom, R=3.0, tol=1e-16)
        for i in range(40):
            zeta = complex(3.0 + 0.4 * i, 0.1)
            assert homological_residual(res, f, g, zeta) < 1e-12
        for x in (3.0, 6.0, 10.0, 15.0):
            assert abs(res.evaluator(complex(x, 0.0))) * math.exp(x) < 1.0


def test_acceptance_13_theorem_c_surrogate():
    with criterion(13, "formal vs numeric normalization along a ray (n = 1, 2, 3)", 30.0):
        mpmath = pytest.importorskip("mpmath")
        dps = mpmath.mp.dps
        with mpmath.workdps(50):
            # z-chart expansion of f(zeta) = 2 zeta + e^-zeta is z^2 e^-z
            d = parse("z^2 - z^3 + 1/2*z^4 - 1/6*z^5 + 1/24*z^6 - 1/120*z^7", z_cap=8)
            phi_hat_z, res = dulac_normalize_full(d, z_cap=8, block_cap=6)
            phi_hat = to_zeta_chart(phi_hat_z)
            assert len(phi_hat.betas()) >= 3

            spec = AsymptoticSpec(2.0, 1.0, 1)
            dom = DomainSpec.standard_quadratic(1.0)
            fmap = lambda z: 2 * z + mpmath.exp(-z)
            R = invariant_threshold(lambda z: 2 * z + complex(mpmath.exp(-z)), spec, dom)
            numeric = koenigs_normalize(fmap, spec, dom, R, tol=1e-35, check_domain=False)
            cache = {}

            def phi(zeta):
                key = complex(zeta)
                if key not in cache:
                    cache[key] = numeric.evaluator(zeta)
                return cache[key]

            xs = [mpmath.mpf(R) + mpmath.mpf(20.0) * i / 47 for i in range(48)]
            for n in (1, 2, 3):
                rep = compare_formal_numeric(phi, phi_hat, n, xs)
                assert rep["pass"], (n, rep)
                assert rep["sup"] < 10.0, (n, rep["sup"])
    assert mpmath.mp.dps == dps  # the 50 digits end with the test


def test_acceptance_14_dulac_closure():
    with criterion(14, "Dulac class and realness preserved by formal normalization", 30.0):
        for expr in ("z^2 + z^3", "z^2 - z^3*l1^-1"):  # z^2 + z^3 log z
            phi, res = dulac_normalize_full(parse(expr, z_cap=8), z_cap=8, block_cap=8)
            assert res.verification["conjugation_exact_below_frontier"]
            assert is_dulac(phi)
            assert phi.terms[min(phi.terms)] == Exact.of(1) and min(phi.terms) == Key(1, (0,))
            assert all(c.is_real() for c in phi.terms.values())
