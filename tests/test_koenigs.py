import cmath
import math

import pytest

from crosschecks import cauchy_step_bound, real_line_invariance_check
from bottcher.domains import AsymptoticSpec, DomainSpec, invariant_threshold
from bottcher.errors import DomainError
from bottcher.koenigs import (
    homological_residual,
    identity_deviation_bound,
    koenigs_normalize,
    koenigs_residual,
    solve_homological,
)

SPEC = AsymptoticSpec(2.0, 1.0, 1)
DOM = DomainSpec.standard_quadratic(1.0)


def expmap(z):
    return 2 * z + cmath.exp(-z)


def test_linear_map_gives_identity():
    res = koenigs_normalize(lambda z: 2 * z, SPEC, DOM, R=3.0, tol=1e-12)
    z = complex(5.0, 0.7)
    assert abs(res.evaluator(z) - z) < 1e-12


def test_exponential_defect_residual_and_bounds():
    R = invariant_threshold(expmap, SPEC, DOM)
    res = koenigs_normalize(expmap, SPEC, DOM, R, tol=1e-12)
    for i in range(40):
        z = complex(R + 8.0 * i / 39, 0.4)
        assert koenigs_residual(res, expmap, z) < 1e-10
        assert abs(res.evaluator(z) - z) <= identity_deviation_bound(res, z)


def test_residual_within_tail_derived_bound():
    # |phi(f(z)) - alpha phi(z)| <= 2 (alpha + 1) * tail bound at every evaluated point
    R = invariant_threshold(expmap, SPEC, DOM)
    res = koenigs_normalize(expmap, SPEC, DOM, R, tol=1e-9)
    for i in range(10):
        z = complex(R + 0.9 * i, 0.1 * i)
        resid = koenigs_residual(res, expmap, z)
        bound = 2 * (SPEC.alpha + 1) * max(res.tail_bound(z), res.tail_bound(expmap(z)))
        assert resid <= bound


def test_monotone_escape_along_orbit():
    R = invariant_threshold(expmap, SPEC, DOM)
    rho_R = SPEC.rho(R)
    z = complex(R, 1.0)
    w = z
    for n in range(12):
        assert w.real >= z.real + n * rho_R - 1e-9
        w = expmap(w)


def test_cauchy_certificate():
    R = invariant_threshold(expmap, SPEC, DOM)
    res = koenigs_normalize(expmap, SPEC, DOM, R, tol=1e-12)
    z = complex(R + 0.5, 0.2)
    w = z
    for n in range(18):
        step = abs(expmap(w) / 2 ** (n + 1) - w / 2**n)
        assert step <= cauchy_step_bound(res, z, n) + 1e-18
        w = expmap(w)


def test_two_tolerances_agree_within_tails():
    R = invariant_threshold(expmap, SPEC, DOM)
    res1 = koenigs_normalize(expmap, SPEC, DOM, R, tol=1e-6)
    res2 = koenigs_normalize(expmap, SPEC, DOM, R, tol=1e-13)
    for i in range(12):
        z = complex(R + i * 0.8, -0.3)
        gap = abs(res1.evaluator(z) - res2.evaluator(z))
        assert gap <= res1.tail_bound(z) + res2.tail_bound(z)


def test_domain_cut_enforced():
    res = koenigs_normalize(expmap, SPEC, DOM, R=3.0, tol=1e-10)
    with pytest.raises(DomainError):
        res.evaluator(complex(1.0, 0.0))


def test_real_line_invariance():
    R = invariant_threshold(expmap, SPEC, DOM)
    res = koenigs_normalize(expmap, SPEC, DOM, R, tol=1e-12)
    assert real_line_invariance_check(res, expmap, [R + 0.3 * i for i in range(10)])
    with pytest.raises(DomainError):
        bad = lambda z: 2 * z + 1j * cmath.exp(-z)
        res_b = koenigs_normalize(bad, SPEC, DOM, R, tol=1e-10, check_domain=False)
        real_line_invariance_check(res_b, bad, [R + 1.0])


# -- homological equation ----------------------------------------------------------------


def test_homological_zero_rhs():
    res = solve_homological(lambda z: 2 * z, lambda z: 0.0 * z, 1.0, SPEC, DOM, R=3.0)
    assert abs(res.evaluator(complex(4.0, 0.5))) == 0.0


def test_homological_direct_sum_oracle():
    f = lambda z: 2 * z
    g = lambda z: cmath.exp(-z)
    res = solve_homological(f, g, 1.0, SPEC, DOM, R=3.0, tol=1e-16)
    for x in (3.0, 4.5, 6.0):
        oracle = -sum(2.0 ** -(n + 1) * cmath.exp(-(2.0**n) * x) for n in range(40))
        assert abs(res.evaluator(complex(x, 0.0)) - oracle) < 1e-15
    # at x = 3 the leading term dominates (next term is 2^-2 e^-6, ~2.5%)
    lead = -0.5 * math.exp(-3.0)
    val = res.evaluator(complex(3.0, 0.0))
    assert abs(val - lead) < 0.05 * abs(lead)


def test_homological_residual_identity():
    f = lambda z: 2 * z
    g = lambda z: cmath.exp(-z)
    res = solve_homological(f, g, 1.0, SPEC, DOM, R=3.0, tol=1e-16)
    for i in range(16):
        z = complex(3.0 + 0.5 * i, 0.2)
        assert homological_residual(res, f, g, z) < 1e-12


def test_homological_asymptotic_bound():
    f = lambda z: 2 * z
    g = lambda z: cmath.exp(-z)
    res = solve_homological(f, g, 1.0, SPEC, DOM, R=3.0, tol=1e-16)
    for x in (3.0, 5.0, 8.0, 12.0):
        assert abs(res.evaluator(complex(x, 0.0))) * math.exp(x) < 1.0


def test_homological_precondition_enforced():
    with pytest.raises(DomainError):
        solve_homological(
            lambda z: 2 * z, lambda z: 5.0 * cmath.exp(-0.5 * z), 1.0, SPEC, DOM, R=3.0
        )


def test_tail_bound_is_the_certified_stop():
    # tail_bound reports the majorant the evaluator stopped on, below tol
    R = invariant_threshold(expmap, SPEC, DOM)
    tol = 1e-11
    res = koenigs_normalize(expmap, SPEC, DOM, R, tol=tol)
    for i in range(25):
        z = complex(R + 10.0 * i / 24, 0.25 * math.sin(i))
        res.evaluator(z)
        assert 0.0 <= res.tail_bound(z) < tol
        assert isinstance(res.iterations_used[z], int)
    fresh = complex(R + 3.3, 0.1)  # tail_bound evaluates a point it has not seen
    assert res.tail_bound(fresh) < tol
