import cmath
import math
import random
from fractions import Fraction

import pytest

from crosschecks import cauchy_step_bound, real_line_invariance_check
from bottcher.compose import Composer, compose, solve_linear
from bottcher.domains import AsymptoticSpec, DomainSpec, invariant_threshold
from bottcher.errors import CertificationError, DomainError
from bottcher.koenigs import (
    homological_residual,
    identity_deviation_bound,
    koenigs_normalize,
    koenigs_residual,
    solve_homological,
)
from bottcher.keys import Cut
from bottcher.parser import parse
from bottcher.series import TruncationGrid, residual_keys, scale, sub

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


def _at_zeta(h, zeta):
    """A depth <= 1 series h at z = e^-zeta, where l1 = -1/log z = 1/zeta."""
    return sum(
        complex(c) * cmath.exp(-k.z * zeta) * zeta ** -sum(k.l)
        for k, c in h.terms.items()
        if k < h.frontier
    )


@pytest.mark.parametrize("c3, g_text", [(1, "z"), (-1, "z^2 + 1/2*z^3"), (1, "z^2*l1^-1 + z^3")])
def test_formal_homological_solution_matches_solve_homological(c3, g_text):
    """h o f - 2 h = g for f = z^2 + c3 z^3, solved formally by `solve_linear`,
    then at z = e^-zeta against the numeric sum of `solve_homological` for
    F(zeta) = -log f(e^-zeta).  z_cap 17 keeps the formal truncation, about
    e^(-17 R), far below the gate."""
    grid = TruncationGrid(17, 16, 1, 16)
    f, g = parse(f"z^2 + ({c3})*z^3", grid=grid), parse(g_text, grid=grid)
    h = solve_linear(Composer(f), -2, 1, g)
    residual = sub(sub(compose(h, f), scale(h, 2)), g)
    assert residual.frontier == Cut(17) and not residual_keys(residual)
    F = lambda zeta: 2 * zeta - cmath.log(1 + c3 * cmath.exp(-zeta))
    R = invariant_threshold(F, SPEC, DOM)
    numeric = solve_homological(F, lambda zeta: _at_zeta(g, zeta), 1.0, SPEC, DOM, R)
    for zeta in (R, R + 1j, R + 3 + 0.5j):
        assert abs(numeric.evaluator(complex(zeta)) - _at_zeta(h, zeta)) < 1e-12


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


def test_homological_precondition_is_checked_along_the_orbit():
    # |e^-z cos 2z| <= e^-Re z holds on the real axis, where the 12 samples
    # lie, but not at 3 + 1.5i: |g| = 0.50 there against e^-3 = 0.050.  The
    # tail would certify n = 2 (8.2e-7 < tol) while the true remainder is 5.5e-2.
    g = lambda z: cmath.exp(-z) * cmath.cos(2 * z)
    res = solve_homological(lambda z: 2 * z, g, 1.0, SPEC, DOM, R=3.0, tol=1e-6)
    with pytest.raises(DomainError, match="precondition fails"):
        res.evaluator(complex(3.0, 1.5))
    assert abs(res.evaluator(complex(3.0, 0.0))) < 0.05  # the real axis still passes


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


def test_tail_bound_keeps_one_point():
    # tail_bound reads the last evaluated point without a new call to f and
    # recomputes an earlier one; apart from iterations_used, no container
    # held by the result's closures grows with the number of points
    calls = [0]

    def counted(z):
        calls[0] += 1
        return expmap(z)

    R = invariant_threshold(expmap, SPEC, DOM)
    res = koenigs_normalize(counted, SPEC, DOM, R, tol=1e-11)
    points = [complex(R + 10.0 * i / 199, 0.25 * math.cos(i)) for i in range(200)]
    first = {}
    for z in points:
        res.evaluator(z)
        n = calls[0]
        first[z] = res.tail_bound(z)
        assert calls[0] == n
    for z in points[::17]:
        assert res.tail_bound(z) == first[z]
    for fn in (res.evaluator, res.tail_bound):
        for cell in fn.__closure__:
            held = cell.cell_contents
            if isinstance(held, (dict, list, set, tuple)) and held is not res.iterations_used:
                assert len(held) <= 1, held


def _counted(f):
    """f and a one-cell list counting its calls."""
    calls = [0]

    def g(z):
        calls[0] += 1
        return f(z)

    return g, calls


def test_certified_point_costs_one_orbit():
    # value, tail_bound, then residual: f runs along zeta's orbit, once more
    # for the residual's f(zeta), and then only along the steps of f(zeta)'s
    # orbit past the ones zeta's orbit already holds
    counted, calls = _counted(expmap)
    R = invariant_threshold(expmap, SPEC, DOM)
    res = koenigs_normalize(counted, SPEC, DOM, R, tol=1e-11)
    for i in range(30):
        z = complex(R + 10.0 * i / 29, 0.25 * math.sin(i))
        before = calls[0]
        res.evaluator(z)
        res.tail_bound(z)
        koenigs_residual(res, counted, z)
        n_z, n_fz = res.iterations_used[z], res.iterations_used[expmap(z)]
        assert calls[0] - before == n_z + 1 + max(0, n_fz + 1 - n_z)


def test_continued_orbit_gives_the_bits_of_a_fresh_one():
    # at f(zeta) right after zeta, the evaluator continues zeta's orbit; value
    # and tail match a fresh evaluation's bit for bit, and only the steps past
    # zeta's stopping index call f
    rng = random.Random(2027)
    R = invariant_threshold(expmap, SPEC, DOM)
    f, calls = _counted(expmap)
    res = koenigs_normalize(f, SPEC, DOM, R, tol=1e-11)
    for _ in range(200):
        z = complex(R + 10.0 * rng.random(), 0.5 * rng.random() - 0.25)
        res.evaluator(z)
        w1 = expmap(z)
        before = calls[0]
        got = (_bits(res.evaluator(w1)), res.tail_bound(w1).hex())
        fresh = koenigs_normalize(expmap, SPEC, DOM, R, tol=1e-11)
        assert got == (_bits(fresh.evaluator(w1)), fresh.tail_bound(w1).hex())
        assert calls[0] - before == max(0, res.iterations_used[w1] + 1 - res.iterations_used[z])


def _mp_bits(value):
    """The exact binary parts (sign, mantissa, exponent, bits) of an mpc."""
    return (value.real._mpf_, value.imag._mpf_)


def test_continued_orbit_gives_the_bits_of_a_fresh_one_in_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2028)
    R = invariant_threshold(expmap, SPEC, DOM)
    with mpmath.workdps(50):
        mp_f = lambda z: 2 * z + mpmath.exp(-z)
        f, calls = _counted(mp_f)
        res = koenigs_normalize(f, SPEC, DOM, R, tol=1e-35, check_domain=False)
        for _ in range(12):
            z = mpmath.mpc(R + 10.0 * rng.random(), 0.5 * rng.random() - 0.25)
            res.evaluator(z)
            w1 = mp_f(z)
            before = calls[0]
            got = (_mp_bits(res.evaluator(w1)), res.tail_bound(w1).hex())
            used = res.iterations_used
            assert calls[0] - before == max(0, used[complex(w1)] + 1 - used[complex(z)])
            fresh = koenigs_normalize(mp_f, SPEC, DOM, R, tol=1e-35, check_domain=False)
            assert got == (_mp_bits(fresh.evaluator(w1)), fresh.tail_bound(w1).hex())


def test_rational_alpha_gives_the_limit_to_working_precision():
    """At 50 digits the Koenigs value of 3 zeta + e^-zeta matches the limit
    F^n(x) / 3^n taken at 90 digits, to 1e-45.  The spec carries alpha as the
    rational 3, so alpha^-n is exact; a float 3.0 ** -n rounds to 53 bits and
    left an error near 1e-16."""
    mpmath = pytest.importorskip("mpmath")
    spec = AsymptoticSpec(Fraction(3), 1.0, 1)
    R = invariant_threshold(lambda z: 3 * z + cmath.exp(-z), spec, DOM)

    def limit(x):
        w = mpmath.mpf(x)
        for _ in range(8):  # e^(-F^8(x)) / 3^9 is far below 1e-90 for x >= R
            w = 3 * w + mpmath.exp(-w)
        return w / 3**8

    with mpmath.workdps(50):
        res = koenigs_normalize(lambda z: 3 * z + mpmath.exp(-z), spec, DOM, R, tol=1e-48)
        for x in (R, R + 2.5, R + 7.0):
            got = res.evaluator(mpmath.mpc(x, 0.0))
            with mpmath.workdps(90):
                assert abs(got - limit(x)) < 1e-45, x


@pytest.mark.parametrize(
    "near",
    [
        lambda w1: complex(math.nextafter(w1.real, math.inf), w1.imag),  # one ulp off
        lambda w1: complex(w1.real, -0.0),  # the other zero of a real w1
    ],
    ids=["one_ulp", "negative_zero"],
)
def test_a_point_not_bit_identical_to_w1_runs_a_fresh_orbit(near):
    R = invariant_threshold(expmap, SPEC, DOM)
    f, calls = _counted(expmap)
    res = koenigs_normalize(f, SPEC, DOM, R, tol=1e-11)
    z = complex(R + 2.0, 0.0)
    res.evaluator(z)
    w1 = expmap(z)
    assert math.copysign(1.0, w1.imag) == 1.0
    point = near(w1)
    assert point == w1 or abs(point - w1) <= 2 * math.ulp(w1.real)
    before = calls[0]
    value = res.evaluator(point)
    assert calls[0] - before == res.iterations_used[point]
    fresh = koenigs_normalize(expmap, SPEC, DOM, R, tol=1e-11)
    assert _bits(value) == _bits(fresh.evaluator(point))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_a_tolerance_no_tail_can_certify_is_rejected(tol):
    with pytest.raises(DomainError):
        koenigs_normalize(expmap, SPEC, DOM, R=3.0, tol=tol)
    with pytest.raises(DomainError):
        solve_homological(lambda z: 2 * z, lambda z: 0.0 * z, 1.0, SPEC, DOM, R=3.0, tol=tol)


def _bits(value):
    return (value.real.hex(), value.imag.hex())


def _exp_minus(z):
    return cmath.exp(-z)


def test_homological_residual_costs_one_orbit():
    # phi_g(zeta) first: f runs along zeta's orbit, once more for the
    # residual's f(zeta), and then only along the steps of f(zeta)'s orbit
    # past the ones zeta's orbit already holds
    f, calls = _counted(expmap)
    R = invariant_threshold(expmap, SPEC, DOM)
    res = solve_homological(f, _exp_minus, 1.0, SPEC, DOM, R)
    for i in range(30):
        z = complex(R + 10.0 * i / 29, 0.25 * math.sin(i))
        before = calls[0]
        assert homological_residual(res, f, _exp_minus, z) < 1e-12
        n_z, n_fz = res.iterations_used[z], res.iterations_used[expmap(z)]
        assert calls[0] - before == n_z + 1 + max(0, n_fz + 1 - n_z)


def test_continued_homological_orbit_gives_the_bits_of_a_fresh_one():
    # the sum at f(zeta) right after zeta continues zeta's orbit; value and
    # tail (the certified stop, below tol) match a fresh solver's bit for bit
    rng = random.Random(2029)
    R = invariant_threshold(expmap, SPEC, DOM)
    f, calls = _counted(expmap)
    res = solve_homological(f, _exp_minus, 1.0, SPEC, DOM, R)
    for _ in range(200):
        z = complex(R + 10.0 * rng.random(), 0.5 * rng.random() - 0.25)
        res.evaluator(z)
        w1 = expmap(z)
        before = calls[0]
        got = (_bits(res.evaluator(w1)), res.tail_bound(w1).hex())
        assert calls[0] - before == max(0, res.iterations_used[w1] + 1 - res.iterations_used[z])
        assert res.tail_bound(w1) < 1e-13
        fresh = solve_homological(expmap, _exp_minus, 1.0, SPEC, DOM, R)
        assert got == (_bits(fresh.evaluator(w1)), fresh.tail_bound(w1).hex())


def test_continued_homological_orbit_gives_the_bits_of_a_fresh_one_in_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2030)
    R = invariant_threshold(expmap, SPEC, DOM)
    with mpmath.workdps(30):
        mp_f = lambda z: 2 * z + mpmath.exp(-z)
        mp_g = lambda z: mpmath.exp(-z)
        f, calls = _counted(mp_f)
        res = solve_homological(f, mp_g, 1.0, SPEC, DOM, R, tol=1e-25)
        for _ in range(12):
            z = mpmath.mpc(R + 10.0 * rng.random(), 0.5 * rng.random() - 0.25)
            res.evaluator(z)
            w1 = mp_f(z)
            before = calls[0]
            got = (_mp_bits(res.evaluator(w1)), res.tail_bound(w1).hex())
            used = res.iterations_used
            assert calls[0] - before == max(0, used[complex(w1)] + 1 - used[complex(z)])
            fresh = solve_homological(mp_f, mp_g, 1.0, SPEC, DOM, R, tol=1e-25)
            assert got == (_mp_bits(fresh.evaluator(w1)), fresh.tail_bound(w1).hex())


def test_homological_point_left_of_R_is_rejected():
    R = invariant_threshold(expmap, SPEC, DOM)
    res = solve_homological(expmap, _exp_minus, 1.0, SPEC, DOM, R)
    with pytest.raises(DomainError):
        res.evaluator(complex(R - 0.5, 0.0))


@pytest.mark.parametrize(
    "f",
    [lambda z: z + 0.5, lambda z: 2 * z + 1000j],
    ids=["slow_escape", "leaves_the_domain"],
)
def test_homological_orbit_that_breaks_a_check_is_rejected(f):
    # rho(3) = 2.09: z + 0.5 gains too little at step 1, and 2 z + 1000i
    # leaves the domain (|Im| < 104 at Re 7) there
    res = solve_homological(f, _exp_minus, 1.0, SPEC, DOM, R=3.0)
    with pytest.raises(CertificationError):
        res.evaluator(complex(3.5, 0.1))


@pytest.mark.parametrize("nu", [-1.0, math.nan, math.inf, -math.inf])
def test_a_nu_the_majorant_cannot_use_is_rejected(nu):
    # nu < 0 gives q > 1 and a negative majorant: the sum stopped at n = 0
    with pytest.raises(DomainError):
        solve_homological(lambda z: 2 * z, lambda z: 0.0 * z, nu, SPEC, DOM, R=3.0)


def test_revisited_point_gives_the_same_bits():
    R = invariant_threshold(expmap, SPEC, DOM)
    res = koenigs_normalize(expmap, SPEC, DOM, R, tol=1e-11)
    z1, z2 = complex(R + 1.3, 0.2), complex(R + 4.1, -0.1)
    first = (_bits(res.evaluator(z1)), res.tail_bound(z1).hex())
    res.evaluator(z2)
    again = complex(z1.real, z1.imag)  # an equal point, not the stored object
    assert (_bits(res.evaluator(again)), res.tail_bound(again).hex()) == first
    assert (_bits(res.evaluator(z1)), res.tail_bound(z1).hex()) == first


def test_points_equal_as_complex_keep_their_own_values():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        f = lambda z: 2 * z + mpmath.exp(-z)
        R = invariant_threshold(expmap, SPEC, DOM)
        res = koenigs_normalize(f, SPEC, DOM, R, tol=1e-35, check_domain=False)
        z1 = mpmath.mpc(10) / 3
        z2 = z1 + mpmath.mpf("1e-30")
        assert complex(z1) == complex(z2) and z1 != z2
        v1, v2 = res.evaluator(z1), res.evaluator(z2)
        assert v1 != v2
        assert res.tail_bound(z1) < 1e-35
        fresh = koenigs_normalize(f, SPEC, DOM, R, tol=1e-35, check_domain=False)
        assert fresh.evaluator(z2) == v2 and fresh.evaluator(z1) == v1
        assert abs(v2 - v1 - mpmath.mpf("1e-30")) < mpmath.mpf("1e-31")


def test_point_outside_the_domain_leaves_no_entry():
    R = invariant_threshold(expmap, SPEC, DOM)
    res = koenigs_normalize(expmap, SPEC, DOM, R, tol=1e-11)
    good, bad = complex(R + 2.0, 0.1), complex(R - 1.0, 0.0)
    want = _bits(res.evaluator(good))
    for call in (res.evaluator, res.tail_bound):
        with pytest.raises(DomainError):
            call(bad)
        for cell in res.evaluator.__closure__:
            held = cell.cell_contents
            if isinstance(held, list):
                assert held == []
    assert _bits(res.evaluator(good)) == want
