import cmath
import importlib
import math
import random

import pytest

from crosschecks import sqd_boundary
from bottcher.domains import (
    AsymptoticSpec,
    DomainSpec,
    domain_member,
    invariant_threshold,
    lower_map_check,
    sqd_im_extent,
    upper_map_check,
)
from bottcher.errors import CertificationError, DomainError


def sqd_kappa(w: complex, C: float) -> complex:
    return w + C * cmath.sqrt(w + 1)


def test_M_examples():
    assert AsymptoticSpec(2.0, 1.0, 1).M(math.e) == 1.0
    assert abs(AsymptoticSpec(2.0, 1.0, 1).rho(math.e) - (math.e - 1.0)) < 1e-14
    # k = 0 convention: log^o0 = id, M = x^-eps
    M = AsymptoticSpec(2.0, 2.0, 0).M
    assert M(4.0) == 4.0**-2
    xs = [1.5 + 0.1 * i for i in range(50)]
    vals = [M(x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_M_domain_error():
    with pytest.raises(DomainError):
        AsymptoticSpec(2.0, 1.0, 1).M(0.9)
    with pytest.raises(DomainError):
        AsymptoticSpec(2.0, 1.0, 2).M(1.0)


def test_negative_log_depth_is_rejected():
    # range(-1) is empty, so k = -1 would act as k = 0
    with pytest.raises(DomainError):
        AsymptoticSpec(2.0, 1.0, -1)


@pytest.mark.parametrize("eps", [-1.0, -1e-300, math.nan, math.inf])
def test_an_eps_that_makes_M_no_majorant_is_rejected(eps):
    # eps < 0 makes M increase, and its tail bound no longer bounds the tail
    with pytest.raises(DomainError):
        AsymptoticSpec(2.0, eps, 1)


@pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0, math.nan, math.inf])
def test_an_alpha_without_escape_is_rejected(alpha):
    # alpha <= 1 gives rho <= 0 everywhere: no threshold below any ceiling
    with pytest.raises(DomainError, match="alpha must be finite and > 1"):
        AsymptoticSpec(alpha, 1.0, 1)


def test_eps_zero_gives_the_constant_majorant_one():
    M = AsymptoticSpec(2.0, 0.0, 1).M
    assert [M(x) for x in (1.5, math.e, 1e6)] == [1.0, 1.0, 1.0]


def _iter_log_M(x: float, eps: float, k: int) -> float:
    """M_{eps,k} as iterated calls once computed it: the floor exp^ok(0) per
    call, then log^ok x with a positivity check before each log."""
    floor = 0.0
    for _ in range(k):
        floor = math.exp(floor)
    if x <= floor:
        raise DomainError(f"M_eps_k needs x > exp^o{k}(0) = {floor}")
    for _ in range(k):
        if x <= 0:
            raise DomainError(f"log^o{k} undefined at {x}")
        x = math.log(x)
    return x ** (-eps)


def _outcome(fn, *args):
    """The bits of fn's value, or the type of what it raised (next to the
    floor, 0.0 ** -eps and x ** -eps for tiny x raise)."""
    try:
        return fn(*args).hex()
    except (ArithmeticError, DomainError) as exc:
        return type(exc)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_one_frame_M_matches_iterated_logs_bit_for_bit(k):
    rng = random.Random(4127 + k)
    for eps in (0.25, 0.5, 1.0, 1.7, 3.0):
        spec = AsymptoticSpec(2.0, eps, k)
        floor = spec.floor
        xs = [floor * (1.0 + 1e-15), math.nextafter(floor, math.inf), floor + 1.0]
        xs += [floor + 10.0 ** rng.uniform(-12.0, 6.0) for _ in range(400)]
        for x in xs:
            assert _outcome(spec.M, x) == _outcome(_iter_log_M, x, eps, k), (x, eps)
        for below in (floor, math.nextafter(floor, -math.inf), floor - 1.0):
            with pytest.raises(DomainError):
                _iter_log_M(below, eps, k)
            with pytest.raises(DomainError):
                spec.M(below)


def test_rho_increasing_where_positive():
    spec = AsymptoticSpec(2.0, 1.0, 1)
    xs = [2.0 + 0.25 * i for i in range(40)]
    rhos = [spec.rho(x) for x in xs]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))
    assert all(r > 0 for r in rhos)


# -- upper/lower maps ------------------------------------------------------------------


def test_upper_map_square():
    spec = AsymptoticSpec(2.0, 1.0, 1)
    rep = upper_map_check(lambda x: x * x, d=1.0, t=2.0, interval=30.0, spec=spec,
                          dh=lambda x: 2 * x)
    assert rep.ok and rep.threshold is not None


def test_upper_map_constant_fails():
    spec = AsymptoticSpec(2.0, 1.0, 1)
    rep = upper_map_check(lambda x: 5.0, d=0.1, t=2.0, interval=40.0, spec=spec,
                          dh=lambda x: 0.0)
    assert not rep.ok
    assert rep.witnesses


def test_lower_map_mirror():
    spec = AsymptoticSpec(2.0, 1.0, 1)
    rep = lower_map_check(lambda x: -x * x, d=1.0, t=2.0, interval=30.0, spec=spec,
                          dh=lambda x: -2 * x)
    assert rep.ok


def test_sqd_upper_boundary_satisfies_criterion():
    """The standard quadratic boundary passes the derivative criterion with
    d = sqrt(t)/(C s2(t)), t = x(r_t), via its parametrization."""
    C = 1.0
    t = 4.0
    s = 2.0 * (t / C) ** 2 - 1.0
    r_t = math.sqrt(s * s - 1.0)  # kappa(i r_t) has abscissa t
    assert abs(sqd_boundary(r_t, C).real - t) < 1e-12
    s2 = math.cos(0.5 * math.atan(r_t))
    d = math.sqrt(r_t) / (C * s2)
    spec = AsymptoticSpec(2.0, 1.0, 1)
    rep = upper_map_check(lambda x: sqd_im_extent(x, C), d=d, t=t, interval=20.0, spec=spec, n=60)
    assert rep.ok


# -- standard quadratic domain ------------------------------------------------------------


def test_sqd_boundary_at_zero():
    assert abs(sqd_boundary(0.0, 1.5) - 1.5) < 1e-14


def test_sqd_boundary_formula():
    r, C = 2.0, 1.0
    s1 = math.sin(0.5 * math.atan(r))
    s2 = math.cos(0.5 * math.atan(r))
    q = (r * r + 1) ** 0.25
    z = sqd_boundary(r, C)
    assert abs(z.real - C * q * s2) < 1e-14
    assert abs(z.imag - (r + C * q * s1)) < 1e-14
    # boundary points satisfy kappa(i r) = point
    assert abs(sqd_kappa(complex(0.0, r), C) - z) < 1e-12


def test_sqd_membership():
    C = 1.0
    dom = DomainSpec.standard_quadratic(C)
    assert domain_member(dom, complex(C + 10.0, 0.0)) is True
    assert domain_member(dom, complex(-1.0, 0.0)) is False
    assert domain_member(dom, complex(0.1, 0.0)) is False
    # deep interior point
    assert domain_member(dom, complex(6.0, 1.0)) is True


def test_sqd_im_extent_monotone():
    C = 1.0
    ys = [sqd_im_extent(x, C) for x in (2.0, 4.0, 8.0)]
    assert ys[0] < ys[1] < ys[2]
    with pytest.raises(DomainError):
        sqd_im_extent(0.5, C)  # left of the tip x = C


@pytest.mark.parametrize("C", [0.5, 1.0, 2.0, 4.0])
def test_sqd_im_extent_matches_boundary(C):
    """The closed form inverts the parametrization r -> kappa(i r) = x + i y.

    Near the tip dx/dr -> 0, so the rounding of x alone moves y by
    (dy/dx) ulp(x); the bound allows that on top of 1e-12 max(1, y).
    """
    for i in range(141):
        r = 10.0 ** (-3 + 7 * i / 140)
        z = sqd_boundary(r, C)
        s = math.sqrt(1.0 + r * r)
        dx_dr = C * r / (2.0 * s * math.sqrt(2.0 * (s + 1.0)))
        dy_dr = 1.0 + C * r / (2.0 * s * math.sqrt(2.0 * (s - 1.0)))
        tol = 1e-12 * max(1.0, z.imag) + dy_dr / dx_dr * math.ulp(z.real)
        assert abs(sqd_im_extent(z.real, C) - z.imag) <= tol


def _kappa_preimage_re(zeta: complex, C: float):
    """Re w for the w with kappa(w) = zeta, principal branch; None if there is none.

    Solves (zeta - w)^2 = C^2 (w + 1) and keeps the root that kappa maps back
    to zeta.
    """
    disc = C * cmath.sqrt(4 * zeta + C * C + 4)
    for w in ((2 * zeta + C * C + disc) / 2, (2 * zeta + C * C - disc) / 2):
        if abs(sqd_kappa(w, C) - zeta) <= 1e-9 * max(1.0, abs(zeta)):
            return w.real
    return None


def test_sqd_membership_matches_kappa_inversion():
    rng = random.Random(4000)
    checked = 0
    for _ in range(4000):
        C = rng.choice([0.5, 1.0, 2.0, 4.0])
        x = rng.uniform(-2.0, 30.0)
        y = rng.uniform(-1.5, 1.5) * (2.0 * (max(x, 0.0) / C) ** 2 + 2.0)
        zeta = complex(x, y)
        re_w = _kappa_preimage_re(zeta, C)
        if re_w is not None and abs(re_w) < 1e-6:
            continue  # within about 1e-6 of the boundary kappa(i R)
        expected = re_w is not None and re_w > 0
        assert domain_member(DomainSpec.standard_quadratic(C), zeta) is expected, (zeta, C)
        checked += 1
    assert checked > 3900


def test_sqd_membership_computes_one_ordinate(monkeypatch):
    """A standard quadratic domain is symmetric about the real axis: each
    membership test past the tip computes Y_C(x) once and answers as
    -Y < Im < Y."""
    D = importlib.import_module("bottcher.domains")
    calls = []

    def counting(x, C):
        calls.append(x)
        return sqd_im_extent(x, C)

    monkeypatch.setattr(D, "sqd_im_extent", counting)
    rng = random.Random(4001)
    for _ in range(500):
        C = rng.choice([0.5, 1.0, 2.0])
        dom = DomainSpec.standard_quadratic(C)
        zeta = complex(rng.uniform(C, 20.0), rng.uniform(-3.0, 3.0) * rng.uniform(C, 20.0))
        del calls[:]
        got = domain_member(dom, zeta)
        assert calls == [zeta.real]
        y = sqd_im_extent(zeta.real, C)
        assert got is (-y < zeta.imag < y)


def test_domain_member_lower_upper():
    """Inside both ordinate bounds, right of the tip x = C and, with R, of R."""
    dom = DomainSpec.standard_quadratic(2.0)
    assert dom == DomainSpec(2.0)
    y = sqd_im_extent(3.0, 2.0)
    assert domain_member(dom, complex(3.0, 0.5 * y)) is True
    assert domain_member(dom, complex(3.0, -0.5 * y)) is True
    assert domain_member(dom, complex(3.0, 1.5 * y)) is False
    assert domain_member(dom, complex(3.0, -1.5 * y)) is False
    assert domain_member(dom, complex(1.0, 0.0)) is False
    assert domain_member(dom, complex(3.0, 0.5 * y), R=4.0) is False
    for C in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            DomainSpec(C)


# -- invariance certification ----------------------------------------------------------------


def test_invariant_threshold_exact_linear():
    spec = AsymptoticSpec(2.0, 1.0, 1)
    dom = DomainSpec.standard_quadratic(1.0)
    R = invariant_threshold(lambda z: 2 * z, spec, dom)
    assert R < 8.0


def test_invariant_threshold_exponential_defect():
    spec = AsymptoticSpec(2.0, 1.0, 1)
    dom = DomainSpec.standard_quadratic(1.0)
    R = invariant_threshold(lambda z: 2 * z + cmath.exp(-z), spec, dom)
    assert R < 16.0
    # certified bound holds strictly inside
    assert abs(cmath.exp(-complex(R, 0))) <= spec.M(R)


def test_invariant_threshold_needs_a_sample_in_the_domain():
    """A tip C right of every sampled abscissa leaves nothing to check: that
    attempt fails, so R grows until samples reach D_R."""
    spec = AsymptoticSpec(2.0, 1.0, 1)
    f = lambda z: 2 * z + cmath.exp(-z)
    with pytest.raises(CertificationError, match="no-sample-in-domain"):
        invariant_threshold(f, spec, DomainSpec(1e300))
    R = invariant_threshold(f, spec, DomainSpec(20.0))
    assert 20.0 - 8.0 <= R < 20.0


def test_invariant_threshold_mislabeled_alpha_fails():
    spec = AsymptoticSpec(2.0, 1.0, 1)
    dom = DomainSpec.standard_quadratic(1.0)
    with pytest.raises(CertificationError):
        invariant_threshold(lambda z: 3 * z, spec, dom, r_ceiling=40.0)
