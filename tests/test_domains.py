import cmath
import math
import random

import pytest

from crosschecks import sqd_boundary
from bottcher.domains import (
    AsymptoticSpec,
    DomainSpec,
    M_eps_k,
    domain_member,
    invariant_threshold,
    lower_map_check,
    rho,
    sqd_im_extent,
    upper_map_check,
)
from bottcher.errors import CertificationError, DomainError


def sqd_kappa(w: complex, C: float) -> complex:
    return w + C * cmath.sqrt(w + 1)


def test_M_examples():
    assert M_eps_k(math.e, 1.0, 1) == 1.0
    assert abs(rho(math.e, 2.0, 1.0, 1) - (math.e - 1.0)) < 1e-14
    # k = 0 convention: log^o0 = id, M = x^-eps
    assert M_eps_k(4.0, 2.0, 0) == 4.0**-2
    xs = [1.5 + 0.1 * i for i in range(50)]
    vals = [M_eps_k(x, 2.0, 0) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_M_domain_error():
    with pytest.raises(DomainError):
        M_eps_k(0.9, 1.0, 1)
    with pytest.raises(DomainError):
        M_eps_k(1.0, 1.0, 2)


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


def test_domain_member_lower_upper():
    dom = DomainSpec(lambda x: -x, lambda x: x, t=2.0)
    assert domain_member(dom, complex(3.0, 0.5)) is True
    assert domain_member(dom, complex(3.0, 4.0)) is False
    assert domain_member(dom, complex(1.0, 0.0)) is False
    assert domain_member(dom, complex(3.0, 0.5), R=4.0) is False


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
    assert abs(cmath.exp(-complex(R, 0))) <= M_eps_k(R, 1.0, 1)


def test_invariant_threshold_mislabeled_alpha_fails():
    spec = AsymptoticSpec(2.0, 1.0, 1)
    dom = DomainSpec.standard_quadratic(1.0)
    with pytest.raises(CertificationError):
        invariant_threshold(lambda z: 3 * z, spec, dom, r_ceiling=40.0)
