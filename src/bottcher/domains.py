"""Admissible-domain geometry and grid certification for the analytic pipeline.

Conventions: M_{eps,k}(x) = (log^ok x)^(-eps) with log^o0 = identity, and
rho_{alpha,eps,k}(x) = (alpha-1) x - M_{eps,k}(x).  All certification here is
numeric checking on grids plus the sufficient analytic criteria; reports say
"certified at sampled resolution", never "proved".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CertificationError, DomainError


@dataclass(frozen=True)
class AsymptoticSpec:
    """Type (alpha, eps, k) of the defect bound |f(z) - alpha z| <= M_{eps,k}(Re z).

    `M` runs in one frame: the floor exp^ok(0) is computed once per spec and
    the k logs run inline.  Above the floor every partial log is positive
    (log^oj x > exp^o(k-j)(0) >= 0 for j < k), so no log needs its own check.
    """

    alpha: float
    eps: float
    k: int
    floor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:  # alpha <= 1: rho(x) = (alpha-1) x - M never gains
            raise DomainError(f"alpha must be finite and > 1, got {self.alpha}")
        if self.k < 0:
            raise DomainError(f"k counts iterated logs and must be >= 0, got {self.k}")
        if not 0.0 <= self.eps < math.inf:  # eps < 0 makes M grow: no longer a majorant
            raise DomainError(f"eps must be finite and >= 0, got {self.eps}")
        floor = 0.0
        for _ in range(self.k):
            floor = math.exp(floor)
        object.__setattr__(self, "floor", floor)

    def M(self, x: float) -> float:
        """M_{eps,k}(x) = (log^ok x)^(-eps); requires x > exp^ok(0)."""
        if x <= self.floor:
            raise DomainError(f"M_eps_k needs x > exp^o{self.k}(0) = {self.floor}")
        for _ in range(self.k):
            x = math.log(x)
        return x ** (-self.eps)

    def rho(self, x: float) -> float:
        """(alpha-1) x - M_{eps,k}(x): the guaranteed real-part gain of one step."""
        return (self.alpha - 1.0) * x - self.M(x)


@dataclass(frozen=True)
class DomainSpec:
    """The standard quadratic domain kappa(C+), kappa(w) = w + C sqrt(w + 1):
    {Re zeta >= C, |Im zeta| < Y_C(Re zeta)} with Y_C = `sqd_im_extent`."""

    C: float

    def __post_init__(self):
        if not 0.0 < self.C < math.inf:
            raise DomainError(f"standard quadratic domain needs a finite C > 0, got {self.C}")

    @staticmethod
    def standard_quadratic(C: float) -> "DomainSpec":
        return DomainSpec(C)


# -- standard quadratic domains -------------------------------------------------


def sqd_im_extent(x: float, C: float) -> float:
    """The boundary ordinate Y_C(x) at abscissa x >= C, in closed form.

    With s = sqrt(1 + r^2) the boundary kappa(i r) is x = C sqrt((s + 1)/2),
    y = r + C sqrt((s - 1)/2); so s = 2 (x/C)^2 - 1 and r = sqrt(s^2 - 1).
    """
    if x < C:
        raise DomainError(f"abscissa {x} left of the domain tip")
    s = 2.0 * (x / C) ** 2 - 1.0
    return math.sqrt(s * s - 1.0) + C * math.sqrt(0.5 * (s - 1.0))


def domain_member(dom: DomainSpec, zeta: complex, R: float | None = None) -> bool:
    """Is zeta in the domain (and, with R, in its part Re zeta >= R)?"""
    x = zeta.real
    if (R is not None and x < R) or x < dom.C:
        return False
    y = sqd_im_extent(x, dom.C)
    return -y < zeta.imag < y


# -- upper/lower map criteria ----------------------------------------------------


@dataclass
class MapCheckReport:
    ok: bool
    threshold: float | None
    witnesses: list = field(default_factory=list)
    derivative_ok: bool = True
    difference_ok: bool = True


def _grid(t: float, interval: float, n: int) -> list[float]:
    return [t + interval * i / (n - 1) for i in range(n)]


def _map_check(h, d, t, interval, spec, dh, n, sign) -> MapCheckReport:
    """The grid loop of both map criteria, with the terms in h multiplied by
    sign: +1 checks the upper criterion, -1 the lower one."""
    if dh is None:
        eps = 1e-6 * max(1.0, interval)
        dh = lambda x: (h(x + eps) - h(x - eps)) / (2 * eps)
    ok_from = None
    witnesses = []
    deriv_ok = diff_ok = True
    for x in _grid(t, interval, n):
        try:
            rx = spec.rho(x)
        except DomainError:
            witnesses.append((x, "outside M domain"))
            ok_from = None
            continue
        c1 = sign * dh(x) >= sign * h(x) / x + d
        c2 = rx > 0 and sign * (h(x + rx) - h(x)) >= sign * (spec.alpha - 1) * h(x) + spec.M(x)
        if c1 and c2:
            if ok_from is None:
                ok_from = x
        else:
            if not c1:
                deriv_ok = False
            if not c2:
                diff_ok = False
            witnesses.append((x, "derivative" if not c1 else "difference"))
            ok_from = None
    return MapCheckReport(ok_from is not None, ok_from, witnesses, deriv_ok, diff_ok)


def upper_map_check(
    h, d: float, t: float, interval: float, spec: AsymptoticSpec, dh=None, n: int = 200
) -> MapCheckReport:
    """Check h'(x) >= d + h(x)/x and the defining finite-difference inequality
    h(x + rho(x)) - h(x) >= (alpha-1) h(x) + M(x) on a grid over [t, t+interval].

    Returns the first grid threshold from which both hold to the right.
    """
    return _map_check(h, d, t, interval, spec, dh, n, 1)


def lower_map_check(
    h, d: float, t: float, interval: float, spec: AsymptoticSpec, dh=None, n: int = 200
) -> MapCheckReport:
    """Mirror criterion: h'(x) <= h(x)/x - d and
    h(x + rho(x)) - h(x) <= (alpha-1) h(x) - M(x)."""
    return _map_check(h, d, t, interval, spec, dh, n, -1)


# -- invariance certification ------------------------------------------------------


SAMPLE_SPAN = 8.0  # invariant_threshold samples Re in [R, R + SAMPLE_SPAN]
N_SAMPLES = 16  # abscissas per certification attempt


def _domain_samples(dom: DomainSpec, R: float) -> list[complex]:
    """Interior and boundary-adjacent samples of D_R with Re in [R, R + SAMPLE_SPAN]."""
    out = []
    for x in _grid(R, SAMPLE_SPAN, N_SAMPLES):
        if x < dom.C:
            continue
        y = sqd_im_extent(x, dom.C)
        for frac in (0.0, 0.5, 0.95):
            out.append(complex(x, frac * y))
            if frac:
                out.append(complex(x, -frac * y))
    return out


def invariant_threshold(f, spec: AsymptoticSpec, dom: DomainSpec, r_ceiling: float = 64.0) -> float:
    """Smallest grid-certified R such that D_R looks f-invariant.

    Certifies on samples: rho(R) > 0 and increasing, the defect bound
    |f(z) - alpha z| <= M(Re z), and the step rectangle
    [Re+rho(Re), alpha Re+M(Re)] x [alpha Im -+ M(Re)] inside the domain.
    The search starts just past R = exp^ok(0) + 1/2.
    Raises CertificationError if no R below the ceiling passes.
    """
    R = spec.floor + 1e-6 + 0.5
    last_reasons = []
    while R <= r_ceiling:
        reasons = _certify_at(f, spec, dom, R)
        if not reasons:
            return R
        last_reasons = reasons
        R = R * 1.5 if R > 1 else R + 0.5
    raise CertificationError(
        f"no invariant threshold below ceiling {r_ceiling}: {last_reasons[:3]}"
    )


def _certify_at(f, spec, dom, R) -> list:
    reasons = []
    try:
        r0 = spec.rho(R)
    except DomainError as e:
        return [("rho-domain", R, str(e))]
    if r0 <= 0:
        return [("rho<=0", R, r0)]
    xs = _grid(R, SAMPLE_SPAN, 8)
    rhos = [spec.rho(x) for x in xs]
    if any(b <= a for a, b in zip(rhos, rhos[1:])):
        reasons.append(("rho-not-increasing", R))
    checked = 0
    for zeta in _domain_samples(dom, R):
        if not domain_member(dom, zeta, R):
            continue
        checked += 1
        defect = abs(f(zeta) - spec.alpha * zeta)
        mx = spec.M(zeta.real)
        if defect > mx:
            reasons.append(("defect-bound", zeta, defect, mx))
            continue
        rect_re = (zeta.real + spec.rho(zeta.real), spec.alpha * zeta.real + mx)
        rect_im = (spec.alpha * zeta.imag - mx, spec.alpha * zeta.imag + mx)
        corners = [
            complex(a, b)
            for a in rect_re
            for b in rect_im
        ] + [complex(0.5 * sum(rect_re), b) for b in rect_im]
        for c in corners:
            if not domain_member(dom, c):
                reasons.append(("rectangle-escape", zeta, c))
                break
    if not checked:  # the domain's tip lies past the sampled abscissas
        reasons.append(("no-sample-in-domain", R, dom.C))
    return reasons
