"""Certified Koenigs iteration and the Schroder-type homological solver.

Both evaluators run one certified orbit loop, `_certified_orbit`, with the same
checks.  The normalizing map is the uniform limit of alpha^(-n) f^on; one
extra step costs at most alpha^(-(n+1)) M(Re f^on) by the defect bound.  The
homological sum -sum alpha^-(n+1) g(f^on) has terms below
alpha^-(n+1) e^(-nu Re f^on).  In both a geometric majorant of the remaining
tail certifies the stopping index at every point.  The number type follows
the points: mpmath points and an f that keeps its argument's type (as
`dulac.zeta_map` does) give extended precision.

An evaluator keeps one entry: the last point it evaluated, with its value,
its tail and its orbit, the triples (w_n, Re w_n, G(Re w_n)) up to the
stopping index, G the majorant.  A second call at that point (the same
object) returns the stored value.  A call at the orbit's w_1 (bit for bit:
the same type, value and signs of zero parts, as the residuals form f(zeta))
walks the stored triples first and calls f and G only past them, running
every check of every step again.  So a certified point (value, `tail_bound`,
`koenigs_residual` or `homological_residual`) iterates f along one orbit,
zeta's, continued past its stopping index for f(zeta).  This needs f to be a
pure function of its point (at one working precision, for mpmath points): the
value then depends only on the point, whichever map formed f(zeta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domains import AsymptoticSpec, DomainSpec, domain_member
from .errors import CertificationError, DomainError

MAX_ITER = 10_000  # iteration budget of one Koenigs or homological evaluation

@dataclass
class KoenigsResult:
    evaluator: object
    tail_bound: object
    spec: AsymptoticSpec
    R: float
    iterations_used: dict  # point -> stopping index, one entry per point evaluated


def koenigs_normalize(
    f,
    spec: AsymptoticSpec,
    dom: DomainSpec,
    R: float,
    tol: float = 1e-11,
    check_domain: bool = True,
) -> KoenigsResult:
    """Evaluator for phi = lim alpha^(-n) f^on on D_R with certified tails.

    sum_{m>=n} alpha^-(m+1) M(Re w_m) <= M(Re w_n) alpha^-n / (alpha - 1)."""
    am1 = spec.alpha - 1.0
    return _certified_orbit(f, spec, dom, R, tol, check_domain, spec.M, lambda rho_R: am1)


def _certified_orbit(f, spec, dom, R, tol, check_domain, G, divisor, g=None) -> KoenigsResult:
    """The one certified orbit loop behind both evaluators.

    Along w_n = f^on(zeta) every step checks, in order: Re zeta >= R (at
    n = 0), monotone escape Re w_n >= Re zeta + n rho(R), the domain for
    n <= 3, then stops at the first n with tail = G(Re w_n) alpha^-n / D below
    tol, within MAX_ITER steps.  G majorizes the decay of the summands along
    the orbit and D = divisor(rho(R)) sums their geometric series.  Without g
    the value is the Koenigs limit w_n alpha^-n; with g it is the homological
    sum -sum_{m<n} alpha^-(m+1) g(w_m)."""
    _check_tol(tol)
    a = spec.alpha
    rho_R = spec.rho(R)
    if rho_R <= 0:
        raise CertificationError(f"rho(R) = {rho_R} <= 0 at R = {R}")
    D = divisor(rho_R)
    iterations_used: dict = {}
    # The last evaluated point -> (its value, the tail majorant its evaluation
    # stopped on, its orbit).  Keyed on the point object itself: equal numbers
    # can still differ in type, precision or the sign of a zero, and give
    # other bits; the orbit is reused only at a bit-identical w_1.
    last: list = []

    def evaluator(zeta):
        stored = ()
        if last:
            point, value, _, previous = last[0]
            if point is zeta:
                return value
            if len(previous) > 1 and _same_point(zeta, previous[1][0]):
                stored = previous[1:]  # zeta's orbit is this one, one step on
            last.clear()
        reuse = len(stored)
        orbit = []
        w = zeta
        acc = 0.0 * zeta
        n = 0
        re0 = float(w.real)
        if re0 < R:
            raise DomainError(f"Re(zeta) = {re0} < R = {R}")
        while True:
            if n < reuse:
                w, x, m = stored[n]
            else:
                x = float(w.real)
            expected = re0 + n * rho_R
            # 1e-9 * max(1.0, |expected|), as expected >= R > 0 (or is nan)
            if x < expected - (1e-9 * expected if expected > 1.0 else 1e-9):
                raise CertificationError(
                    f"monotone escape violated at step {n}: Re = {x} < {expected}"
                )
            if n <= 3 and check_domain:
                if not domain_member(dom, complex(x, float(w.imag)), R):
                    raise CertificationError(
                        f"iterate {n} left the domain at {complex(w):.6g}"
                    )
            if n >= reuse:
                m = G(x)
            orbit.append((w, x, m))
            tail = m * a ** (-n) / D
            if tail < tol:
                break
            if n >= MAX_ITER:
                raise CertificationError("iteration budget exhausted before tail < tol")
            if g is not None:
                gw = g(w)
                if abs(gw) > m * (1 + 1e-9):  # the tail relies on |g(w_n)| <= G(Re w_n) = m
                    raise DomainError(f"|g| > e^(-nu Re) at {complex(w):.6g}: precondition fails")
                acc = acc + (a ** (-(n + 1))) * gw
            n += 1
            if n >= reuse:
                w = f(w)
        iterations_used[complex(zeta)] = n
        value = w * (a ** (-n)) if g is None else -acc
        last.append((zeta, value, tail, orbit))
        return value

    def tail_bound(zeta):
        """The certified majorant (< tol) of the tail left out at zeta.

        Read from the evaluator's one-entry store when zeta is the last
        point evaluated; any other point is evaluated (and then stored)."""
        evaluator(zeta)
        return last[0][2]

    return KoenigsResult(evaluator, tail_bound, spec, R, iterations_used)


def _check_tol(tol) -> None:
    """Only a finite positive tolerance can be met by a certified tail."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")


def _same_point(p, q) -> bool:
    """p and q are one number bit for bit: the same type, equal values and,
    at a zero part, the same sign of zero."""
    return (
        type(p) is type(q)
        and p == q
        and (p.real or math.copysign(1.0, p.real) == math.copysign(1.0, q.real))
        and (p.imag or math.copysign(1.0, p.imag) == math.copysign(1.0, q.imag))
    )


def koenigs_residual(result: KoenigsResult, f, zeta) -> float:
    """|phi(f(zeta)) - alpha phi(zeta)| at a point.

    phi(zeta) goes first: after `evaluator(zeta)` it is the stored point, and
    phi(f(zeta)) continues its orbit (f must be a pure function of its point)."""
    phi = result.evaluator
    a = result.spec.alpha
    at_zeta = phi(zeta)
    return abs(phi(f(zeta)) - a * at_zeta)


def identity_deviation_bound(result: KoenigsResult, zeta) -> float:
    """The tangency bound M(Re zeta)/(1 - 1/alpha) for |phi(zeta) - zeta|."""
    a = result.spec.alpha
    return result.spec.M(float(zeta.real)) / (1.0 - 1.0 / a)


# -- homological equation ---------------------------------------------------------


def solve_homological(
    f,
    g,
    nu: float,
    spec: AsymptoticSpec,
    dom: DomainSpec,
    R: float,
    tol: float = 1e-13,
) -> KoenigsResult:
    """phi_g = -sum_{n>=0} alpha^-(n+1) g(f^on), solving phi_g o f - alpha phi_g = g.

    Precondition |g| <= e^(-nu Re) is sampled at 12 points of [R, R+10] and
    checked at every orbit point w_n where g is evaluated.  Along
    the orbit e^(-nu Re w_m) <= e^(-nu Re w_n) (alpha q)^(m-n) with
    q = e^(-nu rho(R))/alpha, so the remaining tail is at most
    e^(-nu Re w_n) alpha^-n / (alpha (1 - q)); it certifies the stopping index
    pointwise, on the orbit loop and checks of `koenigs_normalize`.
    """
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"nu must be finite and >= 0, got {nu}")
    a = spec.alpha
    G = lambda x: math.exp(-nu * x)
    D = lambda rho_R: a * (1.0 - G(rho_R) / a)  # alpha (1 - q)
    res = _certified_orbit(f, spec, dom, R, tol, True, G, D, g)
    for i in range(12):
        x = R + 10.0 * i / 11
        if abs(g(complex(x, 0.0))) > G(x) * (1 + 1e-9):
            raise DomainError(f"|g| > e^(-nu Re) at {x}: precondition fails")
    return res


def homological_residual(res: KoenigsResult, f, g, zeta) -> float:
    """|phi_g(f(zeta)) - alpha phi_g(zeta) - g(zeta)|.

    phi_g(zeta) goes first, so phi_g(f(zeta)) continues its orbit, as in
    `koenigs_residual`."""
    phi = res.evaluator
    at_zeta = phi(zeta)
    return abs(phi(f(zeta)) - res.spec.alpha * at_zeta - g(zeta))
