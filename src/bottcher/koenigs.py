"""Certified Koenigs iteration and the Schroder-type homological solver.

The normalizing map is the uniform limit of alpha^(-n) f^on; one extra step
costs at most alpha^(-(n+1)) M(Re f^on) by the defect bound, so a geometric
majorant of the remaining tail certifies the stopping index at every point.
The number type follows the points: mpmath points and an f that keeps its
argument's type (as `dulac.evaluate_zeta` does) give extended precision.

The Koenigs evaluator keeps one entry: the last point it evaluated, with its
value and tail.  A second call at that point (the same object) returns the
stored value, so a certified point (value, `tail_bound`, `koenigs_residual`)
iterates f along two orbits, zeta's and f(zeta)'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domains import AsymptoticSpec, DomainSpec, domain_member
from .errors import CertificationError, DomainError

MAX_ITER = 10_000  # iteration budget of one Koenigs or homological evaluation

@dataclass
class KoenigsResult:
    evaluator: object
    tail_bound: object
    iterations_used: dict = field(default_factory=dict)
    domain: DomainSpec | None = None
    spec: AsymptoticSpec | None = None
    R: float = 0.0
    tol: float = 0.0


def koenigs_normalize(
    f,
    spec: AsymptoticSpec,
    dom: DomainSpec | None,
    R: float,
    tol: float = 1e-11,
    check_domain: bool = True,
) -> KoenigsResult:
    """Evaluator for phi = lim alpha^(-n) f^on on D_R with certified tails."""
    a = spec.alpha
    M = spec.M
    rho_R = spec.rho(R)
    if rho_R <= 0:
        raise CertificationError(f"rho(R) = {rho_R} <= 0 at R = {R}")
    iterations_used: dict = {}
    # The last evaluated point -> (its value, the tail majorant its evaluation
    # stopped on).  Keyed on the point object itself: equal numbers can still
    # differ in type, precision or the sign of a zero, and give other bits.
    last: list = []

    def evaluator(zeta):
        if last and last[0][0] is zeta:
            return last[0][1]
        last.clear()
        w = zeta
        n = 0
        re0 = float(w.real)
        if re0 < R:
            raise DomainError(f"Re(zeta) = {re0} < R = {R}")
        while True:
            x = float(w.real)
            expected = re0 + n * rho_R
            if x < expected - 1e-9 * max(1.0, abs(expected)):
                raise CertificationError(
                    f"monotone escape violated at step {n}: Re = {x} < {expected}"
                )
            if n <= 3 and check_domain and dom is not None:
                if not domain_member(dom, complex(float(w.real), float(w.imag)), R):
                    raise CertificationError(
                        f"iterate {n} left the domain at {complex(w):.6g}"
                    )
            # sum_{m>=n} alpha^-(m+1) M(Re w_m) <= M(x) alpha^-n / (alpha - 1)
            tail = M(x) * a ** (-n) / (a - 1.0)
            if tail < tol:
                break
            if n >= MAX_ITER:
                raise CertificationError("iteration budget exhausted before tail < tol")
            w = f(w)
            n += 1
        iterations_used[complex(zeta)] = n
        value = w * (a ** (-n))
        last.append((zeta, value, tail))
        return value

    def tail_bound(zeta):
        """The certified majorant (< tol) of the tail left out at zeta.

        Read from the evaluator's one-entry store when zeta is the last
        point evaluated; any other point is evaluated (and then stored)."""
        evaluator(zeta)
        return last[0][2]

    return KoenigsResult(evaluator, tail_bound, iterations_used, dom, spec, R, tol)


def koenigs_residual(result: KoenigsResult, f, zeta) -> float:
    """|phi(f(zeta)) - alpha phi(zeta)| at a point.

    phi(zeta) goes first: after `evaluator(zeta)` it is the stored point."""
    phi = result.evaluator
    a = result.spec.alpha
    at_zeta = phi(zeta)
    return abs(phi(f(zeta)) - a * at_zeta)


def identity_deviation_bound(result: KoenigsResult, zeta) -> float:
    """The tangency bound M(Re zeta)/(1 - 1/alpha) for |phi(zeta) - zeta|."""
    a = result.spec.alpha
    return result.spec.M(float(zeta.real)) / (1.0 - 1.0 / a)


# -- homological equation ---------------------------------------------------------


@dataclass
class HomologicalResult:
    evaluator: object
    tail_bound: object
    nu: float
    spec: AsymptoticSpec
    R: float


def solve_homological(
    f,
    g,
    nu: float,
    spec: AsymptoticSpec,
    dom: DomainSpec | None,
    R: float,
    tol: float = 1e-13,
) -> HomologicalResult:
    """phi_g = -sum_{n>=0} alpha^-(n+1) g(f^on), solving phi_g o f - alpha phi_g = g.

    Precondition |g| <= e^(-nu Re) is sampled at 12 points of [R, R+10]; the remaining-tail
    majorant sum_{m>=n} alpha^-(m+1) e^(-nu Re_n) q^(m-n), q = e^(-nu rho(R))/alpha,
    certifies the stopping index pointwise.
    """
    a = spec.alpha
    rho_R = spec.rho(R)
    if rho_R <= 0:
        raise CertificationError(f"rho(R) = {rho_R} <= 0 at R = {R}")
    for i in range(12):
        x = R + 10.0 * i / 11
        if abs(g(complex(x, 0.0))) > math.exp(-nu * x) * (1 + 1e-9):
            raise DomainError(f"|g| > e^(-nu Re) at {x}: precondition fails")
    q = math.exp(-nu * rho_R) / a

    def tail_from(x: float, n: int) -> float:
        return (a ** (-(n + 1))) * math.exp(-nu * x) / (1.0 - q)

    def evaluator(zeta):
        w = zeta
        acc = 0.0 * zeta
        n = 0
        while True:
            x = float(w.real)
            if tail_from(x, n) < tol:
                break
            if n >= MAX_ITER:
                raise CertificationError("homological sum did not certify below tol")
            acc = acc + (a ** (-(n + 1))) * g(w)
            w = f(w)
            n += 1
        return -acc

    def tail_bound(zeta):
        return tail_from(float(zeta.real), 0)

    return HomologicalResult(evaluator, tail_bound, nu, spec, R)


def homological_residual(res: HomologicalResult, f, g, zeta) -> float:
    """|phi_g(f(zeta)) - alpha phi_g(zeta) - g(zeta)|."""
    phi = res.evaluator
    return abs(phi(f(zeta)) - res.spec.alpha * phi(zeta) - g(zeta))
