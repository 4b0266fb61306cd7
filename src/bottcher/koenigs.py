"""Certified Koenigs iteration and the Schroder-type homological solver.

The normalizing map is the uniform limit of alpha^(-n) f^on; one extra step
costs at most alpha^(-(n+1)) M(Re f^on) by the defect bound, so a geometric
majorant of the remaining tail certifies the stopping index at every point.
Arithmetic is duck-typed: feed mpmath complex numbers (and an mpmath-valued f)
for extended precision in tail-dominated regimes.
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


def _tail_majorant(spec: AsymptoticSpec, x: float, n: int) -> float:
    """Upper bound for sum_{m>=n} alpha^-(m+1) M(R + m rho(R)) given Re >= x at step n."""
    a = spec.alpha
    return spec.M(x) * a ** (-n) / (a - 1.0)


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
    rho_R = spec.rho(R)
    if rho_R <= 0:
        raise CertificationError(f"rho(R) = {rho_R} <= 0 at R = {R}")
    iterations_used: dict = {}
    # The last evaluated point -> the tail majorant its evaluation stopped on;
    # tail_bound recomputes any other point, so this holds one entry.
    stopped_on: dict = {}

    def evaluator(zeta):
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
            if check_domain and dom is not None and n <= 3:
                if not domain_member(dom, complex(float(w.real), float(w.imag)), R):
                    raise CertificationError(
                        f"iterate {n} left the domain at {complex(w):.6g}"
                    )
            tail = _tail_majorant(spec, x, n)
            if tail < tol:
                break
            if n >= MAX_ITER:
                raise CertificationError("iteration budget exhausted before tail < tol")
            w = f(w)
            n += 1
        iterations_used[complex(zeta)] = n
        stopped_on.clear()
        stopped_on[complex(zeta)] = tail
        return w * (a ** (-n))

    def tail_bound(zeta):
        """The certified majorant (< tol) of the tail left out at zeta."""
        if complex(zeta) not in stopped_on:
            evaluator(zeta)
        return stopped_on[complex(zeta)]

    return KoenigsResult(evaluator, tail_bound, iterations_used, dom, spec, R, tol)


def koenigs_residual(result: KoenigsResult, f, zeta) -> float:
    """|phi(f(zeta)) - alpha phi(zeta)| at a point."""
    phi = result.evaluator
    a = result.spec.alpha
    return abs(phi(f(zeta)) - a * phi(zeta))


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
