"""Dulac germs in both charts, chart conversion, and formal/numeric comparison.

A complex Dulac germ lambda z^alpha + sum_i z^(alpha_i) P_i(-log z) is a
depth-1 logarithmic transseries with a log-free leading term and every
l1-exponent <= 0 (`is_dulac`): since -log z = 1/l1, its term
c z^a (-log z)^deg sits at Key(a, (-deg,)).  The z chart is that series
itself, and `dulac_normalize_full` is the formal normalizer run on it.  The
zeta chart (zeta = -log z) is `DulacSeriesZeta(alpha, c0, v)`:
alpha zeta + c0 + v(zeta) with c0 = -log lambda, where the term
Key(beta, (-deg,)) of the depth-1 series v stands for e^(-beta zeta) zeta^deg.
The chart maps apply the kernel's `log1p` and `exp_minus_one` to these
series; the e^(-1)-order cap plays the role of z_cap - alpha.

Ladders [(exp, P)], each P dense by degree, are the wire format: `io_json`
reads and writes them, and `DulacSeriesZ` builds a germ from one.

The numeric map `zeta_map(f)` = -log f(e^(-zeta)) of a monic f reads f's own
terms, with no e_cap; `zeta_chart_map(d)` evaluates a zeta-chart germ itself.
Both, `zeta_function` and `compare_formal_numeric` compute in their points'
number type, converting constants once per kind (`by_kind`).
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import (
    EXACT,
    Exact,
    c_from,
    c_is_real,
    c_one,
    exp_coeff,
    log_coeff,
)
from .errors import BottcherError, DomainError, ShapeError
from .keys import Key, as_zexp
from .series import (
    TransSeries,
    TruncationGrid,
    exp_minus_one,
    log1p,
    make_series,
    negate,
)
from .normalize import NOT_MONIC, normalize


def DulacSeriesZ(lam, alpha, ladder, mode=EXACT) -> TransSeries:
    """The germ lambda z^alpha + sum z^(a_i) P_i(-log z) of the ladder
    [(a_i, P_i)], each P_i dense by degree, as its depth-1 series."""
    alpha = as_zexp(alpha)
    lam = c_from(lam, mode)
    if not lam:
        raise ShapeError("lambda must be nonzero")
    ladder = sorted(((as_zexp(a), p) for a, p in ladder), key=lambda t: t[0])
    exps = [alpha] + [a for a, _ in ladder]
    if any(b <= a for a, b in zip(exps, exps[1:])):
        raise ShapeError("ladder exponents must strictly increase above alpha")
    terms = {Key(alpha, (0,)): lam}
    terms.update({Key(a, (-deg,)): c for a, p in ladder for deg, c in enumerate(p)})
    return whole_series(terms, mode)


@dataclass
class DulacSeriesZeta:
    """alpha zeta + c0 + v(zeta), c0 = -log lambda; the term Key(beta, (-deg,))
    of the depth-1 series v is e^(-beta zeta) zeta^deg, beta > 0.  alpha is
    the germ's leading z-exponent, in `keys`' canonical form."""

    alpha: int | Fraction
    c0: object
    v: TransSeries

    def betas(self) -> list:
        """The distinct exponents beta of v, ascending: one per rung."""
        return sorted({k.z for k in self.v.terms})


def whole_series(terms: dict, mode) -> TransSeries:
    """The depth-1 series of `terms` on a grid that stores them all; its
    frontier lies above every exponent given, a zero coefficient's too."""
    top = max((k.z for k in terms), default=0)
    width = max(Counter(k.z for k in terms).values(), default=1)
    return make_series(terms, TruncationGrid(max(top, 0) + 1, width, 1), mode)


def rungs(terms: dict) -> list:
    """Depth-1 terms by exponent: [(exp, {deg: c})], exponents ascending."""
    out: dict = {}
    for k, c in terms.items():
        out.setdefault(k.z, {})[-k.l[0]] = c
    return sorted(out.items(), key=lambda t: t[0])


def _germ(f: TransSeries):
    """(alpha, lambda, rest) of a Dulac series: the leading exponent and
    coefficient of its terms, and the others, at depth 1 in key order."""
    if not is_dulac(f):
        raise ShapeError("series is not a Dulac series (depth/log-sign violation)")
    terms = {Key(k.z, k.l[:1] or (0,)): c for k, c in sorted(f.terms.items())}
    if not terms:
        raise ShapeError("no certified terms to convert")
    lead = next(iter(terms))
    return lead.z, terms.pop(lead), terms


def _chart_op(terms: dict, op, mode, e_cap) -> TransSeries:
    """op applied to the depth-1 series of `terms`, keys Key(beta, (-deg,))
    with beta > 0, on a grid that stores every term below e_cap:
    op(u) = Sigma_j c_j u^j needs j <= e_cap / min beta, so a block holds at
    most (max deg) * (floor(e_cap / min beta) + 1) + 1 terms.
    """
    if not terms:  # also covers e_cap <= 0, where every term is cut
        return whole_series({}, mode)
    max_deg = -min(k.l[0] for k in terms)
    reach = e_cap // min(k.z for k in terms) + 1  # exact: both may be ints
    grid = TruncationGrid(z_cap=e_cap, block_cap=max_deg * reach + 1, depth=1)
    return op(make_series(terms, grid, mode))


# -- chart conversions ------------------------------------------------------------


def to_zeta_chart(f: TransSeries, e_cap=None) -> DulacSeriesZeta:
    """f(zeta) = -log f(e^(-zeta)) = alpha zeta - log lambda - log(1 + u)."""
    alpha, lam, rest = _germ(f)
    mode = f.mode
    if e_cap is None:
        e_cap = (max(k.z for k in rest) - alpha) + 1 if rest else Fraction(1)
    c0 = -log_coeff(lam, mode)
    lam_inv = 1 / lam
    u = {Key(k.z - alpha, k.l): c * lam_inv for k, c in rest.items() if k.z - alpha < e_cap}
    return DulacSeriesZeta(alpha, c0, negate(_chart_op(u, log1p, mode, e_cap)))


def to_z_chart(d: DulacSeriesZeta, e_cap=None) -> TransSeries:
    """f(z) = e^(-c0) z^alpha exp(-v), v the zeta-chart series; e_cap
    defaults to v's frontier, below which v is known."""
    mode = d.v.mode
    if e_cap is None:
        e_cap = d.v.frontier.z
    lam = exp_coeff(-d.c0, mode)
    v = {k: c for k, c in d.v.terms.items() if k.z < e_cap}
    body = _chart_op(v, lambda s: exp_minus_one(negate(s)), mode, e_cap)
    terms = {Key(d.alpha, (0,)): lam}
    terms.update({Key(d.alpha + k.z, k.l): c * lam for k, c in body.terms.items()})
    return whole_series(terms, mode)


# -- the Dulac class and its normalization ------------------------------------------


def is_dulac(f: TransSeries) -> bool:
    """No l2, l3, ... exponents, all l1-exponents <= 0, log-free leading term."""
    if f.terms and any(min(f.terms).l):
        return False
    return all(k.l[0] <= 0 and not any(k.l[1:]) for k in f.terms if k.l)


def dulac_normalize_full(f: TransSeries, z_cap=10, block_cap=12):
    """Normalize a strongly hyperbolic Dulac series on a depth-1 grid;
    returns (phi, result) with phi = result.phi."""
    alpha, lam, rest = _germ(f)
    grid = TruncationGrid(z_cap=z_cap, block_cap=block_cap, depth=1)
    f = make_series({Key(alpha, (0,)): lam, **rest}, grid, f.mode)
    res = normalize(f)
    phi = res.phi
    if not is_dulac(phi):
        raise BottcherError(
            "internal: normalization of a Dulac series left the Dulac class"
        )
    if _series_real(f) and not _series_real(phi):
        raise BottcherError("internal: real Dulac input produced non-real output")
    return phi, res


def _series_real(f: TransSeries) -> bool:
    return all(c_is_real(c, f.mode) for c in f.terms.values())


# -- partial normalizations and asymptotic comparison -------------------------------


def partial_normalizations(phi_hat: DulacSeriesZeta, n: int) -> DulacSeriesZeta:
    """phi_hat_n = zeta + the terms of the first n rungs (n = 0 gives the identity)."""
    betas = phi_hat.betas()
    if n < 0 or n > len(betas):
        raise DomainError(f"partial index {n} outside 0..{len(betas)}")
    v = phi_hat.v
    kept = {k: c for k, c in v.terms.items() if n and k.z <= betas[n - 1]}
    return DulacSeriesZeta(phi_hat.alpha, phi_hat.c0, make_series(kept, v.grid, v.mode))


def number_kind(x):
    """False for a float or complex x, else x's mpmath working precision in bits."""
    return type(x).__module__.startswith("mpmath") and x.context.prec


def numbers_like(x):
    """(real, coef, exp, log, nats) in the number type of x: for an mpmath x, real(q)
    of a rational q is an mpf and coef(c) an mpc at the working precision (an
    `Exact`, log p parts included, converts losslessly), exp and log are mpmath's
    and nats is that precision in nats; otherwise float, complex, cmath's and 53 bits."""
    if not number_kind(x):
        return float, complex, cmath.exp, cmath.log, 53 * math.log(2)
    import mpmath

    def real(q):
        return mpmath.mpf(q.numerator) / q.denominator

    def coef(c):
        if not isinstance(c, Exact):
            return mpmath.mpc(c)
        out = mpmath.mpc(0)
        for k, (re, im) in c.parts.items():
            val = mpmath.mpc(real(re), real(im))
            for p, e in k:
                val *= mpmath.log(p) ** e
            out += val
        return out

    return real, coef, mpmath.exp, mpmath.log, mpmath.mp.prec * math.log(2)


def by_kind(build):
    """x -> build(x), kept in one entry and built again only when number_kind(x) changes."""
    entry = [None, None]  # (kind, built)

    def get(x):
        if entry[0] != number_kind(x):
            entry[:] = number_kind(x), build(x)
        return entry[1]

    return get


def zeta_function(d: DulacSeriesZeta, numbers):
    """zeta -> d(zeta), its coefficients converted once by a `numbers_like` tuple.

    A rung e^(-beta zeta) Q(zeta) is left out where its bound, the sum of Q's
    |coefficients| times max(1, |zeta|)^(deg Q) e^(-beta Re zeta), is below
    |alpha zeta + c0| e^(-nats), the last digit of alpha zeta + c0.  So a germ
    with alpha = c0 = 0 keeps every rung, and no far point computes an
    e^(-beta zeta) that can be out of exp's range.  The bound is compared in
    logs, in doubles."""
    real, coef, exp, _, nats = numbers
    alpha, c0 = real(d.alpha), coef(d.c0)
    alpha_near, c0_near = float(alpha), complex(c0)
    # (beta, -beta, Q's coefficients from the top degree, log sum|q|, deg Q), a gap adding an exact 0
    ladder = []
    for b, q in rungs(d.v.terms):
        cs = [coef(q.get(deg, 0)) for deg in range(max(q), -1, -1)]
        ladder.append((float(b), -real(b), cs, math.log(sum(float(abs(c)) for c in cs)), max(q)))

    def value(zeta):
        out = alpha * zeta + c0
        near = complex(float(zeta.real), float(zeta.imag))  # 53 bits are enough for the bound
        size = abs(alpha_near * near + c0_near)
        last_digit = math.log(size) - nats if size else -math.inf
        lift = math.log(max(1.0, abs(near)))
        for b, minus_b, q, log_mass, top in ladder:  # Horner by degree
            if log_mass + top * lift - b * near.real < last_digit:
                continue
            horner = 0 * zeta
            for c in q:
                horner = horner * zeta + c
            out = out + exp(minus_b * zeta) * horner
        return out

    return value


def zeta_chart_map(d: DulacSeriesZeta):
    """zeta -> d(zeta) in zeta's number type, d's coefficients converted once per kind."""
    constants = by_kind(lambda x: zeta_function(d, numbers_like(x)))
    return lambda zeta: constants(zeta)(zeta)


def zeta_map(f: TransSeries):
    """F(zeta) = -log f(e^(-zeta)) = alpha zeta - log(1 + u(zeta)) of a monic Dulac
    series f = z^alpha (1 + u), from f's trusted terms, in zeta's number type."""
    alpha, lam, rest = _germ(f)
    if lam != c_one(f.mode):
        raise ShapeError(NOT_MONIC)
    u = DulacSeriesZeta(Fraction(0), lam, whole_series(
        {Key(k.z - alpha, k.l): c for k, c in rest.items()}, f.mode))

    def convert(x):
        real, _, _, log, _ = numbers = numbers_like(x)
        return real(alpha), log, zeta_function(u, numbers)

    constants = by_kind(convert)

    def F(zeta):
        a, log, u_at = constants(zeta)
        return a * zeta - log(u_at(zeta))

    return F


def _decay_report(xs, vals):
    """Trend of a statistic along increasing Re: bounded + trending down.

    "Decays" means: last-decade mean below 0.5x first-decade mean, and the
    least-squares slope of log(statistic) is negative (documented thresholds).
    """
    pts = [(x, v) for x, v in zip(xs, vals) if v > 0.0]
    if len(pts) < 4:
        return {"pass": False, "reason": "too few points above noise floor", "points": pts}
    k = max(1, len(pts) // 4)
    first = sum(v for _, v in pts[:k]) / k
    last = sum(v for _, v in pts[-k:]) / k
    lx = [x for x, _ in pts]
    ly = [math.log(v) for _, v in pts]
    n = len(pts)
    mx = sum(lx) / n
    my = sum(ly) / n
    denom = sum((x - mx) ** 2 for x in lx)
    slope = sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / denom if denom else 0.0
    ok = last <= 0.5 * first and slope < 0.0
    return {
        "pass": bool(ok),
        "slope": slope,
        "fitted_rate": -slope,
        "first_decade": first,
        "last_decade": last,
        "n_points": n,
    }


def compare_formal_numeric(phi_numeric, phi_hat: DulacSeriesZeta, n: int, xs):
    """sup of |phi_numeric(zeta) - phi_hat_n(zeta)| e^(beta_n x) along the ray
    zeta = x + 0i, evaluated at x itself (in the number type of x), with trend."""
    phin = partial_normalizations(phi_hat, n)
    formal = zeta_chart_map(phin)
    beta = float(phi_hat.betas()[n - 1]) if n >= 1 else 0.0
    stats = []
    for x in xs:
        diff = abs(phi_numeric(x) - formal(x))
        stats.append(float(diff) * math.exp(beta * float(x)))
    rep = _decay_report([float(x) for x in xs], stats)
    rep["sup"] = max(stats) if stats else 0.0
    rep["statistic"] = stats
    rep["beta_n"] = beta
    return rep

