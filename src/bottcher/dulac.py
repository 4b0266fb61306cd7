"""Dulac series in both charts, chart conversion, and formal/numeric comparison.

z-chart: lambda z^alpha + sum_i z^(alpha_i) P_i(-log z), alpha_i strictly
increasing above alpha.  zeta-chart (zeta = -log z): alpha zeta - log lambda
+ sum_i e^(-beta_i zeta) Q_i(zeta) with beta_i = alpha_i - alpha.  Ladders are
finite by construction; the e^(-1)-order cap plays the role of z_cap - alpha.

A ladder [(exp, P)] is a depth-1 series with keys Key(exp, (-deg,)), since
-log z = 1/l1.  One pair of converters, `_ladder_terms` and `_terms_ladder`,
moves between the two forms: the chart maps apply the kernel's `log1p` and
`exp_minus_one` to that series, and `to_transseries` / `from_transseries`
embed a z-chart series into the normalizer's input and read its output back.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .coeffs import (
    EXACT,
    Exact,
    c_from,
    c_zero,
    exp_of_log_exact,
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
from .normalize import normalize


@dataclass
class DulacSeriesZ:
    """lambda z^alpha + sum z^(alpha_i) P_i(-log z); P_i dense by degree."""

    lam: object
    alpha: Fraction
    ladder: list
    mode: str = EXACT

    def __post_init__(self):
        self.alpha = as_zexp(self.alpha)
        self.lam = c_from(self.lam, self.mode)
        self.ladder = sorted(
            ((as_zexp(a), [c_from(c, self.mode) for c in p]) for a, p in self.ladder),
            key=lambda t: t[0],
        )
        last = self.alpha
        for a, _ in self.ladder:
            if a <= last:
                raise ShapeError("ladder exponents must strictly increase above alpha")
            last = a


@dataclass
class DulacSeriesZeta:
    """alpha zeta + c0 + sum e^(-beta_i zeta) Q_i(zeta); c0 = -log lambda."""

    alpha: Fraction
    c0: object
    ladder: list
    mode: str = EXACT

    def __post_init__(self):
        self.alpha = as_zexp(self.alpha)
        self.c0 = c_from(self.c0, self.mode)
        self.ladder = sorted(
            ((as_zexp(b), [c_from(c, self.mode) for c in q]) for b, q in self.ladder),
            key=lambda t: t[0],
        )
        for b, _ in self.ladder:
            if b <= 0:
                raise ShapeError("zeta-chart ladder exponents must be positive")


# -- ladders as depth-1 series -------------------------------------------------


def _ladder_terms(ladder) -> dict:
    """The rungs [(exp, P)] as depth-1 terms {Key(exp, (-deg,)): P[deg]}."""
    return {Key(b, (-deg,)): c for b, p in ladder for deg, c in enumerate(p)}


def _terms_ladder(terms: dict, mode) -> list:
    """Depth-1 terms back to rungs [(exp, P)]: exponents ascending, each P
    dense up to its top degree.  A depth-0 key is a degree-0 term."""
    rungs: dict = {}
    for k, c in terms.items():
        rungs.setdefault(k.z, {})[-k.l[0] if k.l else 0] = c
    return [
        (b, [p.get(deg, c_zero(mode)) for deg in range(max(p) + 1)])
        for b, p in sorted(rungs.items())
    ]


def _ladder_series_op(ladder: list, op, mode, e_cap) -> list:
    """op applied to the ladder [(beta, P)] embedded as the depth-1 series
    sum P[deg] e^(-beta zeta) zeta^deg, with zeta = 1/l1.

    The grid stores every term below e_cap: op(u) = Sigma_j c_j u^j needs
    j <= e_cap / min beta, so a block holds at most
    (max deg) * (int(e_cap / min beta) + 1) + 1 terms.
    """
    if not ladder:  # also covers e_cap <= 0, where every rung is cut
        return []
    max_deg = max(len(p) for _, p in ladder) - 1
    reach = int(e_cap / min(b for b, _ in ladder)) + 1
    grid = TruncationGrid(z_cap=e_cap, block_cap=max_deg * reach + 1, depth=1)
    return _terms_ladder(op(make_series(_ladder_terms(ladder), grid, mode)).terms, mode)


# -- chart conversions ------------------------------------------------------------


def to_zeta_chart(d: DulacSeriesZ, e_cap=None) -> DulacSeriesZeta:
    """f(zeta) = -log f(e^(-zeta)) = alpha zeta - log lambda - log(1 + u)."""
    mode = d.mode
    if not d.lam:
        raise ShapeError("lambda must be nonzero")
    if e_cap is None:
        e_cap = (d.ladder[-1][0] - d.alpha) + 1 if d.ladder else Fraction(1)
    c0 = -log_coeff(d.lam, mode)
    lam_inv = 1 / d.lam
    u = [(a - d.alpha, [c * lam_inv for c in p])
         for a, p in d.ladder if a - d.alpha < e_cap]
    body = _ladder_series_op(u, log1p, mode, e_cap)
    ladder = [(b, [-c for c in p]) for b, p in body]
    return DulacSeriesZeta(d.alpha, c0, ladder, mode)


def to_z_chart(d: DulacSeriesZeta, e_cap=None) -> DulacSeriesZ:
    """f(z) = e^(-c0) z^alpha exp(-v), v the zeta-chart ladder."""
    mode = d.mode
    if e_cap is None:
        e_cap = (d.ladder[-1][0] + 1) if d.ladder else Fraction(1)
    if mode == EXACT:
        lam = exp_of_log_exact(-d.c0)
    else:
        lam = cmath.exp(-complex(d.c0))
    v = [(b, q) for b, q in d.ladder if b < e_cap]
    body = _ladder_series_op(v, lambda s: exp_minus_one(negate(s)), mode, e_cap)
    ladder = [(d.alpha + b, [c * lam for c in p]) for b, p in body]
    return DulacSeriesZ(lam, d.alpha, ladder, mode)


# -- transseries embedding ----------------------------------------------------------


def is_dulac(f: TransSeries, below_frontier: bool = True) -> bool:
    """Depth <= 1, all l1-exponents <= 0, log-free leading term."""
    keys = [k for k in f.terms if (not below_frontier) or k < f.frontier]
    if not keys:
        return True
    lead = min(keys)
    if any(n != 0 for n in lead.l):
        return False
    for k in keys:
        if any(n != 0 for n in k.l[1:]):
            return False
        if k.l and k.l[0] > 0:
            return False
    return True


def to_transseries(d: DulacSeriesZ, grid: TruncationGrid) -> TransSeries:
    """d on `grid`, raised to depth 1 if the grid has depth 0."""
    if grid.depth < 1:
        grid = replace(grid, depth=1)
    terms = {Key(d.alpha, (0,)): d.lam, **_ladder_terms(d.ladder)}
    return make_series(terms, grid, d.mode)


def from_transseries(f: TransSeries) -> DulacSeriesZ:
    """Certified part of f as a Dulac series (keys at/above the frontier dropped)."""
    if not is_dulac(f):
        raise ShapeError("series is not a Dulac series (depth/log-sign violation)")
    terms = {k: c for k, c in f.terms.items() if k < f.frontier}
    if not terms:
        raise ShapeError("no certified terms to convert")
    lead = min(terms)
    lam = terms.pop(lead)
    return DulacSeriesZ(lam, lead.z, _terms_ladder(terms, f.mode), f.mode)


def dulac_normalize_full(d: DulacSeriesZ, z_cap=10, block_cap=12):
    """Normalize a strongly hyperbolic Dulac series; returns (phi_hat, result)."""
    grid = TruncationGrid(z_cap=z_cap, block_cap=block_cap, depth=1)
    f = to_transseries(d, grid)
    res = normalize(f)
    phi = res.phi
    if not is_dulac(phi):
        raise BottcherError(
            "internal: normalization of a Dulac series left the Dulac class"
        )
    if _series_real_below_frontier(f) and not _series_real_below_frontier(phi):
        raise BottcherError("internal: real Dulac input produced non-real output")
    return from_transseries(phi), res


def _series_real_below_frontier(f: TransSeries) -> bool:
    for k, c in f.terms.items():
        if k >= f.frontier:
            continue
        if isinstance(c, Exact):
            if not c.is_real():
                return False
        elif abs(complex(c).imag) > 1e-12:
            return False
    return True


# -- partial normalizations and asymptotic comparison -------------------------------


def partial_normalizations(phi_hat: DulacSeriesZeta, n: int) -> DulacSeriesZeta:
    """phi_hat_n = zeta + first n ladder rungs (n = 0 gives the identity)."""
    if n < 0 or n > len(phi_hat.ladder):
        raise DomainError(f"partial index {n} outside 0..{len(phi_hat.ladder)}")
    return DulacSeriesZeta(
        phi_hat.alpha, phi_hat.c0, list(phi_hat.ladder[:n]), phi_hat.mode
    )


def _is_mp(x) -> bool:
    return type(x).__module__.startswith("mpmath")


def _exp_any(x):
    if _is_mp(x):
        import mpmath

        return mpmath.exp(x)
    return cmath.exp(complex(x))


def _num(c, like) -> object:
    """Coefficient as a number matching the precision of `like`.

    Exact rationals convert losslessly to mpmath values when `like` is an
    mpmath number; plain complex otherwise.
    """
    if not _is_mp(like):
        return complex(c)
    import mpmath

    if isinstance(c, Exact):
        out = mpmath.mpc(0)
        for k, (re, im) in c.parts.items():
            val = mpmath.mpc(
                mpmath.mpf(re.numerator) / re.denominator,
                mpmath.mpf(im.numerator) / im.denominator,
            )
            for p, e in k:
                val *= mpmath.log(p) ** e
            out += val
        return out
    return mpmath.mpc(c)


def _exp_frac_any(b, like):
    if _is_mp(like):
        import mpmath

        return mpmath.mpf(b.numerator) / b.denominator
    return float(b)


def evaluate_zeta(d: DulacSeriesZeta, zeta):
    """Numeric value alpha zeta + c0 + sum e^(-beta zeta) Q(zeta)."""
    out = _exp_frac_any(d.alpha, zeta) * zeta + _num(d.c0, zeta)
    for b, q in d.ladder:
        horner = 0 * zeta
        for c in reversed(q):
            horner = horner * zeta + _num(c, zeta)
        out = out + _exp_any(-_exp_frac_any(b, zeta) * zeta) * horner
    return out


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
    """sup of |phi(zeta) - phi_hat_n(zeta)| e^(beta_n Re) along a ray, with trend."""
    phin = partial_normalizations(phi_hat, n)
    beta = float(phi_hat.ladder[n - 1][0]) if n >= 1 else 0.0
    evaluator = phi_numeric.evaluator if hasattr(phi_numeric, "evaluator") else phi_numeric
    stats = []
    for x in xs:
        zeta = _complex_like(x)
        diff = abs(evaluator(zeta) - evaluate_zeta(phin, zeta))
        stats.append(float(diff) * math.exp(beta * float(x)))
    rep = _decay_report([float(x) for x in xs], stats)
    rep["sup"] = max(stats) if stats else 0.0
    rep["statistic"] = stats
    rep["beta_n"] = beta
    return rep


def _complex_like(x):
    if _is_mp(x):
        import mpmath

        return mpmath.mpc(x)
    return complex(float(x))
