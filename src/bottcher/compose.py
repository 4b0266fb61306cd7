"""Formal composition and inversion for logarithmic transseries.

Composition g o f is defined for right factors f whose leading term is a
log-free power lambda*z^alpha.  Each monomial c z^d l1^n1 ... of g maps to
c * (z^d o f) * prod (l_j o f)^nj, where z^d o f is a binomial series in
u = (f - lambda z^alpha)/(lambda z^alpha) and the iterated-log images come
from the recursion l_(m+1) o f = l1 o (l_m o f).  The monomials sharing a
log multi-index are summed first, so the images multiply once per group.
The series stop certifiably past the truncation frontier (ord u > 0).

What depends on f alone lives in a `Composer(f)`.  `compose(g, f)` takes f
as a series, which gets a fresh Composer for that call, or as a Composer,
which is reused.  Code composing many g with one f holds its Composer; it
lives as long as its holder and is never kept process-wide.  `solve_linear`
is the one lex-triangular solver, behind `invert` and `normalize.solve_W`.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import (
    c_from,
    c_one,
    c_pow_rational,
    log_coeff,
    log_inverse,
)
from .errors import DepthOverflowError, ShapeError
from .keys import Key, ell_key, front_zscale, zero_key
from .series import (
    TransSeries,
    _common,
    add,
    binomial_body,
    identity_series,
    leading_term,
    log1p,
    make_series,
    monomial,
    mul,
    pow_rational,
    power_sum,
    scale,
    series_inverse,
    split_leading,
)

PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
STRONGLY_HYPERBOLIC = "strongly_hyperbolic"


@dataclass(frozen=True)
class HyperbolicShape:
    """Leading data (lambda, alpha) of a series with a log-free leading term.

    alpha is a `Fraction` also when it is integral, unlike a key's z: 1 / alpha
    and z / alpha must stay exact, and int / int is a float."""

    lam: object
    alpha: object
    classification: str


def shape_of(f: TransSeries) -> HyperbolicShape:
    """Classify f or raise ShapeError when f is outside the composable class."""
    if f.is_zero():
        raise ShapeError("zero series has no hyperbolic shape")
    key, lam = leading_term(f)
    if any(n != 0 for n in key.l):
        raise ShapeError("leading term contains logarithms")
    alpha = Fraction(key.z)
    if alpha <= 0:
        raise ShapeError(f"leading exponent {alpha} is not positive")
    if alpha == 1:
        cls = PARABOLIC if lam == c_one(f.mode) else HYPERBOLIC
    else:
        cls = STRONGLY_HYPERBOLIC
    return HyperbolicShape(lam, alpha, cls)


def is_parabolic(f: TransSeries) -> bool:
    try:
        return shape_of(f).classification == PARABOLIC
    except ShapeError:
        return False


# -- elementary right-compositions -------------------------------------------


def compose_power(beta, f: TransSeries) -> TransSeries:
    """z^beta o f for rational beta (a float beta goes through `keys.as_zexp`)."""
    shape_of(f)
    return pow_rational(f, beta)


# -- general composition -------------------------------------------------------


class Composer:
    """A right factor f = lambda z^alpha (1 + u) and what every g o f shares.

    Built on demand: binomial bodies Sigma_i binom(delta, i) u^i, log images
    l_j o f, their powers and their products per log multi-index.  Each body
    and each geometric sum of a log image is one `series.power_sum`.
    """

    def __init__(self, f: TransSeries):
        self.f = f
        shape = shape_of(f)
        self.alpha = shape.alpha
        _, self.lam, self.u = split_leading(f)
        self.images: list[TransSeries] = []
        self.one = monomial(zero_key(f.grid.depth), f.grid, f.mode)
        self.bodies: dict[object, TransSeries] = {}
        self.power_cache: dict[tuple[int, int], TransSeries] = {}
        self.prod_cache: dict[tuple, TransSeries] = {}

    @classmethod
    def of(cls, f: TransSeries | Composer) -> Composer:
        """f itself if it is a Composer, else a fresh one for the series f."""
        return f if isinstance(f, Composer) else cls(f)

    def body(self, delta) -> TransSeries:
        """Sigma_i binom(delta, i) u^i, one `power_sum` per delta, cached."""
        if delta == 0:  # binom(0, i) = 0 for i >= 1: exactly 1, no tail
            return self.one
        hit = self.bodies.get(delta)
        if hit is None:
            hit = self.bodies[delta] = binomial_body(self.u, delta, self.alpha * delta)
        return hit

    def ell_image(self, j: int) -> TransSeries:
        """l_j o f, each level built once from the level below.

        Level 1:  -1/(log lambda + alpha log z + log1p u)
                = (l1/alpha) Sigma_i ((log lambda + log1p u) l1/alpha)^i.
        Level m+1 from E_m = c_m l_m (1 + w):
                  l_(m+1) Sigma_i ((log c_m + log1p w) l_(m+1))^i,
        where c_1 = 1/alpha and c_m = 1 for m >= 2.
        """
        grid, mode = self.f.grid, self.f.mode
        if j < 1:
            raise ValueError(f"log index must be >= 1, got {j}")
        if j > grid.depth:
            raise DepthOverflowError(f"l_{j} needs depth {j}, grid has {grid.depth}")
        while len(self.images) < j:
            m = len(self.images) + 1
            if m == 1:
                inner = log1p(self.u)
                log_cm = log_coeff(self.lam, mode)
                pref = scale(monomial(ell_key(grid.depth, 1), grid, mode), 1 / self.alpha)
            else:
                _, _, w = split_leading(self.images[-1])
                inner = log1p(w)
                log_cm = log_inverse(self.alpha, mode) if m == 2 else None
                pref = monomial(ell_key(grid.depth, m), grid, mode)
            if log_cm:
                inner = add(inner, monomial(zero_key(grid.depth), grid, mode, log_cm))
            geom = power_sum(mul(inner, pref), -1, 1, 1, one=True)  # 1 / (1 - v)
            self.images.append(mul(pref, geom))
        return self.images[j - 1]

    def image_power(self, j: int, n: int) -> TransSeries:
        """E_j^n built incrementally (one mul per new power, inverse cached)."""
        key = (j, n)
        hit = self.power_cache.get(key)
        if hit is not None:
            return hit
        if n == 0:
            out = self.one
        elif n > 0:
            out = mul(self.image_power(j, n - 1), self.ell_image(j))
        elif n == -1:
            out = series_inverse(self.ell_image(j))
        else:
            out = mul(self.image_power(j, n + 1), self.image_power(j, -1))
        self.power_cache[key] = out
        return out

    def image_product(self, lvec: tuple) -> TransSeries | None:
        """prod_j (l_j o f)^(n_j) for a log multi-index, None for the empty one."""
        if not any(lvec):
            return None
        hit = self.prod_cache.get(lvec)
        if hit is not None:
            return hit
        out = None
        for j, n in enumerate(lvec, start=1):
            if n:
                p = self.image_power(j, n)
                out = p if out is None else mul(out, p)
        self.prod_cache[lvec] = out
        return out


def compose(g: TransSeries, f: TransSeries | Composer) -> TransSeries:
    """g o f; the right factor must have a log-free leading term.

    f is a series or a `Composer` of one.  Computed term-group-wise: for each
    distinct log multi-index of g, the pieces c lambda^delta z^(alpha delta)
    body(delta) of its terms are summed, in g's term order, into one dict
    that one `make_series` canonicalizes; the group is then multiplied once
    by its product of iterated-log images, and one last `make_series` sums
    the groups.  So a call makes one `make_series` per log group plus one,
    whatever the number of terms of g; a single group whose frontier g's
    scaled frontier does not lower is already that sum and is returned as
    it stands.  Each coefficient is summed in the order of the term-by-term
    sum (running sum + next piece), so float bits match it; the keys below
    the frontier and the frontier match it too unless a partial sum cancels
    to exact zero.  When g and f live on different grids, f is embedded into
    the merged grid and gets a fresh Composer.
    """
    right = f.f if isinstance(f, Composer) else f
    g, embedded = _common(g, right)
    ctx = f if isinstance(f, Composer) and embedded is right else Composer(embedded)
    grid, mode = g.grid, g.mode
    alpha, lam = ctx.alpha, ctx.lam
    if g.is_zero():
        return make_series({}, grid, mode, [front_zscale(g.frontier, alpha)])

    no_logs = (0,) * grid.depth
    groups: dict[tuple, tuple[dict, list]] = {}
    for key, c in g.terms.items():
        delta = key.z
        coeff = c * (c_pow_rational(lam, delta) if delta != 0 else c_one(mode))
        shift = Key(alpha * delta, no_logs)
        body = ctx.body(delta)
        raw, fronts = groups.setdefault(key.l, ({}, []))
        fronts.append(body.frontier + shift)
        for k, b in body.terms.items():
            k += shift
            piece = b * coeff
            raw[k] = raw[k] + piece if k in raw else piece

    acc, fronts = {}, [front_zscale(g.frontier, alpha)]
    for lvec, (raw, group_fronts) in groups.items():
        group = make_series(raw, grid, mode, group_fronts)
        prod = ctx.image_product(lvec)
        if prod is not None:
            group = mul(group, prod)
        if len(groups) == 1 and not fronts[0] < group.frontier:
            return group  # already canonical, and g's frontier does not lower it
        fronts.append(group.frontier)
        for k, c in group.terms.items():
            acc[k] = acc[k] + c if k in acc else c
    return make_series(acc, grid, mode, fronts)


# -- the lex-triangular solve, inversion and reduction ---------------------------


def solve_linear(right: Composer, a, b, rhs: TransSeries) -> TransSeries:
    """X with a X + b (X o f) = rhs below the frontier; a, b rational, f = right.f.

    A monomial n maps to a n + b (n o f), whose least key, the pivot t, is n
    when a != 0 and (alpha z, l) when a = 0; its coefficient a + b (n o f)[t]
    is read off the image n o f.  So the least key t of the residual
    rhs - a X - b (X o f) fixes x_n.  The frontier is the least of rhs's and
    each image's (rechecked after each image), or the first residual key past
    `block_cap` solved terms in one z-block, mapped back by z -> z / alpha
    when a = 0.

    The residual's keys sit in a heap, pushed when they enter the residual
    and popped only as the pivot, the one place they leave it; so each pop is
    min(residual), and the pivots, frontier and float bits are those of a
    solve that scans the whole residual for its least key.
    """
    grid, mode = right.f.grid, right.f.mode
    a_c, b_c = c_from(a, mode), c_from(b, mode)
    residual, solved, per_block = dict(rhs.terms), {}, Counter()
    heap = sorted(residual)  # sorted, so a heap
    frontier = rhs.frontier
    while heap:
        t = heapq.heappop(heap)
        if not t < frontier:
            break
        if per_block[t.zs] == grid.block_cap:
            frontier = t
            break
        r_t = residual.pop(t)
        if not r_t:
            continue
        n = t if a else Key.from_zs(t.zs / right.alpha, t.l)
        image = compose(monomial(n, grid, mode), right)
        frontier = min(frontier, image.frontier)
        if not t < frontier:
            break
        c_t = image.terms.get(t)
        pivot = a_c if c_t is None else a_c + b_c * c_t
        x = solved[n] = r_t * (1 / pivot)
        per_block[t.zs] += 1
        for k, c in image.terms.items():
            if k != t:
                contrib = x * c * -b
                if k in residual:
                    residual[k] += contrib
                else:
                    residual[k] = contrib
                    heapq.heappush(heap, k)
    return make_series(solved, grid, mode, [frontier if a else front_zscale(frontier, 1 / right.alpha)])


def invert(f: TransSeries) -> TransSeries:
    """Compositional inverse g of f: `solve_linear` of the equation g o f = z."""
    return solve_linear(Composer(f), 0, 1, identity_series(f.grid, f.mode))


def reduce_lambda(f: TransSeries):
    """psi = lambda^(1/(alpha-1)) z; returns (psi, psi o f o psi^(-1)) with lead z^alpha.

    psi = c z has the exact inverse z / c.  The lead c lambda c^(-alpha) is 1
    by the choice of c, so it is stored as exactly 1, also in float mode.
    """
    shape = shape_of(f)
    if shape.classification != STRONGLY_HYPERBOLIC:
        raise ShapeError("lambda-reduction applies to strongly hyperbolic series")
    alpha, lam = shape.alpha, f.terms[min(f.terms)]
    grid, mode = f.grid, f.mode
    if lam == c_one(mode):
        return identity_series(grid, mode), f
    c = c_pow_rational(lam, 1 / (alpha - 1))
    z1 = Key(1, (0,) * grid.depth)
    psi = monomial(z1, grid, mode, c)
    red = compose(psi, compose(f, monomial(z1, grid, mode, 1 / c)))
    terms = {**red.terms, Key(alpha, z1.l): c_one(mode)}
    return psi, make_series(terms, grid, mode, [red.frontier])


def reduce_alpha(f: TransSeries) -> TransSeries:
    """For 0 < alpha < 1 return f^(-1), whose leading exponent is 1/alpha > 1."""
    shape = shape_of(f)
    if not shape.classification == STRONGLY_HYPERBOLIC or not shape.alpha < 1:
        raise ShapeError("alpha-reduction applies to strongly hyperbolic alpha < 1")
    return invert(f)
