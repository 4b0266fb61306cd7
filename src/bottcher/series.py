"""Truncated logarithmic transseries with exactness frontiers.

A series is a finite ordered map from exponent keys to coefficients, plus a
truncation grid and an *exact frontier*: every stored coefficient whose key
is lex-below the frontier is guaranteed exact.  Each operation recomputes the
output frontier conservatively: the min of the operand frontiers shifted by
the other operand's minimal key, the first key lost to truncation, and the
grid-implied frontier (z_cap, 0).

Supports may contain keys <= 0 (the ambient algebra allows constants,
negative log exponents and negative powers); shape preconditions of the
normalization pipeline are checked where they are needed, not here.

This is the one truncated-series kernel of the package.  The pure-logarithm
blocks B_m are the series of z-order 0 (every key is Key(0, l); `block_cap`
caps their terms and `ell_stop` their power sums), and the Dulac ladders of
`dulac` are depth-1 series with keys Key(beta, (-degree,)).

`mul` forms only what `make_series` keeps: no pair of z-blocks whose z-sum
reaches z_cap, and in each output z-block only the coefficients up to its
block_cap + 1-th nonzero key, in ascending key order (the last one sets the
frontier).  Each coefficient it forms is summed in the order of the product
over all pairs, so float coefficients are bit-identical to that product's.

Power sums Sigma_i c_i v^i take one of two routes.  For a log-free v with
rational z-exponents and ord_z(v) > 0, `log1p`, `exp_minus_one` and the
binomial bodies of `pow_rational` and `compose` solve a first-order linear
recurrence in one pass (`_theta_solve`), over the integer numerators of the
exponents.  Every other power sum goes through `sum_powers`, one product per
power of v: on pure-log keys the recurrence has a zero diagonal, and with
logs the `block_cap` truncations of the powers set the frontier.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import (
    EXACT,
    FLOAT,
    FLOAT_TOL,
    binomial,
    c_add,
    c_from,
    c_inv,
    c_is_zero,
    c_mul,
    c_neg,
    c_one,
    c_pow_rational,
    c_scale,
    c_zero,
)
from .errors import DepthOverflowError, EmptySeriesError, ShapeError
from .keys import Cut, Key, min_key, zero_key
from .printer import format_series


@dataclass(frozen=True)
class TruncationGrid:
    """Caps for stored data: z-order frontier, per-block term count, depth.

    `ell_stop` bounds the number of summed powers in pure-log geometric
    expansions (their tail is recorded in the frontier, never trusted).
    """

    z_cap: Fraction
    block_cap: int = 10
    depth: int = 1
    ell_stop: int = 16

    def __post_init__(self):
        object.__setattr__(self, "z_cap", Fraction(self.z_cap))
        if self.z_cap <= 0 or self.block_cap <= 0 or self.depth < 0:
            raise ValueError("truncation caps must be positive")

    def trunc_key(self) -> Cut:
        """The grid-implied frontier: the lex-infimum below everything dropped."""
        return Cut(self.z_cap)


def merge_grids(a: TruncationGrid, b: TruncationGrid) -> TruncationGrid:
    depth = max(a.depth, b.depth)
    return TruncationGrid(
        z_cap=min(a.z_cap, b.z_cap),
        block_cap=min(a.block_cap, b.block_cap),
        depth=depth,
        ell_stop=min(a.ell_stop, b.ell_stop),
    )


class TransSeries:
    """Immutable-by-convention truncated logarithmic transseries."""

    __slots__ = ("depth", "mode", "grid", "terms", "frontier")

    def __init__(self, depth, mode, grid, terms, frontier):
        self.depth = depth
        self.mode = mode
        self.grid = grid
        self.terms = terms
        self.frontier = frontier

    # -- inspection ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def coeff(self, key: Key):
        if key.depth > self.depth:
            if any(n != 0 for n in key.l[self.depth :]):
                return c_zero(self.mode)
            key = Key(key.z, key.l[: self.depth])
        return self.terms.get(key.pad(self.depth), c_zero(self.mode))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TransSeries)
            and self.depth == other.depth
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __repr__(self):
        return f"<TransSeries {format_series(self)}>"

    # -- convenience operators ----------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return negate(self)


def make_series(terms, grid: TruncationGrid, mode=EXACT, frontier_candidates=()):
    """Canonicalize: pad keys, prune zeros, apply caps, settle the frontier."""
    depth = grid.depth
    merged: dict[Key, object] = {}
    for key, c in terms.items() if isinstance(terms, dict) else terms:
        if key.depth > depth:
            raise DepthOverflowError(
                f"key of depth {key.depth} exceeds configured depth {depth}"
            )
        key = key.pad(depth)
        c = c_from(c, mode)
        if key in merged:
            merged[key] = c_add(merged[key], c)
        else:
            merged[key] = c

    frontier = grid.trunc_key()
    for cand in frontier_candidates:
        frontier = min_key(frontier, cand)

    by_block: dict[object, list[Key]] = {}
    for key, c in merged.items():
        if c_is_zero(c):
            continue
        if key.z >= grid.z_cap:
            continue
        by_block.setdefault(key.z, []).append(key)

    stored: dict[Key, object] = {}
    for _, keys in by_block.items():
        keys.sort()
        for key in keys[: grid.block_cap]:
            stored[key] = merged[key]
        if len(keys) > grid.block_cap:
            frontier = min_key(frontier, keys[grid.block_cap])

    return TransSeries(depth, mode, grid, stored, frontier)


def zero_series(grid: TruncationGrid, mode=EXACT) -> TransSeries:
    return make_series({}, grid, mode)


def monomial(key: Key, grid: TruncationGrid, mode=EXACT, coeff=1) -> TransSeries:
    return make_series({key.pad(grid.depth): c_from(coeff, mode)}, grid, mode)


def identity_series(grid: TruncationGrid, mode=EXACT) -> TransSeries:
    return monomial(Key(1, (0,) * grid.depth), grid, mode)


def embed(f: TransSeries, grid: TruncationGrid, mode=None) -> TransSeries:
    """Re-truncate f onto another grid (and optionally coerce the mode)."""
    mode = mode or f.mode
    terms = {k.pad(grid.depth): c_from(c, mode) for k, c in f.terms.items()}
    return make_series(terms, grid, mode, [f.frontier.pad(grid.depth)])


def _common(a: TransSeries, b: TransSeries):
    if a.depth == b.depth and a.grid == b.grid and a.mode == b.mode:
        return a, b
    grid = merge_grids(a.grid, b.grid)
    mode = FLOAT if FLOAT in (a.mode, b.mode) else EXACT
    return embed(a, grid, mode), embed(b, grid, mode)


# -- order, support, leading data -------------------------------------------


def ord_key(f: TransSeries) -> Key | None:
    """min Supp(f); None is the +infinity sentinel for the zero series."""
    if not f.terms:
        return None
    return min(f.terms)


def ord_z(f: TransSeries):
    if not f.terms:
        return None
    return min(k.z for k in f.terms)


def supp(f: TransSeries) -> list[Key]:
    return sorted(f.terms)


def leading_term(f: TransSeries):
    if not f.terms:
        raise EmptySeriesError("leading term of the zero series")
    k = min(f.terms)
    return k, f.terms[k]


def leading_block(f: TransSeries):
    """The full alpha-block at alpha = ord_z(f), as (alpha, z-order-0 series).

    The block keeps the part of f's frontier that falls inside it: Key(0, l)
    for a frontier Key(alpha, l), Cut(0) when no key of the block is trusted.
    """
    if not f.terms:
        raise EmptySeriesError("leading block of the zero series")
    alpha = ord_z(f)
    terms = {Key(0, k.l): c for k, c in f.terms.items() if k.z == alpha}
    fr = f.frontier
    if fr.z > alpha:
        cands = []
    elif fr.z == alpha and not isinstance(fr, Cut):
        cands = [Key(0, fr.l)]
    else:
        cands = [Cut(0)]
    return alpha, make_series(terms, f.grid, f.mode, cands)


def ord_for_frontier(f: TransSeries) -> Key:
    """A sound lower bound for the order of the (untruncated) series."""
    return min_key(ord_key(f), f.frontier)


# -- ring operations ---------------------------------------------------------


def add(a: TransSeries, b: TransSeries) -> TransSeries:
    a, b = _common(a, b)
    terms = dict(a.terms)
    for k, c in b.terms.items():
        if k in terms:
            terms[k] = c_add(terms[k], c)
        else:
            terms[k] = c
    return make_series(terms, a.grid, a.mode, [a.frontier, b.frontier])


def negate(a: TransSeries) -> TransSeries:
    return TransSeries(
        a.depth, a.mode, a.grid, {k: c_neg(c) for k, c in a.terms.items()}, a.frontier
    )


def sub(a: TransSeries, b: TransSeries) -> TransSeries:
    return add(a, negate(b))


def scale(a: TransSeries, q) -> TransSeries:
    """Multiply by a rational scalar (exactness-preserving)."""
    if q == 0:
        return make_series({}, a.grid, a.mode, [a.frontier])
    return TransSeries(
        a.depth, a.mode, a.grid, {k: c_scale(c, q) for k, c in a.terms.items()}, a.frontier
    )


def mul(a: TransSeries, b: TransSeries) -> TransSeries:
    a, b = _common(a, b)
    z_cap = a.grid.z_cap
    ab: dict = {}
    for k, c in a.terms.items():
        ab.setdefault(k.z, []).append((k.l, c))
    bb: dict = {}
    for k, c in b.terms.items():
        bb.setdefault(k.z, []).append((k.l, c))
    # The right z-blocks are scanned in ascending z, so the scan stops at the
    # first za + zb at or above z_cap (the sum rises with zb, also for z <= 0)
    # instead of paying a rational add and compare for every dropped pair.
    # The kept blocks are then paired in the right operand's insertion order,
    # and the left operand keeps its own.  For a fixed za each output z has
    # one zb, so the pairs of every (z, l) come in the order of the all-pairs
    # loop.  Sorting the left blocks too would reorder the float sums at (z, l).
    right = list(bb.items())
    by_z = sorted(range(len(right)), key=lambda i: right[i][0])
    out: dict = {}
    for za, la in ab.items():
        kept = []
        for i in by_z:
            z = za + right[i][0]
            if z >= z_cap:
                break
            kept.append((i, z))
        kept.sort()
        for i, z in kept:
            lb = right[i][1]
            blk = out.get(z)
            if blk is None:
                blk = out[z] = {}
            for l1, c1 in la:
                for l2, c2 in lb:
                    l = tuple(map(operator.add, l1, l2))
                    pairs = blk.get(l)
                    if pairs is None:
                        blk[l] = [c1, c2]
                    else:
                        pairs += (c1, c2)
    # Each z-block's pairs are grouped by their summed log tuple l, in the
    # loop order above.  `make_series` keeps the block_cap least nonzero keys
    # of a block and puts the frontier at the next one, so the sums are formed
    # in ascending l only until block_cap + 1 of them are nonzero; the keys
    # past that are never products.  Each sum is formed in the pairs' order
    # (first product, then c_add of each later one), as by the all-pairs
    # loop, so float coefficients stay bit-identical.
    cap = a.grid.block_cap
    terms = {}
    for z, blk in out.items():
        n = 0
        for l in sorted(blk):
            pairs = blk[l]
            c = c_mul(pairs[0], pairs[1])
            for j in range(2, len(pairs), 2):
                c = c_add(c, c_mul(pairs[j], pairs[j + 1]))
            if c_is_zero(c):
                continue
            terms[Key(z, l)] = c
            n += 1
            if n > cap:
                break
    cands = []
    oa, ob = ord_for_frontier(a), ord_for_frontier(b)
    cands.append(a.frontier + ob)
    cands.append(b.frontier + oa)
    return make_series(terms, a.grid, a.mode, cands)


def mul_monomial(a: TransSeries, key: Key, coeff=None) -> TransSeries:
    """Multiply by a single exact monomial; frontier shifts by the key."""
    key = key.pad(a.depth)
    terms = {}
    for k, c in a.terms.items():
        terms[k + key] = c if coeff is None else c_mul(c, coeff)
    return make_series(terms, a.grid, a.mode, [a.frontier + key])


def agree_below_frontier(a: TransSeries, b: TransSeries) -> bool:
    a, b = _common(a, b)
    diff = sub(a, b)
    return diff.is_zero() or min(diff.terms) >= diff.frontier


def residual_keys(r: TransSeries) -> list[Key]:
    """Keys below the frontier where r is nonzero (float mode: |c| > FLOAT_TOL)."""
    if r.mode == FLOAT:
        return [k for k, c in r.terms.items() if k < r.frontier and abs(c) > FLOAT_TOL]
    return [k for k in r.terms if k < r.frontier]


# -- multiplicative structure -------------------------------------------------


def split_leading(f: TransSeries):
    """f = c * monomial(key) * (1 + v) with ord(v) > 0; returns (key, c, v)."""
    key, c = leading_term(f)
    rest = {k - key: cc for k, cc in f.terms.items() if k != key}
    shifted_front = f.frontier + (-key)
    cinv = c_inv(c)
    v = make_series(
        {k: c_mul(cc, cinv) for k, cc in rest.items()}, f.grid, f.mode, [shifted_front]
    )
    return key, c, v


def sum_powers(v: TransSeries, coeff_of, base_z=0, pows=None):
    """Sigma_{i>=0} coeff_of(i) * v^i on v's grid, with the certified stop.

    Requires ord(v) > 0 (lex).  `base_z` is the z-order of the factor the sum
    will be multiplied by.  When the order of v has a z-component the sum
    stops once base_z + i ord_z(v) reaches z_cap; for pure-log v it stops
    after ell_stop powers.  The first untrusted key of the cut-off tail is
    recorded in the frontier.  `pows` is a caller's list [1, v, v^2, ...],
    extended only when a nonzero coefficient needs the next power.

    `log1p`, `exp_minus_one` and the binomial bodies of `pow_rational` and
    `compose` come here only for a v with logarithms or float z-exponents;
    a log-free v with rational exponents and ord_z(v) > 0 takes the one-pass
    recurrence `_theta_solve`.  With logs the recurrence does not apply: on
    a pure-log key theta = z d/dz is 0, so its diagonal vanishes, and the
    `block_cap` truncations of the intermediate powers v^i set the frontier.
    """
    grid, mode = v.grid, v.mode
    n0 = ord_for_frontier(v)
    if not n0.is_positive():
        raise ShapeError(f"power sum needs ord(v) > 0, got {n0!r}")
    if pows is None:
        pows = [monomial(zero_key(grid.depth), grid, mode)]
    acc = zero_series(grid, mode)
    i = 0
    while (base_z + i * n0.z < grid.z_cap) if n0.z > 0 else (i <= grid.ell_stop):
        q = coeff_of(i)
        if q != 0:
            while len(pows) <= i:
                pows.append(mul(pows[-1], v))
            acc = add(acc, scale(pows[i], q))
        i += 1
    return make_series(acc.terms, grid, mode, [acc.frontier, n0.scale(i)])


def _recurrent(v: TransSeries, base_z=0) -> bool:
    """Whether `_theta_solve` applies: v log-free, exponents rational, ord_z(v) > 0."""
    n0 = ord_for_frontier(v)
    return (
        type(n0.z) is Fraction
        and n0.z > 0
        and isinstance(base_z, (int, Fraction))
        and all(type(k.z) is Fraction and not any(k.l) for k in v.terms)
    )


def _theta_solve(v: TransSeries, s, a, b, base_z=0, one=False) -> TransSeries:
    """F with F(0) = 0 and (1 + s v) theta F = theta v (a F + b), theta = z d/dz.

    (s, a, b) = (1, beta, beta) gives (1 + v)^beta - 1, (0, 1, 1) exp(v) - 1
    and (1, 0, 1) log(1 + v), for a v that `_recurrent` accepts (J. C. P.
    Miller's recurrence, Knuth TAOCP 2, 4.7).  The coefficient at N is

        F_N = b v_N + Sigma_k ((a + s) k / N - s) v_k F_(N-k),

    solved in ascending N over the integer numerators of the z-exponents
    over their common denominator q; only the sums of exponents of v that a
    nonzero F_(N-k) reaches are visited.  The diagonal N is never 0.

    Stores every key z < z_cap - max(base_z, 0), plus the constant 1 when
    `one`.  For base_z <= 0 these are the terms `sum_powers` stores, and the
    frontier is the one it gives: Cut(z_cap), and v's frontier when b != 0
    (v^1 enters), since its stopped tail lies above Cut(z_cap).  A body that
    `compose` multiplies by z^base_z, base_z > 0, stops at Cut(z_cap -
    base_z), which the shift moves onto the grid's Cut(z_cap), so the product
    is the one `sum_powers` gives too.
    """
    grid, mode = v.grid, v.mode
    limit = grid.z_cap - max(base_z, 0)
    q = math.lcm(*(k.z.denominator for k in v.terms))
    top = limit * q
    v_at = {k.z.numerator * (q // k.z.denominator): c for k, c in v.terms.items()}
    vs = sorted((n, c) for n, c in v_at.items() if n < top)  # the n are distinct
    heap = [n for n, _ in vs]  # ascending, so already a heap
    sol: dict[int, object] = {}
    last = None
    while heap:
        n = heapq.heappop(heap)
        if n == last:
            continue
        last = n
        c = v_at.get(n)
        acc = c_scale(c, b) if c is not None and b else None
        for k, vk in vs:
            if k >= n:
                break
            fm = sol.get(n - k)
            if fm is None:
                continue
            w = ((a + s) * k - s * n) / Fraction(n)
            if w:
                t = c_scale(c_mul(vk, fm), w)
                acc = t if acc is None else c_add(acc, t)
        if acc is None or c_is_zero(acc):
            continue
        sol[n] = acc
        for k, _ in vs:
            if n + k >= top:
                break
            heapq.heappush(heap, n + k)
    zl = (0,) * grid.depth
    terms = {Key(0, zl): c_one(mode)} if one and limit > 0 else {}
    for n, c in sol.items():
        terms[Key(Fraction(n, q), zl)] = c
    frontier = Cut(limit)
    if b:
        frontier = min_key(frontier, v.frontier)
    return TransSeries(grid.depth, mode, grid, terms, frontier)


def binomial_body(v: TransSeries, beta, base_z=0, pows=None) -> TransSeries:
    """Sigma_i binom(beta, i) v^i = (1 + v)^beta, ord(v) > 0; see `sum_powers`."""
    if _recurrent(v, base_z):
        return _theta_solve(v, 1, beta, beta, base_z, one=True)
    return sum_powers(v, lambda i: binomial(beta, i), base_z, pows)


def log1p(v: TransSeries) -> TransSeries:
    """log(1 + v) = Sigma (-1)^(i+1) v^i / i, ord(v) > 0."""
    if _recurrent(v):
        return _theta_solve(v, 1, 0, 1)
    return sum_powers(v, lambda i: Fraction((-1) ** (i + 1), i) if i else Fraction(0))


def exp_minus_one(v: TransSeries) -> TransSeries:
    """exp(v) - 1 for ord(v) > 0."""
    if _recurrent(v):
        return _theta_solve(v, 0, 1, 1)
    fact = [Fraction(1)]

    def coeff(i):
        while len(fact) <= i:
            fact.append(fact[-1] / len(fact))
        return fact[i] if i else Fraction(0)

    return sum_powers(v, coeff)


def pow_rational(f: TransSeries, beta) -> TransSeries:
    """f^beta via the binomial series around the leading monomial.

    Fractional (or float-mode float) beta needs a log-free leading monomial,
    else the result would have fractional log exponents.
    """
    beta = Fraction(beta) if not isinstance(beta, float) else beta
    if f.is_zero():
        if beta == 0:
            return monomial(zero_key(f.grid.depth), f.grid, f.mode)
        if beta > 0 and f.frontier.z > 0:
            # every term of f^beta lies at z >= beta * (f's frontier z)
            return make_series({}, f.grid, f.mode, [Cut(beta * f.frontier.z)])
        raise EmptySeriesError("power of the zero series")
    key, c, v = split_leading(f)
    integral = isinstance(beta, Fraction) and beta.denominator == 1
    if integral:
        mkey = key.scale(int(beta))
    else:
        if any(n != 0 for n in key.l):
            raise ShapeError(
                "fractional power of a series with logarithms in its leading term"
            )
        mkey = Key(key.z * beta, key.l)
    cpow = c_pow_rational(c, beta)
    return mul_monomial(binomial_body(v, beta), mkey, cpow)


def series_inverse(f: TransSeries) -> TransSeries:
    return pow_rational(f, Fraction(-1))
