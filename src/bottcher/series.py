"""Truncated logarithmic transseries with exactness frontiers.

A series is a finite ordered map from exponent keys to coefficients, plus a
truncation grid and an *exact frontier*: every stored coefficient is exact;
nothing at or above the frontier is stored.  `make_series` alone decides
this, so no consumer filters a series' terms again.  The grid has three
caps: the z-order cap z_cap, the per-z-block term count block_cap and the
log depth; no cap counts powers.  Each operation recomputes the output
frontier conservatively: the min of the operand frontiers shifted by the other
operand's minimal key, the first key lost to truncation, and the
grid-implied frontier (z_cap, 0).  Keys are exact in both modes, with each
z-exponent and z_cap in `keys`' canonical form (an int when integral, else a
`Fraction`): float mode differs from exact mode in its coefficients alone.
A key is the tuple (zs, l) of its scaled z-exponent zs (an int for every
denominator dividing `keys.Z`) and its log exponents, and a cut the tuple
(zs,), so keys and frontiers compare and hash as tuples.  The kernel's loops
(`make_series`, `mul`, `compose.solve_linear`) group, add and compare keys on
zs and build keys with `Key.from_zs`, never through the rational `.z`, which
is derived anew on each read.

Supports may contain keys <= 0 (the ambient algebra allows constants,
negative log exponents and negative powers); shape preconditions of the
normalization pipeline are checked where they are needed, not here.

This is the one truncated-series kernel of the package.  The pure-logarithm
blocks B_m are the series of z-order 0 (every key is Key(0, l); `block_cap`
caps their terms), and the Dulac ladders of `dulac` are depth-1 series with
keys Key(beta, (-degree,)).

`mul` forms only what `make_series` can keep: it stops pairing z-blocks at
the frontier its candidates already fix (no z-sum past the frontier's z, nor
at it when the frontier is a `Cut`), and in each output z-block it forms
only the coefficients up to its block_cap + 1-th nonzero key, in ascending
key order (the last one sets the frontier).  Each coefficient it forms is
summed in the order of the product over all pairs, so float coefficients
are bit-identical to that product's.

Every power sum (`log1p`, `exp_minus_one`, the binomial bodies of
`pow_rational` and `compose`, the geometric sums of the log images) is one
`power_sum`: a first-order linear recurrence solved in one pass, in
ascending key order, logs included, with no product of powers of v.  Its
keys are integer vectors and its weights integer quotients, so its inner
loop does no rational arithmetic besides the coefficients' own.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from collections import Counter
from dataclasses import InitVar, dataclass
from fractions import Fraction

from .coeffs import (
    EXACT,
    c_from,
    c_one,
    c_pow_rational,
    c_significant,
    c_zero,
    dust_rule,
    join_modes,
    ratio_scaler,
)
from .errors import DepthOverflowError, EmptySeriesError, ShapeError
from .keys import Z, Cut, Key, as_zexp, zero_key
from .printer import format_series


@dataclass(frozen=True)
class TruncationGrid:
    """Caps for stored data: z-order frontier, per-block term count, depth."""

    z_cap: int | Fraction
    block_cap: int = 10
    depth: int = 1
    # a retired cap that bounded nothing: accepted, neither stored nor compared,
    # because bench/workloads.py still passes it
    ell_stop: InitVar[object] = None

    def __post_init__(self, _):
        object.__setattr__(self, "z_cap", as_zexp(self.z_cap))
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
    )


class TransSeries:
    """Immutable-by-convention truncated log-transseries: every stored key is below `frontier`."""

    __slots__ = ("mode", "grid", "terms", "frontier")

    def __init__(self, mode, grid, terms, frontier):
        self.mode = mode
        self.grid = grid
        self.terms = terms
        self.frontier = frontier

    @property
    def depth(self) -> int:
        return self.grid.depth

    # -- inspection ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def coeff(self, key: Key):
        if key.depth > self.depth:
            if any(n != 0 for n in key.l[self.depth :]):
                return c_zero(self.mode)
            key = Key.from_zs(key.zs, key.l[: self.depth])
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
    """Pad keys, prune zeros, settle the frontier, then store only the keys below it."""
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
            merged[key] += c
        else:
            merged[key] = c

    frontier = min([grid.trunc_key(), *frontier_candidates])

    # a z-block past the candidates' frontier z is dropped whole: its
    # overflow key could not lower the frontier
    fzs, cap = frontier.zs, grid.block_cap
    by_block: dict[object, list[Key]] = {}
    for key, c in merged.items():
        if c and key.zs <= fzs:
            by_block.setdefault(key.zs, []).append(key)
    for keys in by_block.values():
        keys.sort()
        if len(keys) > cap:
            frontier = min(frontier, keys[cap])
    below = frontier.__gt__
    stored = {k: merged[k] for keys in by_block.values() for k in itertools.takewhile(below, keys)}
    return TransSeries(mode, grid, stored, frontier)


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
    if a.grid == b.grid and a.mode == b.mode:
        return a, b
    grid = merge_grids(a.grid, b.grid)
    mode = join_modes(a.mode, b.mode)
    return embed(a, grid, mode), embed(b, grid, mode)


# -- order, support, leading data -------------------------------------------


def ord_z(f: TransSeries):
    if not f.terms:
        return None
    return min(f.terms).z


def leading_term(f: TransSeries):
    if not f.terms:
        raise EmptySeriesError("leading term of the zero series")
    k = min(f.terms)
    return k, f.terms[k]


def ord_for_frontier(f: TransSeries) -> Key:
    """A sound lower bound for the order of the (untruncated) series."""
    return min(f.terms, default=f.frontier)


# -- ring operations ---------------------------------------------------------


def add(a: TransSeries, b: TransSeries) -> TransSeries:
    a, b = _common(a, b)
    terms = dict(a.terms)
    for k, c in b.terms.items():
        if k in terms:
            terms[k] += c
        else:
            terms[k] = c
    return make_series(terms, a.grid, a.mode, [a.frontier, b.frontier])


def negate(a: TransSeries) -> TransSeries:
    return TransSeries(a.mode, a.grid, {k: -c for k, c in a.terms.items()}, a.frontier)


def sub(a: TransSeries, b: TransSeries) -> TransSeries:
    return add(a, negate(b))


def scale(a: TransSeries, q) -> TransSeries:
    """Multiply by a rational scalar (exactness-preserving)."""
    if q == 0:
        return make_series({}, a.grid, a.mode, [a.frontier])
    return TransSeries(a.mode, a.grid, {k: c * q for k, c in a.terms.items()}, a.frontier)


def mul(a: TransSeries, b: TransSeries) -> TransSeries:
    a, b = _common(a, b)
    cands = [a.frontier + ord_for_frontier(b), b.frontier + ord_for_frontier(a)]
    # past(zs, fzs): the whole scaled z-block lies at or above the frontier
    frontier = min(a.grid.trunc_key(), *cands)
    fzs, past = frontier.zs, frontier.block_past
    ab: dict = {}
    for k, c in a.terms.items():
        ab.setdefault(k.zs, []).append((k.l, c))
    bb: dict = {}
    for k, c in b.terms.items():
        bb.setdefault(k.zs, []).append((k.l, c))
    # The right z-blocks are scanned in ascending z, so the scan stops at the
    # first za + zb past the frontier (the sum rises with zb, also for z <= 0)
    # instead of paying an add and compare for every dropped pair.
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
            if past(z, fzs):
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
    # (first product, then adding each later one), as by the all-pairs
    # loop, so float coefficients stay bit-identical.
    cap, key_at = a.grid.block_cap, Key.from_zs
    terms = {}
    for z, blk in out.items():
        n = 0
        for l in sorted(blk):
            pairs = blk[l]
            c = pairs[0] * pairs[1]
            for j in range(2, len(pairs), 2):
                c += pairs[j] * pairs[j + 1]
            if not c:
                continue
            terms[key_at(z, l)] = c
            n += 1
            if n > cap:
                break
    return make_series(terms, a.grid, a.mode, cands)


def mul_monomial(a: TransSeries, key: Key, coeff=None) -> TransSeries:
    """Multiply by a single exact monomial; frontier shifts by the key."""
    key = key.pad(a.depth)
    terms = {}
    for k, c in a.terms.items():
        terms[k + key] = c if coeff is None else c * coeff
    return make_series(terms, a.grid, a.mode, [a.frontier + key])


def residual_keys(r: TransSeries) -> list[Key]:
    """Keys where r is nonzero, float dust aside (`coeffs.c_significant`)."""
    return [k for k, c in r.terms.items() if c_significant(c, r.mode)]


# -- multiplicative structure -------------------------------------------------


def split_leading(f: TransSeries):
    """f = c * monomial(key) * (1 + v) with ord(v) > 0; returns (key, c, v)."""
    key, c = leading_term(f)
    rest = {k - key: cc for k, cc in f.terms.items() if k != key}
    shifted_front = f.frontier + (-key)
    cinv = 1 / c
    v = make_series({k: cc * cinv for k, cc in rest.items()}, f.grid, f.mode, [shifted_front])
    return key, c, v


def power_sum(v: TransSeries, s, a, b, base_z=0, one=False) -> TransSeries:
    """F with F(0) = 0 and (1 + s v) E F = E v (a F + b), plus 1 when `one`.

    E m = lambda(m) m for an additive weight lambda positive on supp(v),
    which needs ord(v) > 0.  (s, a, b) = (1, beta, beta) gives
    (1 + v)^beta - 1, (0, 1, 1) exp(v) - 1, (1, 0, 1) log(1 + v) and
    (-1, 1, 1) v / (1 - v), by J. C. P. Miller's recurrence (Knuth, TAOCP 2,
    4.7) with lambda for the exponent; s and a are rational:

        F_N = b v_N + Sigma_k ((a + s) lambda(k) / lambda(N) - s) v_k F_(N-k).

    A key is the int vector x = (q z, l1, ..., lk), q the lcm of v's
    z-denominators, and lambda(x) = x0 M^k + ... + xk with M the least power
    of two making lambda > 0 on supp(v), hence on every sum of its keys
    (log-free v: lambda = x0).  The weights are integer quotients: with
    a + s = An/Ad and s = Sn/Sd, the weight of (k, N) is
    (An Sd lambda(k) - Sn Ad lambda(N)) / (Ad Sd lambda(N)), handed as that
    int pair to `coeffs.ratio_scaler`; a pair whose numerator is 0 adds
    nothing.  Keys come off a heap in ascending order; only the sums a
    nonzero F_(N-k) reaches are visited.  An F_N that `coeffs.dust_rule`
    calls rounding dust (float mode only) is 0.

    The frontier is the least of Cut(z_cap - max(base_z, 0)), v's frontier
    when b != 0, and the first nonzero key past block_cap stored keys in its
    z-block; nothing is stored at or above it.  `compose` shifts a body by
    z^base_z, which moves Cut(z_cap - base_z) onto Cut(z_cap).
    """
    grid, mode = v.grid, v.mode
    n0 = ord_for_frontier(v)
    if not n0.is_positive():
        raise ShapeError(f"power sum needs ord(v) > 0, got {n0!r}")
    limit = grid.z_cap - max(base_z, 0)
    frontier = min(Cut(limit), v.frontier) if b else Cut(limit)
    gens = sorted(k for k in v.terms if k < frontier)
    zg = [k.z for k in gens]
    q = math.lcm(*(z.denominator for z in zg))
    vs = [((z * q).numerator,) + k.l for z, k in zip(zg, gens)]
    m = 1
    while not all(_weight(x, m) > 0 for x in vs):
        m *= 2
    # the weight of (k, N) is div(A lambda(k) - S lambda(N), den lambda(N))
    ra, rs = Fraction(a + s), Fraction(s)
    A, S = ra.numerator * rs.denominator, rs.numerator * ra.denominator
    den = ra.denominator * rs.denominator
    times, dust = ratio_scaler(mode), dust_rule(mode)
    v_at = {x: (v.terms[k], A * _weight(x, m)) for x, k in zip(vs, gens)}
    # every pushed key lies below the frontier; z grows with k, as vs is sorted.
    # A frontier z off the 1/q grid equals no key's, so its ceiling alone
    # places it, and the compares stay on ints.
    fq = frontier.z * q
    if fq.denominator == 1:
        fpos = (int(fq),) + getattr(frontier, "l", ())
    else:
        fpos = (math.ceil(fq),)
    zq = Z // q if Z % q == 0 else Fraction(Z, q)  # the scaled z of 1/q
    terms = {zero_key(grid.depth): c_one(mode)} if one and limit > 0 else {}
    per_block = Counter({0: len(terms)})
    sol: dict[tuple, object] = {}
    heap = vs[:]  # sorted, so a heap
    last = None
    while heap:
        n = heapq.heappop(heap)
        if n == last:
            continue
        last = n
        parts = [v_at[n][0] * b] if n in v_at and b else []
        ln = _weight(n, m)
        s_ln, den_ln = S * ln, den * ln
        for k in vs:
            if k >= n:
                break
            fm = sol.get(tuple(map(operator.sub, n, k)))
            if fm is None:
                continue
            vk, a_lk = v_at[k]
            num = a_lk - s_ln
            if num:
                parts.append(times(vk * fm, num, den_ln))
        acc = functools.reduce(operator.add, parts) if parts else c_zero(mode)
        if not acc or dust and dust(acc, parts):
            continue
        n0 = n[0]
        key = Key.from_zs(n0 * zq, n[1:])
        if per_block[n0] == grid.block_cap:
            frontier = key
            break
        per_block[n0] += 1
        terms[key] = sol[n] = acc
        for k in vs:
            nk = tuple(map(operator.add, n, k))
            if nk < fpos:
                heapq.heappush(heap, nk)
            elif nk[0] > fpos[0]:
                break
    return TransSeries(mode, grid, terms, frontier)


def _weight(x, m):
    """lambda(x) = x0 m^k + x1 m^(k-1) + ... + xk."""
    out = 0
    for xi in x:
        out = out * m + xi
    return out


def binomial_body(v: TransSeries, beta, base_z=0) -> TransSeries:
    """Sigma_i binom(beta, i) v^i = (1 + v)^beta, ord(v) > 0; see `power_sum`."""
    return power_sum(v, 1, beta, beta, base_z, one=True)


def log1p(v: TransSeries) -> TransSeries:
    """log(1 + v) = Sigma (-1)^(i+1) v^i / i, ord(v) > 0."""
    return power_sum(v, 1, 0, 1)


def exp_minus_one(v: TransSeries) -> TransSeries:
    """exp(v) - 1 for ord(v) > 0."""
    return power_sum(v, 0, 1, 1)


def pow_rational(f: TransSeries, beta) -> TransSeries:
    """f^beta via the binomial series around the leading monomial.

    beta is made exact by `keys.as_zexp` (a float beta too, in either mode),
    an int when integral.  Fractional beta needs a log-free leading monomial, else the
    result would have fractional log exponents.
    """
    beta = as_zexp(beta)
    if f.is_zero():
        if beta == 0:
            return monomial(zero_key(f.grid.depth), f.grid, f.mode)
        if beta > 0 and f.frontier.z > 0:
            # every term of f^beta lies at z >= beta * (f's frontier z)
            return make_series({}, f.grid, f.mode, [Cut(beta * f.frontier.z)])
        raise EmptySeriesError("power of the zero series")
    key, c, v = split_leading(f)
    if beta.denominator == 1:
        mkey = key.scale(int(beta))
    else:
        if any(n != 0 for n in key.l):
            raise ShapeError(
                "fractional power of a series with logarithms in its leading term"
            )
        mkey = Key.from_zs(key.zs * beta, key.l)
    cpow = c_pow_rational(c, beta)
    return mul_monomial(binomial_body(v, beta), mkey, cpow)


def series_inverse(f: TransSeries) -> TransSeries:
    return pow_rational(f, Fraction(-1))
