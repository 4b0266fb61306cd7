"""Cross-check references, the paper's operators and diagnostics: what only
the tests use.

Unlike `oracles.py`, these are built on the package.  They check it against
itself by a different route, so they are not independent oracles:

* second routes for the kernel: the termwise derivative, a second inversion
  scheme that corrects a leading-monomial seed through f', conjugation
  through inversion, log z o f, the W-solve on the whole grid, the product
  over every pair of z-blocks and every key of a block, power sums power by
  power, `Exact` sums and products by the full complex formula, semigroup
  membership by nested searches (z-generators, then each log level), and
  the composition-support bound of the paper's support lemma;
* series helpers: the support, the leading z-block, agreement below the
  frontier, the canonical z-exponent check, the generalized binomial
  coefficient and l_m o f;
* the pure-logarithm blocks B_m: membership, the l_m-order, the metric d_m
  and the derivation D_m;
* the paper's operators, which `normalize.solve_W` replaces by one
  triangular solve: the T/S/K triple, the weak-iteration map of the
  prenormalization, the convergence mode of a Bottcher sequence, the
  l1-order metric and the binomial bound;
* metrics and diagnostics: the z-adic metric, coefficient trajectories, the
  e^(-1)-order of a Dulac series, the standard quadratic domain's boundary
  (the reference for `domains.sqd_im_extent`), the Koenigs step bound, real
  line invariance and the defect decay of a partial Dulac normalization.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from collections import Counter
from fractions import Fraction

from bottcher.coeffs import (
    EXACT,
    Exact,
    _asfrac,
    _mono_mul,
    c_from,
    c_one,
    c_pow_rational,
    c_zero,
    dust_rule,
    log_coeff,
)
from bottcher.compose import (
    Composer,
    compose,
    invert,
    is_parabolic,
    reduce_alpha,
    reduce_lambda,
    shape_of,
    solve_linear,
)
from bottcher.dulac import DulacSeriesZeta, _decay_report, numbers_like, zeta_function
from bottcher.errors import DepthOverflowError, DomainError, EmptySeriesError, ShapeError
from bottcher.keys import Cut, Key, ell_key, front_zscale, zero_key
from bottcher.koenigs import KoenigsResult
from bottcher.normalize import SemigroupSpec, _phi_of, normalize
from bottcher.series import (
    TransSeries,
    _common,
    _weight,
    add,
    identity_series,
    leading_term,
    log1p,
    make_series,
    monomial,
    mul,
    mul_monomial,
    negate,
    ord_for_frontier,
    ord_z,
    pow_rational,
    power_sum,
    residual_keys,
    scale,
    split_leading,
    sub,
)

def compose_log(f: TransSeries) -> TransSeries:
    """log z o f = log lambda + alpha log z + log(1 + u), with log z = -l1^(-1)."""
    shape = shape_of(f)
    if f.grid.depth < 1:
        raise DepthOverflowError("compose_log needs depth >= 1 for l1")
    _, lam, u = split_leading(f)
    out = scale(monomial(ell_key(f.grid.depth, 1, -1), f.grid, f.mode), -shape.alpha)
    logc = log_coeff(lam, f.mode)
    if logc:
        out = add(out, monomial(zero_key(f.grid.depth), f.grid, f.mode, logc))
    return add(out, log1p(u))


def d_dz(f: TransSeries) -> TransSeries:
    """Termwise d/dz with d l_m/dz = (1/z) l_1...l_{m-1} l_m^2."""
    depth = f.depth
    terms: dict[Key, object] = {}

    def bump(key, c):
        if key in terms:
            terms[key] += c
        else:
            terms[key] = c

    for k, c in f.terms.items():
        if k.z != 0:
            bump(Key(k.z - 1, k.l), c * k.z)
        for m in range(1, depth + 1):
            nm = k.l[m - 1]
            if nm == 0:
                continue
            shift = tuple(1 if j < m else 0 for j in range(depth))
            lk = tuple(k.l[j] + shift[j] for j in range(depth))
            bump(Key(k.z - 1, lk), c * nm)
    front = f.frontier + Key(-1, (0,) * depth)
    return make_series(terms, f.grid, f.mode, [front])


def _invert_seed(f: TransSeries) -> TransSeries:
    """The leading monomial lambda^(-1/alpha) z^(1/alpha) of f^(-1)."""
    shape = shape_of(f)
    alpha, lam = shape.alpha, f.terms[min(f.terms)]
    inv_alpha = 1 / alpha
    lam_pow = c_pow_rational(1 / lam, inv_alpha)
    return monomial(Key(inv_alpha, (0,) * f.grid.depth), f.grid, f.mode, lam_pow)


def invert_graded(f: TransSeries) -> TransSeries:
    """Cross-check inversion: kill residual terms one leading term at a time."""
    g = _invert_seed(f)
    ident = identity_series(f.grid, f.mode)
    fprime = d_dz(f)
    for _ in range(600):
        right = Composer(g)
        r = sub(compose(f, right), ident)
        bad = residual_keys(r)
        if not bad:
            return g
        den = compose(fprime, right)
        wk = min(bad)
        wc = r.terms[wk]
        dk, dc = leading_term(den)
        g = add(g, monomial(wk - dk, g.grid, g.mode, c_from(-1, g.mode) * (wc * (1 / dc))))
    raise ShapeError("graded inversion did not converge within the frontier")


def zero_series(grid, mode=EXACT) -> TransSeries:
    return make_series({}, grid, mode)


def compose_termwise(g: TransSeries, f: TransSeries | Composer) -> TransSeries:
    """g o f with a running sum rebuilt by `add` for every term of g.

    The reference for `compose`, which sums each log group of g into one dict
    and canonicalizes once: its terms and float bits below the frontier, and
    its frontier, must equal these unless a partial sum cancels to exact zero.
    """
    right = f.f if isinstance(f, Composer) else f
    g, embedded = _common(g, right)
    ctx = f if isinstance(f, Composer) and embedded is right else Composer(embedded)
    grid, mode = g.grid, g.mode
    alpha, lam = ctx.alpha, ctx.lam
    if g.is_zero():
        return make_series({}, grid, mode, [front_zscale(g.frontier, alpha)])

    groups: dict[tuple, TransSeries] = {}
    for key, c in g.terms.items():
        delta = key.z
        lam_pow = c_pow_rational(lam, delta) if delta != 0 else c_one(mode)
        piece = mul_monomial(
            ctx.body(delta), Key(alpha * delta, (0,) * grid.depth), c * lam_pow
        )
        if key.l in groups:
            groups[key.l] = add(groups[key.l], piece)
        else:
            groups[key.l] = piece

    acc = zero_series(grid, mode)
    for lvec, piece in groups.items():
        prod = ctx.image_product(lvec)
        acc = add(acc, piece if prod is None else mul(piece, prod))

    tail_penalty = front_zscale(g.frontier, alpha)
    return make_series(acc.terms, grid, mode, [acc.frontier, tail_penalty])


def conjugate(phi: TransSeries, f: TransSeries) -> TransSeries:
    """phi o f o phi^(-1); phi must be parabolic."""
    if not is_parabolic(phi):
        raise ShapeError("conjugating change of variables must be parabolic")
    shape_of(f)
    return compose(compose(phi, f), invert(phi))


def full_grid_normalize(f: TransSeries):
    """`normalize`'s reductions, then the W-solve on the whole grid of f.

    Returns (phi below its frontier, the Composer of the reduced series).
    The reference for `normalize`, which solves on the least grid W's
    frontier needs.
    """
    if shape_of(f).alpha < 1:
        f = reduce_alpha(f)
    _, f = reduce_lambda(f)
    right, alpha = Composer(f), Fraction(shape_of(f).alpha)
    phi = _phi_of(solve_linear(right, 1, -1 / alpha, scale(log1p(right.u), 1 / alpha)))
    trusted = {k: c for k, c in phi.terms.items() if k < phi.frontier}
    return make_series(trusted, phi.grid, phi.mode, [phi.frontier]), right


def mul_all_pairs(a: TransSeries, b: TransSeries) -> TransSeries:
    """a * b over every pair of z-blocks, each in its operand's insertion order.

    Every coefficient of every block is formed, and `make_series` then keeps
    the block_cap least nonzero keys of each block.  The reference for
    `series.mul`, which never forms the block pairs whose z-sum reaches z_cap
    and, in each block, forms only the sums up to its block_cap + 1-th
    nonzero key: its terms, in the same order, and its frontier must equal
    these exactly, in float mode too.
    """
    a, b = _common(a, b)
    ab: dict = {}
    for k, c in a.terms.items():
        ab.setdefault(k.z, []).append((k.l, c))
    bb: dict = {}
    for k, c in b.terms.items():
        bb.setdefault(k.z, []).append((k.l, c))
    out: dict = {}
    for za, la in ab.items():
        for zb, lb in bb.items():
            z = za + zb
            if z >= a.grid.z_cap:
                continue
            blk = out.setdefault(z, {})
            for l1, c1 in la:
                for l2, c2 in lb:
                    l = tuple(x + y for x, y in zip(l1, l2))
                    c = c1 * c2
                    blk[l] = blk[l] + c if l in blk else c
    terms = {Key(z, l): c for z, blk in out.items() for l, c in blk.items()}
    cands = [a.frontier + ord_for_frontier(b), b.frontier + ord_for_frontier(a)]
    return make_series(terms, a.grid, a.mode, cands)


def exact_mul_reference(a: Exact, b: Exact) -> Exact:
    """a * b by the full complex formula on every pair of parts.

    The reference for `Exact.__mul__`, which takes one Fraction product for
    a pair of real parts: its parts, in the same order, must equal these.
    """
    parts: dict = {}
    for k1, (x, y) in a.parts.items():
        for k2, (u, v) in b.parts.items():
            k = _mono_mul(k1, k2)
            re, im = parts.get(k, (Fraction(0), Fraction(0)))
            parts[k] = (re + x * u - y * v, im + x * v + y * u)
    return Exact(parts)


def exact_add_reference(a: Exact, b: Exact) -> Exact:
    """a + b adding both components of every shared part; see `exact_mul_reference`."""
    parts = dict(a.parts)
    for k, (re, im) in b.parts.items():
        cur = parts.get(k)
        parts[k] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    return Exact(parts)


def sum_powers(v: TransSeries, coeff_of, base_z=0, log_powers=16) -> TransSeries:
    """Sigma_{i>=0} coeff_of(i) * v^i, one `mul` per power of v, ord(v) > 0.

    The stop of the power-by-power sum: once base_z + i ord_z(v) reaches
    z_cap, or, for a pure-log v, after `log_powers` powers; the first key of
    the cut-off tail, ord(v) * i, enters the frontier.  `base_z` is the
    z-order of the factor the sum will be multiplied by.
    """
    grid, mode = v.grid, v.mode
    n0 = ord_for_frontier(v)
    if not n0.is_positive():
        raise ShapeError(f"power sum needs ord(v) > 0, got {n0!r}")
    power = monomial(zero_key(grid.depth), grid, mode)
    acc = zero_series(grid, mode)
    i = 0
    while (base_z + i * n0.z < grid.z_cap) if n0.z > 0 else (i <= log_powers):
        q = coeff_of(i)
        if q != 0:
            acc = add(acc, scale(power, q))
        power = mul(power, v)
        i += 1
    tail = Cut(n0.z * i) if isinstance(n0, Cut) else n0.scale(i)
    return make_series(acc.terms, grid, mode, [acc.frontier, tail])


def power_sum_by_powers(v: TransSeries, kind: str, beta=None, base_z=0,
                        log_powers=16) -> TransSeries:
    """log(1 + v), exp(v) - 1, Sigma_i binom(beta, i) v^i or 1 / (1 - v) by
    `sum_powers`, the reference for `series.power_sum`.

    `kind` is "log", "exp", "pow" or "geom"; `log_powers` is the pure-log
    power count of `sum_powers`.
    """
    coeff_of = {
        "log": lambda i: Fraction((-1) ** (i + 1), i) if i else Fraction(0),
        "exp": lambda i: Fraction(1, math.factorial(i)) if i else Fraction(0),
        "pow": lambda i: binomial(beta, i),
        "geom": lambda i: Fraction(1),
    }[kind]
    return sum_powers(v, coeff_of, base_z, log_powers)


def power_sum_rational_weights(v: TransSeries, s, a, b, base_z=0, one=False) -> TransSeries:
    """`series.power_sum` with each weight formed as a `Fraction`,
    ((a + s) lambda(k) - s lambda(N)) / lambda(N), as it was before its
    integer weights: the reference for their keys, frontier and float bits."""
    grid, mode = v.grid, v.mode
    n0 = ord_for_frontier(v)
    if not n0.is_positive():
        raise ShapeError(f"power sum needs ord(v) > 0, got {n0!r}")
    limit = grid.z_cap - max(base_z, 0)
    frontier = min(Cut(limit), v.frontier) if b else Cut(limit)
    gens = sorted(k for k in v.terms if k < frontier)
    q = math.lcm(*(k.z.denominator for k in gens))
    vs = [((k.z * q).numerator,) + k.l for k in gens]
    m = 1
    while not all(_weight(x, m) > 0 for x in vs):
        m *= 2
    v_at = {x: (v.terms[k], _weight(x, m)) for x, k in zip(vs, gens)}
    dust = dust_rule(mode)
    # every pushed key lies below the frontier; z grows with k, as vs is sorted
    fpos = (frontier.z * q,) + getattr(frontier, "l", ())
    terms = {zero_key(grid.depth): c_one(mode)} if one and limit > 0 else {}
    per_block = Counter({0: len(terms)})
    sol: dict[tuple, object] = {}
    heap = sorted(vs)
    last = None
    while heap:
        n = heapq.heappop(heap)
        if n == last:
            continue
        last = n
        parts = [v_at[n][0] * b] if n in v_at and b else []
        ln = _weight(n, m)
        for k in vs:
            if k >= n:
                break
            fm = sol.get(tuple(map(operator.sub, n, k)))
            if fm is None:
                continue
            vk, lk = v_at[k]
            w = ((a + s) * lk - s * ln) / Fraction(ln)
            if w:
                parts.append(vk * fm * w)
        acc = functools.reduce(operator.add, parts) if parts else c_zero(mode)
        if not acc or dust and dust(acc, parts):
            continue
        key = Key(Fraction(n[0], q), n[1:])
        if per_block[n[0]] == grid.block_cap:
            frontier = key
            break
        per_block[n[0]] += 1
        terms[key] = sol[n] = acc
        for k in vs:
            nk = tuple(map(operator.add, n, k))
            if nk < fpos:
                heapq.heappush(heap, nk)
            elif nk[0] > fpos[0]:
                break
    return TransSeries(mode, grid, terms, frontier)


def dist_z_info(a: TransSeries, b: TransSeries):
    """Power metric 2^(-ord_z(a-b)) with a status string.

    Status is "measured" when the series differ: `make_series` stores only
    terms below the frontier, so the leading difference is certified.  It is
    "indistinguishable-at-frontier" when they agree below both frontiers (the
    true metric is uncomputable beyond them).
    """
    a, b = _common(a, b)
    diff = sub(a, b)
    if diff.is_zero():
        return 0.0, "indistinguishable-at-frontier"
    return float(2.0 ** (-float(ord_z(diff)))), "measured"


def dist_z(a: TransSeries, b: TransSeries) -> float:
    return dist_z_info(a, b)[0]


def semigroup_contains_reference(gens: list[Key], w: Key) -> bool:
    """Membership of w in the semigroup of lex-positive generators, searched
    over the z-generators first and then over each log level in turn."""
    if w.is_zero():
        return True
    depth = w.depth
    zpos = [g for g in gens if g.z > 0]
    lonly: dict[int, list[Key]] = {}
    for g in gens:
        if g.z == 0:
            m = next((j for j, n in enumerate(g.l) if n != 0), None)
            if m is None:
                continue
            lonly.setdefault(m, []).append(g)

    zpos = sorted(zpos, reverse=True)

    def ell_feasible(target: tuple, group: int) -> bool:
        if group >= depth:
            return all(t == 0 for t in target)
        rem = target[group]
        if all(t == 0 for t in target[group:]):
            return True
        group_gens = lonly.get(group, [])
        if not group_gens:
            if rem != 0:
                return False
            return ell_feasible(target, group + 1)

        def rec(i: int, rem_m: int, tgt: tuple) -> bool:
            if i == len(group_gens):
                if rem_m != 0:
                    return False
                cleared = tuple(0 if j == group else t for j, t in enumerate(tgt))
                return ell_feasible(cleared, group + 1)
            g = group_gens[i]
            step = g.l[group]
            k = 0
            while k * step <= rem_m:
                new_tgt = tuple(
                    t - k * g.l[j] if j > group else t for j, t in enumerate(tgt)
                )
                if rec(i + 1, rem_m - k * step, new_tgt):
                    return True
                k += 1
            return False

        return rec(0, rem, target)

    def search(i: int, z_rem, l_rem: tuple) -> bool:
        if i == len(zpos):
            if z_rem != 0:
                return False
            return ell_feasible(l_rem, 0)
        g = zpos[i]
        k = 0
        while k * g.z <= z_rem:
            nl = tuple(a - k * b for a, b in zip(l_rem, g.l))
            if search(i + 1, z_rem - k * g.z, nl):
                return True
            k += 1
        return False

    return search(0, w.z, w.l)


def support_of_composition_bound(g: TransSeries, f: TransSeries) -> SemigroupSpec:
    """Generators bounding supp(f o g) per the composition-support lemma."""
    shape = shape_of(g)
    alpha = shape.alpha
    depth = max(f.depth, g.depth)
    gens: set[Key] = set()
    for j in range(1, depth + 1):
        gens.add(ell_key(depth, j))
    for k in f.terms:
        gens.add(Key(alpha * k.z, k.l).pad(depth))
    target = monomial(Key(alpha, (0,) * g.depth), g.grid, g.mode)
    for k in sub(g, target).terms:
        key = Key(k.z - alpha, k.l).pad(depth)
        if not key.is_zero():
            gens.add(key)
    cutoff = Cut(min(f.grid.z_cap, g.grid.z_cap))
    return SemigroupSpec(tuple(sorted(gens)), cutoff)


def weak_delta(seq, key: Key):
    """Coefficient trajectory at `key` across a sequence of series."""
    return [s.coeff(key) for s in seq]


def ord_e_inv(d: DulacSeriesZeta):
    """Order in e^(-1) of a DulacSeriesZeta: the least beta of its series v
    (None when v is 0)."""
    return min((k.z for k in d.v.terms), default=None)


# -- series helpers ---------------------------------------------------------------


def supp(f: TransSeries) -> list[Key]:
    return sorted(f.terms)


def noncanonical_zexps(*items) -> list:
    """The z-exponents among `items` that are not in `keys`' canonical form,
    an `int` exactly when integral and else a `Fraction` of denominator > 1
    (so never a float).  An item is a series (its keys and frontier), a key,
    a cut or a bare exponent; an empty list means every one is canonical."""
    out = []
    for x in items:
        if isinstance(x, TransSeries):
            zs = [k.z for k in x.terms] + [x.frontier.z]
        else:
            zs = [x.z if isinstance(x, (Key, Cut)) else x]
        out += [z for z in zs if not (type(z) is int or type(z) is Fraction and z.denominator > 1)]
    return out


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


def agree_below_frontier(a: TransSeries, b: TransSeries) -> bool:
    """a and b agree below the frontier: their difference, which stores only
    the terms below its frontier, stores none."""
    a, b = _common(a, b)
    diff = sub(a, b)
    return diff.is_zero()


def binomial(beta, i: int):
    """Generalized binomial coefficient; Fraction for rational beta, float for float."""
    if isinstance(beta, float):
        b = 1.0
        for j in range(i):
            b = b * (beta - j) / (j + 1)
        return b
    b = Fraction(1)
    beta = _asfrac(beta)
    for j in range(i):
        b = b * (beta - j) / (j + 1)
    return b


def compose_ell(m: int, f: TransSeries) -> TransSeries:
    """l_m o f via l_1 o f = -1/(log z o f) and l_(m+1) o f = l_1 o (l_m o f)."""
    return Composer(f).ell_image(m)


# -- pure-logarithm blocks: the differential algebras B_m and their metric ---------
#
# A block is a series in l_m, ..., l_k alone: a `TransSeries` of z-order 0.


def in_Bm(r: TransSeries, m: int) -> bool:
    """Support uses only coordinates >= m."""
    return all(all(k.l[j] == 0 for j in range(m - 1)) for k in r.terms)


def ord_ell(r: TransSeries, m: int):
    """Minimal exponent of l_m over the support (None for the zero block)."""
    if not r.terms:
        return None
    return min(k.l[m - 1] for k in r.terms)


def is_positive_class(r: TransSeries) -> bool:
    """ord(R) > 0 lex, the B_{>=m}+ condition."""
    return all(k.is_positive() for k in r.terms)


def dist_ell(r: TransSeries, s: TransSeries, m: int = 1) -> float:
    """The metric d_m(R, S) = 2^(-ord_{l_m}(R - S)) on B_m."""
    d = sub(r, s)
    if d.is_zero():
        return 0.0
    return 2.0 ** (-ord_ell(d, m))


def D_m(r: TransSeries, m: int) -> TransSeries:
    """The derivation D_m = l_m^2 d/dl_m: l_m^n -> n l_m^(n+1); raises the
    l_m-order by at least one."""
    if not in_Bm(r, m):
        raise ShapeError(f"D_{m} applied outside B_{m}")
    bump = Key(0, tuple(1 if j == m - 1 else 0 for j in range(r.depth)))
    terms = {k + bump: c * k.l[m - 1] for k, c in r.terms.items() if k.l[m - 1]}
    return make_series(terms, r.grid, r.mode, [r.frontier + bump])


# -- the paper's operators and their metrics ----------------------------------------
#
# `normalize.solve_W` computes phi in one lex-triangular pass; the paper gets
# it as the limit of Picard sequences of these operators.


def _power_part(alpha, r: TransSeries) -> TransSeries:
    """The right factor f0 = z^alpha (1 + R) of the substitution l_j -> l_j o f0."""
    one = monomial(zero_key(r.depth), r.grid, r.mode)
    return mul_monomial(add(one, r), Key(alpha, (0,) * r.depth))


def prenorm_block_map(r: TransSeries, t: TransSeries, alpha, f0=None) -> TransSeries:
    """One weak-iteration step: T -> ((1+R)(1+T o f0))^(1/alpha) - 1; f0 may be a Composer."""
    alpha_q = Fraction(alpha) if not isinstance(alpha, float) else alpha
    f0 = _power_part(alpha_q, r) if f0 is None else f0
    one = monomial(zero_key(r.depth), r.grid, r.mode)
    inner = mul(add(one, r), add(one, compose(t, f0)))
    return sub(pow_rational(inner, 1 / alpha_q), one)


def apply_T_op(s: TransSeries, r: TransSeries, alpha) -> TransSeries:
    """T_f(S) = S o z^alpha + (S o z^alpha) R - Sigma_{i>=1} binom(alpha,i) S^i."""
    alpha = Fraction(alpha)
    s_za = compose(s, _power_part(alpha, zero_series(s.grid, s.mode)))
    tail = power_sum(s, 1, alpha, alpha)  # (1 + S)^alpha - 1
    return sub(add(s_za, mul(s_za, r)), tail)


def apply_K_op(s: TransSeries, r: TransSeries, alpha) -> TransSeries:
    """Derived closed form of the contraction remainder K_f.

    K_f(S) = (S o f0 - S o z^alpha)(1 + R) - ((D_1 S) o z^alpha) R, the unique
    remainder making T_f(S) = S_f(S) equivalent to the fixed-point equation.
    """
    alpha = Fraction(alpha)
    pure = _power_part(alpha, zero_series(s.grid, s.mode))
    delta = sub(compose(s, _power_part(alpha, r)), compose(s, pure))
    one = monomial(zero_key(s.depth), s.grid, s.mode)
    d1s_za = compose(D_m(s, 1), pure)
    return sub(mul(delta, add(one, r)), mul(d1s_za, r))


def apply_S_op(s: TransSeries, r: TransSeries, alpha) -> TransSeries:
    """S_f(S) = -R - ((D_1 S) o z^alpha) R - K_f(S)."""
    alpha = Fraction(alpha)
    pure = _power_part(alpha, zero_series(s.grid, s.mode))
    d1s_za = compose(D_m(s, 1), pure)
    return sub(sub(negate(r), mul(d1s_za, r)), apply_K_op(s, r, alpha))


def convergence_mode(f: TransSeries, h: TransSeries) -> dict:
    """Weak convergence always holds; power-metric iff Lb_z(h) = Lb_z(phi)."""
    res = normalize(f, verify=False)
    a_h, lb_h = leading_block(h)
    a_p, lb_p = leading_block(res.phi)
    same_block = agree_below_frontier(lb_h, lb_p)
    return {"weak_always": True, "power_metric": bool(a_h == a_p and same_block)}


def ell1_distance_on_parabolic(h1: TransSeries, h2: TransSeries) -> float:
    """The l1-order metric d(id+zR, id+zS) = 2^(-ord_l1(R-S)) on 1-blocks."""
    _, b1 = leading_block(h1)
    _, b2 = leading_block(h2)
    return dist_ell(b1, b2, 1)


def binomial_bound_check(alpha, n: int, i: int) -> bool:
    """|binom(1/alpha^n, i)| <= 1/alpha^n, exactly."""
    alpha = Fraction(alpha)
    x = Fraction(1) / alpha**n
    return abs(binomial(x, i)) <= x


# -- analytic diagnostics -------------------------------------------------------------


def sqd_boundary(r: float, C: float) -> complex:
    """Boundary point x(r) + i y(r) = kappa(i r) of the upper half boundary, r >= 0.

    The reference for `domains.sqd_im_extent`, its closed form in x.
    """
    if r < 0 or C <= 0:
        raise DomainError("need r >= 0 and C > 0")
    s1 = math.sin(0.5 * math.atan(r))
    s2 = math.cos(0.5 * math.atan(r))
    quarter = (r * r + 1.0) ** 0.25
    return complex(C * quarter * s2, r + C * quarter * s1)


def cauchy_step_bound(result: KoenigsResult, zeta, n: int) -> float:
    """Per-step majorant alpha^-(n+1) M(R + n rho(R)) of the Koenigs sequence."""
    spec = result.spec
    return spec.alpha ** (-(n + 1)) * spec.M(result.R + n * spec.rho(result.R))


def real_line_invariance_check(result: KoenigsResult, f, xs, tol: float = 1e-9) -> bool:
    """If f preserves the real samples (within tol), phi must too."""
    phi = result.evaluator
    for x in xs:
        z = complex(float(x), 0.0)
        if abs(f(z).imag) > tol:
            raise DomainError(f"f is not real-preserving at {x}")
        if abs(phi(z).imag) > tol:
            return False
    return True


def defect_decay_check(f, phi_n: DulacSeriesZeta, beta_n, alpha, xs, im=0.0, noise_floor=0.0):
    """sup-grid of |phi_n(f(zeta)) - alpha phi_n(zeta)| e^(beta_n Re) and its trend."""
    beta = float(beta_n)
    phi = zeta_function(phi_n, numbers_like(0j))
    stats = []
    for x in xs:
        zeta = complex(x, im)
        d = abs(phi(f(zeta)) - alpha * phi(zeta))
        stats.append(float(d) * math.exp(beta * x))
    kept = [(x, v) for x, v in zip(xs, stats) if v > noise_floor]
    rep = _decay_report([x for x, _ in kept], [v for _, v in kept])
    rep["sup"] = max(stats) if stats else 0.0
    rep["statistic"] = stats
    return rep
