"""Formal normalization of strongly hyperbolic logarithmic transseries.

Pipeline: reduce the leading exponent and coefficient if needed (alpha < 1:
invert; lambda != 1: rescale), then solve the logarithmic Bottcher equation
in one lex-triangular pass.  With f = z^alpha (1 + u) and phi = z exp(W), the
equation phi o f = phi^alpha becomes the linear equation

    W = (log(1 + u) + W o f) / alpha,

solved term by term in ascending key order by `solve_W` through
`compose.solve_linear`, the solver behind `invert` too.  Its pure-log terms
are the canonical prenormalization id + zS of the same-z-order log block;
`prenormalize` runs the same solve on that block alone.  The Bottcher
operator P_f(h) = z^(1/alpha) o h o f, whose Picard iterates converge to
phi, stays for `bottcher-seq`.  The paper's other operators, the
weak-iteration map of the prenormalization and the T/S/K operator triple,
are test references in `tests/crosschecks.py`, with their metrics.

Verification checks the Bottcher equation phi o f = phi^alpha below the
frontier rather than the conjugation phi o f o phi^(-1) = z^alpha: the two
residuals differ by composition with phi, (phi o f - phi^alpha) =
(phi o f o phi^(-1) - z^alpha) o phi, which keeps the leading term because
phi is parabolic.  So the verdict and the first bad key are the same, and no
Newton inversion of phi is needed.

`solve_W` works on the least grid W's frontier needs: the reduced f cut just
above it, deepened only while the cut itself sets the frontier.  W and phi
live on f's own grid.  `NormalizationResult.composer` carries the `Composer`
of the cut f, and verification composes phi through it.  Verification takes
the series `normalize` was given; the result keeps its reduced form, so the
same series object is not reduced again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .coeffs import c_one
from .errors import ShapeError
from .keys import Cut, Key, ell_key, zero_key
from .series import (
    TransSeries,
    add,
    embed,
    exp_minus_one,
    identity_series,
    log1p,
    make_series,
    monomial,
    mul_monomial,
    ord_z,
    pow_rational,
    residual_keys,
    scale,
    sub,
)
from .compose import (
    STRONGLY_HYPERBOLIC,
    Composer,
    compose,
    compose_power,
    is_parabolic,
    reduce_alpha,
    reduce_lambda,
    shape_of,
    solve_linear,
)


# -- the Bottcher operator ------------------------------------------------------


# The ShapeError of a leading coefficient other than 1; the CLI, whose users
# cannot call reduce_lambda, replaces it by a remedy they have.
NOT_MONIC = "leading coefficient must be 1 (apply reduce_lambda first)"


def _require_monic_power(f: TransSeries):
    shape = shape_of(f)
    if f.terms[min(f.terms)] != c_one(f.mode):
        raise ShapeError(NOT_MONIC)
    if not shape.alpha > 1:
        raise ShapeError(
            f"alpha = {shape.alpha} <= 1; apply reduce_alpha / out of scope"
        )
    return shape


def bottcher_op(f: TransSeries | Composer, h: TransSeries) -> TransSeries:
    """P_f(h) = z^(1/alpha) o h o f on parabolic h; f may be a Composer."""
    right = Composer.of(f)
    shape = _require_monic_power(right.f)
    if not is_parabolic(h):
        raise ShapeError("Bottcher operator acts on parabolic series")
    return compose_power(1 / shape.alpha, compose(h, right))


def alpha_block(f: TransSeries):
    """(alpha, whether R != 0) with f = z^alpha (1 + R) + higher blocks, R of
    z-order 0: R has a term at each log key of z-order alpha that f stores."""
    alpha = _require_monic_power(f).alpha
    if f.frontier <= Cut(alpha):
        raise ShapeError("grid too small: the alpha block is entirely untrusted")
    return alpha, any(k.z == alpha and any(k.l) for k in f.terms)


def alpha_part_series(f: TransSeries) -> TransSeries:
    """z^alpha (1 + R_alpha): the same-z-order part the prenormalization sees."""
    alpha, _ = alpha_block(f)
    terms = {k: c for k, c in f.terms.items() if k.z == alpha}
    return make_series(terms, f.grid, f.mode, [f.frontier])


def bottcher_R_op(f: TransSeries, h: TransSeries) -> TransSeries:
    """R_f(h) = z^(1/alpha) o h o (z^alpha + z^alpha R_alpha)."""
    return bottcher_op(alpha_part_series(f), h)


# -- the triangular solve ---------------------------------------------------------
#
# Taking logs of phi o f = phi^alpha with phi = z exp(W) and f = z^alpha (1 + u)
# gives the linear equation W - (W o f) / alpha = log(1 + u) / alpha.  A
# monomial n = z^d l1^m1 ... of W maps to n o f, whose terms all lie above n
# except, when d = 0, n itself (l1 o f = l1/alpha + ..., l_j o f = l_j + ...
# for j >= 2).  So the equation is lex-triangular, and `compose.solve_linear`
# solves it term by term in ascending key order.  On the alpha-block alone the
# same solve gives the canonical prenormalization id + zS, S = exp(W) - 1.


def solve_W(f: TransSeries | Composer) -> TransSeries:
    """W with phi = z exp(W) solving phi o f = phi^alpha, for monic f, alpha > 1.

    W lives on f's grid; f may be a Composer.  `solve_linear` runs on f cut
    at z' = min(z_cap, alpha + 1), then at twice that, while the cut sets
    the frontier: W.frontier.z + alpha >= z'.  The last step is the full
    grid.  A log-free f starts there, because its frontier is always set by
    z_cap: each z-block holds one key and no pure-log power sum runs.

    Why the stop is sound.  On the grid cut at z', u = f / z^alpha - 1 has the
    frontier Cut(z' - alpha), and every frontier candidate the cut adds lies
    at z >= z' - alpha: `log1p(u)` and each log image `Composer.ell_image`
    inherit Cut(z' - alpha), their powers and inverses keep it (the leading
    keys are pure logs), and `compose` shifts a body of u by z^(alpha d).
    `power_sum`, behind every power sum here, adds three candidates: its
    operand's frontier; Cut(z'), or, for a body that `compose` shifts by
    z^(alpha d), Cut(z' - alpha d), which the shift moves to Cut(z'); and
    the first key past `block_cap` in a z-block.  That last one, like the
    `block_cap` cut of `make_series`, counts terms inside one z-block, so it
    does not depend on z_cap.  Every key of every series here has z >= 0,
    so the terms below z' are the ones the full grid gives.  So once
    W.frontier.z + alpha < z', no cut candidate reached the frontier: it is
    the one the full grid gives, and every pending sum below it, and every
    pivot read off an image, is the same exact value.  Starting on the full
    grid and shrinking it as the running frontier drops is slower: the first
    image already builds the full-grid log images.
    """
    return _least_grid_solve(f)[0]


def _least_grid_solve(f: TransSeries | Composer) -> tuple[TransSeries, Composer]:
    """`solve_W`, and the Composer of the cut grid its last step solved on."""
    right = Composer.of(f)
    f = right.f
    alpha = _require_monic_power(f).alpha
    grid = f.grid
    log_free = not any(any(k.l) for k in f.terms)
    z_cut = grid.z_cap if log_free else min(grid.z_cap, alpha + 1)
    while True:
        cut = right if z_cut == grid.z_cap else Composer(embed(f, replace(grid, z_cap=z_cut)))
        w = solve_linear(cut, 1, -1 / alpha, scale(log1p(cut.u), 1 / alpha))
        if z_cut == grid.z_cap or w.frontier.z + alpha < z_cut:
            return make_series(w.terms, grid, f.mode, [w.frontier]), cut
        z_cut = min(grid.z_cap, 2 * z_cut)


def _phi_of(w: TransSeries) -> TransSeries:
    """phi = z exp(W) = z (1 + exp(W) - 1)."""
    one = monomial(zero_key(w.depth), w.grid, w.mode)
    return mul_monomial(add(one, exp_minus_one(w)), Key(1, (0,) * w.depth))


def prenormalize(f: TransSeries) -> TransSeries:
    """The unique canonical phi_1 = id + zS removing the z^alpha log block.

    `solve_W` on the same-z-order part z^alpha (1 + R_alpha) of f.
    """
    if not alpha_block(f)[1]:
        return identity_series(f.grid, f.mode)
    return _phi_of(solve_W(alpha_part_series(f)))


# -- normalization ------------------------------------------------------------------


@dataclass
class NormalizationResult:
    phi: TransSeries
    alpha: object
    beta: object
    iterations: int  # W terms solved
    psi: TransSeries | None = None
    alpha_input: object = None
    inverted_input: bool = False
    verification: dict = field(default_factory=dict)
    # the Composer W was solved through: the reduced series phi normalizes, cut
    # just above the frontier; verification reuses it
    composer: Composer | None = field(default=None, compare=False, repr=False)
    # the series `normalize` was given and its reduced form, which phi
    # normalizes; verification of the same series object reuses the latter
    source: TransSeries | None = field(default=None, compare=False, repr=False)
    reduced: TransSeries | None = field(default=None, compare=False, repr=False)


def _beta_from(g: TransSeries, alpha, ignore_alpha_block=False):
    """Safe beta = ord_z(g - z^alpha) - alpha + 1 from trusted storage."""
    diff = sub(g, monomial(Key(alpha, (0,) * g.depth), g.grid, g.mode))
    fz = diff.frontier.z
    if ignore_alpha_block and fz == alpha:
        fz = g.grid.z_cap
    keys = [k for k in diff.terms if not (ignore_alpha_block and k.z == alpha)]
    return min((k.z for k in keys), default=fz) - alpha + 1


def normalize(f: TransSeries, verify=True) -> NormalizationResult:
    """lambda/alpha reduction, then `solve_W`."""
    shape = shape_of(f)
    if shape.classification != STRONGLY_HYPERBOLIC:
        raise ShapeError(
            "only strongly hyperbolic series are normalized here; "
            "the hyperbolic case (alpha = 1) is separate prior work"
        )
    work = f
    alpha_in = shape.alpha
    inverted = False
    if shape.alpha < 1:
        work = reduce_alpha(work)
        inverted = True
        if work.is_zero():
            raise ShapeError(
                f"grid too small: f^(-1) has no term below z_cap = {work.grid.z_cap}"
            )
    psi = None
    if work.terms[min(work.terms)] != c_one(work.mode):
        psi, work = reduce_lambda(work)
    alpha, has_logs = alpha_block(work)

    w, right = _least_grid_solve(work)
    res = NormalizationResult(
        _phi_of(w),
        alpha,
        _beta_from(work, alpha, ignore_alpha_block=has_logs),
        len(w.terms),
        psi=psi,
        alpha_input=alpha_in,
        inverted_input=inverted,
        composer=right,
        source=f,
        reduced=work,
    )
    if verify:
        res.verification = verify_normalization(f, res)
    return res


def check_conjugation(f: TransSeries | Composer, phi: TransSeries):
    """Check the Bottcher equation phi o f = phi^alpha below the frontier.

    The residual phi o f - phi^alpha equals (phi o f o phi^(-1) - z^alpha) o phi,
    so it vanishes exactly when phi conjugates f to z^alpha, and no inverse of
    phi is built.  Composing with a parabolic phi = z + ... keeps the leading
    term of a series, so the first bad key is the one the conjugation
    phi o f o phi^(-1) - z^alpha shows.

    Returns (frontier checked below, first bad key or None).  Exact mode
    demands literal zero residuals; float mode (which carries no exactness
    guarantee) tolerates the rounding dust of `coeffs.c_significant`.
    """
    if not is_parabolic(phi):
        raise ShapeError("conjugating change of variables must be parabolic")
    right = Composer.of(f)
    residual = sub(compose(phi, right), pow_rational(phi, right.alpha))
    bad = residual_keys(residual)
    return residual.frontier, min(bad) if bad else None


def conjugation_report(f: TransSeries | Composer, phi: TransSeries) -> dict:
    """`check_conjugation` as the report `verify` prints: the verdict, the
    frontier checked below (a `Cut` or `Key`) and, on failure, the first bad
    `Key`.  `io_json.report_to_json` spells it as JSON."""
    checked, first_bad = check_conjugation(f, phi)
    report = {"conjugation_exact_below_frontier": first_bad is None, "checked_below": checked}
    if first_bad is not None:
        report["first_bad_key"] = first_bad
    return report


def verify_normalization(f: TransSeries, res: NormalizationResult) -> dict:
    """`conjugation_report` of res.phi plus the order bound `order_bound_ok`.

    f is the series `normalize` was given.  The same object is not reduced
    again: res.reduced is the series phi normalizes, and res.composer, which
    `normalize` built from it cut just above the frontier, is reused as it is.
    phi is checked on the composer's grid: the cut z' lies above
    W.frontier.z + alpha, the z of the frontier of phi^alpha, and every
    frontier candidate the cut adds to phi o f lies at z >= z' (phi has
    z-order 1), so the same keys are checked as on f's own grid.  Any other
    f, an equal copy included, is reduced here as res records and checked on
    its own grid.
    """
    if f is res.source:
        f, right = res.reduced, res.composer
        phi = embed(res.phi, right.f.grid)
    else:
        if res.inverted_input:
            f = reduce_alpha(f)
        if res.psi is not None:
            f = reduce_lambda(f)[1]
        right, phi = f, res.phi
    report = conjugation_report(right, phi)
    report["order_bound_ok"] = order_bound_check(f, res.phi)
    return report


# -- Bottcher sequences ----------------------------------------------------------------


def bottcher_iterates(f: TransSeries, h: TransSeries, n: int) -> list[TransSeries]:
    """[h, P_f h, ..., P_f^n h] (the n-th entry is z^(1/alpha^n) o h o f^on)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    right = Composer(f) if n else f  # n = 0 composes nothing and checks no shape
    out = [h]
    for _ in range(n):
        out.append(bottcher_op(right, out[-1]))
    return out


def bottcher_sequence(f: TransSeries, h: TransSeries, n: int) -> TransSeries:
    return bottcher_iterates(f, h, n)[-1]


# -- support control -----------------------------------------------------------------


@dataclass(frozen=True)
class SemigroupSpec:
    generators: tuple
    cutoff: Key

    def contains(self, w: Key) -> bool:
        return semigroup_contains(list(self.generators), w)


def support_predict(f: TransSeries) -> SemigroupSpec:
    """Semigroup bound for supp(phi): powers alpha^p, log units, shifted supp(f-z^alpha)."""
    shape = _require_monic_power(f)
    alpha = shape.alpha
    grid = f.grid
    depth = f.depth
    gens: set[Key] = set()
    p = Fraction(1)
    while p < grid.z_cap:
        gens.add(Key(p, (0,) * depth))
        p *= alpha
    for j in range(1, depth + 1):
        gens.add(ell_key(depth, j))
    target = monomial(Key(alpha, (0,) * depth), grid, f.mode)
    for k in sub(f, target).terms:
        step = k.z - alpha
        m = Fraction(1)
        while True:
            zpart = m * step
            if zpart >= grid.z_cap:
                break
            gens.add(Key(zpart, k.l))
            if step == 0:
                break
            m *= alpha
    return SemigroupSpec(tuple(sorted(gens)), grid.trunc_key())


def _lex_positive(gens) -> list[Key]:
    """The nonzero generators; a generator at or below zero raises ValueError.

    Membership and enumeration both need lex-positive generators: without
    them neither the multiplicities nor the sums below a cutoff are finite.
    """
    for g in gens:
        if not (g.is_zero() or g.is_positive()):
            raise ValueError(f"semigroup generator {g} is not lex-positive")
    return [g for g in gens if not g.is_zero()]


def semigroup_contains(gens: list[Key], w: Key) -> bool:
    """Exact membership of w in the additive semigroup the generators span.

    A key is the vector (z, l1, ..., lk).  Level i holds the generators whose
    first nonzero coordinate is i; they are lex-positive (else ValueError),
    so that coordinate is positive.  No later level moves coordinate i, so a
    level-i multiplicity is bounded by the target's coordinate i, and after
    level i that coordinate must be 0 (at once, for a level without
    generators).  `spans(i, j, t)`: is t a sum of the level-i generators from
    the j-th on and of later levels?
    """
    levels: list[list[tuple]] = [[] for _ in range(w.depth + 1)]
    for g in sorted(_lex_positive(gens), reverse=True):
        v = (g.z, *g.pad(w.depth).l)
        levels[next(i for i, x in enumerate(v) if x)].append(v)

    def spans(i: int, j: int, t: tuple) -> bool:
        if i == len(levels):
            return True
        if j == len(levels[i]):
            return t[i] == 0 and spans(i + 1, 0, t)
        while t[i] >= 0:
            if spans(i, j + 1, t):
                return True
            t = tuple(a - b for a, b in zip(t, levels[i][j]))
        return False

    return spans(0, 0, (w.z, *w.l))


def enumerate_semigroup(spec: SemigroupSpec, ell_window: int = 8) -> list[Key]:
    """All semigroup sums below the cutoff with log exponents in [-w, w]."""
    gens = _lex_positive(spec.generators)
    seen: set[Key] = set()
    heap = [g for g in gens if g < spec.cutoff]
    heapq.heapify(heap)
    out = []
    while heap:
        k = heapq.heappop(heap)
        if k in seen:
            continue
        seen.add(k)
        out.append(k)
        for g in gens:
            nk = k + g
            if nk < spec.cutoff and nk not in seen and all(
                abs(n) <= ell_window for n in nk.l
            ):
                heapq.heappush(heap, nk)
    return out


# -- the order bound ---------------------------------------------------------------


def order_bound_check(f: TransSeries, phi: TransSeries) -> bool:
    """ord_z(phi - id) >= ord_z(f - z^alpha) - alpha + 1."""
    alpha = shape_of(f).alpha
    beta = _beta_from(f, alpha)
    diff = sub(phi, identity_series(phi.grid, phi.mode))
    o = ord_z(diff)
    if o is None:
        return True
    return o >= beta
