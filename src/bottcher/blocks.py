"""Pure-logarithm blocks: the differential algebras B_m and their metric.

A block is a series in l_m, ..., l_k alone (no free z): a `TransSeries` of
z-order 0, every key Key(0, l).  Its ring operations, power sums and
substitutions are those of `series` and `compose`; the grid's `block_cap`
caps its terms and a frontier Cut(z_cap) means every stored term is exact.
This module keeps only what is specific to B_m.
"""

from __future__ import annotations

from .coeffs import c_scale
from .errors import ShapeError
from .keys import Key
from .series import TransSeries, make_series, sub


# -- membership and orders ----------------------------------------------------


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


def check_class(r: TransSeries, positivity: str, m: int = 1):
    if positivity == "B_m+":
        if not in_Bm(r, m) or (r.terms and ord_ell(r, m) < 1):
            raise ShapeError(f"block not in B_{m}+")
    elif positivity == "B_>=m+":
        if not in_Bm(r, m) or not is_positive_class(r):
            raise ShapeError(f"block not in B_>={m}+")


def dist_ell(r: TransSeries, s: TransSeries, m: int = 1) -> float:
    """The metric d_m(R, S) = 2^(-ord_{l_m}(R - S)) on B_m."""
    d = sub(r, s)
    if d.is_zero():
        return 0.0
    return 2.0 ** (-ord_ell(d, m))


# -- derivations D_m = l_m^2 d/dl_m -------------------------------------------


def D_m(r: TransSeries, m: int) -> TransSeries:
    """l_m^n -> n l_m^(n+1); raises the l_m-order by at least one."""
    if not in_Bm(r, m):
        raise ShapeError(f"D_{m} applied outside B_{m}")
    bump = Key(0, tuple(1 if j == m - 1 else 0 for j in range(r.depth)))
    terms = {k + bump: c_scale(c, k.l[m - 1]) for k, c in r.terms.items() if k.l[m - 1]}
    return make_series(terms, r.grid, r.mode, [r.frontier + bump])
