"""JSON wire formats for series, normalization results and Dulac ladders."""

from __future__ import annotations

from fractions import Fraction

from .coeffs import EXACT, FLOAT, Exact, c_zero
from .dulac import DulacSeriesZeta, _germ, rungs, whole_series
from .errors import ShapeError
from .keys import Cut, Key, as_zexp
from .printer import frac_str
from .series import TransSeries, TruncationGrid, make_series


def _mono_str(k: tuple) -> str:
    return ",".join(f"{p}:{e}" for p, e in k)


def _mono_parse(s: str) -> tuple:
    if not s:
        return ()
    return tuple((int(p), int(e)) for p, e in (q.split(":") for q in s.split(",")))


def coeff_to_json(c) -> dict:
    if isinstance(c, Exact):
        out = {}
        re, im = c.parts.get((), (Fraction(0), Fraction(0)))
        out["re"] = frac_str(re)
        out["im"] = frac_str(im)
        higher = {_mono_str(k): list(map(frac_str, v)) for k, v in c.parts.items() if k}
        if higher:
            out["lg"] = higher
        return out
    z = complex(c)
    return {"re": z.real, "im": z.imag}


def coeff_from_json(d: dict, mode: str):
    if mode == EXACT:
        parts = {(): (Fraction(d["re"]), Fraction(d["im"]))}
        for k, (a, b) in d.get("lg", {}).items():
            parts[_mono_parse(k)] = (Fraction(a), Fraction(b))
        return Exact(parts)
    return complex(float(d["re"]), float(d["im"]))


def series_to_json(f: TransSeries) -> dict:
    terms = []
    for k, c in f.sorted_terms():
        entry = {"z": frac_str(k.z), "l": list(k.l)}
        entry.update(coeff_to_json(c))
        terms.append(entry)
    return {
        "depth": f.depth,
        "mode": f.mode,
        "terms": terms,
        "frontier": (
            {"z": frac_str(f.frontier.z), "cut": True}
            if isinstance(f.frontier, Cut)
            else {"z": frac_str(f.frontier.z), "l": list(f.frontier.l)}
        ),
        "grid": {
            "z_cap": frac_str(f.grid.z_cap),
            "block_cap": f.grid.block_cap,
        },
    }


def series_from_json(d: dict) -> TransSeries:
    depth = d["depth"]
    mode = d["mode"]
    g = d.get("grid", {})
    grid = TruncationGrid(
        z_cap=as_zexp(g.get("z_cap", "16")),
        block_cap=g.get("block_cap", 10),
        depth=depth,
    )
    terms = {}
    for entry in d["terms"]:
        key = Key(entry["z"], entry["l"])
        terms[key] = coeff_from_json(entry, mode)
    fr = d.get("frontier")
    cands = []
    if fr:
        cands = [Cut(fr["z"]) if fr.get("cut") else Key(fr["z"], fr["l"])]
    return make_series(terms, grid, mode, cands)


def normalization_result_to_json(res) -> dict:
    out = {
        "alpha": frac_str(res.alpha),
        "beta": frac_str(res.beta),
        "iterations": res.iterations,
        "phi": series_to_json(res.phi),
        "verification": res.verification,
    }
    if res.psi is not None:
        out["psi"] = series_to_json(res.psi)
    if res.alpha_input is not None:
        out["alpha_input"] = frac_str(res.alpha_input)
    out["inverted_input"] = res.inverted_input
    return out


def _ladder_json(terms: dict, exp_name: str, poly_name: str, gap, mode) -> list:
    """Depth-1 terms as rungs {exp_name: exp, poly_name: P}, exponents
    ascending, each P dense by degree with `gap` in the holes.  An exponent is
    a rational string, a JSON number in float mode."""
    return [
        {exp_name: float(b) if mode == FLOAT else frac_str(b),
         poly_name: [coeff_to_json(q.get(deg, gap)) for deg in range(max(q) + 1)]}
        for b, q in rungs(terms)
    ]


def dulac_z_to_json(f) -> dict:
    """A Dulac series as lambda, alpha and the ladder of lambda * P.  A gap of
    P is written as 0 * lambda, the value lambda * P has there (a signed zero
    in float mode)."""
    alpha, lam, rest = _germ(f)
    return {
        "lambda": coeff_to_json(lam),
        "alpha": frac_str(alpha),
        "mode": f.mode,
        "ladder": _ladder_json(rest, "exp", "P", c_zero(f.mode) * lam, f.mode),
    }


def dulac_zeta_to_json(d) -> dict:
    """The zeta chart as alpha, c0 and the ladder of Q = -log(1 + u).  A gap of
    Q is written as -0, the negated zero of log(1 + u)."""
    return {
        "alpha": frac_str(d.alpha),
        "c0": coeff_to_json(d.c0),
        "mode": d.v.mode,
        "ladder": _ladder_json(d.v.terms, "beta", "Q", -c_zero(d.v.mode), d.v.mode),
    }


def dulac_zeta_from_json(d: dict) -> DulacSeriesZeta:
    """The zeta chart of a ladder; every beta must be positive."""
    mode = d.get("mode", EXACT)
    terms = {}
    for e in d["ladder"]:
        beta = as_zexp(e["beta"])
        if beta <= 0:
            raise ShapeError("zeta-chart ladder exponents must be positive")
        for deg, c in enumerate(e["Q"] or [{"re": 0, "im": 0}]):  # [] is Q = 0
            terms[Key(beta, (-deg,))] = coeff_from_json(c, mode)
    c0 = coeff_from_json(d["c0"], mode)
    return DulacSeriesZeta(as_zexp(d["alpha"]), c0, whole_series(terms, mode))
