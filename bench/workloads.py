"""Benchmark workloads: seeded inputs, one timed pass, and the correctness gate
of every operation.

Importing this module imports ``bottcher``; ``run.py`` times that import as
part of set-up.  Library calls go through module attributes (``nm.normalize``)
so that the tracer's rebinding reaches the calls made here too.
"""

from __future__ import annotations

import cmath
import copy
import hashlib
import importlib
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import bottcher  # noqa: F401  (loads every submodule used below)

coeffs = importlib.import_module("bottcher.coeffs")
domains = importlib.import_module("bottcher.domains")
dulac = importlib.import_module("bottcher.dulac")
io_json = importlib.import_module("bottcher.io_json")
keys = importlib.import_module("bottcher.keys")
koenigs = importlib.import_module("bottcher.koenigs")
nm = importlib.import_module("bottcher.normalize")
parser = importlib.import_module("bottcher.parser")
series = importlib.import_module("bottcher.series")

from refclock import now as _now

ROOT = Path(__file__).resolve().parents[1]

# Non-leading coefficients drawn for seeds other than 0 (seed 0 uses 1).
# 2 and -3/2 are left out because they cancel a coefficient of phi
# (z^2 + 2 z^3, z^2 - 3/2 z^3 l1^-1), so exact_terms would depend on the seed;
# 3/2 because z^(3/2) + 3/2 z^2 is the one draw whose float-mode run passes,
# so the failure count would depend on the seed.
COEFF_CHOICES = tuple(Fraction(q) for q in ("1", "-1", "-2", "1/2", "-1/2", "2/3", "-2/3"))

KOENIGS_TOL = 1e-11
N_POINTS = 2000  # certified points per analytic pass


@dataclass
class PassResult:
    """Timings and outcomes of one pass over a workload's operations."""

    normalize_s: float = 0.0
    verify_s: float = 0.0
    op_seconds: list = field(default_factory=list)  # timed work per operation
    attempted: int = 0
    failed: int = 0  # operations that raised or failed a check, each counted once
    failures: Counter = field(default_factory=Counter)  # reason -> count
    exact_terms: int = 0
    digest: str = ""
    work_s: float = 0.0  # all timed work of the pass


def _below_frontier(phi):
    return {k: c for k, c in phi.terms.items() if k < phi.frontier}


def _phi_json(phi) -> dict:
    """``series_to_json`` of phi cut to the terms below its frontier."""
    js = io_json.series_to_json(phi)
    kept = [e for (k, _), e in zip(phi.sorted_terms(), js["terms"]) if k < phi.frontier]
    return {"terms": kept, "frontier": js["frontier"]}


def _draw(rng: random.Random, seed: int) -> Fraction:
    return Fraction(1) if seed == 0 else rng.choice(COEFF_CHOICES)


# -- formal workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    text: str  # "{c}" is replaced by the drawn coefficient
    z_cap: int
    block_cap: int
    depth: int
    ell_stop: int = 12
    mode: str = coeffs.EXACT
    oracle: bool = False  # compare phi with the dense solver in tests/oracles.py


SUITE = (
    Case("z^2 + ({c})*z^3", 12, 6, 0, oracle=True),
    Case("z^2 + ({c})*z^2*l1", 12, 8, 1),
    Case("z^3 + ({c})*z^4*l1^2*l2^-1", 12, 6, 2, ell_stop=10),
    Case("z^2 + ({c})*z^3*l1^-1", 12, 8, 1),
)
FRACTIONAL = (
    Case("z^(3/2) + ({c})*z^2", 6, 8, 0, ell_stop=16),
    Case("z^(3/2) + ({c})*z^2", 6, 8, 0, ell_stop=16, mode=coeffs.FLOAT),
)


class Formal:
    """normalize(f, verify=False) then verify_normalization on each input."""

    point_ops = False  # an operation is one input normalized and verified

    def __init__(self, name: str, cases, seed: int, tracer=None, one_coeff=False):
        rng = random.Random(f"{name}:{seed}")
        c = _draw(rng, seed)
        self.tracer = tracer
        self.inputs = []
        for case in cases:
            if not one_coeff:
                c = _draw(rng, seed)
            text = case.text.format(c=c)
            grid = series.TruncationGrid(case.z_cap, case.block_cap, case.depth, case.ell_stop)
            f = parser.parse(text, grid=grid, mode=case.mode)
            self.inputs.append((f"{case.mode} {text}", case, c, f))
        self._oracle: dict = {}
        self.last_phi: dict = {}

    def run_pass(self) -> PassResult:
        out = PassResult()
        h = hashlib.sha256()
        for label, case, c, f0 in self.inputs:
            f = copy.copy(f0)  # a fresh object each pass: compose caches by identity
            if self.tracer is not None:
                self.tracer.begin_op()
            out.attempted += 1
            t0 = _now()
            try:
                res = nm.normalize(f, verify=False)
                t1 = _now()
                report = nm.verify_normalization(f, res)
                t2 = _now()
            except Exception as exc:  # a raising call is a failed operation
                out.op_seconds.append(_now() - t0)
                out.failed += 1
                out.failures[f"{label}: raised {type(exc).__name__}: {exc}"] += 1
                h.update(f"{label}:{type(exc).__name__}".encode())
                continue
            out.normalize_s += t1 - t0
            out.verify_s += t2 - t1
            out.op_seconds.append(t2 - t0)
            bad = self._gate(case, c, res, report)
            out.failed += bool(bad)
            for reason in bad:
                out.failures[f"{label}: {reason}"] += 1
            out.exact_terms += len(_below_frontier(res.phi))
            h.update(json.dumps(_phi_json(res.phi), sort_keys=True).encode())
            self.last_phi[case.mode] = res.phi
        out.digest = h.hexdigest()
        out.work_s = sum(out.op_seconds)
        return out

    def _gate(self, case: Case, c, res, report) -> list[str]:
        bad = []
        if not report["conjugation_exact_below_frontier"]:
            bad.append(
                f"conjugation residual at z-key {report.get('first_bad_key')} "
                f"below {report['checked_below']}"
            )
        if not report["order_bound_ok"]:
            bad.append("order bound ord_z(phi - id) >= beta fails")
        if case.oracle and not self._matches_oracle(c, res.phi):
            bad.append("phi differs from tests/oracles.bottcher_coeffs below the frontier")
        return bad

    def _matches_oracle(self, c, phi) -> bool:
        """phi = z + a_2 z^2 + ... of z^2 + c z^3 against the dense solver."""
        upto = 1
        while keys.Key(upto + 1, ()) < phi.frontier:
            upto += 1
        want = self._oracle.get((c, upto))
        if want is None:
            sys.path.insert(0, str(ROOT / "tests"))
            import oracles

            sys.path.pop(0)
            dense = oracles.bottcher_coeffs([0, 0, Fraction(1), c], 2, upto)
            want = {n: q for n, q in enumerate(dense) if q != 0}
            self._oracle[(c, upto)] = want
        got = {}
        for k, coef in _below_frontier(phi).items():
            if k.l or not coef.is_rational_complex():
                return False
            re, im = coef.rational_parts()
            if im != 0 or k.z.denominator != 1:
                return False
            got[int(k.z)] = re
        return got == want

    def layer_metrics(self) -> dict:
        return {}

    def diagnostics(self) -> list[str]:
        lines = [f"input: {label}" for label, *_ in self.inputs]
        exact, flt = self.last_phi.get(coeffs.EXACT), self.last_phi.get(coeffs.FLOAT)
        if exact is not None and flt is not None:
            ex, fl = _below_frontier(exact), _below_frontier(flt)
            diff = max(
                (abs(complex(fl.get(k, 0)) - coeffs.c_to_complex(v)) for k, v in ex.items()),
                default=0.0,
            )
            lines.append(
                f"float phi vs exact phi below the frontier: max |diff| = {diff:.2e} "
                f"over {len(ex)} exact / {len(fl)} float coefficients"
            )
        return lines


# -- analytic workload -------------------------------------------------------------------


def _z_chart_dulac():
    """z-chart expansion z^2 e^-z of f(zeta) = 2 zeta + e^-zeta, five rungs."""
    rungs = [(2 + k, [Fraction((-1) ** k, math.factorial(k))]) for k in range(1, 6)]
    return dulac.DulacSeriesZ(1, 2, rungs)


class Analytic:
    """The formal-vs-numeric (Theorem C) bridge, then certified Koenigs points."""

    point_ops = True  # op_seconds holds one entry per point; the bridge is timed apart

    def __init__(self, name: str, seed: int, tracer=None):
        import mpmath

        mpmath.mp.dps = 50
        self.tracer = tracer
        wrap = self._wrap
        self.spec = domains.AsymptoticSpec(alpha=2.0, eps=1.0, k=1)
        self.dom = domains.DomainSpec.standard_quadratic(1.0)
        self.f = wrap("koenigs.user_map", lambda z: 2 * z + cmath.exp(-z))
        self.mp_f = wrap("koenigs.mp_map", lambda z: 2 * z + mpmath.exp(-z))
        self.R = domains.invariant_threshold(self.f, self.spec, self.dom)
        self.res = koenigs.koenigs_normalize(self.f, self.spec, self.dom, self.R, tol=KOENIGS_TOL)
        self.res.evaluator = wrap("koenigs.evaluator", self.res.evaluator)
        self.res.tail_bound = wrap("koenigs.tail_bound", self.res.tail_bound)
        rng = random.Random(f"{name}:{seed}")
        self.points = [
            complex(self.R + 10.0 * rng.random(), 0.25 * (2.0 * rng.random() - 1.0))
            for _ in range(N_POINTS)
        ]
        self.dulac_z = _z_chart_dulac()
        self.xs = [mpmath.mpf(self.R) + mpmath.mpf(20.0) * i / 47 for i in range(48)]
        self.tail_over_tol = 0.0

    def _wrap(self, name: str, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def _phase(self, name: str):
        if self.tracer is not None:
            self.tracer.phase = name

    def run_pass(self) -> PassResult:
        out = PassResult()
        h = hashlib.sha256()
        self._phase("bridge")
        self._bridge(out, h)
        self._phase("points")
        res, f = self.res, self.f
        for z in self.points:
            if self.tracer is not None:
                self.tracer.begin_op()
            out.attempted += 1
            t0 = _now()
            try:
                value = res.evaluator(z)
                tail = res.tail_bound(z)
                residual = koenigs.koenigs_residual(res, f, z)
            except Exception as exc:  # a raising call is a failed operation
                out.op_seconds.append(_now() - t0)
                out.failed += 1
                out.failures[f"point: raised {type(exc).__name__}"] += 1
                continue
            out.op_seconds.append(_now() - t0)
            bad = []
            if not residual < 1e-10:
                bad.append("point: Koenigs residual >= 1e-10")
            if not abs(value - z) <= koenigs.identity_deviation_bound(res, z):
                bad.append("point: |phi - zeta| above identity_deviation_bound")
            if not tail < KOENIGS_TOL:
                bad.append(f"point: tail_bound >= tol = {KOENIGS_TOL:g}")
            out.failed += bool(bad)
            out.failures.update(bad)
            self.tail_over_tol = max(self.tail_over_tol, tail / KOENIGS_TOL)
            h.update(f"{value!r}{tail!r}{residual!r}".encode())
        self._phase("pass")
        out.digest = h.hexdigest()
        out.work_s = out.normalize_s + out.verify_s + sum(out.op_seconds)
        return out

    def _bridge(self, out: PassResult, h):
        """dulac_normalize_full, zeta chart, mpmath Koenigs, compare for n = 1, 2, 3."""
        if self.tracer is not None:
            self.tracer.begin_op()
        out.attempted += 1
        t0 = _now()
        try:
            phi_z, nres = dulac.dulac_normalize_full(self.dulac_z, z_cap=8, block_cap=6)
            t1 = _now()
            phi_hat = dulac.to_zeta_chart(phi_z)
            numeric = koenigs.koenigs_normalize(
                self.mp_f, self.spec, self.dom, self.R, tol=1e-35, check_domain=False
            )
            evaluate = self._wrap("koenigs.mp_evaluator", numeric.evaluator)
            cache = {}

            def phi(zeta):  # each ray point is evaluated once for n = 1, 2, 3
                key = complex(zeta)
                if key not in cache:
                    cache[key] = evaluate(zeta)
                return cache[key]

            reps = [dulac.compare_formal_numeric(phi, phi_hat, n, self.xs) for n in (1, 2, 3)]
            t2 = _now()
        except Exception as exc:  # a raising call is a failed operation
            out.failed += 1
            out.failures[f"bridge: raised {type(exc).__name__}: {exc}"] += 1
            return
        out.normalize_s += t1 - t0
        out.verify_s += t2 - t1
        ver = nres.verification
        bad = []
        if not (ver.get("conjugation_exact_below_frontier") and ver.get("order_bound_ok")):
            bad.append("bridge: Dulac normalization fails its verification")
        for n, rep in zip((1, 2, 3), reps):
            if not (rep["pass"] and rep["sup"] < 10.0):
                bad.append(f"bridge: n = {n} comparison fails (sup {rep['sup']:.3g})")
        out.failed += bool(bad)
        out.failures.update(bad)
        out.exact_terms += len(_below_frontier(nres.phi))
        h.update(json.dumps(_phi_json(nres.phi), sort_keys=True).encode())
        h.update(repr([rep["sup"] for rep in reps]).encode())

    def layer_metrics(self) -> dict:
        used = list(self.res.iterations_used.values())
        return {
            "koenigs.iterations_mean": sum(used) / len(used),
            "koenigs.iterations_used_entries": len(used),
        }

    def diagnostics(self) -> list[str]:
        return [
            f"R = {self.R!r}; worst tail_bound / tol = {self.tail_over_tol:.3f}; "
            f"iterations_used entries = {len(self.res.iterations_used)}"
        ]


WORKLOADS = {
    "formal_suite": lambda seed, tracer=None: Formal("formal_suite", SUITE, seed, tracer),
    # one drawn input, normalized in exact and in float mode
    "formal_fractional": lambda seed, tracer=None: Formal(
        "formal_fractional", FRACTIONAL, seed, tracer, one_coeff=True
    ),
    "analytic_bridge": lambda seed, tracer=None: Analytic("analytic_bridge", seed, tracer),
}
