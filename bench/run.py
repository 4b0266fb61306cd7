#!/usr/bin/env python3
"""Benchmark of the bottcher library, one workload run per process.

    python3 bench/run.py --workload formal_suite --seed 0 --seconds 40 --trace 0

Runs the workload's passes in one thread, closed loop (each library call
starts after the previous one returns), until ``--seconds`` have passed, with
at least one pass.  Every operation is checked; see ``bench/README.md``.
Untraced runs report times in seconds at the reference speed of
``refclock.py``; traced runs in wall seconds.
Prints a readable report and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 bench/run.py --write-spec`` rewrites ``BENCHMARK.json`` from the
tables below.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import refclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

RUN_SECONDS = 40
SETUP_SAMPLES = 9  # set-ups per run: this process and eight fresh ones
HELD_OUT_SEED = 7177  # never used while tuning; reserved for performance claims

WORKLOADS = {
    "formal_suite": "acceptance-suite series in exact mode; the only workload where "
    "blocks, depth-2 keys and the Dulac log case do real work",
    "formal_fractional": "z^(3/2) + c z^2 in exact and float mode: pow_rational, "
    "compose_power and Fraction z-keys dominate; blocks stay idle",
    "analytic_bridge": "certified Koenigs points (float, no formal kernel) plus the "
    "formal-vs-numeric Dulac bridge at 50 digits",
}

# name -> (unit, better, bound); every workload reports every one of them.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "normalize_s": ("s", "lower", 0.25),
    "verify_s": ("s", "lower", 0.25),
    "exact_terms": ("count", "higher", 0.01),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

MODULES = (
    "__init__", "blocks", "cli", "coeffs", "compose", "domains", "dulac", "errors",
    "io_json", "keys", "koenigs", "normalize", "parser", "printer", "series",
)

# name -> (unit, better).  Values are per pass, except parser.parse.self_s and
# domains.invariant_threshold_s (set-up) and trace.* (traced minus untraced).
_S, _N, _UP = ("s", "lower"), ("count", "lower"), ("ratio", "higher")
PER_LAYER = {
    "parser.parse.self_s": _S,
    "keys.created": _N,
    "keys.ops": _N,
    "coeffs.ops": _N,
    "coeffs.exact_ops": _N,
    "series.mul.calls": _N,
    "series.mul.self_s": _S,
    "series.mul.pairs": _N,
    "series.mul.kept_ratio": _UP,
    "series.mul.point_loop_calls": _N,
    "series.add.calls": _N,
    "series.add.self_s": _S,
    "series.make_series.calls": _N,
    "series.make_series.self_s": _S,
    "series.make_series.kept_ratio": _UP,
    "series.pow_rational.calls": _N,
    "series.pow_rational.self_s": _S,
    "series.sum_powers.calls": _N,
    "blocks.calls": _N,
    "blocks.self_s": _S,
    "blocks.substitute.calls": _N,
    "compose.compose.calls": _N,
    "compose.compose.self_s": _S,
    "compose.right_factor_reuse_ratio": _UP,
    "compose.invert.calls": _N,
    "compose.invert.self_s": _S,
    "compose.conjugate.self_s": _S,
    "normalize.stage.reduce_s": _S,
    "normalize.stage.prenormalize_s": _S,
    "normalize.stage.conjugate_s": _S,
    "normalize.stage.fixed_point_s": _S,
    "normalize.stage.verify_s": _S,
    "normalize.bottcher_op.calls": _N,
    "normalize.picard_iterations": _N,
    "domains.invariant_threshold_s": _S,
    "domains.domain_member.calls": _N,
    "domains.domain_member.self_s": _S,
    "domains.M.calls": _N,
    "koenigs.evaluator.calls": _N,
    "koenigs.evaluator.self_s": _S,
    "koenigs.map_evals": _N,
    "koenigs.map_evals_per_point": _N,
    "koenigs.iterations_mean": _N,
    "koenigs.iterations_used_entries": _N,
    "koenigs.point_p50_us": ("us", "lower"),
    "koenigs.point_p99_us": ("us", "lower"),
    "dulac.normalize_full_s": _S,
    "dulac.to_zeta_chart_s": _S,
    "dulac.evaluate_zeta.calls": _N,
    "dulac.evaluate_zeta.self_s": _S,
    "dulac.compare_formal_numeric.self_s": _S,
    "koenigs.mp_map_evals": _N,
    "trace.overhead_s": _S,
    "trace.overhead_ratio": ("ratio", "lower"),
    **{f"loc.{m}": ("lines", "lower") for m in MODULES},
    "loc.total": ("lines", "lower"),
}

PASS_PHASES = ("pass", "bridge", "points")
SETUP_PHASES = ("setup",)


def write_spec():
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


# -- running ---------------------------------------------------------------------------


def _passes(wl, deadline: float, after_pass=None) -> list:
    """At least one pass; another only if it should end within half a pass of the deadline."""
    out = []
    last = 0.0
    while not out or time.perf_counter() + last / 2 < deadline:
        t0 = time.perf_counter()
        out.append(wl.run_pass())
        last = time.perf_counter() - t0
        if after_pass is not None:
            after_pass()
    return out


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds to import bottcher and set the workload up, in a fresh process."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _consistent(passes) -> list[str]:
    """Problems that make the run's output untrustworthy (not per-operation failures)."""
    problems = []
    if len({p.digest for p in passes}) != 1:
        problems.append("output digest differs between passes")
    if len({p.exact_terms for p in passes}) != 1:
        problems.append("exact_terms differs between passes")
    return problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_samples, rss_mb: float) -> dict:
    # Means over passes, not medians: the machine's speed flips between two
    # states every few seconds, and a median over a bimodal sample jumps
    # between them where the mean moves smoothly with the share of each.
    ops = [s for p in passes for s in p.op_seconds]
    return {
        "setup_s": statistics.median(setup_samples),
        "normalize_s": statistics.fmean(p.normalize_s for p in passes),
        "verify_s": statistics.fmean(p.verify_s for p in passes),
        "exact_terms": passes[0].exact_terms,
        "ops_per_s": len(ops) / sum(ops),
        "peak_rss_mb": rss_mb,
    }


def loc_metrics() -> dict:
    """Non-blank source lines per module (0 once a module is gone) and in total."""
    out = {f"loc.{m}": 0 for m in MODULES}
    total = 0
    for path in sorted((SRC / "bottcher").glob("*.py")):
        n = sum(1 for line in path.read_text().splitlines() if line.strip())
        total += n
        if path.stem in MODULES:
            out[f"loc.{path.stem}"] = n
    out["loc.total"] = total
    return out


def per_layer(tr, counters_base, passes, ref, wl) -> dict:
    n = len(passes)
    P, S = PASS_PHASES, SETUP_PHASES

    def calls(name, phases=P):
        return tr.total(tr.calls, name, phases) / n

    def self_s(name):
        return tr.total(tr.self_s, name, P) / n

    def summed(quantity):
        return tr.total(tr.sums, quantity, P) / n

    def counted(name):
        return (tr.counters[name][0] - counters_base.get(name, 0)) / n

    def ratio(a, b):
        return a / b if b else 0.0

    def stage(*names):
        return sum(tr.inclusive(x, P, "normalize.normalize") for x in names) / n

    points = sum(len(p.op_seconds) for p in passes) / n if wl.point_ops else 0
    traced = statistics.fmean(p.work_s for p in passes)
    m = {
        "parser.parse.self_s": tr.total(tr.self_s, "parser.parse", S),
        "keys.created": counted("keys.created"),
        "keys.ops": counted("keys.ops"),
        "coeffs.ops": counted("coeffs.ops"),
        "coeffs.exact_ops": counted("coeffs.exact_ops"),
        "series.mul.calls": calls("series.mul"),
        "series.mul.self_s": self_s("series.mul"),
        "series.mul.pairs": summed("series.mul.pairs"),
        "series.mul.kept_ratio": ratio(
            summed("series.mul.out_terms"), summed("series.mul.pairs")
        ),
        "series.mul.point_loop_calls": calls("series.mul", ("points",)),
        "series.add.calls": calls("series.add"),
        "series.add.self_s": self_s("series.add"),
        "series.make_series.calls": calls("series.make_series"),
        "series.make_series.self_s": self_s("series.make_series"),
        "series.make_series.kept_ratio": ratio(
            summed("series.make_series.out_terms"), summed("series.make_series.in_terms")
        ),
        "series.pow_rational.calls": calls("series.pow_rational"),
        "series.pow_rational.self_s": self_s("series.pow_rational"),
        "series.sum_powers.calls": calls("series.sum_powers"),
        "blocks.calls": tr.module_total(tr.calls, "blocks", P) / n,
        "blocks.self_s": tr.module_total(tr.self_s, "blocks", P) / n,
        "blocks.substitute.calls": calls("blocks.substitute"),
        "compose.compose.calls": calls("compose.compose"),
        "compose.compose.self_s": self_s("compose.compose"),
        "compose.right_factor_reuse_ratio": ratio(
            summed("compose.right_factor_reused"), calls("compose.compose")
        ),
        "compose.invert.calls": calls("compose.invert"),
        "compose.invert.self_s": self_s("compose.invert"),
        "compose.conjugate.self_s": self_s("compose.conjugate"),
        "normalize.stage.reduce_s": stage("compose.reduce_alpha", "compose.reduce_lambda"),
        "normalize.stage.prenormalize_s": stage("normalize.prenormalize"),
        "normalize.stage.conjugate_s": stage("compose.conjugate"),
        "normalize.stage.fixed_point_s": stage("normalize.normalize_direct"),
        "normalize.stage.verify_s": tr.inclusive("normalize.verify_normalization", P) / n,
        "normalize.bottcher_op.calls": calls("normalize.bottcher_op"),
        "normalize.picard_iterations": summed("normalize.picard_iterations"),
        "domains.invariant_threshold_s": tr.inclusive("domains.invariant_threshold", S),
        "domains.domain_member.calls": calls("domains.domain_member"),
        "domains.domain_member.self_s": self_s("domains.domain_member"),
        "domains.M.calls": calls("domains.M"),
        "koenigs.evaluator.calls": calls("koenigs.evaluator"),
        "koenigs.evaluator.self_s": self_s("koenigs.evaluator"),
        "koenigs.map_evals": calls("koenigs.user_map"),
        "koenigs.map_evals_per_point": ratio(calls("koenigs.user_map", ("points",)), points),
        "koenigs.point_p50_us": statistics.median(ref.op_seconds) * 1e6 if wl.point_ops else 0.0,
        "koenigs.point_p99_us": (
            statistics.quantiles(ref.op_seconds, n=100)[-1] * 1e6 if wl.point_ops else 0.0
        ),
        "dulac.normalize_full_s": tr.inclusive("dulac.dulac_normalize_full", P) / n,
        "dulac.to_zeta_chart_s": tr.inclusive("dulac.to_zeta_chart", P) / n,
        "dulac.evaluate_zeta.calls": calls("dulac.evaluate_zeta"),
        "dulac.evaluate_zeta.self_s": self_s("dulac.evaluate_zeta"),
        "dulac.compare_formal_numeric.self_s": self_s("dulac.compare_formal_numeric"),
        "koenigs.mp_map_evals": calls("koenigs.mp_map"),
        "trace.overhead_s": traced - ref.work_s,
        "trace.overhead_ratio": traced / ref.work_s - 1.0,
        "koenigs.iterations_mean": 0.0,
        "koenigs.iterations_used_entries": 0,
        **wl.layer_metrics(),
        **loc_metrics(),
    }
    if set(m) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {set(m) ^ set(PER_LAYER)}")
    return {name: m[name] for name in PER_LAYER}


def _report(args, passes, failures, problems, metrics, units, diagnostics):
    kind = "1 untraced + {} traced".format(len(passes) - 1) if args.trace else len(passes)
    print(f"workload {args.workload}  seed {args.seed}  passes: {kind}  "
          f"(held-out seed {HELD_OUT_SEED})")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6g} {units[name]}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"  {'error_rate':38s} {failed / attempted:14.6g} ({failed} of {attempted} failed)")
    for reason, count in sorted(failures.items()):
        print(f"  failed x{count}: {reason}")
    for line in diagnostics:
        print(f"  {line}")
    for problem in problems:
        print(f"  INCONSISTENT: {problem}")
    print(f"  output digest {passes[0].digest[:16]}")


def run(args) -> dict:
    if not args.trace:
        refclock.start()
    t0 = refclock.now()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup = [refclock.now() - t0]
    start = time.perf_counter()
    deadline = start + args.seconds
    diagnostics = []
    if not args.trace:
        # Fresh-process set-ups run between passes, spread over the run: the
        # machine's speed changes every few seconds, and set-ups taken back
        # to back would all see the same speed.  A probe has no reference
        # clock of its own; its seconds are scaled by this process's speed.
        def probe(until_share: float):
            while len(setup) - 1 < (SETUP_SAMPLES - 1) * min(1.0, until_share):
                setup.append(_setup_probe(args.workload, args.seed) * refclock.factor())

        rss_mb = []

        def after_pass():
            # Peak memory through set-up and the first pass only: each pass
            # adds entries to compose._CTX_CACHE until its cap (11 entries and
            # about 16 MB per pass on formal_fractional), and how many passes
            # fit in a run depends on the machine's speed.
            if not rss_mb:
                rss_mb.append(_peak_rss_mb())
            probe((time.perf_counter() - start) / args.seconds)

        passes = _passes(wl, deadline, after_pass)
        probe(1.0)
        refclock.stop()
        metrics = end_to_end(passes, setup, rss_mb[0])
        diagnostics = [
            refclock.summary(),
            f"set-up in this process {setup[0]:.4g} s; "
            f"peak RSS after all passes {_peak_rss_mb():.4g} MB",
        ]
        units = {n: u for n, (u, _, _) in END_TO_END.items()}
        all_passes = passes
    else:
        from tracer import Tracer

        ref = wl.run_pass()
        tr = Tracer()
        tr.install()
        try:
            wl = workloads.WORKLOADS[args.workload](args.seed, tr)
            base = {name: cell[0] for name, cell in tr.counters.items()}
            tr.phase = "pass"
            passes = _passes(wl, deadline)
        finally:
            tr.uninstall()
        tr.dump(ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = per_layer(tr, base, passes, ref, wl)
        units = {n: u for n, (u, _) in PER_LAYER.items()}
        all_passes = [ref] + passes
    failures = Counter()
    for p in all_passes:
        failures.update(p.failures)
    problems = _consistent(all_passes)
    _report(args, all_passes, failures, problems, metrics, units, diagnostics + wl.diagnostics())
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in all_passes),
        "failed": sum(p.failed for p in all_passes),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "bottcher" / "__init__.py").is_file():
        print(f"bench: no bottcher sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
        print(time.perf_counter() - t0)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
