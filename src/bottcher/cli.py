"""Command-line interface: parse expressions, run the pipelines, emit JSON/CSV.

Exit codes: 0 success, 2 shape/precondition error, 3 certification failure,
4 parse error; any other error is reported in one line with exit code 2.
Each command takes only the options it reads; argparse rejects the rest.
A key=value config file (path in $BOTTCHER_CONFIG) supplies defaults for the
truncation caps, tolerances and analytic samples; a key that names no option
of the chosen subcommand is ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .coeffs import EXACT, FLOAT, Exact
from .domains import AsymptoticSpec, DomainSpec, invariant_threshold
from .dulac import (
    compare_formal_numeric,
    dulac_normalize_full,
    to_z_chart,
    to_zeta_chart,
    zeta_chart_map,
    zeta_map,
)
from .errors import (
    BottcherError,
    CertificationError,
    ParseError,
    ShapeError,
)
from .io_json import (
    dulac_z_to_json,
    dulac_zeta_from_json,
    dulac_zeta_to_json,
    key_to_json,
    normalization_result_to_json,
    report_to_json,
    series_from_json,
    series_to_json,
)
from .koenigs import (
    homological_residual,
    identity_deviation_bound,
    koenigs_normalize,
    koenigs_residual,
    solve_homological,
)
from .normalize import (
    NOT_MONIC,
    bottcher_R_op,
    bottcher_sequence,
    conjugation_report,
    normalize,
    prenormalize,
    support_predict,
    enumerate_semigroup,
)
from .parser import parse
from .printer import format_series
from .series import identity_series
from .keys import Key


# $BOTTCHER_CONFIG keys; each sets the default of the option with that dest
CONFIG_KEYS = ("z_cap", "block_cap", "depth", "mode", "tol", "r_ceiling", "precision",
               "samples")


def _read_config(path) -> dict:
    """The key=value lines of the config file; blank and # lines are skipped."""
    config = {}
    if path and os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#") and "=" in line:
                    k, v = (s.strip() for s in line.split("=", 1))
                    config[k] = v
    return config


def _parse_expr(text: str, args):
    return parse(text, mode=args.mode, z_cap=args.z_cap, block_cap=args.block_cap,
                 depth=args.depth)


def _read_json(path):
    """The JSON document in the file at path, or on standard input if path is None."""
    if path is None:
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _rational(text: str) -> Fraction:
    """The type of --z-cap and --e-cap: a rational "p" or "p/q".  A bad value,
    a zero denominator too, is an argparse error (exit 2), not a traceback."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _add_grid(p):
    p.add_argument("--z-cap", dest="z_cap", type=_rational, default="12")
    p.add_argument("--block-cap", dest="block_cap", type=int, default=10)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--float", dest="mode", action="store_const", const=FLOAT, default=EXACT)


def _add_common(p):
    _add_grid(p)
    p.add_argument("--json", action="store_true")


def _add_domain(p):
    """Defect type, domain and threshold options of `analytic` and `bridge compare`."""
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--sqd-C", dest="sqd_C", type=float, default=1.0)
    p.add_argument("--r-ceiling", dest="r_ceiling", type=_finite, default=64.0)


def _add_analytic(p, numeric=True):
    """The germ f (--infile), `_add_domain` and --json; numeric adds --tol,
    --samples and --precision."""
    p.add_argument("--infile", default=None,
                   help="f as zeta-chart germ JSON (`bridge to-zeta`); default: standard input")
    _add_domain(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analytic)
    if numeric:
        p.add_argument("--tol", type=float, default=1e-11)
        p.add_argument("--samples", type=_samples_spec, default="3:10:25",
                       help="grid spec R0:SPAN:N")
        p.add_argument("--precision", type=_int_at_least(15), default=None,
                       help="mpmath digits, at least 15 (a double's 53 bits)")


def _fields(text: str, sep: str, types: tuple, form: str) -> tuple:
    """The fields of text split at sep, one per type, every number finite;
    anything else is an argparse error (exit 2) naming the expected form."""
    try:
        values = tuple(t(v) for t, v in zip(types, text.split(sep), strict=True))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")


def _finite(text: str) -> float:
    """The type of --ray-span and --r-ceiling."""
    return _fields(text, ",", (float,), "a finite float")[0]


def _samples_spec(text: str) -> tuple[float, float, int]:
    """The `--samples` type: R0:SPAN:N, N >= 1 points from R0 to R0 + SPAN."""
    spec = _fields(text, ":", (float, float, int), "finite R0:SPAN:N")
    if spec[2] < 1:
        raise argparse.ArgumentTypeError(f"N must be at least 1, got {text!r}")
    return spec


def _int_at_least(least: int):
    """The type of an integer option >= least: 0, 1 or 15 (--precision)."""

    def at_least(text: str) -> int:
        (n,) = _fields(text, ",", (int,), "an integer")
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text!r}")
        return n

    return at_least


def _sample_points(args) -> list:
    """The points of the grid spec R0:SPAN:N (mpmath points with --precision)."""
    r0, span, n = args.samples
    xs = [r0 + span * i / max(1, n - 1) for i in range(n)]
    if args.precision:
        import mpmath

        return [mpmath.mpc(x, 0.0) for x in xs]
    return [complex(x, 0.0) for x in xs]


def cmd_normalize(args) -> int:
    res = normalize(_parse_expr(args.expr, args))
    payload = normalization_result_to_json(res)
    _emit(
        args,
        payload,
        f"phi = {format_series(res.phi)}\n"
        f"alpha = {res.alpha}, beta = {res.beta}, iterations = {res.iterations}\n"
        f"verification: {res.verification}",
    )
    return 0 if res.verification.get("conjugation_exact_below_frontier", True) else 3


def cmd_prenormalize(args) -> int:
    phi1 = prenormalize(_parse_expr(args.expr, args))
    _emit(args, series_to_json(phi1), f"phi1 = {format_series(phi1)}")
    return 0


def cmd_bottcher_seq(args) -> int:
    f = _parse_expr(args.expr, args)
    seed = _parse_expr(args.seed, args) if args.seed else None
    if seed is None:
        seed = identity_series(f.grid, f.mode)
    out = bottcher_sequence(f, seed, args.n)
    _emit(args, series_to_json(out), format_series(out))
    return 0


def cmd_support(args) -> int:
    spec = support_predict(_parse_expr(args.expr, args))
    payload = {"generators": list(map(key_to_json, spec.generators)),
               "cutoff": key_to_json(spec.cutoff)}
    text = "generators: " + ", ".join(f"({g.z},{list(g.l)})" for g in spec.generators)
    if args.enumerate is not None:
        keys = enumerate_semigroup(spec, ell_window=args.enumerate)
        payload["enumeration"] = list(map(key_to_json, keys))
        text += "\nenumeration: " + ", ".join(f"({k.z},{list(k.l)})" for k in keys)
    _emit(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    f = _parse_expr(args.f, args)
    if args.phi_file:
        phi = series_from_json(_read_json(args.phi_file))
    else:
        phi = _parse_expr(args.phi, args)
    report = conjugation_report(f, phi)
    ok = report["conjugation_exact_below_frontier"]
    _emit(args, report_to_json(report),
          f"verify: {'PASS' if ok else 'FAIL'} (below {report['checked_below'].z})")
    return 0 if ok else 3


def cmd_analytic(args) -> int:
    """The analytic subcommands; `--precision` digits hold only for this call."""
    if not args.precision:
        return _analytic(args)
    import mpmath

    with mpmath.workdps(args.precision):
        return _analytic(args)


def _analytic(args) -> int:
    germ = dulac_zeta_from_json(_read_json(args.infile))
    spec = AsymptoticSpec(alpha=germ.alpha, eps=args.eps, k=args.k)
    dom = DomainSpec.standard_quadratic(args.sqd_C)
    homological = args.analytic_cmd == "homological"
    f = zeta_chart_map(germ)
    g = zeta_chart_map(dulac_zeta_from_json(_read_json(args.g_infile))) if homological else None
    R = invariant_threshold(f, spec, dom, r_ceiling=args.r_ceiling)
    if args.analytic_cmd == "domain-check":
        _emit(args, {"R": R}, f"certified R = {R}")
        return 0
    if homological:
        res = solve_homological(f, g, args.nu, spec, dom, R, tol=args.tol)
        worst = 0.0
        for zeta in _sample_points(args):
            worst = max(worst, float(homological_residual(res, f, g, zeta)))
        _emit(args, {"R": R, "worst_residual": worst}, f"R = {R}; worst residual = {worst:.3e}")
        return 0
    result = koenigs_normalize(f, spec, dom, R, tol=args.tol)
    rows = []
    for zeta in _sample_points(args):
        phi = result.evaluator(zeta)
        tail = result.tail_bound(zeta)  # read before the residual moves on to f(zeta)
        rows.append(
            {
                "zeta": float(zeta.real),
                "phi_re": float(phi.real),
                "phi_im": float(phi.imag),
                "residual": float(koenigs_residual(result, f, zeta)),
                "tail_bound": tail,
                "id_bound": identity_deviation_bound(result, zeta),
            }
        )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("zeta,phi_re,phi_im,residual,bound\n")
            for r in rows:
                fh.write(
                    f"{r['zeta']},{r['phi_re']},{r['phi_im']},{r['residual']},{r['tail_bound']}\n"
                )
    _emit(args, {"R": R, "samples": rows}, f"R = {R}; worst residual = {max(r['residual'] for r in rows):.3e}")
    return 0


def cmd_to_zeta(args) -> int:
    out = to_zeta_chart(_parse_expr(args.expr, args), e_cap=args.e_cap)
    print(json.dumps(dulac_zeta_to_json(out), indent=2))
    return 0


def cmd_to_z(args) -> int:
    out = to_z_chart(dulac_zeta_from_json(_read_json(args.infile)))
    print(json.dumps(dulac_z_to_json(out), indent=2))
    return 0


def cmd_compare(args) -> int:
    import mpmath

    f = _parse_expr(args.expr, args)
    phi, res = dulac_normalize_full(f, z_cap=args.z_cap, block_cap=args.block_cap)
    phi_hat = to_zeta_chart(phi)
    betas = phi_hat.betas()
    if len(betas) < args.n:
        raise ShapeError(f"phi has {len(betas)} rung(s) at --z-cap {args.z_cap}, fewer than --n {args.n}")
    spec = AsymptoticSpec(alpha=res.alpha, eps=args.eps, k=args.k)
    dom = DomainSpec.standard_quadratic(args.sqd_C)
    fmap = zeta_map(res.reduced)
    R = invariant_threshold(fmap, spec, dom, r_ceiling=args.r_ceiling)
    xs = [R + args.ray_span * i / 63 for i in range(64)]
    reports = {}
    stats = {}
    for n in range(1, args.n + 1):
        # rung n runs at the digits its weight e^(beta_n x) costs on the ray, plus 20
        dps = math.ceil(float(betas[n - 1]) * max(xs) / math.log(10)) + 20
        with mpmath.workdps(dps):
            numeric = koenigs_normalize(fmap, spec, dom, R, tol=10.0 ** (5 - dps)).evaluator
            reports[n] = compare_formal_numeric(numeric, phi_hat, n, [mpmath.mpf(x) for x in xs])
        stats[n] = reports[n].pop("statistic", [])
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("re_zeta," + ",".join(f"n{n}" for n in sorted(stats)) + "\n")
            for i, x in enumerate(xs):
                row = [f"{x}"] + [f"{stats[n][i]}" for n in sorted(stats)]
                fh.write(",".join(row) + "\n")
    payload = {"R": R, "reports": reports}
    _emit(args, payload, "\n".join(f"n={n}: pass={r['pass']} sup={r['sup']:.3e}" for n, r in reports.items()))
    return 0 if all(r["pass"] for r in reports.values()) else 3


def cmd_selftest(args) -> int:
    """Fast built-in checks of the exact pipeline anchors."""
    f = parse("z^2 + z^2*l1", mode=EXACT, z_cap=6, block_cap=8)
    ident = identity_series(f.grid, f.mode)
    r1 = bottcher_R_op(f, ident)
    ok1 = r1.coeff(Key(1, (1,))) == Exact.of(Fraction(1, 2))
    res = normalize(parse("z^2 + z^3", mode=EXACT, z_cap=8, block_cap=8))
    ok2 = res.phi.coeff(Key(2, (0,) * res.phi.depth)) == Exact.of(Fraction(1, 2))
    ok = ok1 and ok2
    print(f"selftest: {'PASS' if ok else 'FAIL'} (R-op anchor {ok1}, Bottcher anchor {ok2})")
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bottcher", description=__doc__)
    sp = ap.add_subparsers(dest="cmd", required=True)

    p = sp.add_parser("normalize", help="full formal normalization of an expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sp.add_parser("prenormalize", help="canonical same-order block removal")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=cmd_prenormalize)

    p = sp.add_parser("bottcher-seq", help="n-th iterate of the Bottcher operator")
    p.add_argument("expr")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--seed", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_bottcher_seq)

    p = sp.add_parser("support", help="semigroup support predictor")
    p.add_argument("expr")
    p.add_argument("--enumerate", type=_int_at_least(0), default=None, metavar="ELL_WINDOW")
    _add_common(p)
    p.set_defaults(fn=cmd_support)

    p = sp.add_parser("verify", help="check phi o f = phi^alpha below frontier")
    p.add_argument("--f", required=True)
    phi = p.add_mutually_exclusive_group(required=True)
    phi.add_argument("--phi", default=None)
    phi.add_argument("--phi-file", dest="phi_file", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    an = sp.add_parser("analytic", help="domain certification / Koenigs / homological")
    an = an.add_subparsers(dest="analytic_cmd", required=True)
    p = an.add_parser("domain-check", help="certify an invariant threshold R")
    _add_analytic(p, numeric=False)
    p.set_defaults(precision=None)  # the threshold search runs in double precision

    p = an.add_parser("koenigs", help="Koenigs normalizer at sample points")
    _add_analytic(p)
    p.add_argument("--csv", default=None)

    p = an.add_parser("homological", help="solve h o f - alpha h = g")
    _add_analytic(p)
    p.add_argument("--g-infile", dest="g_infile", required=True,
                   help="g as zeta-chart germ JSON with alpha 0 and c0 0")
    p.add_argument("--nu", type=float, default=1.0)

    br = sp.add_parser("bridge", help="Dulac chart conversions and comparison")
    br = br.add_subparsers(dest="bridge_cmd", required=True)
    p = br.add_parser("to-zeta", help="a Dulac series in the zeta chart, as JSON")
    p.add_argument("expr")
    p.add_argument("--e-cap", dest="e_cap", type=_rational, default=None)
    _add_grid(p)
    p.set_defaults(fn=cmd_to_zeta)

    p = br.add_parser("to-z", help="a zeta-chart JSON series back in the z chart")
    p.add_argument("--infile", default=None, help="default: standard input")
    p.set_defaults(fn=cmd_to_z)

    p = br.add_parser("compare", help="formal against numeric Koenigs normalizer")
    p.add_argument("expr")
    p.add_argument("--n", type=_int_at_least(1), default=2)
    _add_domain(p)
    p.add_argument("--csv", default=None)
    p.add_argument("--ray-span", dest="ray_span", type=_finite, default=12.0)
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sp.add_parser("selftest", help="fast built-in anchor checks")
    p.set_defaults(fn=cmd_selftest)
    return ap


def _subcommands(ap: argparse.ArgumentParser) -> dict:
    """Command name ("normalize", "bridge to-zeta", ...) -> its parser, from `build_parser`."""
    out = {}
    for action in ap._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, p in action.choices.items():
                out[name] = p
                out.update({f"{name} {k}": q for k, q in _subcommands(p).items()})
    return out


def main(argv=None) -> int:
    ap = build_parser()
    config = _read_config(os.environ.get("BOTTCHER_CONFIG"))
    for p in _subcommands(ap).values():
        dests = {a.dest for a in p._actions}
        p.set_defaults(**{k: v for k, v in config.items() if k in CONFIG_KEYS and k in dests})
    args = ap.parse_args(argv)  # applies each option's type to config values too
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 4
    except CertificationError as e:
        print(f"certification failed: {e}", file=sys.stderr)
        return 3
    except BottcherError as e:
        if str(e) == NOT_MONIC:
            e = (
                f"{args.cmd} needs leading coefficient 1; rescale z to make it 1, "
                "or run `normalize`, which reduces it itself"
            )
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
