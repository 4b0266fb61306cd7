"""Golden stdout of the CLI's `bridge` commands, in exact and in float mode.

`tests/data/bridge_golden.json` holds, for each README bridge input and for
`2*z^2 - z^3`, the stdout and exit code of `bridge to-zeta`, of `bridge to-z`
read back from that output, and of `bridge compare --json` on the README's
compare line.  It also holds the edge cases of `EDGES` and `TO_Z`: a depth-0
input, an empty ladder, a float ladder with gaps, hand-written zeta-chart
JSON with a gap and a trailing zero, the two shape errors (exit 2), and
compares of a third rung, of lambda = 2, of alpha < 1, of a log term, of
a complex lambda, and of alpha = 3 (with and without a log term) and 7/3, where
the numeric side divides by the exact alpha^n.  Every entry must match byte for byte.

Regenerate (only on purpose) with `PYTHONPATH=src python tests/test_bridge_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from bottcher.cli import main

DATA = Path(__file__).parent / "data" / "bridge_golden.json"

# (expression, extra to-zeta options)
TO_ZETA = (
    ("z^2 - z^3*l1^-1", ("--e-cap", "4")),
    ("z^2 - z^3 + 1/2*z^4", ()),
    ("2*z^2 - z^3", ()),
)
COMPARE = ("z^2 - z^3 + 1/2*z^4", "--n", "2", "--sqd-C", "1", "--json")
MODES = {"exact": (), "float": ("--float",)}

# argv of further bridge runs, each in the one mode it names
EDGES = (
    ("to-zeta", "z^2 + z^3 - 1/2*z^(7/2)", "--depth", "0", "--z-cap", "8"),
    ("to-zeta", "z^2 + z^3 - 1/2*z^(7/2)", "--depth", "0", "--z-cap", "8", "--float"),
    ("to-zeta", "z^2 - z^3", "--e-cap", "0"),
    ("to-zeta", "3/2*z^(5/2) - z^3*l1^-2 + z^4", "--float", "--e-cap", "3"),
    ("to-zeta", "z^2 + z^2*l1"),
    ("compare", "z^2 - z^3 + 1/2*z^4", "--n", "3", "--sqd-C", "1", "--json"),
    ("compare", "2*z^2 - z^3", "--n", "3", "--sqd-C", "1", "--json"),
    ("compare", "z^(1/2) + z", "--n", "2", "--sqd-C", "1", "--json"),
    ("compare", "z^2 - z^3*l1^-1", "--n", "2", "--sqd-C", "1", "--json"),
    ("compare", "(1+1i)*z^2 - z^3", "--float", "--n", "2", "--sqd-C", "1", "--json"),
    ("compare", "z^3 - z^4", "--n", "4", "--json"),
    ("compare", "z^3 + z^4*l1^-2", "--n", "3", "--json"),
    ("compare", "z^(7/3) + z^3", "--n", "4", "--json"),
)


def _c(re, im=0.0):
    return {"re": re, "im": im}


# hand-written `bridge to-z` inputs: a float Q = [0, 1, 0], and beta = 0
TO_Z = {
    "float_gap": {"alpha": "2", "c0": _c(0.5), "mode": "float",
                  "ladder": [{"beta": 1.0, "Q": [_c(0.0), _c(1.0), _c(0.0)]},
                             {"beta": 1.5, "Q": [_c(-0.25, 0.5)]}]},
    "beta_zero": {"alpha": "2", "c0": _c("0", "0"), "mode": "exact",
                  "ladder": [{"beta": "0", "Q": [_c("1", "0")]}]},
}


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def outputs(tmp: Path) -> list[dict]:
    runs = []
    for mode, flags in MODES.items():
        for i, (expr, opts) in enumerate(TO_ZETA):
            zeta = _run(["bridge", "to-zeta", expr, *opts, *flags])
            path = tmp / f"{mode}_{i}.json"
            path.write_text(zeta["stdout"])
            back = _run(["bridge", "to-z", "--infile", str(path)])
            back["argv"][-1] = "<stdout of " + " ".join(zeta["argv"]) + ">"
            runs += [zeta, back]
        runs.append(_run(["bridge", "compare", *COMPARE, *flags]))
    runs += [_run(["bridge", *argv]) for argv in EDGES]
    for name, data in TO_Z.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(data))
        run = _run(["bridge", "to-z", "--infile", str(path)])
        run["argv"][-1] = f"<TO_Z[{name!r}]>"
        runs.append(run)
    return runs


def test_bridge_output_matches_golden(tmp_path):
    golden = json.loads(DATA.read_text())
    got = outputs(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in golden]
    for run, ref in zip(got, golden):
        assert run == ref, run["argv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DATA.write_text(json.dumps(outputs(Path(tmp)), indent=1) + "\n")
