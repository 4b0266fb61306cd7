"""Golden stdout of the CLI's `bridge` commands, in exact and in float mode.

`tests/data/bridge_golden.json` holds, for each README bridge input and for
`2*z^2 - z^3`, the stdout and exit code of `bridge to-zeta`, of `bridge to-z`
read back from that output, and of `bridge compare --json` on the README's
compare line. Every entry must match byte for byte.

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
