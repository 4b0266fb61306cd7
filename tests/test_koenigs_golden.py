"""Golden stdout of the CLI's `analytic koenigs` and `analytic homological`.

`tests/data/koenigs_golden.json` holds, for each argv of `RUNS`, the stdout
and exit code of the run: `analytic koenigs --json` in float mode and with
`--precision 30`, and `analytic homological --json` in both, plus a sample
below the certified threshold and a failed homological precondition (both
exit 2).  Each koenigs sample pins its value, tail, residual and identity
bound bit for bit, so the certified-point loop must keep every float it
prints.  Every entry must match byte for byte.

Regenerate (only on purpose) with `PYTHONPATH=src python tests/test_koenigs_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from bottcher.cli import main

DATA = Path(__file__).parent / "data" / "koenigs_golden.json"

KOENIGS = ("analytic", "koenigs", "--json")
HOMOLOGICAL = ("analytic", "homological", "--json")
RUNS = (
    (*KOENIGS, "--alpha", "2", "--term", "1,0,1", "--samples", "3:10:7"),
    (*KOENIGS, "--alpha", "2", "--term", "1,0,1", "--term=-0.25,2,1.5", "--samples", "6:6:5"),
    (*KOENIGS, "--alpha", "3", "--term", "0.5,1,2", "--k", "2", "--eps", "0.5", "--samples", "4:8:4"),
    (*KOENIGS, "--alpha", "2", "--term", "1,0,1", "--samples", "3:10:5", "--tol", "1e-6"),
    (*KOENIGS, "--alpha", "2", "--term", "1,0,1", "--samples", "3:10:5", "--precision", "30",
     "--tol", "1e-25"),
    (*KOENIGS, "--alpha", "2", "--term", "1,0,1", "--term=-0.25,2,1.5", "--samples", "6:6:3",
     "--precision", "30", "--tol", "1e-25"),
    (*KOENIGS, "--alpha", "2", "--term", "1,0,1", "--samples", "0.5:1:2"),
    (*HOMOLOGICAL, "--alpha", "2", "--nu", "1", "--g-term", "1,0,1", "--samples", "3:10:5"),
    (*HOMOLOGICAL, "--alpha", "2", "--f-term", "1,0,1", "--g-term", "0.5,0,2", "--samples", "3:6:4"),
    (*HOMOLOGICAL, "--alpha", "2", "--f-term", "1,0,1", "--g-term", "1,0,1", "--samples", "3:6:3",
     "--precision", "30", "--tol", "1e-25"),
    (*HOMOLOGICAL, "--alpha", "2", "--g-term", "5,0,0.5"),
)


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def outputs() -> list[dict]:
    return [_run(argv) for argv in RUNS]


def test_koenigs_output_matches_golden():
    golden = json.loads(DATA.read_text())
    got = outputs()
    assert [r["argv"] for r in got] == [r["argv"] for r in golden]
    for run, ref in zip(got, golden):
        assert run == ref, run["argv"]


if __name__ == "__main__":
    DATA.write_text(json.dumps(outputs(), indent=1) + "\n")
