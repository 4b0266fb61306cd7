"""Golden stdout of the CLI's `analytic koenigs` and `analytic homological`.

`tests/data/koenigs_golden.json` holds, for each argv of `RUNS`, the stdout
and exit code of the run, each germ named by its file in `tests/data/germs`: `analytic koenigs --json` in float mode and with
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
GERMS = DATA.parent / "germs"

# The germs, exact zeta-chart JSON: f_2z is 2 zeta, f_2z_e1 is 2 zeta + e^(-zeta),
# f_2z_e1_z2e1.5 adds -1/4 zeta^2 e^(-3/2 zeta), f_3z_ze2 is 3 zeta + 1/2 zeta e^(-2 zeta),
# and g_e1, g_e2, g_e0.5 are e^(-zeta), 1/2 e^(-2 zeta), 5 e^(-zeta/2).
KOENIGS = ("analytic", "koenigs", "--json")
HOMOLOGICAL = ("analytic", "homological", "--json")
RUNS = (
    (*KOENIGS, "--infile", "f_2z_e1.json", "--samples", "3:10:7"),
    (*KOENIGS, "--infile", "f_2z_e1_z2e1.5.json", "--samples", "6:6:5"),
    (*KOENIGS, "--infile", "f_3z_ze2.json", "--k", "2", "--eps", "0.5", "--samples", "4:8:4"),
    (*KOENIGS, "--infile", "f_2z_e1.json", "--samples", "3:10:5", "--tol", "1e-6"),
    (*KOENIGS, "--infile", "f_2z_e1.json", "--samples", "3:10:5", "--precision", "30",
     "--tol", "1e-25"),
    (*KOENIGS, "--infile", "f_2z_e1_z2e1.5.json", "--samples", "6:6:3",
     "--precision", "30", "--tol", "1e-25"),
    (*KOENIGS, "--infile", "f_2z_e1.json", "--samples", "0.5:1:2"),
    (*HOMOLOGICAL, "--infile", "f_2z.json", "--nu", "1", "--g-infile", "g_e1.json",
     "--samples", "3:10:5"),
    (*HOMOLOGICAL, "--infile", "f_2z_e1.json", "--g-infile", "g_e2.json", "--samples", "3:6:4"),
    (*HOMOLOGICAL, "--infile", "f_2z_e1.json", "--g-infile", "g_e1.json", "--samples", "3:6:3",
     "--precision", "30", "--tol", "1e-25"),
    (*HOMOLOGICAL, "--infile", "f_2z.json", "--g-infile", "g_e0.5.json"),
)


def _run(argv) -> dict:
    out = io.StringIO()
    paths = [str(GERMS / a) if a.endswith(".json") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(paths)
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
