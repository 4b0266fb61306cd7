"""Smoke test of the demo scripts: each runs to exit 0 and writes its file."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,written",
    [("run_formal_demo.py", "formal_demo.json"), ("run_koenigs_demo.py", "koenigs_samples.csv")],
)
def test_demo_script_runs(script, written, tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = tmp_path / written
    assert out.is_file() and out.stat().st_size > 0
    if written.endswith(".json"):
        results = json.loads(out.read_text())
        assert all(r["verification"]["conjugation_exact_below_frontier"] for r in results.values())
