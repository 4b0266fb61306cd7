"""Smoke test of the demo scripts, and the boundary of what the library keeps.

Each demo script runs to exit 0 and writes its file.  The library keeps what
the CLI, the bench and the scripts run; what only tests use lives in
`tests/crosschecks.py`.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
LIB = ROOT / "src" / "bottcher"

# Unreached on purpose: the map checks are kept for a certificate of the
# analytic pipeline, the composition-support bound with the paper's support code.
KEPT_UNREACHED = {
    "upper_map_check", "lower_map_check", "_map_check", "MapCheckReport",
    "support_of_composition_bound",
}


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


def _names(node) -> set:
    """Every name and attribute a piece of code mentions."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def test_library_keeps_only_what_cli_bench_and_scripts_reach():
    """Reachability by name: the roots are the CLI, the bench and the scripts,
    whole, and the library modules' top-level statements other than imports;
    a module-level function or class is reached when a reached body names it."""
    roots = [LIB / "cli.py", *sorted((ROOT / "bench").glob("*.py")), *sorted(SCRIPTS.glob("*.py"))]
    seen = set().union(*(_names(ast.parse(p.read_text())) for p in roots))
    defs: dict[str, list] = {}
    for path in LIB.glob("*.py"):
        if path.name == "cli.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                seen |= _names(stmt)
    todo = list(seen)
    while todo:
        for body in defs.get(todo.pop(), []):
            new = _names(body) - seen
            seen |= new
            todo.extend(new)
    assert set(defs) - seen == KEPT_UNREACHED
