"""Smoke test of the demo scripts, and the boundary of what the library keeps.

Each demo script runs to exit 0 and writes its file.  The library keeps what
the CLI, the bench and the scripts run; what only tests use lives in
`tests/crosschecks.py`.  No library module imports a name it does not use.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
LIB = ROOT / "src" / "bottcher"

# Unreached on purpose: the map checks are kept for a certificate of the
# analytic pipeline.
KEPT_UNREACHED = {"upper_map_check", "lower_map_check", "_map_check", "MapCheckReport"}


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


def test_library_modules_import_no_unused_name():
    """A name a module other than `__init__` imports is used in its code;
    `__init__` re-exports what it imports."""
    unused = {}
    for path in sorted(LIB.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", "") != "__future__"
            for alias in n.names
        }
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def _imports_of(module: str, node, fn=None):
    """The innermost enclosing function (None at module level) of each import of `module`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            hits = [a.name for a in child.names]
        else:
            hits = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
        if any(h.split(".")[0] == module for h in hits):
            yield fn
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
        yield from _imports_of(module, child, inner)


def test_library_decides_its_number_type_in_one_helper():
    """mpmath or float/complex is one decision, made from a sample number by
    `dulac.numbers_like`: outside the CLI, no other function imports mpmath."""
    importers = {
        (path.name, fn)
        for path in sorted(LIB.glob("*.py"))
        if path.name != "cli.py"
        for fn in _imports_of("mpmath", ast.parse(path.read_text()))
    }
    assert importers == {("dulac.py", "numbers_like")}


def _has_attribute(node, attr: str) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node))


def _frontier_filters(tree) -> list:
    """Lines of the loops and comprehensions over an `X.terms` expression that
    compare against an attribute named `frontier`."""
    loops = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            loops.append((node, [node.iter]))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            loops.append((node, [g.iter for g in node.generators]))
    return [
        node.lineno
        for node, iters in loops
        if any(_has_attribute(it, "terms") for it in iters)
        and any(isinstance(n, ast.Compare) and _has_attribute(n, "frontier") for n in ast.walk(node))
    ]


def test_only_the_series_kernel_decides_which_terms_are_trusted():
    """`series.make_series` stores only the terms below the frontier, so no
    other library module filters a series' terms against its frontier."""
    filters = {
        path.name: _frontier_filters(ast.parse(path.read_text()))
        for path in sorted(LIB.glob("*.py"))
        if path.name != "series.py"
    }
    assert {name: lines for name, lines in filters.items() if lines} == {}


def test_cli_builds_no_numeric_evaluator():
    """The analytic maps are `dulac`'s (`zeta_chart_map`): the CLI names none
    of the helpers a third numeric evaluator would convert its constants with."""
    tree = ast.parse((LIB / "cli.py").read_text())
    imported = {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert (imported | _names(tree)) & {"by_kind", "numbers_like", "number_kind"} == set()


def _mode_decisions(tree, exempt_fn=None) -> list:
    """Lines that decide exact against float themselves: a comparison naming
    EXACT or FLOAT, a mention of FLOAT_TOL, or an `isinstance(..., Exact)`;
    the body of the function `exempt_fn` is skipped."""
    lines = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == exempt_fn:
            return
        if isinstance(node, ast.Compare) and _names(node) & {"EXACT", "FLOAT"}:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Name, ast.Attribute)) and "FLOAT_TOL" in _names(node):
            lines.append(node.lineno)
        elif _isinstance_of(node, "Exact"):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return sorted(set(lines))


def _isinstance_of(node, cls: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and cls in _names(node.args[1]))


def test_only_coeffs_decides_exact_against_float():
    """`coeffs` alone decides exact against float: no other library module
    compares a mode with EXACT or FLOAT, names FLOAT_TOL or tests for an
    `Exact`.  A mode passed as a value (a default `mode=EXACT`, the CLI's
    `--float`) decides nothing.  The codecs `io_json` and `printer` spell
    each kind, and `dulac.numbers_like` converts either kind to mpmath."""
    exempt_fn = {"dulac.py": "numbers_like"}
    found = {
        path.name: _mode_decisions(ast.parse(path.read_text()), exempt_fn.get(path.name))
        for path in sorted(LIB.glob("*.py"))
        if path.name not in ("coeffs.py", "io_json.py", "printer.py")
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_keys_and_the_codec_tell_a_cut_from_a_key():
    """A frontier's class answers for itself (its order, `block_past`): no
    library module outside `keys` and `io_json` tests for a `Cut`."""
    found = {
        path.name: [n.lineno for n in ast.walk(ast.parse(path.read_text()))
                    if _isinstance_of(n, "Cut")]
        for path in sorted(LIB.glob("*.py"))
        if path.name not in ("keys.py", "io_json.py")
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_koenigs_and_homological_evaluators_share_one_loop():
    """The Koenigs map and the homological sum are one certified orbit loop
    with one set of checks: `koenigs.py` holds exactly one `while` loop."""
    tree = ast.parse((LIB / "koenigs.py").read_text())
    assert sum(isinstance(n, ast.While) for n in ast.walk(tree)) == 1


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from bottcher import *", namespace)
    public = {n: v for n, v in namespace.items() if not n.startswith("__")}
    assert not [n for n, v in public.items() if isinstance(v, ModuleType)]
    assert callable(public["compose"]) and "normalize" in public and "Composer" in public
