"""The benchmark's tracer (bench/tracer.py) patches the library from outside:
it looks modules up by name and rebinds their public functions.  A module
change that breaks it breaks `bench/run.py --trace 1`."""

import importlib
import sys
from pathlib import Path

from bottcher.parser import parse

nm = importlib.import_module("bottcher.normalize")

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _phi():
    phi = nm.normalize(parse("z^2 + z^3", z_cap=8)).phi
    return phi.terms, phi.frontier


def test_tracer_install_uninstall_round_trip():
    sys.path.insert(0, str(BENCH))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCH))
    original = nm.normalize
    before = _phi()
    tr = Tracer()
    tr.install()
    try:
        traced = _phi()
    finally:
        tr.uninstall()
    assert nm.normalize is original
    assert tr.calls["setup", "normalize.normalize"] == 1
    assert traced == before
    assert _phi() == before
