"""The benchmark's output digests, one pass per workload at seeds 0 and 7177.

Each digest hashes the series_to_json of every phi below its frontier (and
the analytic workload's bridge values), so a change that keeps these digests
keeps the benchmark's outputs.  bench/workloads.py is imported, not edited.
"""

import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# workload -> {seed: (first 8 hex digits of the digest, exact_terms)}
EXPECTED = {
    "formal_suite": {0: ("57c2f9ac", 68), 7177: ("b8a08dc6", 68)},
    "formal_fractional": {0: ("e58009fe", 120), 7177: ("3e902efb", 120)},
    "analytic_bridge": {0: ("67bc01bc", 6), 7177: ("3b15787e", 6)},
}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("seed", [0, 7177])
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bench_pass_keeps_its_digest(workloads, name, seed):
    dps = mpmath.mp.dps  # the analytic workload sets it for the process
    try:
        out = workloads.WORKLOADS[name](seed).run_pass()
    finally:
        mpmath.mp.dps = dps
    assert out.failed == 0, dict(out.failures)
    assert (out.digest[:8], out.exact_terms) == EXPECTED[name][seed]
