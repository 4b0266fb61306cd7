"""Golden outputs of `normalize`: phi below its frontier, and the frontier.

`tests/data/normalize_golden.json` holds, for each input below, the
`series_to_json` of `normalize(f).phi` cut to the terms below its frontier.
It was written by the Picard/prenormalization pipeline that the triangular
W-solver replaced, so this test pins the solver to that pipeline's output:
exact mode must match byte for byte, float mode must have the same frontier
and support with coefficients equal to 1e-12 relative.

Regenerate (only on purpose) with `PYTHONPATH=src python tests/test_normalize_golden.py`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from bottcher.io_json import series_to_json
from bottcher.normalize import normalize, verify_normalization
from bottcher.parser import parse
from bottcher.series import TruncationGrid

DATA = Path(__file__).parent / "data" / "normalize_golden.json"

COEFFS = ("1", "-2/3")

# (text with {c} for the drawn coefficient, (z_cap, block_cap, depth[, n]), modes);
# n, a retired cap that bounded nothing, stays only in the case ids of the golden file
SHAPES = (
    ("z^2 + ({c})*z^3", (12, 6, 0), ("exact",)),
    ("z^2 + ({c})*z^2*l1", (12, 8, 1), ("exact",)),
    ("z^3 + ({c})*z^4*l1^2*l2^-1", (12, 6, 2, 10), ("exact",)),
    ("z^2 + ({c})*z^3*l1^-1", (12, 8, 1), ("exact",)),
    ("z^(3/2) + ({c})*z^2", (6, 8, 0, 16), ("exact", "float")),
    ("z^2 + ({c})*z^2*l1 + z^3", (8, 8, 1), ("exact",)),
    ("z^2 + ({c})*z^2*l2", (6, 8, 2), ("exact",)),
    ("z^2 + ({c})*z^2*l1^2 + z^2*l2", (6, 8, 2), ("exact",)),
    ("z^3 + ({c})*z^3*l1^2 + z^3*l1*l2", (7, 6, 2, 10), ("exact",)),
    ("z^(3/2) + ({c})*z^(3/2)*l1", (5, 8, 1), ("exact",)),
    ("z^(5/2) + ({c})*z^3 + z^(7/2)*l1", (8, 8, 1), ("exact",)),
)
FIXED = (
    ("4*z^2 + z^5", (12, 8, 1)),  # lambda != 1
    ("2*z^2 + z^3*l1", (8, 8, 1)),  # lambda != 1 with logarithms
    ("z^(1/2) + z + z*l1", (4, 8, 1)),  # alpha < 1
)


def cases():
    out = []
    for text, grid, modes in SHAPES:
        for c in COEFFS:
            for mode in modes:
                out.append((text.format(c=c), grid, mode))
    out.extend((text, grid, "exact") for text, grid in FIXED)
    return out


def _parse(text: str, grid: tuple, mode: str):
    return parse(text, grid=TruncationGrid(*grid[:3]), mode=mode)


def golden_entry(text: str, grid: tuple, mode: str) -> dict:
    phi = normalize(_parse(text, grid, mode), verify=False).phi
    js = series_to_json(phi)
    js["terms"] = [e for (k, _), e in zip(phi.sorted_terms(), js["terms"]) if k < phi.frontier]
    return js


def _case_id(case):
    text, grid, mode = case
    return f"{text}|{','.join(map(str, grid))}|{mode}"


def _golden():
    return {e["id"]: e["phi"] for e in json.loads(DATA.read_text())}


@pytest.mark.parametrize("case", cases(), ids=_case_id)
def test_normalize_matches_golden(case):
    want = _golden()[_case_id(case)]
    got = golden_entry(*case)
    if case[2] == "exact":
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        return
    assert got["frontier"] == want["frontier"]
    assert [(e["z"], e["l"]) for e in got["terms"]] == [(e["z"], e["l"]) for e in want["terms"]]
    for g, w in zip(got["terms"], want["terms"]):
        gv, wv = complex(g["re"], g["im"]), complex(w["re"], w["im"])
        assert abs(gv - wv) <= 1e-12 * abs(wv), (g, w)


@pytest.mark.parametrize("text,grid", FIXED, ids=[t for t, _ in FIXED])
def test_verify_normalization_reduces_the_input_as_normalize_did(text, grid):
    """The report on the input normalize was given is normalize's own."""
    f = parse(text, grid=TruncationGrid(*grid))
    assert verify_normalization(f, normalize(f, verify=False)) == normalize(f).verification


@pytest.mark.parametrize("case", cases(), ids=_case_id)
def test_verification_of_an_equal_copy_matches_normalize(case):
    """An equal copy of the input is reduced and checked on its own grid,
    with the report `normalize` made from its reused composer."""
    f = _parse(*case)
    res = normalize(f)
    copy = _parse(*case)
    assert copy is not f and copy == f
    assert verify_normalization(copy, res) == res.verification


@pytest.mark.parametrize("case", cases(), ids=_case_id)
def test_every_key_is_a_fraction_in_both_modes(case):
    """Float mode means float coefficients only: the input, phi, the reduced
    series and psi store `Fraction` z-exponents and frontier z in both modes."""
    text, grid, _ = case
    for mode in ("exact", "float"):
        f = _parse(text, grid, mode)
        res = normalize(f)
        assert res.verification["conjugation_exact_below_frontier"], (mode, res.verification)
        for g in (f, res.phi, res.reduced, res.psi or f):
            assert all(type(k.z) is Fraction for k in g.terms), (mode, g)
            assert type(g.frontier.z) is Fraction, (mode, g.frontier)


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(_case_id(c) for c in cases())


if __name__ == "__main__":
    entries = [{"id": _case_id(c), "phi": golden_entry(*c)} for c in cases()]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {DATA}")
