"""Golden outputs of the series kernel and of composition.

`tests/data/kernel_golden.json` holds, for each input below, the full
`series_to_json` (frontier included) of the kernel operations built on the
power sum `series.power_sum`: every log image `l_m o f`, `invert`,
`pow_rational` at 1/2 and -1, `log1p` and `exp_minus_one` of
u = f / (lambda z^alpha) - 1, one composition `g o f`, `prenormalize` and
`bottcher_sequence` at n = 2.  An operation that raises is recorded by the
exception's class name.  Exact mode must match byte for byte, float mode must
have the same frontier and support with coefficients equal to 1e-12 relative.
No operation stores anything at or above its frontier.

Regenerate (only on purpose) with `PYTHONPATH=src python tests/test_kernel_golden.py`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from crosschecks import compose_ell
from bottcher.compose import compose, invert
from bottcher.errors import BottcherError
from bottcher.io_json import series_to_json
from bottcher.keys import Cut, Key
from bottcher.normalize import bottcher_sequence, prenormalize
from bottcher.parser import parse
from bottcher.series import (
    TruncationGrid,
    exp_minus_one,
    identity_series,
    log1p,
    pow_rational,
    split_leading,
)

DATA = Path(__file__).parent / "data" / "kernel_golden.json"

# (f, g for g o f, (z_cap, block_cap, depth, n)); n, a retired cap that bounded
# nothing, stays only in the case ids of the golden file
CASES = (
    ("z^2 + z^3", "z + 1/2*z^2 - z^3", (6, 6, 0, 8)),
    ("z^(3/2) + z^2", "z + z^(3/2)", (4, 6, 0, 8)),
    ("z^2 + z^2*l1 + z^3", "z + z^2*l1 - 1/3*z^3*l1^-1", (4, 4, 1, 5)),
    ("z^3 + z^4*l1^2*l2^-1", "z + z^2*l1 + z^2*l2^-1", (5, 4, 2, 5)),
    ("z^2 + z^2*l2", "z + z*l2", (4, 5, 2, 6)),
    ("4*z^2 + z^3*l1", "z + z^2*l1", (4, 4, 1, 5)),  # lambda != 1, exact square root
    ("2*z^2 + z^3*l1", "z + z^2*l1", (4, 4, 1, 5)),  # lambda != 1, irrational root
    ("z^(1/2) + z + z*l1", "z + z^2*l1", (3, 6, 1, 8)),  # alpha < 1
)
MODES = ("exact", "float")


def _json_or_error(fn):
    try:
        return series_to_json(fn())
    except (BottcherError, ValueError, ZeroDivisionError) as e:
        return {"error": type(e).__name__}


def golden_entry(f_text: str, g_text: str, grid: tuple, mode: str) -> dict:
    g = TruncationGrid(*grid[:3])
    f = parse(f_text, grid=g, mode=mode)
    u = split_leading(f)[2]
    ops = {
        f"compose_ell_{m}": (lambda m=m: compose_ell(m, f)) for m in range(1, g.depth + 1)
    }
    ops.update(
        invert=lambda: invert(f),
        pow_half=lambda: pow_rational(f, "1/2"),
        pow_minus_one=lambda: pow_rational(f, -1),
        log1p_u=lambda: log1p(u),
        exp_minus_one_u=lambda: exp_minus_one(u),
        compose_g_f=lambda: compose(parse(g_text, grid=g, mode=mode), f),
        prenormalize=lambda: prenormalize(f),
        bottcher_sequence_2=lambda: bottcher_sequence(f, identity_series(g, mode), 2),
    )
    return {name: _json_or_error(op) for name, op in ops.items()}


def cases():
    return [(f, g, grid, mode) for f, g, grid in CASES for mode in MODES]


def _case_id(case):
    f, g, grid, mode = case
    return f"{f}|{g}|{','.join(map(str, grid))}|{mode}"


def _golden():
    return {e["id"]: e["ops"] for e in json.loads(DATA.read_text())}


def _assert_float_close(got: dict, want: dict):
    assert got.keys() == want.keys()
    if "error" in want:
        assert got == want
        return
    assert got["frontier"] == want["frontier"]
    assert [(e["z"], e["l"]) for e in got["terms"]] == [(e["z"], e["l"]) for e in want["terms"]]
    for g, w in zip(got["terms"], want["terms"]):
        gv, wv = complex(g["re"], g["im"]), complex(w["re"], w["im"])
        assert abs(gv - wv) <= 1e-12 * abs(wv), (g, w)


def _below_frontier(entry: dict) -> dict:
    """The entry with only its terms below its frontier."""
    if "error" in entry:
        return entry
    fr = entry["frontier"]
    z = Fraction(fr["z"])
    front = Cut(z) if fr.get("cut") else Key(z, tuple(fr["l"]))
    terms = [e for e in entry["terms"] if Key(Fraction(e["z"]), tuple(e["l"])) < front]
    return {**entry, "terms": terms}


@pytest.mark.parametrize("case", cases(), ids=_case_id)
def test_kernel_matches_golden(case):
    want = _golden()[_case_id(case)]
    got = golden_entry(*case)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == _below_frontier(got[name]), name
        if case[3] == "exact":
            assert json.dumps(got[name], sort_keys=True) == json.dumps(
                want[name], sort_keys=True
            ), name
        else:
            _assert_float_close(got[name], want[name])


def test_kernel_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(_case_id(c) for c in cases())


if __name__ == "__main__":
    entries = [{"id": _case_id(c), "ops": golden_entry(*c)} for c in cases()]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {DATA}")
