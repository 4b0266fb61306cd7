#!/usr/bin/env python3
"""Formal-pipeline demo: normalize a few strongly hyperbolic series, show the
Picard trajectory of the Bottcher operator at one coefficient, and dump the
results as JSON."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bottcher.io_json import normalization_result_to_json
from bottcher.keys import Key
from bottcher.normalize import bottcher_iterates, normalize
from bottcher.parser import parse
from bottcher.printer import format_series
from bottcher.series import identity_series


def main():
    cases = ["z^2 + z^3", "z^2 + z^2*l1", "z^2 + z^3*l1^-1"]
    out = {}
    for text in cases:
        f = parse(text, z_cap=10, block_cap=8)
        res = normalize(f)
        print(f"f   = {text}")
        print(f"phi = {format_series(res.phi)}")
        print(f"     beta={res.beta} W terms solved={res.iterations}")
        print(f"     verification: {res.verification}\n")
        out[text] = normalization_result_to_json(res)

    f = parse("z^2 + z^2*l1", z_cap=5, block_cap=8)
    ident = identity_series(f.grid, f.mode)
    traj = [s.coeff(Key(1, (1,))) for s in bottcher_iterates(f, ident, 10)]
    print("weak trajectory of the z*l1 coefficient (limit 2/3):")
    print("  ", [str(c.rational_parts()[0]) for c in traj])

    path = Path("formal_demo.json")
    path.write_text(json.dumps(out, indent=2))
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
