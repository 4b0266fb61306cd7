#!/usr/bin/env python3
"""Analytic-pipeline demo: certify an invariant threshold for
f(zeta) = 2 zeta + e^(-zeta) on a standard quadratic domain, evaluate the
Koenigs normalization on a ray, dump a CSV, and compare against the formal
normalization of the z-chart expansion z^2 e^(-z)."""

import cmath
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bottcher.domains import AsymptoticSpec, DomainSpec, invariant_threshold
from bottcher.dulac import (
    compare_formal_numeric,
    dulac_normalize_full,
    to_zeta_chart,
)
from bottcher.koenigs import (
    identity_deviation_bound,
    koenigs_normalize,
    koenigs_residual,
)
from bottcher.parser import parse


def main():
    spec = AsymptoticSpec(alpha=2.0, eps=1.0, k=1)
    dom = DomainSpec.standard_quadratic(1.0)
    f = lambda z: 2 * z + cmath.exp(-z)

    R = invariant_threshold(f, spec, dom)
    print(f"certified invariant threshold: R = {R:.4f}")
    res = koenigs_normalize(f, spec, dom, R, tol=1e-12)

    rows = []
    for i in range(60):
        zeta = complex(R + 12.0 * i / 59, 0.0)
        phi = res.evaluator(zeta)
        tail = res.tail_bound(zeta)  # read before the residual moves on to f(zeta)
        rows.append(
            (zeta.real, phi.real, phi.imag,
             koenigs_residual(res, f, zeta),
             tail,
             identity_deviation_bound(res, zeta))
        )
    path = Path("koenigs_samples.csv")
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re_zeta", "phi_re", "phi_im", "residual", "tail_bound", "id_bound"])
        w.writerows(rows)
    print(f"wrote {path} (worst residual {max(r[3] for r in rows):.2e})")

    # formal side: z-chart of f is z^2 e^(-z)
    d = parse("z^2 - z^3 + 1/2*z^4 - 1/6*z^5 + 1/24*z^6 - 1/120*z^7", z_cap=8)
    phi_hat, _ = dulac_normalize_full(d, z_cap=8, block_cap=6)
    phi_hat_zeta = to_zeta_chart(phi_hat)
    xs = [R + 8.0 * i / 31 for i in range(32)]
    for n in (1, 2):
        rep = compare_formal_numeric(res.evaluator, phi_hat_zeta, n, xs)
        print(f"formal-vs-numeric n={n}: pass={rep['pass']} sup={rep['sup']:.3e} "
              f"fitted_rate={rep['fitted_rate']:.3f}")


if __name__ == "__main__":
    main()
