#!/usr/bin/env python3
"""Map out where entanglement survives mixing.

Two sweeps:
  1. Werner line: singlet polarization eps from 0 to 1, locating the
     partial-transpose zero crossing by bisection (expected at 1/3).
  2. (a, x) plane: singlet fraction a against triplet imbalance x, where
     pT0 = (1-a) x and the remaining weight splits evenly over T+1/T-1.
     Writes a CSV grid of min-PT eigenvalues plus the verdict.

The plane's verdict only depends on whether some Bell population clears
1/2, which on the x <= 1/2 slice reduces to a > 1/2.

Exits 1 when that rule has exceptions on the grid, or when the Werner
crossing lies more than 1e-9 from 1/3.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from spinpair.analysis import min_pt_eigenvalue, singlet_mixture_entangled
from spinpair.states import bell_diagonal_matrices, make_pseudo_pure, make_singlet


def werner_crossing(tol: float = 1e-12) -> float:
    s = make_singlet()

    def mpt(eps: float) -> float:
        return min_pt_eigenvalue(make_pseudo_pure(eps, s).matrix)

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mpt(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="entanglement_scan.csv")
    ap.add_argument("--grid", type=int, default=51)
    args = ap.parse_args()

    cross = werner_crossing()
    deviation = abs(cross - 1 / 3)
    print(f"Werner partial-transpose crossing: eps = {cross:.12f} "
          f"(deviation from 1/3: {deviation:.2e})")

    n = args.grid
    a, x = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n),
                       indexing="ij")
    rest = 1.0 - a
    pops = np.stack([a, rest * x, rest * (1 - x) / 2, rest * (1 - x) / 2], axis=-1)
    mpt = min_pt_eigenvalue(bell_diagonal_matrices(pops))
    verdict = singlet_mixture_entangled(a, x)
    rows = [(float(ai), float(xi), float(m), int(v))
            for ai, xi, m, v in zip(a.ravel(), x.ravel(), mpt.ravel(), verdict.ravel())]
    exceptions = int(np.count_nonzero((x <= 0.5) & (verdict != (a > 0.5))))

    out = Path(args.out)
    with out.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["singlet_fraction", "t0_weight", "min_pt_eigenvalue",
                    "entangled"])
        w.writerows(rows)
    print(f"{out}: {len(rows)} grid points")
    print(f"exceptions to the a > 1/2 rule on the x <= 1/2 slice: {exceptions}")
    if exceptions or deviation > 1e-9:
        print("FAIL: the a > 1/2 rule has exceptions or the Werner crossing "
              "is more than 1e-9 from 1/3", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
