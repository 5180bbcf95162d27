#!/usr/bin/env python3
"""Scan the empirical contraction factor of the Duhamel-composed map.

For p = 3.5, h = 1.2 the map u -> L F(u) should contract on the ball of
radius 2 eps N_h once eps is small; this scan runs `wavecli contraction`
with mode = probe over a logarithmic eps range, then mode = threshold to
bisect for the largest admissible eps at the 0.5 target. Every run uses
--seed 11, so the scan is deterministic and the threshold probe is
comparable.

Each run writes into contraction_scan/<run>/. contraction_scan.csv
collects (epsilon, max_ratio, note) per probe plus the threshold row
(epsilon0 and the max_ratio of its probe there). Plot with

    python3 -c "import pandas as pd; d = pd.read_csv('runs/contraction_scan.csv'); print(d)"
"""

import csv
import sys
from pathlib import Path

import numpy as np

from hypwave.cli import run

SEED = 11
N_PAIRS = 20
EPS_RANGE = np.geomspace(1e-3, 0.2, 8)
GRID = {"t_max": 8.0, "r_max": 8.0, "dt": 0.05, "dr": 0.05}


def contraction(out, mode, epsilon=0.05):
    """The row a contraction run reports, or None if it failed (wavecli
    says why on stderr)."""
    config = {"grid": GRID, "solver": {"p": 3.5, "h": 1.2, "epsilon": epsilon},
              "contraction": {"mode": mode, "n_pairs": N_PAIRS}}
    if run("contraction", config, out, "--seed", str(SEED)):
        return None
    name = "contraction.csv" if mode == "probe" else "threshold.csv"
    with open(out / name, encoding="utf-8") as fh:
        return next(csv.DictReader(fh))


def main(out_dir="runs"):
    out = Path(out_dir)
    rows = [("epsilon", "max_ratio", "note")]
    for i, eps in enumerate(EPS_RANGE):
        rep = contraction(out / "contraction_scan" / f"probe{i}", "probe",
                          float(eps))
        ratio, note = (rep["max_ratio"], "") if rep else ("nan", "failed")
        rows.append((f"{eps:.17g}", ratio, note))
        print(f"eps = {eps:.5f}  max_ratio = {float(ratio):.5f}  {note}")
    rep = contraction(out / "contraction_scan" / "threshold", "threshold")
    if rep is None:
        raise SystemExit("wavecli contraction (threshold) failed")
    print(f"threshold at target 0.5: eps0 = {rep['epsilon0']}")
    rows.append((rep["epsilon0"], rep["max_ratio"], "threshold"))
    with open(out / "contraction_scan.csv", "w", encoding="utf-8",
              newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(f"wrote {fh.name}")


if __name__ == "__main__":
    main(*sys.argv[1:])
