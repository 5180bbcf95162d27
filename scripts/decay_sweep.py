#!/usr/bin/env python3
"""Sweep the data decay index k and fit the dispersive decay exponents.

For each k and step this runs `wavecli decay` on theta_k velocity data
over t_max = r_max = HORIZON with dt = dr = step: the radial log-slope is
fitted along the ray t - r = 1, and the weighted sup
|u| (cosh r)^{1/2} (cosh(t-r))^{1/2} / K_k is recorded on two grid
resolutions as a stability check. The expected radial slope is -1/2 for
every k.

Each run writes into decay_sweep/k<k>_step<step>/. decay_sweep.csv
collects one row per k and step, and a summary table is printed. Plot
with e.g.

    python3 -c "import pandas as pd; d = pd.read_csv('runs/decay_sweep.csv'); print(d)"
"""

import csv
import sys
from pathlib import Path

from hypwave.cli import run

K_VALUES = (1.0, 1.5, 2.0)
STEPS = (0.25, 0.125)
HORIZON = 12.0


def main(out_dir="runs"):
    out = Path(out_dir)
    rows = [("k", "step", "slope_r", "slope_tr", "sup_weighted")]
    for k in K_VALUES:
        for step in STEPS:
            run_dir = out / "decay_sweep" / f"k{k}_step{step}"
            grid = {"t_max": HORIZON, "r_max": HORIZON, "dt": step, "dr": step}
            if run("decay", {"grid": grid, "decay": {"k": k}}, run_dir):
                raise SystemExit(f"wavecli decay failed in {run_dir}")
            with open(run_dir / "decay.csv", encoding="utf-8") as fh:
                rep = next(csv.DictReader(fh))
            rows.append((rep["k"], f"{step:.17g}", rep["slope_r"],
                         rep["slope_tr"], rep["sup_weighted"]))
            print(f"k = {k:<4} step = {step:<6} "
                  f"slope_r = {float(rep['slope_r']):+.4f}"
                  f"  slope_tr = {float(rep['slope_tr']):+.4f}"
                  f"  weighted sup = {float(rep['sup_weighted']):.6f}")
    with open(out / "decay_sweep.csv", "w", encoding="utf-8",
              newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(f"wrote {fh.name}")


if __name__ == "__main__":
    main(*sys.argv[1:])
