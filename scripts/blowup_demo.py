#!/usr/bin/env python3
"""Build a blow-up certificate and watch the simulated solution confirm it.

For p = 2, q = 2 bump data at eps = EPSILON, every other setting at
wavecli's defaults:

  1. `wavecli blowup` builds the certificate chain (first-iterate
     constant, boost ladder, doubling recursion, detachment time T) and
     reports when sup_r u crosses ten times the initial amplitude (for
     eps = 1 this lands near t = 2.8);
  2. `wavecli certify` checks a finite-difference simulation, on a window
     that stops just short of the numerical blow-up near t = 5.24,
     pointwise against the certificate's first-iterate lower bound on
     the region S.

Both write into blowup_demo/ (the sequences in sequences.csv, the sup
history in escape_history.csv), and the certificate summary is printed.
A quick look at the escape history:

    python3 -c "import pandas as pd; d = pd.read_csv('runs/blowup_demo/escape_history.csv'); print(d.tail())"
"""

import csv
import sys
from pathlib import Path

from hypwave.cli import run

TAU0 = 1.0
EPSILON = 0.5


def first_row(path):
    with open(path, encoding="utf-8") as fh:
        return next(csv.DictReader(fh))


def main(out_dir="runs"):
    out = Path(out_dir) / "blowup_demo"
    config = {"blowup": {"p": 2.0, "tau0": TAU0, "epsilon": EPSILON}}
    if run("blowup", config, out):
        raise SystemExit("wavecli blowup failed")
    cert = first_row(out / "certificate.csv")
    print(f"certificate: l0 = {cert['l0']}, A0 = {float(cert['A0'])}, "
          f"E = {float(cert['E']):.4f}, T = {float(cert['T']):.6g}")

    # exit 4 means violations, which the summary reports
    if run("certify", config, out) not in (0, 4):
        raise SystemExit("wavecli certify failed")
    report = first_row(out / "verify.csv")
    print(f"dominance: {report['first_checked']} points of S checked, "
          f"{report['first_violations']} violations, "
          f"min margin {float(report['first_min_margin']):.4f}")

    esc = first_row(out / "escape.csv")
    if esc["escaped"] == "true":
        print(f"escape: sup_r u crossed {float(esc['threshold']):.3g} at "
              f"t = {float(esc['t_escape']):.3f}")
    else:
        print("no escape within the escape window")
    print(f"wrote the CSVs of wavecli blowup and certify into {out}")


if __name__ == "__main__":
    main(*sys.argv[1:])
