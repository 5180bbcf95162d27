#!/usr/bin/env python3
"""Fingerprint the CSVs of a fixed list of wavecli runs.

Runs every entry of RUNS in process and prints one line

    <run>/<file>.csv <sha256 of its bytes>

per CSV written, in run order and then by file name, and last a line

    combined <sha256>

over every run's name and exit code and the lines above.
Two checkouts that print the same lines wrote the same bytes, so this is
the check that a change meant to keep every output leaves them alone:

    PYTHONPATH=src python3 scripts/csv_digest.py /tmp/new > new.txt
    (cd ../base && PYTHONPATH=src python3 scripts/csv_digest.py /tmp/old) > old.txt
    diff old.txt new.txt

The runs write their configs and CSVs into csv_digest/<run>/ under the
output directory (runs/ by default, or the first argument). They are:

* the blowup benchmark's twelve commands, blowup and certify for p in
  {1.5, 2, 2.5} and eps in {0.1, 0.5} on its grids;
* certify at the default [certify] window (p = 2, eps = 0.5), as is,
  with normalize_tight = true, and with field_scale = 0.5;
* propagate of bump data on the default grid, kernel and FD;
* blowup with [nonlinearity] kind = none, an escape run of the linear
  equation.

A run that exits other than 0 is named on stderr with its code.
"""

import configparser
import hashlib
import sys
from pathlib import Path

from hypwave.cli import main as wavecli

# the grids of bench/worker.py's blowup workload
ESCAPE = {"t_max": 40.0, "dr": 0.01, "dt": 0.008}
CERTIFY = {"t_max": 4.0, "r_max": 9.0, "dr": 0.01, "dt": 0.008,
           "snapshot_every": 5}
DEMO = {"p": 2.0, "tau0": 1.0, "epsilon": 0.5}

RUNS = [(f"{command}_p{p}_eps{eps}", command,
         {"blowup": {"p": p, "epsilon": eps, "tau0": 1.0}, section: grid})
        for p in (1.5, 2.0, 2.5) for eps in (0.1, 0.5)
        for command, section, grid in (("blowup", "escape", ESCAPE),
                                       ("certify", "certify", CERTIFY))]
RUNS += [
    ("certify_default", "certify", {"blowup": DEMO}),
    ("certify_tight", "certify",
     {"blowup": DEMO, "certify": {"normalize_tight": True}}),
    ("certify_half", "certify",
     {"blowup": DEMO, "certify": {"field_scale": 0.5}}),
    ("propagate_bump", "propagate",
     {"data": {"kind": "bump", "tau0": 1.0},
      "propagate": {"engine": "both"}}),
    ("escape_linear", "blowup",
     {"blowup": DEMO, "nonlinearity": {"kind": "none"}}),
]


def run(command, config, out):
    """wavecli <command> on config (INI sections as dicts) into out, a
    directory emptied of CSVs first."""
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("*.csv"):
        stale.unlink()
    cp = configparser.ConfigParser()
    cp.read_dict(config)
    ini = out.parent / f"{out.name}.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return wavecli([command, "--config", str(ini), "--out", str(out)])


def main(out_dir="runs"):
    """Run RUNS, print the digest lines and return the combined digest."""
    root = Path(out_dir) / "csv_digest"
    combined = hashlib.sha256()
    for name, command, config in RUNS:
        out = root / name
        code = run(command, config, out)
        if code:
            print(f"csv_digest: {name} exited {code}", file=sys.stderr)
        combined.update(f"{name} exit {code}\n".encode())
        for path in sorted(out.glob("*.csv")):
            line = (f"{name}/{path.name} "
                    f"{hashlib.sha256(path.read_bytes()).hexdigest()}")
            combined.update(f"{line}\n".encode())
            print(line)
    print(f"combined {combined.hexdigest()}")
    return combined.hexdigest()


if __name__ == "__main__":
    main(*sys.argv[1:])
