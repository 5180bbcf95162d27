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

For a change that may move the last digits of some outputs,

    python3 scripts/csv_digest.py --compare /tmp/old /tmp/new

prints per CSV of the two output directories either "identical" or,
per numeric column that differs, column=rel/share: rel is its largest
relative difference |a - b| / max(|a|, |b|) over the rows, share its
largest |a - b| over the column's largest |a|. Rows where the column is
near 0 can make rel large while the column as a whole moved by share.

The runs write their CSVs, and their configs as <command>.ini, into
csv_digest/<run>/ under the output directory (runs/ by default, or the
first argument). They are:

* the blowup benchmark's twelve commands, blowup and certify for p in
  {1.5, 2, 2.5} and eps in {0.1, 0.5} on its grids;
* certify at the default [certify] window (p = 2, eps = 0.5), as is,
  with normalize_tight = true, and with field_scale = 0.5;
* certify_sigma, certify at the default window with p = 1.5,
  eps = 0.5 and tau0 = 0.25, whose Sigma_{l0} is not empty, so that the
  boosted bound's check is fingerprinted too;
* propagate of bump data on the default grid, kernel and FD;
* the field benchmark's commands: propagate of theta_1 data, kernel and
  FD, on its grid, and decay at k = 1 and 2 on its grid;
* blowup with [nonlinearity] kind = none, an escape run of the linear
  equation;
* the contract benchmark's pair: contraction in threshold mode on its
  41 x 81 grid with target_ratio 0.9, then solve at half the epsilon0
  that the contraction run wrote;
* on that grid, contraction in probe mode and solve of the linear
  equation ([nonlinearity] kind = none), each with [data] k = 2.

A run that exits other than 0 is named on stderr with its code.
"""

import argparse
import csv
import hashlib
import sys
from pathlib import Path

# the grids of bench/worker.py's blowup, field and contract workloads
ESCAPE = {"t_max": 40.0, "dr": 0.01, "dt": 0.008}
CERTIFY = {"t_max": 4.0, "r_max": 9.0, "dr": 0.01, "dt": 0.008,
           "snapshot_every": 5}
PROPAGATE_GRID = {"t_max": 2.0, "r_max": 8.0, "dt": 0.04, "dr": 0.05}
DECAY_GRID = {"t_max": 6.0, "r_max": 6.0, "dt": 0.2, "dr": 0.2}
DEMO = {"p": 2.0, "tau0": 1.0, "epsilon": 0.5}
CONTRACT = {"grid": {"t_max": 2.0, "r_max": 4.0, "dt": 0.05, "dr": 0.05},
            "solver": {"p": 3.5, "h": 1.2},
            "nonlinearity": {"kind": "canonical_sinh_inverse"}}


def half_eps0(root):
    """The contract solve's config: CONTRACT at half the epsilon0 of the
    contract_threshold run under root."""
    with open(root / "contract_threshold" / "threshold.csv", encoding="utf-8") as fh:
        eps0 = float(next(csv.DictReader(fh))["epsilon0"])
    return dict(CONTRACT, solver=dict(CONTRACT["solver"], epsilon=0.5 * eps0))


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
    ("certify_sigma", "certify",
     {"blowup": {"p": 1.5, "epsilon": 0.5, "tau0": 0.25}}),
    ("propagate_bump", "propagate",
     {"data": {"kind": "bump", "tau0": 1.0},
      "propagate": {"engine": "both"}}),
    ("field_propagate", "propagate",
     {"grid": PROPAGATE_GRID, "data": {"kind": "theta", "k": 1.0},
      "propagate": {"engine": "both"}}),
    ("field_decay_k1", "decay", {"grid": DECAY_GRID, "decay": {"k": 1.0}}),
    ("field_decay_k2", "decay", {"grid": DECAY_GRID, "decay": {"k": 2.0}}),
    ("escape_linear", "blowup",
     {"blowup": DEMO, "nonlinearity": {"kind": "none"}}),
    ("contract_threshold", "contraction",
     dict(CONTRACT, contraction={"mode": "threshold", "n_pairs": 20,
                                 "n_steps": 20, "target_ratio": 0.9})),
    ("contract_solve", "solve", half_eps0),
    ("contraction_probe_k2", "contraction",
     dict(CONTRACT, data={"k": 2.0}, contraction={"mode": "probe"})),
    ("solve_linear_k2", "solve",
     dict(CONTRACT, solver=dict(CONTRACT["solver"], epsilon=0.01),
          data={"k": 2.0}, nonlinearity={"kind": "none"})),
]


def run(command, config, out):
    """hypwave.cli.run of command on config (INI sections as dicts, or a
    function of the runs' root directory that returns them) into out,
    emptied of CSVs first."""
    from hypwave.cli import run as wavecli  # --compare runs without hypwave

    if callable(config):
        config = config(out.parent)
    for stale in out.glob("*.csv"):
        stale.unlink()
    return wavecli(command, config, out)


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


def column_differences(old, new):
    """{column: (rel, share)} over the columns where the CSV files old
    and new differ: rel is the largest |a - b| / max(|a|, |b|) over the
    rows, share the largest |a - b| over the column's largest |a| (a in
    old, b in new), both over the cells that are numbers. A text cell that
    differs, or files whose headers or row counts differ, give inf."""
    with open(old, encoding="utf-8") as fa, open(new, encoding="utf-8") as fb:
        (head_a, *rows_a), (head_b, *rows_b) = csv.reader(fa), csv.reader(fb)
    inf = float("inf")
    if head_a != head_b or len(rows_a) != len(rows_b):
        return {"(shape)": (inf, inf)}
    worst, top = {}, {}
    for row_a, row_b in zip(rows_a, rows_b):
        for name, a, b in zip(head_a, row_a, row_b):
            try:
                x, y = float(a), float(b)
            except ValueError:
                if a != b:
                    worst[name] = inf, inf
                continue
            top[name] = max(top.get(name, 0.0), abs(x))
            if a != b:
                rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
                old_rel, old_gap = worst.get(name, (0.0, 0.0))
                worst[name] = max(old_rel, rel), max(old_gap, abs(x - y))
    return {name: (rel, gap / top[name] if top.get(name) else (inf if gap else 0.0))
            for name, (rel, gap) in worst.items()}


def compare(old_dir, new_dir):
    """Print, per CSV under either directory's csv_digest/, "identical"
    when its bytes agree, else column=rel/share (column_differences) for
    every column that differs (or that the file is missing on one side);
    return the lines."""
    old_root, new_root = Path(old_dir) / "csv_digest", Path(new_dir) / "csv_digest"
    names = sorted({p.relative_to(root).as_posix()
                    for root in (old_root, new_root) for p in root.glob("*/*.csv")})
    lines = []
    for name in names:
        old, new = old_root / name, new_root / name
        if not (old.exists() and new.exists()):
            verdict = f"only in {old_dir if old.exists() else new_dir}"
        elif old.read_bytes() == new.read_bytes():
            verdict = "identical"
        else:
            verdict = " ".join(f"{col}={rel:.2e}/{share:.2e}" for col, (rel, share) in
                               column_differences(old, new).items()) or "same cells"
        lines.append(f"{name} {verdict}")
        print(lines[-1])
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", default="runs")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare the CSVs of two output directories")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        main(args.out_dir)
