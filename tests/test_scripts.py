"""Smoke tests of the experiment scripts in scripts/.

Each script is a thin loop over wavecli. These runs shrink its module
constants to a tiny grid (or one k, one eps) so that a case takes a
second or two, then check that main returns and writes its CSVs.
"""

import csv
import hashlib
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_decay_sweep(tmp_path):
    script = load("decay_sweep")
    script.K_VALUES = (1.0,)
    script.STEPS = (0.5, 0.25)
    script.HORIZON = 6.0
    script.main(tmp_path)
    header, *rows = read_csv(tmp_path / "decay_sweep.csv")
    assert header == ["k", "step", "slope_r", "slope_tr", "sup_weighted"]
    assert [row[:2] for row in rows] == [["1", "0.5"], ["1", "0.25"]]
    assert all(float(row[2]) < 0.0 for row in rows)
    for step in script.STEPS:
        assert (tmp_path / "decay_sweep" / f"k1.0_step{step}"
                / "decay.csv").exists()


def test_contraction_scan(tmp_path, capsys):
    script = load("contraction_scan")
    script.EPS_RANGE = (0.01, 50.0)
    script.N_PAIRS = 4
    script.GRID = {"t_max": 1.0, "r_max": 2.0, "dt": 0.1, "dr": 0.1}
    script.main(tmp_path)
    header, *rows = read_csv(tmp_path / "contraction_scan.csv")
    assert header == ["epsilon", "max_ratio", "note"]
    assert [row[2] for row in rows] == ["", "failed", "threshold"]
    assert float(rows[0][1]) >= 0.0
    assert float(rows[2][0]) > 0.0
    assert "contraction failed" in capsys.readouterr().err
    assert (tmp_path / "contraction_scan" / "threshold"
            / "threshold.csv").exists()


def test_blowup_demo(tmp_path, capsys):
    load("blowup_demo").main(tmp_path)
    out = tmp_path / "blowup_demo"
    for name in ("sequences.csv", "certificate.csv", "escape.csv",
                 "escape_history.csv", "verify.csv", "violations.csv"):
        assert (out / name).exists(), name
    summary = capsys.readouterr().out
    assert "0 violations" in summary
    assert "escape: sup_r u crossed" in summary


def test_csv_digest(tmp_path, capsys):
    script = load("csv_digest")
    script.RUNS = [
        ("blowup", "blowup", {"blowup": script.DEMO,
                              "escape": {"enabled": False}}),
        ("bad", "certify", {"blowup": {"p": 5.0, "epsilon": 0.5}}),
    ]
    combined = script.main(tmp_path)
    out, err = capsys.readouterr()
    *lines, last = out.splitlines()
    assert last == f"combined {combined}"
    assert [line.split()[0] for line in lines] == [
        "blowup/certificate.csv", "blowup/sequences.csv"]
    for line in lines:
        name, digest = line.split()
        data = (tmp_path / "csv_digest" / name).read_bytes()
        assert digest == hashlib.sha256(data).hexdigest()
    assert "bad exited 2" in err
    # a second run into the same directory prints the same lines
    assert script.main(tmp_path) == combined
    assert capsys.readouterr().out == out


def test_csv_digest_contract_pair_and_compare(tmp_path, capsys):
    script = load("csv_digest")
    script.CONTRACT = dict(script.CONTRACT,
                           grid={"t_max": 1.0, "r_max": 2.0, "dt": 0.1, "dr": 0.1})
    script.RUNS = [run for run in script.RUNS if run[0].startswith("contract_")]
    old, new = tmp_path / "old", tmp_path / "new"
    script.main(old)
    script.main(new)
    capsys.readouterr()
    threshold = read_csv(old / "csv_digest" / "contract_threshold" / "threshold.csv")
    eps0 = float(threshold[1][0])
    solve = (old / "csv_digest" / "contract_solve.ini").read_text()
    assert f"epsilon = {0.5 * eps0!r}" in solve
    assert script.compare(old, new) == [
        f"contract_{name} identical" for name in (
            "solve/field.csv", "solve/history.csv", "solve/report.csv",
            "threshold/ratios.csv", "threshold/threshold.csv")]
    capsys.readouterr()
    # one cell of one column moved by 1e-3 of itself
    path = new / "csv_digest" / "contract_threshold" / "ratios.csv"
    header, first, *rest = read_csv(path)
    moved = float(first[1]) * 1e-3
    share = abs(moved) / max(abs(float(row[1])) for row in [first, *rest])
    first[1] = repr(float(first[1]) + moved)
    path.write_text("\n".join(",".join(row) for row in [header, first, *rest]) + "\n",
                    encoding="utf-8")
    (new / "csv_digest" / "contract_solve" / "report.csv").unlink()
    lines = script.compare(old, new)
    assert lines[2] == f"contract_solve/report.csv only in {old}"
    name, verdict = lines[3].split()
    assert name == "contract_threshold/ratios.csv"
    column, value = verdict.split("=")
    rel, got_share = map(float, value.split("/"))
    assert column == "ratio" and abs(rel - 1e-3) <= 1e-5
    assert abs(got_share - share) <= 1e-2 * share
    assert capsys.readouterr().out.splitlines() == lines


def test_csv_digest_column_share(tmp_path):
    # a row near 0 sets the relative difference; the share of the
    # column's largest value shows how far the column moved as a whole
    script = load("csv_digest")
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("r,u,kind,margin\n0.0,1.0,a,\n1.0,1e-10,b,4.0\n", encoding="utf-8")
    new.write_text("r,u,kind,margin\n0.0,1.0,a,\n1.0,2e-10,c,3.0\n", encoding="utf-8")
    diffs = script.column_differences(old, new)
    assert list(diffs) == ["u", "kind", "margin"]
    rel, share = diffs["u"]
    assert abs(rel - 0.5) <= 1e-12 and abs(share - 1e-10) <= 1e-22
    assert diffs["kind"] == (float("inf"), float("inf"))
    # a blank cell that agrees is skipped
    assert diffs["margin"] == (0.25, 0.25)
