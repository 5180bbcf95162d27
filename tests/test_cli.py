"""End-to-end checks of the command line front end.

Every test drives hypwave.cli.main in process with a throwaway config
file and inspects the CSV files it writes; one subprocess test checks
the module entry point wiring. The reference numbers (escape at
t = 2.8, 274 checked points, margin 1.66) come from the module tests
of blowlab and are pinned here only loosely.
"""

import csv
import importlib
import math
import os
import subprocess
import sys

import pytest

import hypwave
from hypwave.cli import _apply_thread_cap, _fmt, main


def run_cli(tmp_path, command, body, seed=None, out_name="out"):
    cfg = tmp_path / "run.ini"
    cfg.write_text(body, encoding="utf-8")
    out = tmp_path / out_name
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


SMALL_GRID = """
[grid]
t_max = 1.0
r_max = 2.0
dt = 0.25
dr = 0.25
"""

SOLVER_35 = SMALL_GRID + """
[solver]
p = 3.5
h = 1.2
epsilon = 0.0
"""

BLOWUP_BASE = """
[blowup]
p = 2.0
q = 2.0
tau0 = 1.0
epsilon = 0.5

[nonlinearity]
kind = piecewise_generic
"""


class TestPropagate:
    def test_zero_data_all_zero(self, tmp_path):
        code, out = run_cli(tmp_path, "propagate", SMALL_GRID +
                            "[data]\nkind = zero\n")
        assert code == 0
        rows = read_csv(out / "field.csv")
        assert rows[0] == ["t", "r", "u"]
        assert rows[1:]
        assert all(row[2] == "0" for row in rows[1:])

    def test_constant_data_matches_2sinh(self, tmp_path):
        code, out = run_cli(tmp_path, "propagate", SMALL_GRID +
                            "[data]\nkind = constant\nvalue = 1.0\n")
        assert code == 0
        for t, r, u in read_csv(out / "field.csv")[1:]:
            expected = 2.0 * math.sinh(float(t) / 2.0)
            assert abs(float(u) - expected) <= 1e-6 * max(1.0, expected)

    def test_both_engines_write_diff(self, tmp_path):
        # r_max = 4 keeps the Dirichlet wall where theta is already small,
        # so the two engines disagree only through discretization error.
        body = """
[grid]
t_max = 0.4
r_max = 4.0
dt = 0.04
dr = 0.05

[data]
kind = theta
k = 1.0

[propagate]
engine = both
"""
        code, out = run_cli(tmp_path, "propagate", body)
        assert code == 0
        rows = read_csv(out / "diff.csv")
        assert rows[0] == ["t", "r", "kernel", "fd", "rel_err"]
        assert max(float(row[4]) for row in rows[1:]) < 0.05

    def test_unknown_engine_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "propagate", SMALL_GRID +
                          "[propagate]\nengine = spectral\n")
        assert code == 2

    def test_unstable_fd_grid_is_config_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "propagate", SMALL_GRID +
                          "[propagate]\nengine = fd\n")
        assert code == 2
        assert "cfl" in capsys.readouterr().err

    def test_bump_data_near_wall_fails_numerically(self, tmp_path, capsys):
        body = SMALL_GRID + "[data]\nkind = bump\ntau0 = 1.0\n" \
            + "[propagate]\nengine = fd\n"
        cfg_fix = body.replace("dt = 0.25", "dt = 0.2")
        code, _ = run_cli(tmp_path, "propagate", cfg_fix)
        assert code == 3
        assert "propagate failed" in capsys.readouterr().err


BAD_GRID = """
[grid]
t_max = {t_max}
r_max = 2.0
dt = {dt}
dr = 0.1

[data]
kind = constant
"""


@pytest.mark.parametrize("command, t_max, dt, written", [
    ("propagate", 1.0, 0.0, "field.csv"),
    ("propagate", 1.0, -0.1, "field.csv"),
    ("propagate", 1.0, 0.3, "field.csv"),
    ("decay", 2.0, 0.3, "decay.csv"),
])
def test_bad_time_grid_is_config_error(tmp_path, capsys, command, t_max, dt,
                                       written):
    code, out = run_cli(tmp_path, command,
                        BAD_GRID.format(t_max=t_max, dt=dt))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "t_max/dt" in err
    assert not (out / written).exists()


QUADRATURE_READERS = {
    "propagate": SMALL_GRID + "[data]\nkind = constant\n",
    "solve": SOLVER_35,
    "decay": SMALL_GRID,
    "contraction": SMALL_GRID + "[solver]\np = 3.5\nh = 1.2\n",
    "blowup": BLOWUP_BASE,
    "certify": BLOWUP_BASE,
}


@pytest.mark.parametrize("line, message", [
    ("nodes_inner = 2", "node counts must be at least 4"),
    ("rel_tol = 2.0", "rel_tol must lie in (0, 1)"),
], ids=["nodes_inner", "rel_tol"])
@pytest.mark.parametrize("command", list(QUADRATURE_READERS))
def test_bad_quadrature_is_config_error(tmp_path, capsys, command, line,
                                        message):
    body = QUADRATURE_READERS[command] + "[quadrature]\n" + line + "\n"
    code, _ = run_cli(tmp_path, command, body)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


class GridSeen(Exception):
    """Raised by a stubbed engine call with the grid it was given."""


@pytest.mark.parametrize("command, module, engine, body, want", [
    ("solve", "globalsolver", "picard_solve",
     "[solver]\np = 3.5\nh = 1.2\nepsilon = 0.0\n", (8.0, 8.0, 0.05, 0.05)),
    ("contraction", "globalsolver", "contraction_probe",
     "[solver]\np = 3.5\nh = 1.2\n", (8.0, 8.0, 0.05, 0.05)),
    ("solve", "globalsolver", "picard_solve",
     "[grid]\nt_max = 2.0\n[solver]\np = 3.5\nh = 1.2\nepsilon = 0.0\n",
     (2.0, 8.0, 0.05, 0.05)),
    ("propagate", "meanprop", "linear_field", "[data]\nkind = constant\n",
     (4.0, 8.0, 0.04, 0.05)),
    ("decay", "meanprop", "linear_field", "", (4.0, 8.0, 0.04, 0.05)),
    ("propagate", "fdoracle", "fd_solve",
     "[data]\nkind = constant\n[propagate]\nengine = fd\n",
     (4.0, 8.0, 0.04, 0.05)),
    ("blowup", "blowlab", "escape_detector", BLOWUP_BASE,
     (40.0, 43.6, 0.04, 0.05)),
    ("certify", "fdoracle", "fd_solve", BLOWUP_BASE, (5.0, 9.0, 0.04, 0.05)),
], ids=["solve", "contraction", "solve-t_max-only", "propagate", "decay",
        "propagate-fd", "escape", "certify"])
def test_default_grid(tmp_path, monkeypatch, command, module, engine, body,
                      want):
    # solve and contraction default to the library's SolverConfig grid,
    # propagate and decay to FDConfig's, escape and certify to FDConfig's
    # steps; stubs stop before the grid's compute
    from hypwave.fdoracle import FDConfig
    from hypwave.globalsolver import SolverConfig

    def stub(*args, **kwargs):
        cfg = next((a for a in args if isinstance(a, SolverConfig)), None)
        if cfg is not None:
            raise GridSeen(cfg.grid)
        cfg = next((a for a in args if isinstance(a, FDConfig)), None)
        if cfg is not None:
            raise GridSeen((cfg.t_max, cfg.r_max, cfg.dt, cfg.dr))
        t_grid, r_grid = args[1], args[2]
        raise GridSeen((t_grid[-1], r_grid[-1], t_grid[1] - t_grid[0],
                        r_grid[1] - r_grid[0]))

    monkeypatch.setattr(importlib.import_module(f"hypwave.{module}"), engine,
                        stub)
    with pytest.raises(GridSeen) as seen:
        run_cli(tmp_path, command, body)
    assert seen.value.args[0] == pytest.approx(want, rel=1e-12)


class TestSolve:
    def test_epsilon_zero_converges_first_sweep(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", SOLVER_35)
        assert code == 0
        header, row = read_csv(out / "report.csv")
        assert header == ["epsilon", "converged", "iterations",
                          "weighted_norm"]
        assert row[1] == "true" and row[2] == "1"
        assert float(row[3]) == 0.0
        assert len(read_csv(out / "history.csv")) == 2

    def test_small_epsilon_converges(self, tmp_path):
        body = SOLVER_35.replace("epsilon = 0.0", "epsilon = 0.01")
        code, out = run_cli(tmp_path, "solve", body)
        assert code == 0
        _, row = read_csv(out / "report.csv")
        assert row[1] == "true"
        assert float(row[3]) > 0.0

    def test_huge_epsilon_escapes_with_exit_3(self, tmp_path, capsys):
        body = SOLVER_35.replace("epsilon = 0.0", "epsilon = 1000.0")
        code, _ = run_cli(tmp_path, "solve", body)
        assert code == 3
        err = capsys.readouterr().err
        assert "solve failed" in err and "epsilon is too large" in err

    def test_h_outside_window_is_config_error(self, tmp_path, capsys):
        body = SOLVER_35.replace("h = 1.2", "h = 1.6")
        code, _ = run_cli(tmp_path, "solve", body)
        assert code == 2
        assert "h must lie in (1, p-2)" in capsys.readouterr().err

    def test_exhausted_budget_reports_not_converged(self, tmp_path):
        body = SOLVER_35.replace("epsilon = 0.0", "epsilon = 0.01") \
            + "max_iters = 1\n"
        code, out = run_cli(tmp_path, "solve", body)
        assert code == 0
        _, row = read_csv(out / "report.csv")
        assert row[1] == "false"
        assert math.isnan(float(row[3]))
        assert not (out / "field.csv").exists()

    def test_critical_p_is_labeled(self, tmp_path, capsys):
        body = SOLVER_35 + "[nonlinearity]\np = 3.0\n"
        code, _ = run_cli(tmp_path, "solve", body)
        assert code == 0
        assert "critical, no theory" in capsys.readouterr().err


class TestDecay:
    def test_fit_report_schema_and_sign(self, tmp_path):
        body = """
[grid]
t_max = 4.0
r_max = 4.0
dt = 0.2
dr = 0.2

[decay]
k = 1.0
"""
        code, out = run_cli(tmp_path, "decay", body)
        assert code == 0
        header, row = read_csv(out / "decay.csv")
        assert header == ["k", "ray_offset", "min_r", "slope_r",
                          "slope_tr", "sup_weighted"]
        assert float(row[3]) < 0.0
        assert float(row[5]) > 0.0

    def test_empty_ray_is_numeric_failure(self, tmp_path, capsys):
        body = SMALL_GRID + "[decay]\nray_offset = 100.0\n"
        code, _ = run_cli(tmp_path, "decay", body)
        assert code == 3
        assert "decay failed" in capsys.readouterr().err


CONTRACTION_BODY = """
[grid]
t_max = 2.0
r_max = 2.0
dt = 0.25
dr = 0.25

[solver]
p = 3.5
h = 1.2
epsilon = 0.02

[contraction]
mode = probe
n_pairs = 4
"""


class TestContraction:
    def test_subcritical_p_is_config_error(self, tmp_path, capsys):
        body = "[solver]\np = 2.5\nh = 1.2\nepsilon = 0.01\n"
        code, _ = run_cli(tmp_path, "contraction", body)
        assert code == 2
        assert "h must lie in (1, p-2)" in capsys.readouterr().err

    def test_no_nonlinearity_is_config_error(self, tmp_path):
        body = CONTRACTION_BODY + "[nonlinearity]\nkind = none\n"
        code, _ = run_cli(tmp_path, "contraction", body)
        assert code == 2

    def test_probe_writes_ratio_files(self, tmp_path):
        code, out = run_cli(tmp_path, "contraction", CONTRACTION_BODY,
                            seed=7)
        assert code == 0
        header, row = read_csv(out / "contraction.csv")
        assert header == ["epsilon", "sampled_pairs", "max_ratio"]
        ratios = [float(r[1]) for r in read_csv(out / "ratios.csv")[1:]]
        assert len(ratios) == int(row[1]) == 4
        assert float(row[2]) == max(ratios) < 0.5

    def test_seed_changes_the_draw(self, tmp_path):
        _, out_a = run_cli(tmp_path, "contraction", CONTRACTION_BODY,
                           seed=7, out_name="a")
        _, out_b = run_cli(tmp_path, "contraction", CONTRACTION_BODY,
                           seed=8, out_name="b")
        assert (out_a / "ratios.csv").read_bytes() \
            != (out_b / "ratios.csv").read_bytes()

    @pytest.mark.parametrize("mode, lines, message", [
        ("probe", "n_pairs = 0", "'n_pairs' in [contraction] must be at "
                                 "least 1, got 0"),
        ("threshold", "n_pairs = 4\nn_steps = -4",
         "'n_steps' in [contraction] must be nonnegative, got -4"),
        ("threshold", "n_pairs = 4\ntarget_ratio = 0",
         "'target_ratio' in [contraction] must be positive, got 0.0"),
    ])
    def test_unmeasurable_config_is_config_error(self, tmp_path, capsys,
                                                 monkeypatch, mode, lines,
                                                 message):
        from hypwave import globalsolver, meanprop

        def no_table(*args, **kwargs):
            raise AssertionError("a table was built before validation")

        globalsolver.clear_caches()
        monkeypatch.setattr(meanprop.PropagatorTable, "__init__", no_table)
        body = CONTRACTION_BODY.replace("mode = probe", f"mode = {mode}") \
            .replace("n_pairs = 4", lines)
        code, out = run_cli(tmp_path, "contraction", body)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_threshold_mode(self, tmp_path):
        body = CONTRACTION_BODY.replace("mode = probe", "mode = threshold") \
            .replace("n_pairs = 4", "n_pairs = 2\nn_steps = 6")
        code, out = run_cli(tmp_path, "contraction", body, seed=3)
        assert code == 0
        header, row = read_csv(out / "threshold.csv")
        assert header == ["epsilon0", "target_ratio", "max_ratio",
                          "sampled_pairs", "seed"]
        assert float(row[0]) > 0.0
        assert float(row[2]) <= float(row[1])
        assert row[4] == "3"


class TestBlowup:
    def test_sequences_and_certificate(self, tmp_path):
        body = BLOWUP_BASE + "[escape]\nenabled = false\n"
        code, out = run_cli(tmp_path, "blowup", body)
        assert code == 0
        rows = read_csv(out / "sequences.csv")
        assert rows[0] == ["sequence", "index", "x1", "x2", "x3"]
        assert rows[1][:4] == ["meta", "0", "3", "1"]
        boost = [r for r in rows if r[0] == "boost"]
        john = [r for r in rows if r[0] == "john"]
        assert len(boost) == 3
        assert john[0][2] == "1" and john[0][3] == "0"
        assert float(john[1][2]) == 2.0 * float(john[0][2])
        header, cert = read_csv(out / "certificate.csv")
        by_name = dict(zip(header, cert))
        assert by_name["l0"] == "3" and by_name["A0"] == "1"
        assert float(by_name["T"]) > 19.0

    def test_reruns_are_byte_identical(self, tmp_path):
        body = BLOWUP_BASE + "[escape]\nenabled = false\n"
        _, out_a = run_cli(tmp_path, "blowup", body, out_name="a")
        _, out_b = run_cli(tmp_path, "blowup", body, out_name="b")
        for name in ("sequences.csv", "certificate.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_escape_run(self, tmp_path):
        body = BLOWUP_BASE.replace("epsilon = 0.5", "epsilon = 1.0") + """
[escape]
enabled = true
t_max = 4.0
r_max = 7.7
"""
        code, out = run_cli(tmp_path, "blowup", body)
        assert code == 0
        header, row = read_csv(out / "escape.csv")
        assert header == ["threshold", "escaped", "instability",
                          "t_escape", "records", "sup_max"]
        assert row[1] == "true" and row[2] == "false"
        assert abs(float(row[3]) - 2.8) < 0.2
        history = read_csv(out / "escape_history.csv")
        assert history[0] == ["t", "sup"]
        assert len(history) - 1 == int(row[4])
        assert float(history[-1][1]) > float(row[0])

    def test_supercritical_p_is_config_error(self, tmp_path):
        body = BLOWUP_BASE.replace("p = 2.0", "p = 3.5")
        code, _ = run_cli(tmp_path, "blowup", body)
        assert code == 2

    def test_critical_p_is_config_error_without_label(self, tmp_path,
                                                      capsys):
        body = BLOWUP_BASE.replace("p = 2.0", "p = 3.0")
        code, _ = run_cli(tmp_path, "blowup", body)
        assert code == 2
        err = capsys.readouterr().err
        assert "p must lie in (1, 3)" in err and "critical" not in err

    def test_C0_sets_only_the_kernel_constant(self, tmp_path):
        # configparser lowercases keys, so C0 must not double as c0, the
        # first-iterate constant that build_certificate computes
        body = BLOWUP_BASE.replace("epsilon = 0.5",
                                   "epsilon = 1.0\nC0 = 0.9") \
            + "[escape]\nenabled = false\n"
        code, out = run_cli(tmp_path, "blowup", body)
        assert code == 0
        header, row = read_csv(out / "certificate.csv")
        by_name = dict(zip(header, row))
        assert by_name["C0"] == "0.90000000000000002"
        assert 0.0 < float(by_name["c0"]) != 0.9


class TestCertify:
    def test_reference_run_passes(self, tmp_path):
        code, out = run_cli(tmp_path, "certify", BLOWUP_BASE)
        assert code == 0
        header, row = read_csv(out / "verify.csv")
        by_name = dict(zip(header, row))
        assert int(by_name["first_checked"]) > 200
        assert by_name["first_violations"] == "0"
        assert float(by_name["first_min_margin"]) > 0.0
        assert "Sigma_3" in by_name["coverage_warning"]
        assert read_csv(out / "violations.csv") == \
            [["check", "t", "r", "bound", "value"]]

    def test_halved_tight_field_violates(self, tmp_path):
        body = BLOWUP_BASE + """
[certify]
normalize_tight = true
field_scale = 0.5
"""
        code, out = run_cli(tmp_path, "certify", body)
        assert code == 4
        rows = read_csv(out / "violations.csv")
        assert len(rows) > 1
        for check, t, r, bound, value in rows[1:]:
            assert check in ("first", "boost")
            assert float(value) < float(bound)


class TestFormatAndErrors:
    def test_line_endings_and_float_format(self, tmp_path):
        body = BLOWUP_BASE + "[escape]\nenabled = false\n"
        _, out = run_cli(tmp_path, "blowup", body)
        raw = (out / "certificate.csv").read_bytes()
        assert b"\r" not in raw
        for row in read_csv(out / "certificate.csv")[1:]:
            for cell in row:
                assert cell == _fmt(float(cell))

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "broken.ini"
        cfg.write_text("p = 2 with no section header\n", encoding="utf-8")
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_missing_required_key(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "solve", "[solver]\nh = 1.2\n")
        assert code == 2
        assert "'p'" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify", "--config", "x.ini"])
        assert exc.value.code == 2

    def test_thread_cap_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WAVECLI_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        _apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "3"

    def test_bad_thread_cap_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WAVECLI_THREADS", "many")
        body = BLOWUP_BASE + "[escape]\nenabled = false\n"
        code, _ = run_cli(tmp_path, "blowup", body)
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_GRID + "[data]\nkind = zero\n",
                       encoding="utf-8")
        # the child imports the same hypwave as this process, installed
        # or not
        src = os.path.dirname(os.path.dirname(hypwave.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hypwave.cli", "propagate",
             "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert (tmp_path / "out" / "field.csv").exists()

    def test_import_leaves_scipy_submodules_out(self):
        # scipy's integrate, interpolate and special cost most of a
        # command's start-up; only functions no command calls import them
        src = os.path.dirname(os.path.dirname(hypwave.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "import hypwave.cli\n"
            "from hypwave import (blowlab, cli, fdoracle, globalsolver, "
            "hypgeo, meanprop, nonlin)\n"
            "print(' '.join(m for m in ('scipy.integrate', "
            "'scipy.interpolate', 'scipy.special') if m in sys.modules))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
