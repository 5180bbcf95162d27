"""End-to-end checks of the command line front end.

Every test drives hypwave.cli.main in process with a throwaway config
file and inspects the CSV files it writes; one subprocess test checks
the module entry point wiring. The reference numbers (escape at
t = 2.8, 274 checked points, margin 1.66) come from the module tests
of blowlab and are pinned here only loosely.
"""

import configparser
import csv
import importlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypwave
from hypwave import fdoracle, globalsolver, meanprop
from hypwave.cli import (_REQUIRED, _SCHEMA, _apply_thread_cap, _fmt,
                         _write_grid_csv, main)
from hypwave.nonlin import NonlinearitySpec


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

# [nonlinearity] keys whose cubic blend is not monotone at p = 2
NON_MONOTONE = "q = 1.5\ndelta0 = 0.6\n"


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

    def test_bump_data_near_wall_is_config_error(self, tmp_path, capsys,
                                                 monkeypatch):
        # r_max - t_max = 1 leaves no room for the bump's support 3.5
        kernel = recording(monkeypatch, meanprop, "linear_field")
        for engine in ("fd", "both"):
            body = SMALL_GRID.replace("dt = 0.25", "dt = 0.2") \
                + "[data]\nkind = bump\ntau0 = 1.0\n" \
                + f"[propagate]\nengine = {engine}\n"
            code, out = run_cli(tmp_path, "propagate", body, out_name=engine)
            assert code == 2
            err = capsys.readouterr().err
            assert "config error" in err and "support radius 3.5" in err
            assert list(out.iterdir()) == []
        assert kernel == []


BAD_GRID = """
[grid]
t_max = {t_max}
r_max = 2.0
dt = {dt}
dr = 0.1
"""


@pytest.mark.parametrize("command, t_max, dt, written", [
    ("propagate", 1.0, 0.0, "field.csv"),
    ("propagate", 1.0, -0.1, "field.csv"),
    ("propagate", 1.0, 0.3, "field.csv"),
    ("decay", 2.0, 0.3, "decay.csv"),
])
def test_bad_time_grid_is_config_error(tmp_path, capsys, command, t_max, dt,
                                       written):
    body = BAD_GRID.format(t_max=t_max, dt=dt)
    if command == "propagate":  # decay reads no [data]
        body += "[data]\nkind = constant\n"
    code, out = run_cli(tmp_path, command, body)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "t_max/dt" in err
    assert not (out / written).exists()


VALID_BODIES = {
    "propagate": SMALL_GRID + "[data]\nkind = constant\n",
    "solve": SOLVER_35,
    "decay": SMALL_GRID,
    "contraction": SMALL_GRID + "[solver]\np = 3.5\nh = 1.2\n",
    "blowup": BLOWUP_BASE,
    "certify": BLOWUP_BASE,
}


def assert_unknown_section(tmp_path, capsys, command, section, lines):
    """A valid body plus [section] exits 2 naming it; no CSV is written."""
    body = VALID_BODIES[command] + f"[{section}]\n{lines}\n"
    code, out = run_cli(tmp_path, command, body)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"unknown section [{section}]" in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("line", ["nodes_inner = 2", "rel_tol = 2.0"],
                         ids=["nodes_inner", "rel_tol"])
@pytest.mark.parametrize("command", list(VALID_BODIES))
def test_bad_quadrature_is_config_error(tmp_path, capsys, command, line):
    # node counts and tolerances are fixed in the code: a leftover
    # [quadrature] section is rejected whatever it sets
    assert_unknown_section(tmp_path, capsys, command, "quadrature", line)


@pytest.mark.parametrize("section", ["solvr", "DEFAULT"])
@pytest.mark.parametrize("command", list(VALID_BODIES))
def test_unknown_section_is_config_error(tmp_path, capsys, command, section):
    # configparser would feed [DEFAULT] keys silently to the sections
    # present and drop them for the absent ones
    assert_unknown_section(tmp_path, capsys, command, section,
                           "epsilon = 0.01")


def with_key(body, section, key, value):
    """body with key = value added to [section], the section made if absent."""
    cp = configparser.ConfigParser()
    cp.read_string(body)
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, value)
    text = io.StringIO()
    cp.write(text)
    return text.getvalue()


@pytest.mark.parametrize("command, section", [
    (command, section) for command, sections in _SCHEMA.items()
    for section in sections])
def test_misspelt_key_is_config_error(tmp_path, capsys, command, section):
    # every section a command reads refuses a key outside the schema
    key = next(iter(_SCHEMA[command][section])).lower() + "x"
    code, out = run_cli(tmp_path, command,
                        with_key(VALID_BODIES[command], section, key, "1"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"unknown key {key!r} in [{section}]; {command} reads" in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command, body, message", [
    ("propagate", SMALL_GRID + "t_maxx = 9\n[data]\nkind = constant\n",
     "unknown key 't_maxx' in [grid]"),
    ("propagate", VALID_BODIES["propagate"] + "[escape]\nt_max = 4.0\n",
     "unknown section [escape]"),
    ("solve", SOLVER_35 + "maxiters = 2\n", "unknown key 'maxiters' in [solver]"),
    ("solve", SOLVER_35 + "[data]\nkind = bump\n",
     "unknown key 'kind' in [data]"),
    ("contraction", VALID_BODIES["contraction"] + "max_iters = 2\n",
     "unknown key 'max_iters' in [solver]"),
    ("contraction", VALID_BODIES["contraction"] + "[contraction]\nn_pair = 3\n",
     "unknown key 'n_pair' in [contraction]"),
    ("blowup", BLOWUP_BASE + "[escape]\nthreshold_factor = -1\n",
     "'threshold_factor' in [escape] must be positive, got -1.0"),
    ("blowup", BLOWUP_BASE.replace("epsilon = 0.5", "epsilon = 0.5\nm_max = -1"),
     "'m_max' in [blowup] must be nonnegative, got -1"),
    # (sinh lam)^(1/2) overflowed in first_iterate_bound from tau0 ~ 110
    # (a NaN certificate, then OverflowError), in _blowup_params at 2000
    ("blowup", BLOWUP_BASE.replace("tau0 = 1.0", "tau0 = 150")
     + "[escape]\nenabled = false\n",
     "'tau0' in [blowup] must be in (0, 100], got 150.0"),
    ("blowup", BLOWUP_BASE.replace("tau0 = 1.0", "tau0 = 2000")
     + "[escape]\nenabled = false\n",
     "'tau0' in [blowup] must be in (0, 100], got 2000.0"),
], ids=["grid-t_maxx", "propagate-escape", "solve-maxiters", "solve-data-kind",
        "contraction-max_iters", "n_pair", "threshold_factor", "m_max",
        "tau0-150", "tau0-2000"])
def test_config_that_ran_something_else_is_config_error(
        tmp_path, capsys, monkeypatch, command, body, message):
    # each of these once exited 0 (or 1, or 3 after compute) running an
    # experiment other than the one written
    from hypwave import blowlab
    certificates = recording(monkeypatch, blowlab, "build_certificate")
    code, out = run_cli(tmp_path, command, body)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not list(out.glob("*.csv"))
    assert certificates == []


def test_largest_tau0_gives_finite_constants(tmp_path):
    # tau0 = 100 keeps first_iterate_bound's integrand finite; a warning
    # would fail the test (filterwarnings = error)
    body = BLOWUP_BASE.replace("tau0 = 1.0", "tau0 = 100") \
        + "[escape]\nenabled = false\n"
    code, out = run_cli(tmp_path, "blowup", body)
    assert code == 0
    header, row = read_csv(out / "certificate.csv")
    assert all(math.isfinite(float(v)) for v in row)


def readme_config_reference():
    """{(command, section, key): (type, default)} from README's table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    table = text.split("### Config reference")[1].split("\n\n| ")[1]
    rows = {}
    for line in ("| " + table).split("\n\n")[0].splitlines()[2:]:
        commands, section, key, kind, default = \
            [cell.strip() for cell in line.strip("|").split("|")]
        for command in commands.split(", "):
            assert (command, section, key) not in rows, line
            rows[command, section, key] = (kind, default)
    return rows


def test_readme_config_reference_is_the_schema():
    rows = readme_config_reference()
    assert set(rows) == {(command, section, key)
                         for command, sections in _SCHEMA.items()
                         for section, keys in sections.items()
                         for key in keys}
    for (command, section, key), (kind, default) in rows.items():
        cast, value = _SCHEMA[command][section][key]
        assert kind == (" / ".join(cast) if isinstance(cast, tuple)
                        else cast.__name__.lstrip("_")), (command, key)
        if value is _REQUIRED:
            assert default == "required", (command, key)
        elif value is None:  # computed, or the dataclass's own
            assert default and default != "required", (command, key)
        else:
            assert default == (str(value).lower() if isinstance(value, bool)
                               else str(value)), (command, key)


def test_schema_grids_are_the_library_defaults():
    from hypwave.fdoracle import FDConfig
    from hypwave.globalsolver import SolverConfig

    for command in ("propagate", "decay"):
        assert {key: default for key, (_, default)
                in _SCHEMA[command]["grid"].items()} == {
            key: getattr(FDConfig, key) for key in ("t_max", "r_max", "dt",
                                                    "dr")}
    for command in ("solve", "contraction"):
        assert tuple(default for _, default
                     in _SCHEMA[command]["grid"].values()) == SolverConfig.grid


RERUN_BODIES = {
    "propagate": (SMALL_GRID + "[data]\nkind = theta\n", None),
    "solve": (SOLVER_35.replace("epsilon = 0.0", "epsilon = 0.01"), None),
    "decay": ("""
[grid]
t_max = 4.0
r_max = 4.0
dt = 0.2
dr = 0.2
""", None),
    "contraction": (SMALL_GRID + """
[solver]
p = 3.5
h = 1.2
[contraction]
mode = threshold
n_pairs = 2
n_steps = 6
""", 3),
    "blowup": (BLOWUP_BASE + "[escape]\nt_max = 4.0\nr_max = 7.7\n", None),
    "certify": (BLOWUP_BASE, None),
}


@pytest.mark.parametrize("command", list(RERUN_BODIES))
def test_reruns_are_byte_identical(tmp_path, command):
    # the second run finds the caches (table, N_h, Gauss rules) warm
    body, seed = RERUN_BODIES[command]
    code_a, out_a = run_cli(tmp_path, command, body, seed=seed, out_name="a")
    code_b, out_b = run_cli(tmp_path, command, body, seed=seed, out_name="b")
    assert code_a == code_b == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names and names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


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


DECAY_GRID = """
[grid]
t_max = 4.0
r_max = 4.0
dt = 0.1
dr = 0.1
"""


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

    @pytest.mark.parametrize("lines, names", [
        ("ray_offset = 100.0", "ray_offset = 100"),
        ("min_r = 100", "min_r = 100"),
        # dt = 0.1 puts no grid point on t - r = 0.05
        ("ray_offset = 0.05", "ray_offset = 0.05"),
    ], ids=["ray_offset", "min_r", "ray_off_grid"])
    def test_empty_ray_is_config_error(self, tmp_path, capsys, monkeypatch,
                                       lines, names):
        kernel = recording(monkeypatch, meanprop, "linear_field")
        body = DECAY_GRID + f"[decay]\n{lines}\n"
        code, out = run_cli(tmp_path, "decay", body)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "fit ray" in err and names in err
        assert "41 times up to t = 4 and 41 radii up to r = 4" in err
        assert list(out.iterdir()) == []
        assert kernel == []

    def test_short_column_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the ray t - r = 3 holds 8 points, but the column r = 2 reaches
        # t - r = 2 only
        kernel = recording(monkeypatch, meanprop, "linear_field")
        body = DECAY_GRID + "[decay]\nray_offset = 3.0\nmin_r = 0.3\n"
        code, out = run_cli(tmp_path, "decay", body)
        assert code == 2
        err = capsys.readouterr().err
        assert "fixed-radius window" in err and "ray_offset = 3" in err
        assert list(out.iterdir()) == []
        assert kernel == []


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
        # the files come from the search's own probe at eps0, which is the
        # probe a fresh contraction_probe at eps0 makes
        cfg = globalsolver.SolverConfig(p=3.5, h=1.2, epsilon=float(row[0]),
                                        grid=(2.0, 2.0, 0.25, 0.25))
        rep = globalsolver.contraction_probe(
            NonlinearitySpec(p=3.5, q=2.0, delta0=0.45, A=2.0), cfg,
            n_pairs=2, rng_seed=3)
        assert row == [_fmt(rep.epsilon), _fmt(0.5), _fmt(rep.max_ratio),
                       _fmt(rep.sampled_pairs), "3"]
        assert read_csv(out / "ratios.csv")[1:] == [
            [_fmt(i), _fmt(ratio)] for i, ratio in enumerate(rep.ratios)]


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

    def test_grid_too_small_for_bump_is_config_error(self, tmp_path, capsys):
        # r_max - t_max = -1 leaves no room for the bump's support 3.5
        body = BLOWUP_BASE + "[escape]\nt_max = 4.0\nr_max = 3.0\n"
        code, out = run_cli(tmp_path, "blowup", body)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "support radius 3.5" in err
        assert list(out.iterdir()) == []

    def test_non_monotone_blend_is_config_error(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "blowup", BLOWUP_BASE + NON_MONOTONE)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "non-monotone blend" in err
        assert list(out.iterdir()) == []

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

    def test_grid_too_small_for_bump_is_config_error(self, tmp_path, capsys):
        # the default r_max 9 leaves 9 - 6 = 3 < 3.5 for the bump's support
        code, out = run_cli(tmp_path, "certify",
                            BLOWUP_BASE + "[certify]\nt_max = 6.0\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "support radius 3.5" in err
        assert list(out.iterdir()) == []

    def test_non_monotone_blend_is_config_error(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "certify", BLOWUP_BASE + NON_MONOTONE)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "non-monotone blend" in err
        assert list(out.iterdir()) == []

    def test_no_nonlinearity_is_config_error(self, tmp_path, capsys):
        body = BLOWUP_BASE.replace("piecewise_generic", "none")
        code, out = run_cli(tmp_path, "certify", body)
        assert code == 2
        assert "key 'kind' in [nonlinearity]" in capsys.readouterr().err
        assert not out.exists()

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


def write_grid_csv_by_rows(path, header, t_grid, r_grid, *columns):
    """The CLI's earlier gridded writer: csv.writer and _fmt, one value at
    a time, t-major, the reference of _write_grid_csv."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, t in enumerate(t_grid):
            for j, r in enumerate(r_grid):
                writer.writerow([_fmt(float(v)) for v in
                                 (t, r, *(c[i, j] for c in columns))])


def recording(monkeypatch, module, name):
    """Wrap module.name so that every result it returns is kept."""
    results, orig = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        results.append(orig(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, wrapped)
    return results


class TestGridCsv:
    def test_bytes_match_the_row_writer(self, tmp_path):
        edge = np.array([[-0.0, 5e-324, 1e-300], [1e308, 0.1 + 0.2, 1.0 / 3.0],
                         [np.nextafter(1.0, 2.0), -2.0 / 7.0, 123456789.0]])
        t, r = np.array([0.0, 0.1, 1e-300]), np.array([0.0, 1.0 / 3.0, 2.5])
        for cols in ((edge,), (edge, -edge, edge.T)):
            header = ("t", "r") + tuple(f"c{k}" for k in range(len(cols)))
            _write_grid_csv(tmp_path / "new.csv", header, t, r, *cols)
            write_grid_csv_by_rows(tmp_path / "old.csv", header, t, r, *cols)
            assert (tmp_path / "new.csv").read_bytes() \
                == (tmp_path / "old.csv").read_bytes()

    def test_propagate_both_matches_the_row_writer(self, tmp_path,
                                                   monkeypatch):
        kernel = recording(monkeypatch, meanprop, "linear_field")
        fd = recording(monkeypatch, fdoracle, "fd_solve")
        body = ("[grid]\nt_max = 0.4\nr_max = 2.0\ndt = 0.04\ndr = 0.05\n"
                "[data]\nkind = theta\n[propagate]\nengine = both\n")
        code, out = run_cli(tmp_path, "propagate", body)
        assert code == 0
        (k,), (f,) = kernel, fd
        write_grid_csv_by_rows(tmp_path / "field.csv", ("t", "r", "u"),
                               k.t_grid, k.r_grid, k.values)
        assert (out / "field.csv").read_bytes() \
            == (tmp_path / "field.csv").read_bytes()
        # diff.csv's rel_err as the earlier per-value loop formed it
        scale = float(np.max(np.abs(k.values)))
        rel = np.array([[abs(float(a) - float(b)) / scale
                         for a, b in zip(ka, fa)]
                        for ka, fa in zip(k.values, f.values)])
        write_grid_csv_by_rows(tmp_path / "diff.csv",
                               ("t", "r", "kernel", "fd", "rel_err"),
                               k.t_grid, k.r_grid, k.values, f.values, rel)
        assert (out / "diff.csv").read_bytes() \
            == (tmp_path / "diff.csv").read_bytes()

    def test_solve_field_matches_the_row_writer(self, tmp_path, monkeypatch):
        solved = recording(monkeypatch, globalsolver, "picard_solve")
        body = SOLVER_35.replace("epsilon = 0.0", "epsilon = 0.01")
        code, out = run_cli(tmp_path, "solve", body)
        assert code == 0
        ((field, _),) = solved
        write_grid_csv_by_rows(tmp_path / "field.csv", ("t", "r", "u"),
                               field.t_grid, field.r_grid, field.values)
        assert (out / "field.csv").read_bytes() \
            == (tmp_path / "field.csv").read_bytes()


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

    def test_import_loads_no_numpy(self):
        # the thread cap in main must come before numpy is imported
        src = os.path.dirname(os.path.dirname(hypwave.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hypwave.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_scipy_submodules_out(self, tmp_path):
        # the runtime needs numpy alone: importing every module and running
        # a command (both engines) loads no scipy module at all
        cfg = tmp_path / "run.ini"
        cfg.write_text("[grid]\nt_max = 0.4\nr_max = 4.0\ndt = 0.04\n"
                       "dr = 0.05\n[data]\nkind = constant\n"
                       "[propagate]\nengine = both\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(hypwave.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from hypwave import (blowlab, cli, fdoracle, globalsolver, "
            "hypgeo, meanprop, nonlin)\n"
            f"assert cli.main(['propagate', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(' '.join(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
        assert (tmp_path / "out" / "diff.csv").exists()
