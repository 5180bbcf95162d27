"""Command line front end: config file in, CSV reports out.

Usage:

    wavecli <propagate|solve|decay|contraction|blowup|certify>
            --config <file> [--out <dir>] [--seed <n>]

The config file is INI-style: [section] headers and key = value pairs,
one level deep, parsed by configparser. _SCHEMA below lists the sections
and keys each command reads, with their types and defaults (README's
config reference is the same table). Any other section or key, a
[DEFAULT] that sets keys included, is a config error.

Every output is a CSV file with a header row, UTF-8 encoded, LF line
endings, floats serialized with 17 significant digits, written to --out
(default: the current directory). Identical config and seed produce
byte-identical files. The README lists the schema of each file.

Exit codes: 0 success, 2 config validation failure (reported before any
computation starts), 3 numeric failure during a run (the message names
the failing command), 4 certificate violation from cmd_certify. A
simulation that leaves float range inside certify's window is no
failure: certify checks the snapshots before it and says so in
coverage_warning.

The environment variable WAVECLI_THREADS caps BLAS/OpenMP parallelism;
it is applied before the numerical modules are imported, so it only
takes effect when the process starts here (the default is whatever the
machine gives, usually all cores). All randomness is driven by --seed,
a nonnegative integer; the argument parser refuses any other value with
exit 2.

Heavy imports happen inside the command handlers, after the thread cap.
"""

import argparse
import configparser
import csv
import math
import os
import sys
from pathlib import Path

__all__ = ["main", "run", "ConfigError"]

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class ConfigError(Exception):
    """A problem with the config file, reported with exit code 2."""


# ---------------------------------------------------------------------------
# config schema


def _bool(raw):
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


def _check(cast, ok, rule):
    """cast, refusing a value for which ok is false; rule says what ok
    asks ("at least 1") in the error and in the cast's name."""
    def parse(raw):
        value = cast(raw)
        if not ok(value):
            raise ConfigError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = f"{cast.__name__}, {rule}"
    return parse


def _float(raw):
    """float, refusing nan and +-inf: no command computes with them, so
    every float key, checked or not, is finite."""
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(f"must be finite, got {value}")
    return value


_COUNT = _check(int, lambda n: n >= 0, "nonnegative")
_POSITIVE = _check(_float, lambda x: x > 0, "positive")
_REQUIRED = object()


def _nonlinearity(keys, *kinds):
    """[nonlinearity] with keys, the F keys the command does not set itself,
    defaulting to kinds[0]; each kind reads those of keys its F has."""
    has = {"canonical_sinh_inverse": ("p",),
           "piecewise_generic": ("p", "q", "delta0"), "none": ()}
    return {"kind": ({kind: tuple(key for key in has[kind] if key in keys)
                      for kind in kinds}, kinds[0]), **keys}


# [grid] of the FD oracle's grid (cfl 0.8), and of the contraction regime
_FD_GRID = {"t_max": (_float, 4.0), "r_max": (_float, 8.0),
            "dt": (_float, 0.04), "dr": (_float, 0.05)}
_SOLVER_GRID = {"t_max": (_float, 8.0), "r_max": (_float, 8.0),
                "dt": (_float, 0.05), "dr": (_float, 0.05)}
_SHAPE = {"q": (_float, 2.0), "delta0": (_float, 0.45)}


_BLOWUP = {"p": (_float, _REQUIRED), "q": (_float, 2.0), "tau0": (_POSITIVE, 1.0),
           "epsilon": (_float, _REQUIRED), "delta0": (_float, 0.45),
           "m_max": (_COUNT, 20)}

# command -> section -> key -> (cast, default). A cast is _float, int, _bool,
# a tuple of choices, a dict of choices -> the keys of the section that
# only that choice reads, or a _check; a default is a value, _REQUIRED, or
# None for one computed in the code or left to the dataclass the key feeds.
# Every default grid is here: Grid, SolverConfig and FDConfig have none.
_SCHEMA = {
    "propagate": {
        "grid": _FD_GRID,
        "data": {"kind": ({"zero": (), "constant": ("value",),
                           "theta": ("k",), "bump": ("tau0",)}, "zero"),
                 "value": (_float, 1.0), "k": (_POSITIVE, 1.0),
                 "tau0": (_POSITIVE, 1.0)},
        "propagate": {"engine": (("kernel", "fd", "both"), "kernel")},
    },
    "solve": {
        "grid": _SOLVER_GRID,
        "data": {"k": (_POSITIVE, 1.0)},
        "solver": {"p": (_float, _REQUIRED), "h": (_float, _REQUIRED),
                   "epsilon": (_float, _REQUIRED), "max_iters": (int, None),
                   "fixed_point_tol": (_float, None)},
        "nonlinearity": _nonlinearity(_SHAPE, "canonical_sinh_inverse",
                                      "piecewise_generic", "none"),
    },
    "decay": {
        "grid": _FD_GRID,
        "decay": {"k": (_POSITIVE, 1.0), "ray_offset": (_float, 1.0),
                  "min_r": (_float, 1.0)},
    },
    "contraction": {
        "grid": _SOLVER_GRID,
        "data": {"k": (_POSITIVE, 1.0)},
        "solver": {"p": (_float, _REQUIRED), "h": (_float, _REQUIRED),
                   "epsilon": (_float, 0.1)},
        # kind = none would measure nothing
        "nonlinearity": _nonlinearity(_SHAPE, "canonical_sinh_inverse",
                                      "piecewise_generic"),
        "contraction": {
            "mode": ({"probe": (), "threshold": ("target_ratio", "n_steps")},
                     "probe"),
            "n_pairs": (_check(int, lambda n: n >= 1, "at least 1"), 20),
            "target_ratio": (_POSITIVE, 0.5), "n_steps": (_COUNT, 20)},
    },
    "blowup": {
        "blowup": _BLOWUP,
        # p, q and delta0 are [blowup]'s, save the escape run's F exponent
        "nonlinearity": _nonlinearity({"p": (_float, None)},
                                      "piecewise_generic",
                                      "canonical_sinh_inverse", "none"),
        "escape": {"enabled": (_bool, True), "t_max": (_float, 40.0),
                   "dr": (_float, 0.05), "dt": (_float, 0.04),
                   # t_max + the bump's support radius 3.5 tau0 + 0.1
                   "r_max": (_float, None),
                   "threshold_factor": (_POSITIVE, 10.0)},
    },
    "certify": {
        "blowup": _BLOWUP,
        # p, q and delta0 are [blowup]'s; kind = none cannot blow up
        "nonlinearity": _nonlinearity({}, "piecewise_generic",
                                      "canonical_sinh_inverse"),
        "certify": {"dr": (_float, 0.05), "dt": (_float, 0.04),
                    "r_max": (_float, 9.0), "t_max": (_float, 5.0),
                    "snapshot_every": (int, 5), "field_scale": (_float, 1.0),
                    "normalize_tight": (_bool, False)},
    },
}


# ---------------------------------------------------------------------------
# config plumbing


def _apply_thread_cap():
    raw = os.environ.get("WAVECLI_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"WAVECLI_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ConfigError(f"WAVECLI_THREADS must be positive, got {n}")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _read_config(path, command):
    """The config file at path checked against _SCHEMA[command], as
    {section: {key: value}} over every section the command reads. A key
    the file leaves out takes its default, or is absent when that is None.
    Keys are matched case-insensitively, as configparser lowercases them.
    """
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
        given = {section: dict(cp.items(section)) for section in cp.sections()}
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}")
    schema = _SCHEMA[command]
    unknown = [section for section in given if section not in schema]
    if cp.defaults():  # configparser keeps [DEFAULT] out of sections()
        unknown.insert(0, cp.default_section)
    if unknown:
        raise ConfigError(
            f"unknown section [{unknown[0]}] in {path}; {command} reads "
            + " ".join(f"[{section}]" for section in schema))
    config = {}
    for section, keys in schema.items():
        raws = given.get(section, {})
        names = [key.lower() for key in keys]
        for name in raws:
            if name not in names:
                raise ConfigError(
                    f"unknown key {name!r} in [{section}]; {command} reads "
                    + ", ".join(keys))
        config[section] = values = {}
        for key, (cast, default) in keys.items():
            raw, where = raws.get(key.lower()), f"key {key!r} in [{section}]"
            if raw is None:
                if default is _REQUIRED:
                    raise ConfigError(f"missing {where}")
                if default is not None:
                    values[key] = default
            elif isinstance(cast, (tuple, dict)):
                values[key] = raw.strip().lower()
                if values[key] not in cast:
                    raise ConfigError(f"{where} must be one of {tuple(cast)}, "
                                      f"got {values[key]!r}")
            else:
                try:
                    values[key] = cast(raw)
                except (ValueError, KeyError):
                    raise ConfigError(f"{where}: cannot parse {raw!r}")
                except ConfigError as exc:
                    raise ConfigError(f"{where} {exc}")
        for key, (cast, _) in keys.items():
            if isinstance(cast, dict):
                reads = cast[values[key]]
                for name in raws:
                    if name not in reads and any(name in keys_of
                                                 for keys_of in cast.values()):
                        raise ConfigError(
                            f"key {name!r} in [{section}] is not read by "
                            f"{key} = {values[key]}, which reads "
                            f"{', '.join(reads) or 'no other key'}")
    return config


def _data_profile(data):
    """The velocity profile u_t(0) from [data]; the position u(0) is 0."""
    from .blowlab import bump_profile
    from .hypgeo import theta_k
    from .meanprop import RadialProfile

    kind = data["kind"]
    if kind == "zero":
        return RadialProfile(0.0)
    if kind == "constant":
        return RadialProfile(data["value"])
    if kind == "theta":
        return RadialProfile(lambda r: theta_k(r, data["k"]))
    return bump_profile(data["tau0"])


def _nonlin_spec(nonlinearity, **command):
    """NonlinearitySpec from [nonlinearity] over the command's own keys
    (p, and q and delta0 for blowup and certify), or None for kind = none."""
    from .nonlin import NonlinearitySpec

    if nonlinearity["kind"] == "none":
        return None
    keys = {**command, **nonlinearity}
    if keys["p"] == 3.0:
        print("wavecli: p = 3 is the critical exponent: "
              "critical, no theory backs this run", file=sys.stderr)
    return NonlinearitySpec(**keys)


# ---------------------------------------------------------------------------
# CSV output


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _grid_text(values):
    """The %.17g text of a grid's values, for a column that two CSVs share:
    _write_grid_csv writes it as it stands, so it is formatted once."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    return np.array(["%.17g" % v for v in values.ravel().tolist()],
                    dtype=object).reshape(values.shape)


def _write_grid_csv(path, header, t_grid, r_grid, *columns):
    """One row (t, r, column values...) per grid point, t-major: the bytes
    _write_csv gives for the same floats. Each t and each r is formatted
    once; a time level's rows are then one format of its values. A column
    may be _grid_text's text of its values instead."""
    import numpy as np

    t_txt = ["%.17g," % t for t in np.asarray(t_grid, dtype=float).tolist()]
    line = ",".join(["%s" if np.asarray(c).dtype == object else "%.17g"
                     for c in columns]) + "\n"
    cells = ["%.17g," % r + line for r in np.asarray(r_grid, dtype=float).tolist()]
    values = np.stack(columns, axis=-1).reshape(len(t_txt), -1).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for t, v in zip(t_txt, values):
            fh.write("".join([t + c for c in cells]) % tuple(v))


# ---------------------------------------------------------------------------
# commands


def cmd_propagate(config, out, seed):
    import numpy as np
    from .fdoracle import FDConfig, _check_support, fd_solve
    from .hypgeo import DomainError, Grid
    from .meanprop import RadialProfile, linear_field

    u0 = RadialProfile(0.0)
    engine = config["propagate"]["engine"]
    try:
        grid = Grid(**config["grid"])
        prof = _data_profile(config["data"])
        fd_cfg = None
        if engine in ("fd", "both"):
            fd_cfg = FDConfig(grid)
            # data the stepper would reject (a bump reaching the wall)
            _check_support(u0, prof, fd_cfg)
    except DomainError as exc:
        raise ConfigError(str(exc))

    kernel = fd = None
    if engine in ("kernel", "both"):
        kernel = linear_field(prof, grid.t, grid.r)
    if engine in ("fd", "both"):
        fd = fd_solve(u0, prof, None, fd_cfg)

    primary = kernel if kernel is not None else fd
    # with both engines the kernel field is u of field.csv and kernel of
    # diff.csv, formatted once
    u = _grid_text(kernel.values) if engine == "both" else primary.values
    _write_grid_csv(out / "field.csv", ("t", "r", "u"), primary.t_grid,
                    primary.r_grid, u)

    if engine == "both":
        scale = float(np.max(np.abs(kernel.values)))
        if scale == 0.0:
            scale = 1.0
        _write_grid_csv(out / "diff.csv", ("t", "r", "kernel", "fd", "rel_err"),
                        grid.t, grid.r, u, fd.values,
                        np.abs(kernel.values - fd.values) / scale)
    return 0


def cmd_solve(config, out, seed):
    from .globalsolver import (ConvergenceError, SolverConfig, picard_solve,
                               weighted_norm)
    from .hypgeo import DomainError, Grid

    solver = config["solver"]
    try:
        cfg = SolverConfig(**solver, grid=Grid(**config["grid"]))
        spec = _nonlin_spec(config["nonlinearity"], p=solver["p"])
    except DomainError as exc:
        raise ConfigError(str(exc))

    # The data are (0, eps theta_k). Exhausting max_iters is a reportable
    # outcome (converged = false), not a crash; escape and quadrature
    # trouble still exit with code 3.
    try:
        field, history = picard_solve(spec, cfg, config["data"]["k"])
        converged = True
    except ConvergenceError as exc:
        field, history, converged = None, exc.history, False

    if field is not None:
        _write_grid_csv(out / "field.csv", ("t", "r", "u"), field.t_grid,
                        field.r_grid, field.values)
    _write_csv(out / "history.csv", ("iteration", "diff_norm"),
               [(n + 1, d) for n, d in enumerate(history)])
    _write_csv(out / "report.csv",
               ("epsilon", "converged", "iterations", "weighted_norm"),
               [(cfg.epsilon, converged, len(history),
                 weighted_norm(field, cfg.h) if field is not None
                 else float("nan"))])
    return 0


def cmd_decay(config, out, seed):
    from .globalsolver import _decay_window, decay_fit
    from .hypgeo import DomainError, Grid, theta_k
    from .meanprop import RadialProfile, linear_field

    decay = config["decay"]
    k, ray_offset, min_r = decay["k"], decay["ray_offset"], decay["min_r"]
    try:
        grid = Grid(**config["grid"])
        # a fit window the grid cannot fill
        _decay_window(grid.t, grid.r, ray_offset, min_r)
    except DomainError as exc:
        raise ConfigError(str(exc))

    prof = RadialProfile(lambda r: theta_k(r, k))
    field = linear_field(prof, grid.t, grid.r)
    rep = decay_fit(field, k, ray_offset=ray_offset, min_r=min_r)

    _write_csv(out / "decay.csv",
               ("k", "ray_offset", "min_r", "slope_r", "slope_tr",
                "sup_weighted"),
               [(k, ray_offset, min_r, rep.slope_r, rep.slope_tr,
                 rep.sup_weighted)])
    return 0


def cmd_contraction(config, out, seed):
    from .globalsolver import (SolverConfig, contraction_probe,
                               epsilon_threshold)
    from .hypgeo import DomainError, Grid

    solver, data_k = config["solver"], config["data"]["k"]
    contraction = config["contraction"]
    n_pairs, target = contraction["n_pairs"], contraction["target_ratio"]
    try:
        cfg = SolverConfig(**solver, grid=Grid(**config["grid"]))
        spec = _nonlin_spec(config["nonlinearity"], p=solver["p"])
    except DomainError as exc:
        raise ConfigError(str(exc))

    if contraction["mode"] == "probe":
        rep = contraction_probe(spec, cfg, n_pairs=n_pairs, rng_seed=seed,
                                data_k=data_k)
        _write_csv(out / "contraction.csv",
                   ("epsilon", "sampled_pairs", "max_ratio"),
                   [(rep.epsilon, rep.sampled_pairs, rep.max_ratio)])
    else:
        rep = epsilon_threshold(spec, cfg, target, seed, data_k, n_pairs,
                                contraction["n_steps"])
        _write_csv(out / "threshold.csv",
                   ("epsilon0", "target_ratio", "max_ratio",
                    "sampled_pairs", "seed"),
                   [(rep.epsilon, target, rep.max_ratio, rep.sampled_pairs,
                     seed)])
    _write_csv(out / "ratios.csv", ("pair", "ratio"),
               [(i, ratio) for i, ratio in enumerate(rep.ratios)])
    return 0


def _sequence_rows(cert):
    yield ("meta", 0, cert.boost.l0, cert.boost.A0, cert.T)
    for l, a, b, c in cert.boost.entries:
        yield ("boost", int(l), float(a), float(b), float(c))
    for m, A, B, logD in cert.john.entries:
        yield ("john", int(m), float(A), float(B), float(logD))


def _blowup_run(config, grid, snapshot_every=1):
    """The run [blowup] and [nonlinearity] describe: (spec, u0, u1, fd_cfg,
    cert) for the data (0, epsilon * bump), F with the certificate's q and
    delta0, fd_cfg on Grid(**grid) (None: no FD run; r_max defaults to
    t_max + the bump's support radius + 0.1). All but the certificate is
    checked before it is built, as config errors: the spec even without an
    FD run, and the bump's support against the grid as the stepper demands."""
    from .blowlab import BlowupParams, build_certificate, bump_profile
    from .fdoracle import FDConfig, _check_support
    from .hypgeo import DomainError, Grid
    from .meanprop import RadialProfile

    blowup = dict(config["blowup"])
    m_max = blowup.pop("m_max")
    fd_cfg = None
    try:
        params = BlowupParams(**blowup)
        spec = _nonlin_spec(config["nonlinearity"], p=params.p, q=params.q,
                            delta0=params.delta0)
        bump = bump_profile(params.tau0)
        u0 = RadialProfile(0.0)
        u1 = RadialProfile(lambda lam: params.epsilon * bump(lam),
                           support_radius=bump.support_radius, knots=bump.knots)
        if grid is not None:
            r_max = grid["t_max"] + bump.support_radius + 0.1
            fd_cfg = FDConfig(Grid(**{"r_max": r_max, **grid}),
                              snapshot_every)
            _check_support(u0, u1, fd_cfg)
    except DomainError as exc:
        raise ConfigError(str(exc))
    return spec, u0, u1, fd_cfg, build_certificate(bump, params, m_max=m_max)


def cmd_blowup(config, out, seed):
    import numpy as np
    from .blowlab import escape_detector
    from .nonlin import nonlinearity

    escape = dict(config["escape"])
    run_escape = escape.pop("enabled")
    factor = escape.pop("threshold_factor")
    spec, u0, u1, esc_cfg, cert = _blowup_run(config,
                                              escape if run_escape else None)
    params = cert.params

    _write_csv(out / "sequences.csv", ("sequence", "index", "x1", "x2", "x3"),
               _sequence_rows(cert))
    _write_csv(out / "certificate.csv",
               ("p", "q", "tau0", "epsilon", "delta0", "C0", "c0",
                "l0", "A0", "E", "E_tail_bound", "T"),
               [(params.p, params.q, params.tau0, params.epsilon,
                 params.delta0, params.C0, cert.c0, cert.boost.l0,
                 cert.boost.A0, cert.john.E, cert.john.E_tail_bound,
                 cert.T)])

    if run_escape:
        threshold = factor * float(np.max(np.abs(u1(esc_cfg.grid.r))))
        F = nonlinearity(spec) if spec is not None else None
        rep = escape_detector(u0, u1, F, esc_cfg, threshold)
        sup_max = max((s for s in rep.sup_history if math.isfinite(s)),
                      default=0.0)
        _write_csv(out / "escape.csv",
                   ("threshold", "escaped", "instability", "t_escape",
                    "records", "sup_max"),
                   [(rep.threshold, rep.escaped, rep.instability,
                     rep.t_escape if rep.t_escape is not None
                     else float("nan"),
                     len(rep.t_history), sup_max)])
        # one format per row: the bytes _write_csv gives for these floats
        with open(out / "escape_history.csv", "w", encoding="utf-8",
                  newline="") as fh:
            fh.write("t,sup\n")
            fh.writelines("%.17g,%.17g\n" % row for row in
                          zip(rep.t_history.tolist(),
                              rep.sup_history.tolist()))
    return 0


def cmd_certify(config, out, seed):
    from .blowlab import certificate_verify
    from .fdoracle import InstabilityError, fd_solve
    from .meanprop import SpaceTimeField
    from .nonlin import nonlinearity

    sim = dict(config["certify"])
    scale = sim.pop("field_scale")
    normalize = sim.pop("normalize_tight")
    every = sim.pop("snapshot_every")
    spec, u0, u1, sim_cfg, cert = _blowup_run(config, sim, every)
    partial = None
    try:
        u_sim = fd_solve(u0, u1, nonlinearity(spec), sim_cfg)
    except InstabilityError as exc:
        # a blow-up inside the window: check the snapshots before it
        if exc.field is None:
            raise
        u_sim = exc.field
        partial = (f"partial check: {exc}; snapshots verified up to "
                   f"t = {u_sim.t_grid[-1]:.6g}")

    rep = certificate_verify(cert, u_sim)
    if normalize and rep.passed_points:
        # Rescale so the tightest sampled point sits exactly on its bound;
        # any field_scale below 1 is then a guaranteed violation.
        ratios = [b / v for (_, _, b, v) in rep.passed_points if v > 0]
        if ratios:
            scale *= max(ratios) * (1.0 + 1e-9)
    if scale != 1.0:
        u_sim = SpaceTimeField(u_sim.t_grid, u_sim.r_grid,
                               u_sim.values * scale)
        rep = certificate_verify(cert, u_sim)

    _write_csv(out / "verify.csv",
               ("first_checked", "first_violations", "first_min_margin",
                "boost_checked", "boost_violations", "boost_min_margin",
                "coverage_warning"),
               [(rep.first_checked, len(rep.first_violations),
                 rep.first_min_margin, rep.boost_checked,
                 len(rep.boost_violations), rep.boost_min_margin,
                 "; ".join(w for w in (partial, rep.coverage_warning) if w))])
    rows = [("first", t, r, bound, value)
            for t, r, bound, value in rep.first_violations]
    rows += [("boost", t, r, bound, value)
             for t, r, bound, value in rep.boost_violations]
    _write_csv(out / "violations.csv", ("check", "t", "r", "bound", "value"),
               rows)
    return 4 if rows else 0


# ---------------------------------------------------------------------------
# entry point


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="wavecli",
        description="Numerical experiments for the shifted wave equation "
                    "with logarithmic nonlinearity on the hyperbolic plane.")
    parser.add_argument("command", choices=_SCHEMA)
    parser.add_argument("--config", required=True,
                        help="INI-style config file")
    parser.add_argument("--out", default=".",
                        help="output directory for the CSV reports")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every random draw in the run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"argument --seed: must be a nonnegative integer, got {args.seed}")
    return args


def main(argv=None):
    args = _parse_args(argv)
    try:
        _apply_thread_cap()
        config = _read_config(args.config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        from .fdoracle import InstabilityError
        from .globalsolver import ConvergenceError, EscapeError
        from .hypgeo import DomainError
        from .meanprop import QuadratureError

        handler = globals()["cmd_" + args.command]
        try:
            return handler(config, out, args.seed)
        except (DomainError, QuadratureError, InstabilityError,
                EscapeError, ConvergenceError) as exc:
            print(f"wavecli: {args.command} failed: {exc}", file=sys.stderr)
            return 3
    except ConfigError as exc:
        print(f"wavecli: config error: {exc}", file=sys.stderr)
        return 2


def run(command, config, out, *args):
    """wavecli <command> [args] on config (INI sections as dicts) into the
    Path out, where the config is written as <command>.ini first; returns
    main's exit code."""
    out.mkdir(parents=True, exist_ok=True)
    cp = configparser.ConfigParser()
    cp.read_dict(config)
    with open(out / f"{command}.ini", "w", encoding="utf-8") as fh:
        cp.write(fh)
    return main([command, "--config", fh.name, "--out", str(out), *args])


if __name__ == "__main__":
    sys.exit(main())
