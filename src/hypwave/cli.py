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
the failing command), 4 certificate violation from cmd_certify.

The environment variable WAVECLI_THREADS caps BLAS/OpenMP parallelism;
it is applied before the numerical modules are imported, so it only
takes effect when the process starts here (the default is whatever the
machine gives, usually all cores). All randomness is driven by --seed.

Heavy imports happen inside the command handlers, after the thread cap.
"""

import argparse
import configparser
import csv
import math
import os
import sys
from pathlib import Path

__all__ = ["main", "ConfigError"]

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


_COUNT = _check(int, lambda n: n >= 0, "nonnegative")
_POSITIVE = _check(float, lambda x: x > 0, "positive")
# first_iterate_bound integrates (sinh lam)^(1/2) up to lam = 13 tau0,
# which overflows past lam = 1420
_TAU0 = _check(float, lambda x: 0 < x <= 100, "in (0, 100]")
_REQUIRED = object()


def _grid(*defaults):
    """[grid], in the order of SolverConfig.grid."""
    return {key: (float, default)
            for key, default in zip(("t_max", "r_max", "dt", "dr"), defaults)}


def _nonlinearity(*kinds):
    """[nonlinearity], defaulting to kinds[0]; p defaults to the command's
    [solver] or [blowup] p."""
    return {"kind": (kinds, kinds[0]), "p": (float, None), "q": (float, 2.0),
            "delta0": (float, 0.45), "A": (float, 2.0)}


_BLOWUP = {"p": (float, _REQUIRED), "q": (float, 2.0), "tau0": (_TAU0, 1.0),
           "epsilon": (float, _REQUIRED), "delta0": (float, 0.45),
           "C0": (float, None), "m_max": (_COUNT, 20)}  # C0: default_C0(tau0)

# command -> section -> key -> (cast, default). A cast is float, int, _bool,
# a tuple of choices or a _check; a default is a value, _REQUIRED, or None
# for one computed in the code or left to the dataclass the key feeds.
# The grids are FDConfig's (propagate, decay) and SolverConfig's defaults.
_SCHEMA = {
    "propagate": {
        "grid": _grid(4.0, 8.0, 0.04, 0.05),
        "data": {"kind": (("zero", "constant", "theta", "bump"), "zero"),
                 "value": (float, 1.0), "k": (float, 1.0),
                 "tau0": (float, 1.0)},
        "propagate": {"engine": (("kernel", "fd", "both"), "kernel")},
    },
    "solve": {
        "grid": _grid(8.0, 8.0, 0.05, 0.05),
        "data": {"k": (float, 1.0)},
        "solver": {"p": (float, _REQUIRED), "h": (float, _REQUIRED),
                   "epsilon": (float, _REQUIRED), "max_iters": (int, None),
                   "fixed_point_tol": (float, None)},
        "nonlinearity": _nonlinearity("canonical_sinh_inverse",
                                      "piecewise_generic", "none"),
    },
    "decay": {
        "grid": _grid(4.0, 8.0, 0.04, 0.05),
        "decay": {"k": (float, 1.0), "ray_offset": (float, 1.0),
                  "min_r": (float, 1.0)},
    },
    "contraction": {
        "grid": _grid(8.0, 8.0, 0.05, 0.05),
        "data": {"k": (float, 1.0)},
        "solver": {"p": (float, _REQUIRED), "h": (float, _REQUIRED),
                   "epsilon": (float, 0.1)},
        # kind = none would measure nothing
        "nonlinearity": _nonlinearity("canonical_sinh_inverse",
                                      "piecewise_generic"),
        "contraction": {
            "mode": (("probe", "threshold"), "probe"),
            "n_pairs": (_check(int, lambda n: n >= 1, "at least 1"), 20),
            "target_ratio": (_POSITIVE, 0.5), "n_steps": (_COUNT, 20)},
    },
    "blowup": {
        "blowup": _BLOWUP,
        "nonlinearity": _nonlinearity("piecewise_generic",
                                      "canonical_sinh_inverse", "none"),
        "escape": {"enabled": (_bool, True), "t_max": (float, 40.0),
                   "dr": (float, None), "dt": (float, None),
                   "r_max": (float, None),  # t_max + 3.5 tau0 + 0.1
                   "threshold_factor": (_POSITIVE, 10.0)},
    },
    "certify": {
        "blowup": _BLOWUP,
        # kind = none cannot blow up
        "nonlinearity": _nonlinearity("piecewise_generic",
                                      "canonical_sinh_inverse"),
        "certify": {"dr": (float, None), "dt": (float, None),
                    "r_max": (float, 9.0), "t_max": (float, 5.0),
                    "snapshot_every": (int, 5), "field_scale": (float, 1.0),
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
            elif isinstance(cast, tuple):
                values[key] = raw.strip().lower()
                if values[key] not in cast:
                    raise ConfigError(f"{where} must be one of {cast}, got "
                                      f"{values[key]!r}")
            else:
                try:
                    values[key] = cast(raw)
                except (ValueError, KeyError):
                    raise ConfigError(f"{where}: cannot parse {raw!r}")
                except ConfigError as exc:
                    raise ConfigError(f"{where} {exc}")
    return config


def _data_profile(data):
    """The velocity profile u_t(0) from [data]; the position u(0) is 0."""
    from .blowlab import bump_profile
    from .hypgeo import EnvelopeParams, theta_k
    from .meanprop import RadialProfile

    kind = data["kind"]
    if kind == "zero":
        return RadialProfile.constant(0.0)
    if kind == "constant":
        return RadialProfile.constant(data["value"])
    if kind == "theta":
        params = EnvelopeParams(k=data["k"])
        return RadialProfile.from_function(lambda r: theta_k(r, params))
    return bump_profile(data["tau0"])


def _nonlin_spec(nonlinearity, p):
    """NonlinearitySpec from [nonlinearity], or None for kind = none; p is
    the command's own unless [nonlinearity] sets it."""
    from .nonlin import NonlinearitySpec

    if nonlinearity["kind"] == "none":
        return None
    keys = {"p": p, **nonlinearity}
    if keys["p"] == 3.0:
        print("wavecli: p = 3 is the critical exponent: "
              "critical, no theory backs this run", file=sys.stderr)
    return NonlinearitySpec(**keys)


def _blowup_params(blowup):
    """BlowupParams from [blowup], whose m_max the caller reads."""
    from .blowlab import BlowupParams
    from .meanprop import default_C0

    keys = {key: v for key, v in blowup.items() if key != "m_max"}
    tau0, epsilon = keys["tau0"], keys["epsilon"]
    keys.setdefault("C0", default_C0(tau0))
    # c0 is recomputed by build_certificate; the placeholder just has to
    # satisfy the smallness invariant of BlowupParams.
    c0 = 0.5 * keys["delta0"] * math.sqrt(math.sinh(0.5 * tau0)) / epsilon \
        if epsilon > 0 else 0.1
    return BlowupParams(c0=c0, **keys)


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


def _write_grid_csv(path, header, t_grid, r_grid, *columns):
    """One row (t, r, column values...) per grid point, t-major: the bytes
    _write_csv gives for the same floats. Each t and each r is formatted
    once; a time level's rows are then one format of its values."""
    import numpy as np

    t_txt = ["%.17g," % t for t in np.asarray(t_grid, dtype=float).tolist()]
    line = ",".join(["%.17g"] * len(columns)) + "\n"
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
    from .hypgeo import DomainError, uniform_grid
    from .meanprop import RadialProfile, linear_field

    u0 = RadialProfile.constant(0.0)
    grid = config["grid"]
    engine = config["propagate"]["engine"]
    try:
        t_grid = uniform_grid(grid["t_max"], grid["dt"], "t_max/dt")
        r_grid = uniform_grid(grid["r_max"], grid["dr"], "r_max/dr")
        prof = _data_profile(config["data"])
        fd_cfg = None
        if engine in ("fd", "both"):
            fd_cfg = FDConfig(**grid)
            # data the stepper would reject (a bump reaching the wall)
            _check_support(u0, prof, fd_cfg)
    except DomainError as exc:
        raise ConfigError(str(exc))

    kernel = fd = None
    if engine in ("kernel", "both"):
        kernel = linear_field(prof, t_grid, r_grid)
    if engine in ("fd", "both"):
        fd = fd_solve(u0, prof, None, fd_cfg)

    primary = kernel if kernel is not None else fd
    _write_grid_csv(out / "field.csv", ("t", "r", "u"), primary.t_grid,
                    primary.r_grid, primary.values)

    if engine == "both":
        scale = float(np.max(np.abs(kernel.values)))
        if scale == 0.0:
            scale = 1.0
        _write_grid_csv(out / "diff.csv", ("t", "r", "kernel", "fd", "rel_err"),
                        t_grid, r_grid, kernel.values, fd.values,
                        np.abs(kernel.values - fd.values) / scale)
    return 0


def cmd_solve(config, out, seed):
    from .globalsolver import (ConvergenceError, SolverConfig, picard_solve,
                               weighted_norm)
    from .hypgeo import DomainError, EnvelopeParams, theta_k
    from .meanprop import RadialProfile

    solver = config["solver"]
    data_k = config["data"]["k"]
    try:
        cfg = SolverConfig(**solver, grid=tuple(config["grid"].values()))
        spec = _nonlin_spec(config["nonlinearity"], solver["p"])
        params = EnvelopeParams(k=data_k)
    except DomainError as exc:
        raise ConfigError(str(exc))

    u0 = RadialProfile.constant(0.0)
    u1 = RadialProfile.from_function(lambda r: theta_k(r, params))
    # Exhausting max_iters is a reportable outcome (converged = false),
    # not a crash; escape and quadrature trouble still exit with code 3.
    try:
        field, history = picard_solve(u0, u1, spec, cfg, data_k=data_k)
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
    from .hypgeo import DomainError, EnvelopeParams, theta_k, uniform_grid
    from .meanprop import RadialProfile, linear_field

    grid, decay = config["grid"], config["decay"]
    k, ray_offset, min_r = decay["k"], decay["ray_offset"], decay["min_r"]
    try:
        t_grid = uniform_grid(grid["t_max"], grid["dt"], "t_max/dt")
        r_grid = uniform_grid(grid["r_max"], grid["dr"], "r_max/dr")
        params = EnvelopeParams(k=k)
        # a fit window the grid cannot fill
        _decay_window(t_grid, r_grid, ray_offset, min_r)
    except DomainError as exc:
        raise ConfigError(str(exc))

    prof = RadialProfile.from_function(lambda r: theta_k(r, params))
    field = linear_field(prof, t_grid, r_grid)
    rep = decay_fit(field, k, ray_offset=ray_offset, min_r=min_r)

    _write_csv(out / "decay.csv",
               ("k", "ray_offset", "min_r", "slope_r", "slope_tr",
                "sup_weighted"),
               [(k, ray_offset, min_r, rep.slope_r, rep.slope_tr,
                 rep.sup_weighted)])
    return 0


def cmd_contraction(config, out, seed):
    from .globalsolver import (SolverConfig, _threshold_search,
                               contraction_probe)
    from .hypgeo import DomainError

    solver, data_k = config["solver"], config["data"]["k"]
    contraction = config["contraction"]
    n_pairs, target = contraction["n_pairs"], contraction["target_ratio"]
    try:
        cfg = SolverConfig(**solver, grid=tuple(config["grid"].values()))
        spec = _nonlin_spec(config["nonlinearity"], solver["p"])
    except DomainError as exc:
        raise ConfigError(str(exc))

    if contraction["mode"] == "probe":
        rep = contraction_probe(spec, cfg, n_pairs=n_pairs, rng_seed=seed,
                                data_k=data_k)
        _write_csv(out / "contraction.csv",
                   ("epsilon", "sampled_pairs", "max_ratio"),
                   [(rep.epsilon, rep.sampled_pairs, rep.max_ratio)])
    else:
        eps0, rep = _threshold_search(spec, cfg, target, seed, data_k,
                                      n_pairs, contraction["n_steps"])
        _write_csv(out / "threshold.csv",
                   ("epsilon0", "target_ratio", "max_ratio",
                    "sampled_pairs", "seed"),
                   [(eps0, target, rep.max_ratio, rep.sampled_pairs, seed)])
    _write_csv(out / "ratios.csv", ("pair", "ratio"),
               [(i, ratio) for i, ratio in enumerate(rep.ratios)])
    return 0


def _sequence_rows(cert):
    yield ("meta", 0, cert.boost.l0, cert.boost.A0, cert.T)
    for l, a, b, c in cert.boost.entries:
        yield ("boost", int(l), float(a), float(b), float(c))
    for m, A, B, logD in cert.john.entries:
        yield ("john", int(m), float(A), float(B), float(logD))


def _bump_data(params, fd_cfg):
    """The blow-up data (u0, u1) = (0, epsilon * bump) and the bump; the
    bump's support must fit fd_cfg the way fdoracle's stepper demands, so
    a grid too small for it is a config error."""
    from .blowlab import bump_profile
    from .fdoracle import _check_support
    from .meanprop import RadialProfile

    bump = bump_profile(params.tau0)
    u0 = RadialProfile.constant(0.0)
    u1 = RadialProfile(lambda lam: params.epsilon * bump(lam),
                       support_radius=bump.support_radius, knots=bump.knots)
    if fd_cfg is not None:
        _check_support(u0, u1, fd_cfg)
    return u0, u1, bump


def cmd_blowup(config, out, seed):
    import numpy as np
    from .blowlab import build_certificate, escape_detector
    from .fdoracle import FDConfig
    from .hypgeo import DomainError
    from .nonlin import nonlinearity

    escape = dict(config["escape"])
    run_escape = escape.pop("enabled")
    factor = escape.pop("threshold_factor")
    try:
        params = _blowup_params(config["blowup"])
        esc_cfg = spec = None
        if run_escape:
            escape.setdefault("r_max",
                              escape["t_max"] + 3.5 * params.tau0 + 0.1)
            esc_cfg = FDConfig(**escape)
            spec = _nonlin_spec(config["nonlinearity"], params.p)
        u0, u1, bump = _bump_data(params, esc_cfg)
    except DomainError as exc:
        raise ConfigError(str(exc))

    cert = build_certificate(bump, params, m_max=config["blowup"]["m_max"])

    _write_csv(out / "sequences.csv", ("sequence", "index", "x1", "x2", "x3"),
               _sequence_rows(cert))
    _write_csv(out / "certificate.csv",
               ("p", "q", "tau0", "epsilon", "delta0", "C0", "c0",
                "l0", "A0", "E", "E_tail_bound", "T"),
               [(params.p, params.q, params.tau0, params.epsilon,
                 params.delta0, params.C0, cert.params.c0, cert.boost.l0,
                 cert.boost.A0, cert.john.E, cert.john.E_tail_bound,
                 cert.T)])

    if run_escape:
        threshold = factor * float(np.max(np.abs(u1(esc_cfg.r_grid))))
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
        _write_csv(out / "escape_history.csv", ("t", "sup"),
                   zip(rep.t_history, rep.sup_history))
    return 0


def cmd_certify(config, out, seed):
    from .blowlab import build_certificate, certificate_verify
    from .fdoracle import FDConfig, fd_solve
    from .hypgeo import DomainError
    from .meanprop import SpaceTimeField
    from .nonlin import nonlinearity

    sim = dict(config["certify"])
    scale = sim.pop("field_scale")
    normalize = sim.pop("normalize_tight")
    try:
        params = _blowup_params(config["blowup"])
        sim_cfg = FDConfig(**sim)
        spec = _nonlin_spec(config["nonlinearity"], params.p)
        u0, u1, bump = _bump_data(params, sim_cfg)
    except DomainError as exc:
        raise ConfigError(str(exc))

    cert = build_certificate(bump, params, m_max=config["blowup"]["m_max"])
    u_sim = fd_solve(u0, u1, nonlinearity(spec), sim_cfg)

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
                 rep.coverage_warning or "")])
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
    return parser.parse_args(argv)


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


if __name__ == "__main__":
    sys.exit(main())
