"""Command line front end: config file in, CSV reports out.

Usage:

    wavecli <propagate|solve|decay|contraction|blowup|certify>
            --config <file> [--out <dir>] [--seed <n>]

The config file is INI-style: [section] headers and key = value pairs,
one level deep, parsed by configparser. Sections used by each command:

    propagate    [grid] [data] [propagate]
    solve        [grid] [data] [solver] [nonlinearity]
    decay        [grid] [decay]
    contraction  [grid] [data] [solver] [nonlinearity] [contraction]
    blowup       [blowup] [nonlinearity] [escape]
    certify      [blowup] [nonlinearity] [certify]

A command ignores the sections it does not use, but a section outside
this table (a misspelt [solvr], or a [DEFAULT] that sets keys) is a
config error.

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

_COMMANDS = ("propagate", "solve", "decay", "contraction", "blowup",
             "certify")

_SECTIONS = ("grid", "data", "propagate", "solver", "nonlinearity", "decay",
             "contraction", "blowup", "escape", "certify")

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class ConfigError(Exception):
    """A problem with the config file, reported with exit code 2."""


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


def _read_config(path):
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}")
    unknown = [s for s in cp.sections() if s not in _SECTIONS]
    if cp.defaults():  # configparser keeps [DEFAULT] out of sections()
        unknown.insert(0, cp.default_section)
    if unknown:
        raise ConfigError(
            f"unknown section [{unknown[0]}] in {path}; the sections are "
            + " ".join(f"[{name}]" for name in _SECTIONS))
    return cp


_REQUIRED = object()


def _parse_bool(raw):
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _get(cp, section, key, cast=float, default=_REQUIRED):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r} in section [{section}]")
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(
            f"key {key!r} in [{section}]: cannot parse {raw!r}")


def _choice(cp, section, key, allowed, default):
    val = _get(cp, section, key, str, default).strip().lower()
    if val not in allowed:
        raise ConfigError(
            f"key {key!r} in [{section}] must be one of {allowed}, "
            f"got {val!r}")
    return val


def _fd_grid():
    """FDConfig's default (t_max, r_max, dt, dr), the grid of propagate
    and decay; solve and contraction default to SolverConfig's."""
    from .fdoracle import FDConfig
    return FDConfig.t_max, FDConfig.r_max, FDConfig.dt, FDConfig.dr


def _grid(cp, default):
    """(t_max, r_max, dt, dr) from [grid]; each missing key from default."""
    return tuple(_get(cp, "grid", key, float, value)
                 for key, value in zip(("t_max", "r_max", "dt", "dr"), default))


def _data_profile(cp):
    """The velocity profile u_t(0) from [data]; the position u(0) is 0."""
    from .blowlab import bump_profile
    from .hypgeo import EnvelopeParams, theta_k
    from .meanprop import RadialProfile

    kind = _choice(cp, "data", "kind", ("zero", "constant", "theta", "bump"),
                   "zero")
    if kind == "zero":
        return RadialProfile.constant(0.0)
    if kind == "constant":
        return RadialProfile.constant(_get(cp, "data", "value", float, 1.0))
    if kind == "theta":
        k = _get(cp, "data", "k", float, 1.0)
        params = EnvelopeParams(k=k)
        return RadialProfile.from_function(lambda r: theta_k(r, params))
    tau0 = _get(cp, "data", "tau0", float, 1.0)
    return bump_profile(tau0)


def _label_critical(p):
    if p == 3.0:
        print("wavecli: p = 3 is the critical exponent: "
              "critical, no theory backs this run", file=sys.stderr)


def _nonlin_spec(cp, p, default_kind="canonical_sinh_inverse"):
    """NonlinearitySpec from [nonlinearity], or None for kind = none."""
    from .hypgeo import DomainError
    from .nonlin import NonlinearitySpec, _blend_coeffs

    kind = _choice(cp, "nonlinearity", "kind",
                   ("canonical_sinh_inverse", "piecewise_generic", "none"),
                   default_kind)
    if kind == "none":
        return None
    p = _get(cp, "nonlinearity", "p", float, p)
    _label_critical(p)
    spec = NonlinearitySpec(
        p=p,
        q=_get(cp, "nonlinearity", "q", float, 2.0),
        delta0=_get(cp, "nonlinearity", "delta0", float, 0.45),
        A=_get(cp, "nonlinearity", "A", float, 2.0),
        kind=kind)
    if kind == "piecewise_generic":
        # the blend's monotonicity check, which F_generic would run mid-run
        try:
            _blend_coeffs(spec.p, spec.q, spec.delta0)
        except DomainError as exc:
            raise ConfigError(f"[nonlinearity]: {exc}")
    return spec


def _blowup_params(cp):
    from .blowlab import BlowupParams
    from .meanprop import default_C0

    p = _get(cp, "blowup", "p", float)
    tau0 = _get(cp, "blowup", "tau0", float, 1.0)
    epsilon = _get(cp, "blowup", "epsilon", float)
    delta0 = _get(cp, "blowup", "delta0", float, 0.45)
    # c0 is recomputed by build_certificate; the placeholder just has to
    # satisfy the smallness invariant of BlowupParams.
    c0 = 0.5 * delta0 * math.sqrt(math.sinh(0.5 * tau0)) / epsilon \
        if epsilon > 0 else 0.1
    return BlowupParams(
        p=p,
        q=_get(cp, "blowup", "q", float, 2.0),
        tau0=tau0,
        epsilon=epsilon,
        delta0=delta0,
        C0=_get(cp, "blowup", "C0", float, default_C0(tau0)),
        c0=c0)


def _scaled_profile(profile, factor):
    from .meanprop import RadialProfile
    return RadialProfile(lambda lam: factor * profile(lam),
                         support_radius=profile.support_radius,
                         knots=profile.knots)


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


def cmd_propagate(cp, out, seed):
    import numpy as np
    from .fdoracle import FDConfig, _check_support, fd_solve
    from .hypgeo import DomainError, uniform_grid
    from .meanprop import RadialProfile, linear_field

    u0 = RadialProfile.constant(0.0)
    try:
        engine = _choice(cp, "propagate", "engine", ("kernel", "fd", "both"),
                         "kernel")
        t_max, r_max, dt, dr = _grid(cp, _fd_grid())
        t_grid = uniform_grid(t_max, dt, "t_max/dt")
        r_grid = uniform_grid(r_max, dr, "r_max/dr")
        prof = _data_profile(cp)
        fd_cfg = None
        if engine in ("fd", "both"):
            fd_cfg = FDConfig(dr=dr, dt=dt, r_max=r_max, t_max=t_max)
            # data the stepper would reject (a bump reaching the wall)
            _check_support(u0, prof, fd_cfg)
    except DomainError as exc:
        raise ConfigError(str(exc))

    kernel = None
    fd = None
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


def cmd_solve(cp, out, seed):
    from .globalsolver import (ConvergenceError, SolverConfig, picard_solve,
                               weighted_norm)
    from .hypgeo import DomainError, EnvelopeParams, theta_k
    from .meanprop import RadialProfile

    try:
        p = _get(cp, "solver", "p", float)
        cfg = SolverConfig(
            p=p,
            h=_get(cp, "solver", "h", float),
            epsilon=_get(cp, "solver", "epsilon", float),
            grid=_grid(cp, SolverConfig.grid),
            max_iters=_get(cp, "solver", "max_iters", int,
                           SolverConfig.max_iters),
            fixed_point_tol=_get(cp, "solver", "fixed_point_tol", float,
                                 SolverConfig.fixed_point_tol))
        spec = _nonlin_spec(cp, p)
        data_k = _get(cp, "data", "k", float, 1.0)
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


def cmd_decay(cp, out, seed):
    from .globalsolver import decay_fit
    from .hypgeo import DomainError, EnvelopeParams, theta_k, uniform_grid
    from .meanprop import RadialProfile, linear_field

    try:
        t_max, r_max, dt, dr = _grid(cp, _fd_grid())
        t_grid = uniform_grid(t_max, dt, "t_max/dt")
        r_grid = uniform_grid(r_max, dr, "r_max/dr")
        k = _get(cp, "decay", "k", float, 1.0)
        ray_offset = _get(cp, "decay", "ray_offset", float, 1.0)
        min_r = _get(cp, "decay", "min_r", float, 1.0)
        params = EnvelopeParams(k=k)
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


def cmd_contraction(cp, out, seed):
    from .globalsolver import (SolverConfig, _threshold_search,
                               contraction_probe)
    from .hypgeo import DomainError

    try:
        p = _get(cp, "solver", "p", float)
        cfg = SolverConfig(
            p=p,
            h=_get(cp, "solver", "h", float),
            epsilon=_get(cp, "solver", "epsilon", float, 0.1),
            grid=_grid(cp, SolverConfig.grid))
        spec = _nonlin_spec(cp, p)
        if spec is None:
            raise ConfigError(
                "cmd_contraction needs a nonlinearity; kind = none "
                "measures nothing")
        mode = _choice(cp, "contraction", "mode", ("probe", "threshold"),
                       "probe")
        n_pairs = _get(cp, "contraction", "n_pairs", int, 20)
        target = _get(cp, "contraction", "target_ratio", float, 0.5)
        n_steps = _get(cp, "contraction", "n_steps", int, 20)
        # reject what would measure nothing before any table is built
        if n_pairs < 1:
            raise ConfigError("key 'n_pairs' in [contraction] must be at "
                              f"least 1, got {n_pairs}")
        if n_steps < 0:
            raise ConfigError("key 'n_steps' in [contraction] must be "
                              f"nonnegative, got {n_steps}")
        if not target > 0:
            raise ConfigError("key 'target_ratio' in [contraction] must be "
                              f"positive, got {target}")
        data_k = _get(cp, "data", "k", float, 1.0)
    except DomainError as exc:
        raise ConfigError(str(exc))

    if mode == "probe":
        rep = contraction_probe(spec, cfg, n_pairs=n_pairs, rng_seed=seed,
                                data_k=data_k)
        _write_csv(out / "contraction.csv",
                   ("epsilon", "sampled_pairs", "max_ratio"),
                   [(rep.epsilon, rep.sampled_pairs, rep.max_ratio)])
    else:
        eps0, rep = _threshold_search(spec, cfg, target, seed, data_k,
                                      n_pairs, n_steps)
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
    u1 = _scaled_profile(bump, params.epsilon)
    if fd_cfg is not None:
        _check_support(u0, u1, fd_cfg)
    return u0, u1, bump


def cmd_blowup(cp, out, seed):
    import numpy as np
    from .blowlab import build_certificate, escape_detector
    from .fdoracle import FDConfig
    from .hypgeo import DomainError
    from .nonlin import nonlinearity

    try:
        params = _blowup_params(cp)
        m_max = _get(cp, "blowup", "m_max", int, 20)
        run_escape = _get(cp, "escape", "enabled", _parse_bool, True)
        esc_cfg = None
        spec = None
        if run_escape:
            t_max = _get(cp, "escape", "t_max", float, 40.0)
            esc_cfg = FDConfig(
                dr=_get(cp, "escape", "dr", float, FDConfig.dr),
                dt=_get(cp, "escape", "dt", float, FDConfig.dt),
                r_max=_get(cp, "escape", "r_max", float,
                           t_max + 3.5 * params.tau0 + 0.1),
                t_max=t_max)
            factor = _get(cp, "escape", "threshold_factor", float, 10.0)
            spec = _nonlin_spec(cp, params.p,
                                default_kind="piecewise_generic")
        u0, u1, bump = _bump_data(params, esc_cfg)
    except DomainError as exc:
        raise ConfigError(str(exc))

    cert = build_certificate(bump, params, m_max=m_max)

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


def cmd_certify(cp, out, seed):
    from .blowlab import build_certificate, certificate_verify
    from .fdoracle import FDConfig, fd_solve
    from .hypgeo import DomainError
    from .meanprop import SpaceTimeField
    from .nonlin import nonlinearity

    try:
        params = _blowup_params(cp)
        m_max = _get(cp, "blowup", "m_max", int, 20)
        sim_cfg = FDConfig(
            dr=_get(cp, "certify", "dr", float, FDConfig.dr),
            dt=_get(cp, "certify", "dt", float, FDConfig.dt),
            r_max=_get(cp, "certify", "r_max", float, 9.0),
            t_max=_get(cp, "certify", "t_max", float, 5.0),
            snapshot_every=_get(cp, "certify", "snapshot_every", int, 5))
        field_scale = _get(cp, "certify", "field_scale", float, 1.0)
        normalize = _get(cp, "certify", "normalize_tight", _parse_bool,
                         False)
        spec = _nonlin_spec(cp, params.p, default_kind="piecewise_generic")
        if spec is None:
            raise ConfigError(
                "cmd_certify needs a nonlinearity; kind = none cannot "
                "blow up")
        u0, u1, bump = _bump_data(params, sim_cfg)
    except DomainError as exc:
        raise ConfigError(str(exc))

    cert = build_certificate(bump, params, m_max=m_max)
    u_sim = fd_solve(u0, u1, nonlinearity(spec), sim_cfg)

    rep = certificate_verify(cert, u_sim)
    scale = field_scale
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
    parser.add_argument("command", choices=_COMMANDS)
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
        cp = _read_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        from .fdoracle import InstabilityError
        from .globalsolver import ConvergenceError, EscapeError
        from .hypgeo import DomainError
        from .meanprop import QuadratureError

        handler = globals()["cmd_" + args.command]
        try:
            return handler(cp, out, args.seed)
        except (DomainError, QuadratureError, InstabilityError,
                EscapeError, ConvergenceError) as exc:
            print(f"wavecli: {args.command} failed: {exc}", file=sys.stderr)
            return 3
    except ConfigError as exc:
        print(f"wavecli: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
