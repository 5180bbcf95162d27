"""Leapfrog finite-difference solver for the radial shifted wave equation.

This is the package's independent cross-check: a plain explicit
second-order scheme for

    u_tt = u_rr + coth(r) u_r + u/4 + F(u)

that shares no code with the integral-kernel propagation path. The grid is
uniform in r and t, the origin uses the even extension (the radial first
derivative vanishes there and coth(r) u_r tends to u_rr, doubling the
second difference), and the outer boundary is homogeneous Dirichlet placed
far enough out that signals never return from it.

One generator, leapfrog, steps the scheme for both fd_solve and
blowlab.escape_detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hypgeo import DomainError, uniform_grid
from .meanprop import RadialProfile, SpaceTimeField, _as_profile

__all__ = ["FDConfig", "InstabilityError", "leapfrog", "fd_solve",
           "convergence_order", "ConvergenceReport"]

_CFL_LIMIT = 0.9


class InstabilityError(RuntimeError):
    """The scheme produced a non-finite value."""


@dataclass(frozen=True)
class FDConfig:
    """Grid parameters for fd_solve.

    cfl = dt/dr is derived, not passed. The stability margin cfl <= 0.9
    reflects the scheme's actual limit: the origin row of the update matrix
    pushes the spectral bound to about 0.909 regardless of resolution, so a
    unit Courant number is genuinely unstable here. The default grid
    (cfl 0.8) is also wavecli's for propagate and decay.
    """

    dr: float = 0.05
    dt: float = 0.04
    r_max: float = 8.0
    t_max: float = 4.0
    snapshot_every: int = 1
    cfl: float = field(init=False)

    def __post_init__(self):
        uniform_grid(self.r_max, self.dr, "r_max/dr")
        uniform_grid(self.t_max, self.dt, "t_max/dt")
        object.__setattr__(self, "cfl", self.dt / self.dr)
        if self.cfl > _CFL_LIMIT + 1e-12:
            raise DomainError(
                f"cfl = dt/dr = {self.cfl:.4g} exceeds the stability margin "
                f"{_CFL_LIMIT}")
        if self.snapshot_every < 1:
            raise DomainError("snapshot_every must be at least 1")
        if self.n_steps % self.snapshot_every != 0:
            raise DomainError("snapshot_every must divide the step count")

    @property
    def r_grid(self):
        return uniform_grid(self.r_max, self.dr, "r_max/dr")

    @property
    def n_steps(self):
        return round(self.t_max / self.dt)


def _check_support(u0, u1, cfg):
    """Reject data whose declared support could reach the Dirichlet wall."""
    for prof, name in ((u0, "u0"), (u1, "u1")):
        if prof.support_radius is not None and prof.support_radius > cfg.r_max - cfg.t_max:
            raise DomainError(
                f"{name} support radius {prof.support_radius} exceeds "
                f"r_max - t_max = {cfg.r_max - cfg.t_max}; the boundary would "
                "contaminate the solution")


def _apply_operator(u, coth_r, dr):
    """Spatial operator u_rr + coth(r) u_r + u/4 with the even-extension
    origin stencil; the Dirichlet row at r_max is handled by the caller."""
    out = np.empty_like(u)
    out[1:-1] = ((u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr**2
                 + coth_r * (u[2:] - u[:-2]) / (2.0 * dr)
                 + 0.25 * u[1:-1])
    out[0] = 4.0 * (u[1] - u[0]) / dr**2 + 0.25 * u[0]
    out[-1] = 0.0
    return out


def leapfrog(u0, u1, F, cfg: FDConfig):
    """Yield the leapfrog states on cfg.r_grid for n = 0, ..., cfg.n_steps.

    Data are (u(0), u_t(0)) = (u0, u1); F is the nonlinearity as a
    callable of u, or None for the linear equation. Profiles with a
    declared support radius must fit inside r_max - t_max, so the Dirichlet
    boundary stays causally invisible; undeclared supports are the
    caller's responsibility. Non-finite states are yielded unchecked, for
    the caller to judge under its own np.errstate. Callers may keep the
    yielded arrays but must not write to them: they are the stepper's state.
    """
    u0 = _as_profile(u0)
    u1 = _as_profile(u1)
    _check_support(u0, u1, cfg)
    r = cfg.r_grid
    coth_r = np.cosh(r[1:-1]) / np.sinh(r[1:-1])
    dr, dt = cfg.dr, cfg.dt

    def rhs(u):
        out = _apply_operator(u, coth_r, dr)
        if F is not None:
            out = out + F(u)
            out[-1] = 0.0
        return out

    prev = u0(r)
    prev[-1] = 0.0
    yield prev
    cur = prev + dt * u1(r) + 0.5 * dt**2 * rhs(prev)
    cur[-1] = 0.0
    yield cur
    for _ in range(1, cfg.n_steps):
        prev, cur = cur, 2.0 * cur - prev + dt**2 * rhs(cur)
        cur[-1] = 0.0
        yield cur


def fd_solve(u0, u1, F, cfg: FDConfig):
    """Leapfrog evolution from data (u(0), u_t(0)) = (u0, u1).

    F is the nonlinearity as a callable of u, or None for the linear
    equation; the support rule for the data is leapfrog's. Every
    snapshot_every-th state is kept.

    Raises InstabilityError with the first offending (t, r) if the scheme
    produces a non-finite value.
    """
    r = cfg.r_grid
    stored = []
    # overflow on the way to a detected instability is expected; the
    # non-finite check below is the real guard
    with np.errstate(over="ignore", invalid="ignore"):
        for n, u in enumerate(leapfrog(u0, u1, F, cfg)):
            if not np.all(np.isfinite(u)):
                bad = np.flatnonzero(~np.isfinite(u))[0]
                raise InstabilityError(
                    f"non-finite value at t = {n * cfg.dt:.6g}, r = {r[bad]:.6g}")
            if n % cfg.snapshot_every == 0:
                stored.append(u)
    t_grid = np.linspace(0.0, cfg.t_max, len(stored))
    return SpaceTimeField(t_grid, r, np.asarray(stored))


@dataclass(frozen=True)
class ConvergenceReport:
    """Result of a Richardson grid-refinement study."""

    order: float
    inconclusive: bool
    diffs: tuple

    def __bool__(self):
        return not self.inconclusive


def convergence_order(u0, u1, F, cfg: FDConfig, refinements: int = 2,
                      probe=None):
    """Richardson order estimate from runs at dr, dr/2, dr/4, ...

    Successive solutions are compared at the probe point (default
    (t_max, 1.0)); the order is log2 of the last ratio of differences.
    Fewer than 2 refinements, or differences that fail to shrink
    monotonically, give an inconclusive report instead of a number.
    """
    if refinements < 2:
        return ConvergenceReport(order=float("nan"), inconclusive=True, diffs=())
    t_probe, r_probe = probe if probe is not None else (cfg.t_max, 1.0)
    vals = []
    for k in range(refinements + 1):
        sub = FDConfig(dr=cfg.dr / 2**k, dt=cfg.dt / 2**k,
                       r_max=cfg.r_max, t_max=cfg.t_max)
        fld = fd_solve(u0, u1, F, sub)
        i = fld.time_index(t_probe)
        j = int(round(r_probe / sub.dr))
        vals.append(fld.values[i, j])
    diffs = tuple(abs(vals[k + 1] - vals[k]) for k in range(refinements))
    if any(d == 0.0 for d in diffs) or any(
            diffs[k + 1] >= diffs[k] for k in range(len(diffs) - 1)):
        return ConvergenceReport(order=float("nan"), inconclusive=True, diffs=diffs)
    order = float(np.log2(diffs[-2] / diffs[-1]))
    return ConvergenceReport(order=order, inconclusive=False, diffs=diffs)
