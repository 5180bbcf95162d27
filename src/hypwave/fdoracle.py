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
blowlab.escape_detector. It updates only a window [0, k) of the grid:
the scheme's numerical domain of dependence grows by one cell per step,
so cells beyond the data's support plus one cell per step are exactly 0,
and the window (rounded up to whole blocks of cells) covers the rest.
F must be pointwise; an F with F(0) != 0 steps the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .hypgeo import DomainError, Grid
from .meanprop import SpaceTimeField, _as_profile

__all__ = ["FDConfig", "InstabilityError", "leapfrog", "fd_solve",
           "convergence_order", "ConvergenceReport"]

_CFL_LIMIT = 0.9
# leapfrog's update window grows in whole blocks of cells, so that its
# temporaries come in few sizes and the allocator can reuse them
_BLOCK = 256


class InstabilityError(RuntimeError):
    """The scheme produced a non-finite value.

    field holds the snapshots fd_solve kept before it, all finite, as a
    SpaceTimeField on the times the full run would have had; None when
    the first state already fails.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class FDConfig:
    """The grid of one leapfrog run, and which of its states fd_solve keeps.

    cfl = dt/dr and n_steps, the steps to t_max, are derived, not passed.
    The stability margin cfl <= 0.9 reflects the scheme's actual limit: the
    origin row of the update matrix pushes the spectral bound to about
    0.909 regardless of resolution, so a unit Courant number is genuinely
    unstable here.
    """

    grid: Grid
    snapshot_every: int = 1
    cfl: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cfl", self.grid.dt / self.grid.dr)
        if self.cfl > _CFL_LIMIT + 1e-12:
            raise DomainError(
                f"cfl = dt/dr = {self.cfl:.4g} exceeds the stability margin "
                f"{_CFL_LIMIT}")
        if self.snapshot_every < 1:
            raise DomainError("snapshot_every must be at least 1")
        if self.n_steps % self.snapshot_every != 0:
            raise DomainError("snapshot_every must divide the step count")

    @property
    def n_steps(self):
        return self.grid.t.size - 1


def _check_support(u0, u1, cfg):
    """Reject data whose declared support could reach the Dirichlet wall."""
    room = cfg.grid.r_max - cfg.grid.t_max
    for prof, name in ((u0, "u0"), (u1, "u1")):
        if prof.support_radius is not None and prof.support_radius > room:
            raise DomainError(
                f"{name} support radius {prof.support_radius} exceeds "
                f"r_max - t_max = {room}; the boundary would "
                "contaminate the solution")


def _apply_operator(u, coth_r, dr, out, tmp):
    """Write the spatial operator u_rr + coth(r) u_r + u/4, with the
    even-extension origin stencil, into out, the size of u; tmp is scratch
    the size of coth_r, u.size - 2. The Dirichlet row at r_max is the
    caller's: out[-1] is 0."""
    inner = out[1:-1]
    np.multiply(u[1:-1], 2.0, out=inner)
    np.subtract(u[2:], inner, out=inner)
    inner += u[:-2]
    inner /= dr**2
    np.subtract(u[2:], u[:-2], out=tmp)
    tmp *= coth_r
    tmp /= 2.0 * dr
    inner += tmp
    np.multiply(u[1:-1], 0.25, out=tmp)
    inner += tmp
    out[0] = 4.0 * (u[1] - u[0]) / dr**2 + 0.25 * u[0]
    out[-1] = 0.0


def _finite_max(u):
    """max(u) as a float if every value of u is finite, else None.

    Two reductions decide it: a NaN makes the max NaN, and an infinity
    shows in the max or the min."""
    top = float(u.max())
    if math.isfinite(top) and math.isfinite(u.min()):
        return top
    return None


def leapfrog(u0, u1, F, cfg: FDConfig):
    """Yield the leapfrog states on cfg.grid.r for n = 0, ..., cfg.n_steps.

    Data are (u(0), u_t(0)) = (u0, u1); F is the nonlinearity as a
    pointwise callable of u, or None for the linear equation. Profiles
    with a declared support radius must fit inside r_max - t_max, so the
    Dirichlet boundary stays causally invisible; undeclared supports are
    the caller's responsibility. Non-finite states are yielded unchecked,
    for the caller to judge under its own np.errstate. Each yielded state
    is a fresh array that callers may keep, but must not write to: the
    stepper reads it for the next two steps.

    The right-hand side, the operator plus F, goes into two buffers that
    every step reuses, and each step's update 2 u - u_prev + dt^2 rhs is
    computed in place on the new state's window. The arithmetic is the
    full-grid scheme's, operation for operation.

    After the start step, every step updates only the cells [0, k) that
    the data can have reached. The front, the last cell where either held
    state can be nonzero, starts at the last nonzero cell of u(0) and of
    the step-1 state and moves one cell per step, the reach of the 3-point
    stencil. k is the front plus 2, rounded up to _BLOCK cells and capped
    at the grid; cell k - 1, beyond the new front, takes the Dirichlet 0,
    which at k = n_r is the real boundary row. Cells past the front are
    exactly 0 in the full-grid scheme as well, so every state is the
    same, bit for bit. This needs F(0) = 0: when F(0) is not exactly 0,
    the front starts at the grid's end and every step covers the whole
    grid.
    """
    u0 = _as_profile(u0)
    u1 = _as_profile(u1)
    _check_support(u0, u1, cfg)
    r = cfg.grid.r
    n_r = r.size
    coth_r = np.cosh(r[1:-1]) / np.sinh(r[1:-1])
    dr, dt = cfg.grid.dr, cfg.grid.dt
    acc = np.empty(n_r)
    tmp = np.empty(n_r - 2)

    def rhs(u):
        """The right-hand side on the window u, in acc[:u.size]; its last
        cell is the caller's to overwrite."""
        out = acc[:u.size]
        _apply_operator(u, coth_r[:u.size - 2], dr, out, tmp[:u.size - 2])
        if F is not None:
            out += F(u)
        return out

    prev = u0(r)
    prev[-1] = 0.0
    yield prev
    cur = prev + dt * u1(r) + 0.5 * dt**2 * rhs(prev)
    cur[-1] = 0.0
    yield cur
    if F is not None and np.any(F(np.zeros(1)) != 0.0):
        front = n_r - 1
    else:
        live = np.flatnonzero((prev != 0.0) | (cur != 0.0))
        front = int(live[-1]) if live.size else -1
    for _ in range(1, cfg.n_steps):
        front += 1
        k = min(-(-(front + 2) // _BLOCK) * _BLOCK, n_r)
        nxt = np.zeros(n_r)
        step = nxt[:k]
        np.multiply(cur[:k], 2.0, out=step)
        step -= prev[:k]
        f = rhs(cur[:k])
        f *= dt**2
        step += f
        step[-1] = 0.0
        prev, cur = cur, nxt
        yield cur


def fd_solve(u0, u1, F, cfg: FDConfig):
    """Leapfrog evolution from data (u(0), u_t(0)) = (u0, u1).

    F is the nonlinearity as a callable of u, or None for the linear
    equation; the support rule for the data is leapfrog's. Every
    snapshot_every-th state is kept.

    Raises InstabilityError with the first offending (t, r) if the scheme
    produces a non-finite value; its field holds the snapshots kept before.
    """
    r = cfg.grid.r
    t_grid = np.linspace(0.0, cfg.grid.t_max,
                         cfg.n_steps // cfg.snapshot_every + 1)
    stored = []
    # overflow on the way to a detected instability is expected; the
    # non-finite check below is the real guard
    with np.errstate(over="ignore", invalid="ignore"):
        for n, u in enumerate(leapfrog(u0, u1, F, cfg)):
            if _finite_max(u) is None:
                bad = np.flatnonzero(~np.isfinite(u))[0]
                field = (SpaceTimeField(t_grid[:len(stored)], r,
                                        np.asarray(stored))
                         if stored else None)
                raise InstabilityError(
                    f"non-finite value at t = {n * cfg.grid.dt:.6g}, "
                    f"r = {r[bad]:.6g}", field)
            if n % cfg.snapshot_every == 0:
                stored.append(u)
    return SpaceTimeField(t_grid, r, np.asarray(stored))


@dataclass(frozen=True)
class ConvergenceReport:
    """Result of a Richardson grid-refinement study."""

    order: float
    inconclusive: bool
    diffs: tuple

    def __bool__(self):
        return not self.inconclusive


def convergence_order(u0, u1, F, cfg: FDConfig, refinements: int = 2):
    """Richardson order estimate from runs at dr, dr/2, dr/4, ...

    Successive solutions are compared at the probe point (t_max, 1.0);
    the order is log2 of the last ratio of differences.
    Fewer than 2 refinements, or differences that fail to shrink
    monotonically, give an inconclusive report instead of a number.
    """
    if refinements < 2:
        return ConvergenceReport(order=float("nan"), inconclusive=True, diffs=())
    vals = []
    for k in range(refinements + 1):
        sub = replace(cfg.grid, dt=cfg.grid.dt / 2**k, dr=cfg.grid.dr / 2**k)
        fld = fd_solve(u0, u1, F, FDConfig(sub))
        vals.append(fld.values[-1, int(round(1.0 / sub.dr))])
    diffs = tuple(abs(vals[k + 1] - vals[k]) for k in range(refinements))
    if any(d == 0.0 for d in diffs) or any(
            diffs[k + 1] >= diffs[k] for k in range(len(diffs) - 1)):
        return ConvergenceReport(order=float("nan"), inconclusive=True, diffs=diffs)
    order = float(np.log2(diffs[-2] / diffs[-1]))
    return ConvergenceReport(order=order, inconclusive=False, diffs=diffs)
