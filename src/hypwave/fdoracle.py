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

A step allocates no array but F's: leapfrog yields (u, k), u one of
three state buffers that the steps reuse in turn and k its live length,
so a caller reduces u[:k] and copies a state it keeps. The views a step
reads and writes are planned once per window length.
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


def _views(u, k):
    """The views (window, interior, left, right) of u's cells [0, k) that
    the 3-point stencil reads: u[:k], u[1:k-1], u[:k-2] and u[2:k]."""
    return u[:k], u[1:k - 1], u[:k - 2], u[2:k]


def _coth(r):
    """coth r of positive radii as cosh r / sinh r, the scheme's values;
    from r = 710.48 on, where both overflow and the quotient is NaN, as
    1 / tanh r (1.0 there), so every radius below keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.cosh(r) / np.sinh(r)
    far = ~np.isfinite(c)
    c[far] = 1.0 / np.tanh(r[far])
    return c


def _apply_operator(u, coth_r, dr, out, tmp):
    """Write the spatial operator u_rr + coth(r) u_r + u/4, with the
    even-extension origin stencil, into out. u is _views of the state,
    out the pair (window, interior) of the output, coth_r and the scratch
    tmp the interior's size. The Dirichlet row at the window's end is the
    caller's: out's last cell is 0."""
    win, mid, left, right = u
    acc, inner = out
    np.multiply(mid, 2.0, out=inner)
    np.subtract(right, inner, out=inner)
    inner += left
    inner /= dr**2
    np.subtract(right, left, out=tmp)
    tmp *= coth_r
    tmp /= 2.0 * dr
    inner += tmp
    np.multiply(mid, 0.25, out=tmp)
    inner += tmp
    acc[0] = 4.0 * (win[1] - win[0]) / dr**2 + 0.25 * win[0]
    acc[-1] = 0.0


def _finite_max(u):
    """max(u) as a float if every value of u is finite, else None.

    Two reductions decide it: a NaN makes the max NaN, and an infinity
    shows in the max or the min."""
    top = float(u.max())
    if math.isfinite(top) and math.isfinite(u.min()):
        return top
    return None


def leapfrog(u0, u1, F, cfg: FDConfig):
    """Yield (u, k) for the leapfrog states u on cfg.grid.r, n = 0, ...,
    cfg.n_steps; every cell of u from k on is exactly 0.

    Data are (u(0), u_t(0)) = (u0, u1); F is the nonlinearity as a
    pointwise callable of u, or None for the linear equation. Profiles
    with a declared support radius must fit inside r_max - t_max, so the
    Dirichlet boundary stays causally invisible; undeclared supports are
    the caller's responsibility. Non-finite states are yielded unchecked,
    for the caller to judge under its own np.errstate.

    The states live in three full-length buffers: each new state is
    written into the buffer of the state three steps back. A yielded u is
    therefore valid only until the generator resumes, and a caller that
    keeps a state copies it; no caller may write to it, since the stepper
    reads it for the next two steps. The right-hand side, the operator
    plus F, goes into two scratch buffers that every step reuses, and the
    update 2 u - u_prev + dt^2 rhs is computed in place on the new
    state's window. The arithmetic is the full-grid scheme's, operation
    for operation.

    After the start step, every step updates only the cells [0, k) that
    the data can have reached. The front, the last cell where either held
    state can be nonzero, starts at the last nonzero cell of u(0) and of
    the step-1 state and moves one cell per step, the reach of the 3-point
    stencil. k is the front plus 2, rounded up to _BLOCK cells and capped
    at the grid; cell k - 1, beyond the new front, takes the Dirichlet 0,
    which at k = n_r is the real boundary row. Cells past the front are
    exactly +0.0 in the full-grid scheme as well from step 1 on, so every
    state is the same, bit for bit. This needs F(0) = 0: when F(0) is not
    exactly 0, the front starts at the grid's end and every step covers
    the whole grid. k takes few values, so each one gets a plan, built
    once: the _views of the three buffers and the windows of the scratch
    buffers and of coth(r), which the steps until k next grows share.
    The states 0 and 1 are yielded with k = n_r.
    """
    u0 = _as_profile(u0)
    u1 = _as_profile(u1)
    _check_support(u0, u1, cfg)
    r = cfg.grid.r
    n_r = r.size
    coth_r = _coth(r[1:-1])
    dr, dt = cfg.grid.dr, cfg.grid.dt
    acc = np.empty(n_r)
    tmp = np.empty(n_r - 2)

    prev = u0(r)
    prev[-1] = 0.0
    yield prev, n_r
    _apply_operator(_views(prev, n_r), coth_r, dr, (acc, acc[1:-1]), tmp)
    if F is not None:
        acc += F(prev)
    cur = prev + dt * u1(r) + 0.5 * dt**2 * acc
    cur[-1] = 0.0
    yield cur, n_r
    if F is not None and np.any(F(np.zeros(1)) != 0.0):
        front = n_r - 1
    else:
        live = np.flatnonzero((prev != 0.0) | (cur != 0.0))
        front = int(live[-1]) if live.size else -1
        # u0 may give -0.0 past its support (a sign times 0): the cells
        # that no window reaches must hold +0.0, the full-grid value
        prev[front + 1:] = 0.0
    nxt = np.zeros(n_r)
    plan_k = None
    for _ in range(1, cfg.n_steps):
        front += 1
        k = min(-(-(front + 2) // _BLOCK) * _BLOCK, n_r)
        if k != plan_k:
            plan_k = k
            prev_v, cur_v, nxt_v = (_views(prev, k), _views(cur, k),
                                    _views(nxt, k))
            acc_v = acc[:k], acc[1:k - 1]
            coth_k, tmp_k = coth_r[:k - 2], tmp[:k - 2]
        step, f = nxt_v[0], acc_v[0]
        np.multiply(cur_v[0], 2.0, out=step)
        step -= prev_v[0]
        _apply_operator(cur_v, coth_k, dr, acc_v, tmp_k)
        if F is not None:
            f += F(cur_v[0])
        f *= dt**2
        step += f
        step[-1] = 0.0
        prev, cur, nxt = cur, nxt, prev
        prev_v, cur_v, nxt_v = cur_v, nxt_v, prev_v
        yield cur, k


def fd_solve(u0, u1, F, cfg: FDConfig):
    """Leapfrog evolution from data (u(0), u_t(0)) = (u0, u1).

    F is the nonlinearity as a callable of u, or None for the linear
    equation; the support rule for the data is leapfrog's. Every
    snapshot_every-th state is kept, as a copy of leapfrog's buffer.

    Raises InstabilityError with the first offending (t, r) if the scheme
    produces a non-finite value; its field holds the snapshots kept before.
    """
    r = cfg.grid.r
    t_grid = np.linspace(0.0, cfg.grid.t_max,
                         cfg.n_steps // cfg.snapshot_every + 1)
    stored = np.empty((t_grid.size, r.size))
    kept = 0
    # overflow on the way to a detected instability is expected; the
    # non-finite check below is the real guard
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (u, k) in enumerate(leapfrog(u0, u1, F, cfg)):
            if _finite_max(u[:k]) is None:
                bad = np.flatnonzero(~np.isfinite(u[:k]))[0]
                field = (SpaceTimeField(t_grid[:kept], r, stored[:kept])
                         if kept else None)
                raise InstabilityError(
                    f"non-finite value at t = {n * cfg.grid.dt:.6g}, "
                    f"r = {r[bad]:.6g}", field)
            if n % cfg.snapshot_every == 0:
                stored[kept] = u
                kept += 1
    return SpaceTimeField(t_grid, r, stored)


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
