"""Small-data global solving in the weighted space X_eps.

The integral equation

    u = eps u0 + int_0^t I(t - tau, r, F(u(tau, .))) dtau

is solved by Picard iteration on a uniform (t, r) grid, with convergence
measured in the norm ||Phi_h u||_inf, Phi_h = e^{r/2} <t-r>^h. The module
also measures the contraction factor of the Duhamel-composed nonlinearity
on random pairs from the ball of radius 2 eps N_h (the empirical content
of the contraction lemma), locates the largest admissible eps by
bisection, checks the claim integral that drives the lemma's proof and
verifies the dispersive decay of the linear evolution by regression.

The heavy objects are functools caches of what they depend on: the
propagation table of a Grid, N_h per (k, h, Grid) and Phi_h per (Grid,
h), so repeated probes at different eps share one table build. A
probe's field u = 2 eps N_h S_u / Phi_h is a random unit shape S_u
(sup 1) over the weight, scaled to the ball radius, so the norm
||u - v|| of a pair is that radius times max |S_u - S_v|. The quotients
S / Phi_h and every pair's max |S_u - S_v| are therefore cached too, per
(seed, number of pairs, Grid, h). A threshold search, which bisects
through contraction_probe, pays per eps only for its probes: one whose
ball leaves the envelope escapes before any array work, and every other
one evaluates all of its pairs with one stacked Duhamel call on the
differences F(u) - F(v), which linearity allows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .hypgeo import (
    DomainError,
    EnvelopeParams,
    Grid,
    K_factor,
    WeightParams,
    bracket,
    phi_weight,
    theta_k,
)
from .meanprop import (
    _TWO_COSH,
    PropagatorTable,
    SpaceTimeField,
    _as_profile,
    _kernel_sums,
    _lag_weights,
    _settle_sums,
    leggauss,
    linear_field,
)
from .nonlin import NonlinearitySpec, _canonical, _generic, nonlinearity

__all__ = [
    "SolverConfig",
    "ContractionReport",
    "DecayFitReport",
    "ConvergenceError",
    "EscapeError",
    "weighted_norm",
    "linear_data_field",
    "estimate_N_h",
    "picard_solve",
    "contraction_probe",
    "epsilon_threshold",
    "claim_bound_check",
    "decay_fit",
    "clear_caches",
]


_N_FEATURES = 6  # random Fourier features per contraction pair shape
_TAU_PER_UNIT = 4  # Simpson nodes per unit time of the claim integral


class ConvergenceError(RuntimeError):
    """Picard iteration exhausted max_iters; carries the history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


class EscapeError(RuntimeError):
    """An iterate left the ball where the nonlinearity is controlled."""


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one Picard run on grid, which has no default. The
    weight exponent h must lie in (1, p - 2), which forces p > 3: this is
    the contraction regime."""

    p: float
    h: float
    epsilon: float
    grid: Grid
    max_iters: int = 40
    fixed_point_tol: float = 1e-10

    def __post_init__(self):
        if not self.p > 3 or not 1.0 < self.h < self.p - 2.0:
            raise DomainError(
                f"h must lie in (1, p-2); got h = {self.h} with p = {self.p}")
        if self.epsilon < 0:
            raise DomainError("epsilon must be nonnegative")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if not self.fixed_point_tol > 0:
            raise DomainError("fixed_point_tol must be positive")


@dataclass(frozen=True)
class ContractionReport:
    epsilon: float
    sampled_pairs: int
    max_ratio: float
    ratios: tuple

    def __post_init__(self):
        if self.ratios and not np.isclose(self.max_ratio, max(self.ratios)):
            raise DomainError("max_ratio must be the maximum of ratios")
        if self.max_ratio < 0:
            raise DomainError("max_ratio must be nonnegative")


@dataclass(frozen=True)
class DecayFitReport:
    slope_r: float
    slope_tr: float
    sup_weighted: float
    fit_window: str

    def __post_init__(self):
        for name in ("slope_r", "slope_tr", "sup_weighted"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


# ---------------------------------------------------------------------------
# weights and norms


def weighted_norm(u: SpaceTimeField, h):
    """max over the grid of Phi_h |u|."""
    if not h > 0:
        raise DomainError("h must be positive")
    phi = phi_weight(u.t_grid[:, None], u.r_grid, WeightParams(h=h))
    return float(np.max(phi * np.abs(u.values)))


# ---------------------------------------------------------------------------
# cached heavy objects


def clear_caches():
    """Empty every cache of the package, so that the next call pays what
    a fresh process pays."""
    for cached in (_table, estimate_N_h, _grid_phi, _pair_quotients,
                   leggauss, _canonical, _generic):
        cached.cache_clear()


@functools.cache
def _table(grid):
    """The PropagatorTable of the Grid grid."""
    return PropagatorTable(grid.t, grid.r)


@functools.lru_cache(maxsize=4)
def _grid_phi(grid, h):
    """Phi_h = e^{r/2} <t-r>^h on the Grid grid, read-only."""
    phi = phi_weight(grid.t[:, None], grid.r, WeightParams(h=h))
    phi.flags.writeable = False
    return phi


def linear_data_field(u0, u1, grid):
    """The linear evolution u0_lin of unit data (u0, u1) on the Grid grid.

    For position data u0 = 0 (the common case) this is the gridded sine
    propagation of u1 through the cached table. A nonzero u0 adds the time
    derivative of its sine propagation, computed by centered differencing
    with step dt/2; the t = 0 row is u0 itself.

    Data beyond r_max is treated as zero, so the values are exact only on
    the triangle t + r <= r_max; the solver's other consumers share this
    truncation, which keeps the fixed-point problem self-consistent.
    """
    u0 = _as_profile(u0)
    u1 = _as_profile(u1)
    u0_samples = u0(grid.r)
    out = _table(grid).apply_linear(u1(grid.r))
    if np.any(u0_samples != 0.0):
        delta = 0.5 * grid.dt
        up = linear_field(u0, grid.t[1:] + delta, grid.r).values
        dn = linear_field(u0, grid.t[1:] - delta, grid.r).values
        out[1:] += (up - dn) / (2.0 * delta)
        out[0] += u0_samples
    return out


@functools.cache
def estimate_N_h(k, h, grid):
    """Empirical N_h on the Grid grid: sup of Phi_h times the linear
    evolution of data (0, theta_k), padded by 10 percent."""
    env = EnvelopeParams(k=k)
    vals = linear_data_field(0.0, lambda lam: theta_k(lam, env), grid)
    return 1.1 * float(np.max(_grid_phi(grid, h) * np.abs(vals)))


# ---------------------------------------------------------------------------
# Picard iteration


def _check_envelope(prof, name, k, r_grid):
    vals = np.abs(_as_profile(prof)(r_grid))
    env = theta_k(r_grid, EnvelopeParams(k=k))
    # written so that NaN data fail too; argmax takes the first NaN
    if not np.all(vals <= env * (1.0 + 1e-9)):
        j = int(np.argmax(vals - env))
        raise DomainError(
            f"{name} violates the data envelope theta_k at r = {r_grid[j]:.4g} "
            f"(|{name}| = {vals[j]:.3e} > {env[j]:.3e}, k = {k})")


def _check_p(spec, cfg):
    """h was checked against (1, cfg.p - 2), so F must run at cfg.p."""
    if spec is not None and spec.p != cfg.p:
        raise DomainError(
            f"the nonlinearity's p = {spec.p} differs from the solver's "
            f"p = {cfg.p}, against which h = {cfg.h} was checked")


def _iterate_sup(u, n, grid):
    """max |u| over the Grid grid of the Picard iterate u that sweep n
    made. Raises EscapeError naming the sweep and the first non-finite
    (t, r) if u is not finite: a NaN would pass every later comparison."""
    top = np.max(np.abs(u))
    if not np.isfinite(top):
        i, j = np.argwhere(~np.isfinite(u))[0]
        raise EscapeError(
            f"sweep {n} gave a non-finite iterate, first at "
            f"t = {grid.t[i]:.6g}, r = {grid.r[j]:.6g}")
    return top


def picard_solve(u0, u1, spec, cfg: SolverConfig, data_k=1.0):
    """Fixed-point iteration for the nonlinear integral equation.

    Returns (field, history) where history[n] is the weighted norm of the
    difference between iterates n+1 and n. spec = None solves the linear
    problem (F = 0). Raises EscapeError if an iterate is not finite, naming
    the sweep that made it and its first non-finite (t, r), or leaves the
    ball |u| <= 1/A where the nonlinearity's envelope applies, and
    ConvergenceError (carrying the history) if max_iters sweeps do not
    reach fixed_point_tol. Raises DomainError if spec.p is not cfg.p.
    """
    grid = cfg.grid
    _check_p(spec, cfg)
    _check_envelope(u0, "u0", data_k, grid.r)
    _check_envelope(u1, "u1", data_k, grid.r)
    table = _table(grid)
    lin = cfg.epsilon * linear_data_field(u0, u1, grid)
    if spec is None:
        F = None
        cap = np.inf
    else:
        F = nonlinearity(spec)
        cap = 1.0 / spec.A
    phi = _grid_phi(grid, cfg.h)

    cur = lin.copy()
    history = []
    for n in range(cfg.max_iters):
        if _iterate_sup(cur, n, grid) > cap:
            raise EscapeError(
                f"iterate {n} exceeds the envelope ball 1/A = {cap:.4g}; "
                "epsilon is too large for the contraction regime")
        nxt = lin if F is None else lin + table.duhamel_field(F(cur))
        diff = float(np.max(phi * np.abs(nxt - cur)))
        history.append(diff)
        cur = nxt
        if diff < cfg.fixed_point_tol:
            return SpaceTimeField(grid.t, grid.r, cur), history
    _iterate_sup(cur, cfg.max_iters, grid)
    raise ConvergenceError(
        f"no fixed point within {cfg.max_iters} sweeps "
        f"(last difference {history[-1]:.3e})", history)


# ---------------------------------------------------------------------------
# contraction measurement


def _unit_shape(rng, t, r):
    """A smooth random field of sup 1 on the grid t x r: a sum of random
    Fourier features a cos(w_t t + w_r r + phase). Each feature splits as
    cos(w_t t + phase) cos(w_r r) - sin(w_t t + phase) sin(w_r r), so the
    sum is one product of an (n_t, 2m) and a (2m, n_r) matrix of 1-D
    cosines and sines, m = _N_FEATURES."""
    amps = rng.standard_normal(_N_FEATURES)
    w_t = rng.uniform(0.0, 1.5, _N_FEATURES)
    w_r = rng.uniform(0.0, 1.5, _N_FEATURES)
    phase = rng.uniform(0.0, 2.0 * np.pi, _N_FEATURES)
    arg_t = np.outer(t, w_t) + phase
    arg_r = np.outer(w_r, r)
    xi = (np.hstack([amps * np.cos(arg_t), -amps * np.sin(arg_t)])
          @ np.vstack([np.cos(arg_r), np.sin(arg_r)]))
    sup = np.max(np.abs(xi))
    if sup == 0.0:
        xi[:] = 1.0
        sup = 1.0
    return xi / sup


def _pair_shapes(rng_seed, n_pairs, grid):
    """The unit shapes of n_pairs pairs (u, v) on the Grid grid, shape
    (n_pairs, 2, n_t, n_r), drawn in the order u, v, u, v, ... from one
    generator seeded with the integer rng_seed. Not cached: each call
    draws a fresh array, and _pair_quotients keeps what a search needs
    of it."""
    rng = np.random.default_rng(rng_seed)
    shapes = np.empty((n_pairs, 2, grid.t.size, grid.r.size))
    for shape in shapes.reshape(2 * n_pairs, grid.t.size, grid.r.size):
        shape[...] = _unit_shape(rng, grid.t, grid.r)
    return shapes


@functools.lru_cache(maxsize=4)
def _pair_quotients(rng_seed, n_pairs, grid, h):
    """(Q, norms) for the shapes S of _pair_shapes: Q = S / Phi_h, of the
    shapes' shape and read-only, and norms[i] = max |S_u - S_v| of pair
    i. Cached, so the probes of a threshold search share one draw; S is
    divided in place, so the cache holds no second array of its size."""
    shapes = _pair_shapes(rng_seed, n_pairs, grid)
    norms = np.max(np.abs(shapes[:, 0] - shapes[:, 1]), axis=(1, 2))
    shapes /= _grid_phi(grid, h)
    shapes.flags.writeable = False
    return shapes, norms


def _pair_ratios(table, F, phi, U, V, denom):
    """||L F(u) - L F(v)|| / ||u - v|| in the Phi norm for stacks of pairs
    with norms denom = ||u - v||, None where u = v. L is linear, so one
    Duhamel call on the stacked differences F(u) - F(v) serves every
    pair; Phi |L F(u) - L F(v)| is formed in place on its fresh output."""
    diff = F(U)
    diff -= F(V)
    num = table.duhamel_field(diff)
    np.abs(num, out=num)
    num *= phi
    num = num.max(axis=(1, 2))
    return [float(n) / float(d) if d != 0.0 else None
            for n, d in zip(num, denom)]


def contraction_probe(spec: NonlinearitySpec, cfg: SolverConfig, n_pairs=20,
                      rng_seed=0, data_k=1.0):
    """Empirical contraction factor of u -> duhamel(F(u)) on the ball.

    Samples n_pairs >= 1 independent pairs (u, v) with weighted norm equal
    to the ball radius 2 eps N_h and reports the largest ratio
    ||L F(u) - L F(v)|| / ||u - v|| in the Phi_h norm. Degenerate pairs
    (u = v) are skipped. All pairs share one stacked Duhamel call. The
    pairs are the radius times the quotients of _pair_quotients, and
    ||u - v|| is the radius times their cached max |S_u - S_v|; both are
    cached per (rng_seed, n_pairs, grid, h), so rng_seed must be a
    nonnegative integer: a Generator or None would freeze one draw. After
    checking rng_seed, n_pairs and that spec.p is cfg.p, a probe whose
    ball exceeds 1/A raises EscapeError before it touches the shapes,
    Phi_h or the table.
    """
    if not isinstance(rng_seed, (int, np.integer)) or rng_seed < 0:
        raise DomainError(
            f"rng_seed must be a nonnegative integer, got {rng_seed!r}")
    if n_pairs < 1:
        raise DomainError(f"n_pairs must be at least 1, got {n_pairs}")
    _check_p(spec, cfg)
    radius = 2.0 * cfg.epsilon * estimate_N_h(data_k, cfg.h, cfg.grid)
    if radius > 1.0 / spec.A:
        raise EscapeError(
            f"ball radius 2 eps N_h = {radius:.4g} exceeds 1/A = "
            f"{1.0 / spec.A:.4g}; the envelope does not apply")
    quotients, norms = _pair_quotients(int(rng_seed), n_pairs, cfg.grid, cfg.h)
    ratios = _pair_ratios(_table(cfg.grid), nonlinearity(spec),
                          _grid_phi(cfg.grid, cfg.h), radius * quotients[:, 0],
                          radius * quotients[:, 1], radius * norms)
    ratios = [r for r in ratios if r is not None]
    max_ratio = max(ratios) if ratios else 0.0
    return ContractionReport(epsilon=cfg.epsilon, sampled_pairs=len(ratios),
                             max_ratio=max_ratio, ratios=tuple(ratios))


def epsilon_threshold(spec: NonlinearitySpec, cfg: SolverConfig,
                      target_ratio=0.5, rng_seed=0, data_k=1.0,
                      n_pairs=20, n_steps=20):
    """The contraction_probe at the largest probed eps0 whose contraction
    factor stays within target_ratio; its .epsilon is eps0.

    Bisection with n_steps >= 0 steps on [1e-12, 1], one contraction_probe
    per step; eps0 is the lower bracket end, so it is itself admissible,
    and the returned report is bit for bit the contraction_probe at eps0
    with the same rng_seed and n_pairs. The probes share one cached draw
    of pair shapes, so each costs one stacked Duhamel call. Deterministic
    for a fixed rng_seed. Raises DomainError for n_pairs < 1, n_steps < 0,
    target_ratio <= 0 or an rng_seed that is not a nonnegative integer,
    and ConvergenceError when even the floor 1e-12 fails the probe.
    """
    if n_steps < 0:
        raise DomainError(f"n_steps must be nonnegative, got {n_steps}")
    if not target_ratio > 0:
        raise DomainError(f"target_ratio must be positive, got {target_ratio}")

    def admissible(eps):
        """The probe at eps if its ratio is within target_ratio, else None."""
        try:
            rep = contraction_probe(spec, replace(cfg, epsilon=eps), n_pairs,
                                    rng_seed, data_k)
        except EscapeError:
            return None
        return rep if rep.max_ratio <= target_ratio else None

    lo, hi = 1e-12, 1.0
    report = admissible(lo)
    if report is None:
        raise ConvergenceError(
            f"no admissible epsilon found down to the floor {lo:g} "
            f"(target ratio {target_ratio})")
    for _ in range(n_steps):
        mid = 0.5 * (lo + hi)
        rep = admissible(mid)
        if rep is not None:
            lo, report = mid, rep
        else:
            hi = mid
    return report


# ---------------------------------------------------------------------------
# the claim integral


def claim_bound_check(p, h, epsilon, t, r):
    """The double integral controlling the contraction lemma.

    claim_value = int_0^t W(t - tau, r, f_tau) dtau with

        f_tau(lam) = (ln(1/eps) + lam)^{1-p} sinh(lam) <tau-lam>^{-h}
                     (cosh lam)^{-1/2},

    and weighted = claim_value (cosh r)^{1/2} <t-r>^h, the quantity the
    lemma needs to be small. The tau integral is composite Simpson on
    n_tau + 1 nodes tau_k. The inner W uses the 2cosh weight: one
    _kernel_sums call over the points (t - tau_k, r), k < n_tau, each
    with the f_tau of its own tau_k (at tau = t the lag is 0, and so is
    W); the Simpson sum itself is settled over the node levels.
    """
    if not p > 3 or not 1.0 < h < p - 2.0:
        raise DomainError("claim_bound_check needs p > 3 and h in (1, p-2)")
    if not 0 < epsilon <= 1:
        raise DomainError("epsilon must lie in (0, 1]")
    if t < 0 or r < 0:
        raise DomainError("t and r must be nonnegative")
    if t == 0.0:
        return 0.0, 0.0
    log_inv_eps = np.log(1.0 / epsilon)
    n_tau = max(8, 2 * int(np.ceil(0.5 * _TAU_PER_UNIT * t)))
    taus = np.linspace(0.0, t, n_tau + 1)[:-1]

    def weigh(w, lam, row):
        w *= ((log_inv_eps + lam) ** (1.0 - p) * np.sinh(lam)
              * bracket(taus[row] - lam) ** (-h) / np.sqrt(np.cosh(lam)))

    # n_tau is even, so the Simpson weights b(k) of the lag weights are
    # the composite Simpson rule on every node but tau = t
    claim_value = _settle_sums(_kernel_sums(t - taus, r, _TWO_COSH, None, weigh),
                               t / n_tau * _lag_weights(n_tau)[0],
                               f"claim integral at (t={t}, r={r})")
    weighted = claim_value * np.sqrt(np.cosh(r)) * bracket(t - r) ** h
    return claim_value, float(weighted)


# ---------------------------------------------------------------------------
# dispersive decay


def _decay_window(t_grid, r_grid, ray_offset, min_r):
    """The grid part of decay_fit's fit window: (T, R, ray, j, column).

    ray marks the grid points on the ray t - r = ray_offset with
    r >= min_r; j is the radius nearest half the time horizon and column
    marks the times with t - r_j >= ray_offset. Raises DomainError,
    naming ray_offset, min_r and the grid, when either has fewer than 4
    points, so a caller can reject the window before computing a field.
    """
    T, R = np.meshgrid(t_grid, r_grid, indexing="ij")
    ray = (np.abs(T - R - ray_offset) < 1e-9) & (R >= min_r - 1e-9)
    j = int(np.argmin(np.abs(r_grid - 0.5 * t_grid[-1])))
    column = t_grid - r_grid[j] >= ray_offset - 1e-9
    grid = (f"the grid of {t_grid.size} times up to t = {t_grid[-1]:g} "
            f"and {r_grid.size} radii up to r = {r_grid[-1]:g}")
    if np.count_nonzero(ray) < 4:
        raise DomainError(
            f"fewer than 4 points on the fit ray t - r = ray_offset = "
            f"{ray_offset:g}, r >= min_r = {min_r:g} of {grid}")
    if np.count_nonzero(column) < 4:
        raise DomainError(
            f"fewer than 4 points in the fixed-radius window r = "
            f"{r_grid[j]:g}, t - r >= ray_offset = {ray_offset:g} of {grid}")
    return T, R, ray, j, column


def decay_fit(u0_field: SpaceTimeField, k, ray_offset=1.0, min_r=1.0):
    """Regression checks of the linear dispersive decay.

    slope_r fits ln|u| against r along the ray t - r = ray_offset (the
    expected slope is -1/2); slope_tr fits ln|u| against t - r at the
    fixed radius nearest to half the time horizon; sup_weighted is the
    empirical decay constant sup |u| (cosh r)^{1/2} (cosh(t-r))^{1/2} / K_k.
    Both fits use the points of _decay_window where u != 0.
    """
    t, r = u0_field.t_grid, u0_field.r_grid
    T, R, ray, r_star_idx, column = _decay_window(t, r, ray_offset, min_r)
    U = np.abs(u0_field.values)

    sel = ray & (U > 0)
    if np.count_nonzero(sel) < 4:
        raise DomainError(f"fewer than 4 points with u != 0 on the fit ray "
                          f"t - r = {ray_offset:g}, r >= {min_r:g}")
    slope_r = float(np.polyfit(R[sel], np.log(U[sel]), 1)[0])

    col = U[:, r_star_idx]
    tr = t - r[r_star_idx]
    sel_c = column & (col > 0)
    if np.count_nonzero(sel_c) < 4:
        raise DomainError(f"fewer than 4 points with u != 0 in the fixed-radius "
                          f"window r = {r[r_star_idx]:g}, t - r >= {ray_offset:g}")
    slope_tr = float(np.polyfit(tr[sel_c], np.log(col[sel_c]), 1)[0])

    weight = np.sqrt(np.cosh(R) * np.cosh(T - R)) / K_factor(T - R, k)
    sup_weighted = float(np.max(U * weight))
    window = (f"ray t-r={ray_offset}, r>={min_r}; "
              f"column r={r[r_star_idx]:.3g}, t-r>={ray_offset}")
    return DecayFitReport(slope_r=slope_r, slope_tr=slope_tr,
                          sup_weighted=sup_weighted, fit_window=window)
