"""Small-data global solving in the weighted space X_eps.

The integral equation

    u = eps u0 + int_0^t I(t - tau, r, F(u(tau, .))) dtau

is solved by Picard iteration on a uniform (t, r) grid, with convergence
measured in the norm ||Phi_h u||_inf, Phi_h = e^{r/2} <t-r>^h. The module
also measures the contraction factor of the Duhamel-composed nonlinearity
on random pairs from the ball of radius 2 eps N_h (the empirical content
of the contraction lemma), locates the largest admissible eps by
bisection, checks the claim integral that drives the lemma's proof,
verifies the dispersive decay of the linear evolution by regression, and
computes the guaranteed local existence window.

Heavy objects (the gridded propagation table and the empirical N_h) are
cached per grid, so repeated probes at different eps share one table
build. A threshold search draws its random pair shapes once and only
rescales them per eps, and every probe evaluates all of its pairs with
one stacked Duhamel call on the differences F(u) - F(v), which
linearity allows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hypgeo import (
    DomainError,
    EnvelopeParams,
    K_factor,
    WeightParams,
    bracket,
    phi_weight,
    theta_k,
    uniform_grid,
)
from .meanprop import (
    MonotoneWeight,
    PropagatorTable,
    SpaceTimeField,
    W_evaluator,
    _as_profile,
    _time_weights,
    leggauss,
    linear_field,
)
from .nonlin import NonlinearitySpec, nonlinearity

__all__ = [
    "SolverConfig",
    "ContractionReport",
    "DecayFitReport",
    "ConvergenceError",
    "EscapeError",
    "weighted_norm",
    "phi_weight_grid",
    "linear_data_field",
    "estimate_N_h",
    "picard_solve",
    "contraction_probe",
    "epsilon_threshold",
    "claim_bound_check",
    "decay_fit",
    "local_existence_window",
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
    """Parameters of one Picard run.

    grid is (t_max, r_max, dt, dr). The weight exponent h must lie in
    (1, p - 2), which forces p > 3: this is the contraction regime.
    """

    p: float
    h: float
    epsilon: float
    grid: tuple = (8.0, 8.0, 0.05, 0.05)
    max_iters: int = 40
    fixed_point_tol: float = 1e-10

    def __post_init__(self):
        if not self.p > 3 or not 1.0 < self.h < self.p - 2.0:
            raise DomainError(
                f"h must lie in (1, p-2); got h = {self.h} with p = {self.p}")
        if self.epsilon < 0:
            raise DomainError("epsilon must be nonnegative")
        t_max, r_max, dt, dr = self.grid
        uniform_grid(t_max, dt, "t_max/dt")
        uniform_grid(r_max, dr, "r_max/dr")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if not self.fixed_point_tol > 0:
            raise DomainError("fixed_point_tol must be positive")

    @property
    def t_grid(self):
        t_max, _, dt, _ = self.grid
        return uniform_grid(t_max, dt, "t_max/dt")

    @property
    def r_grid(self):
        _, r_max, _, dr = self.grid
        return uniform_grid(r_max, dr, "r_max/dr")


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


def phi_weight_grid(t_grid, r_grid, h):
    """Phi_h = e^{r/2} <t-r>^h evaluated on the product grid."""
    T, R = np.meshgrid(np.asarray(t_grid, float), np.asarray(r_grid, float),
                       indexing="ij")
    return phi_weight(T, R, WeightParams(h=h))


def weighted_norm(u: SpaceTimeField, h):
    """max over the grid of Phi_h |u|."""
    if not h > 0:
        raise DomainError("h must be positive")
    return float(np.max(phi_weight_grid(u.t_grid, u.r_grid, h) * np.abs(u.values)))


# ---------------------------------------------------------------------------
# cached heavy objects

_TABLE_CACHE = {}
_NH_CACHE = {}


def clear_caches():
    """Empty every cache, the Gauss-Legendre rules of meanprop included,
    so that the next call pays what a fresh process pays."""
    _TABLE_CACHE.clear()
    _NH_CACHE.clear()
    leggauss.cache_clear()


def _get_table(cfg: SolverConfig):
    if cfg.grid not in _TABLE_CACHE:
        _TABLE_CACHE[cfg.grid] = PropagatorTable(cfg.t_grid, cfg.r_grid)
    return _TABLE_CACHE[cfg.grid]


def linear_data_field(u0, u1, cfg: SolverConfig):
    """The linear evolution u0_lin of unit data (u0, u1) on the grid.

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
    r_grid = cfg.r_grid
    u0_samples = u0(r_grid)
    out = _get_table(cfg).apply_linear(u1(r_grid))
    if np.any(u0_samples != 0.0):
        t_max, _, dt, _ = cfg.grid
        delta = 0.5 * dt
        up = linear_field(u0, cfg.t_grid[1:] + delta, r_grid).values
        dn = linear_field(u0, cfg.t_grid[1:] - delta, r_grid).values
        out[1:] += (up - dn) / (2.0 * delta)
        out[0] += u0_samples
    return out


def estimate_N_h(k, h, cfg: SolverConfig):
    """Empirical N_h: sup of Phi_h times the linear evolution of data
    (0, theta_k), padded by 10 percent. Cached per (k, h, grid)."""
    key = (k, h) + cfg.grid
    if key not in _NH_CACHE:
        env = EnvelopeParams(k=k)
        vals = linear_data_field(0.0, lambda lam: theta_k(lam, env), cfg)
        sup = float(np.max(phi_weight_grid(cfg.t_grid, cfg.r_grid, h) * np.abs(vals)))
        _NH_CACHE[key] = 1.1 * sup
    return _NH_CACHE[key]


# ---------------------------------------------------------------------------
# Picard iteration


def _check_envelope(prof, name, k, r_grid):
    vals = np.abs(_as_profile(prof)(r_grid))
    env = theta_k(r_grid, EnvelopeParams(k=k))
    if np.any(vals > env * (1.0 + 1e-9)):
        j = int(np.argmax(vals - env))
        raise DomainError(
            f"{name} violates the data envelope theta_k at r = {r_grid[j]:.4g} "
            f"(|{name}| = {vals[j]:.3e} > {env[j]:.3e}, k = {k})")


def picard_solve(u0, u1, spec, cfg: SolverConfig, data_k=1.0):
    """Fixed-point iteration for the nonlinear integral equation.

    Returns (field, history) where history[n] is the weighted norm of the
    difference between iterates n+1 and n. spec = None solves the linear
    problem (F = 0). Raises EscapeError if an iterate leaves the ball
    |u| <= 1/A where the nonlinearity's envelope applies, and
    ConvergenceError (carrying the history) if max_iters sweeps do not
    reach fixed_point_tol.
    """
    r_grid = cfg.r_grid
    _check_envelope(u0, "u0", data_k, r_grid)
    _check_envelope(u1, "u1", data_k, r_grid)
    table = _get_table(cfg)
    lin = cfg.epsilon * linear_data_field(u0, u1, cfg)
    if spec is None:
        F = None
        cap = np.inf
    else:
        F = nonlinearity(spec)
        cap = 1.0 / spec.A
    phi = phi_weight_grid(cfg.t_grid, cfg.r_grid, cfg.h)

    cur = lin.copy()
    history = []
    for n in range(cfg.max_iters):
        if np.max(np.abs(cur)) > cap:
            raise EscapeError(
                f"iterate {n} exceeds the envelope ball 1/A = {cap:.4g}; "
                "epsilon is too large for the contraction regime")
        nxt = lin if F is None else lin + table.duhamel_field(F(cur))
        diff = float(np.max(phi * np.abs(nxt - cur)))
        history.append(diff)
        cur = nxt
        if diff < cfg.fixed_point_tol:
            return SpaceTimeField(cfg.t_grid, r_grid, cur), history
    raise ConvergenceError(
        f"no fixed point within {cfg.max_iters} sweeps "
        f"(last difference {history[-1]:.3e})", history)


# ---------------------------------------------------------------------------
# contraction measurement


def _unit_shape(rng, T, R):
    """A smooth random field of sup 1: tensor random Fourier features."""
    xi = np.zeros_like(T)
    amps = rng.standard_normal(_N_FEATURES)
    w_t = rng.uniform(0.0, 1.5, _N_FEATURES)
    w_r = rng.uniform(0.0, 1.5, _N_FEATURES)
    phase = rng.uniform(0.0, 2.0 * np.pi, _N_FEATURES)
    for a, wt, wr, ph in zip(amps, w_t, w_r, phase):
        xi += a * np.cos(wt * T + wr * R + ph)
    sup = np.max(np.abs(xi))
    if sup == 0.0:
        xi[:] = 1.0
        sup = 1.0
    return xi / sup


def _pair_shapes(rng_seed, n_pairs, t_grid, r_grid):
    """The unit shapes of n_pairs pairs (u, v), shape (n_pairs, 2, n_t, n_r),
    drawn in the order u, v, u, v, ... from one generator."""
    if n_pairs < 1:
        raise DomainError(f"n_pairs must be at least 1, got {n_pairs}")
    rng = np.random.default_rng(rng_seed)
    T, R = np.meshgrid(t_grid, r_grid, indexing="ij")
    return np.array([[_unit_shape(rng, T, R), _unit_shape(rng, T, R)]
                     for _ in range(n_pairs)])


def _pair_ratios(table, F, phi, U, V):
    """||L F(u) - L F(v)|| / ||u - v|| in the Phi norm for stacks of pairs,
    None where u = v. L is linear, so one Duhamel call on the stacked
    differences F(u) - F(v) serves every pair."""
    denom = np.max(phi * np.abs(U - V), axis=(1, 2))
    num = np.max(phi * np.abs(table.duhamel_field(F(U) - F(V))), axis=(1, 2))
    return [float(n) / float(d) if d != 0.0 else None
            for n, d in zip(num, denom)]


def _probe(spec, cfg, units, data_k):
    """contraction_probe on given unit pair shapes (see _pair_shapes)."""
    table = _get_table(cfg)
    F = nonlinearity(spec)
    phi = phi_weight_grid(cfg.t_grid, cfg.r_grid, cfg.h)
    radius = 2.0 * cfg.epsilon * estimate_N_h(data_k, cfg.h, cfg)
    if radius > 1.0 / spec.A:
        raise EscapeError(
            f"ball radius 2 eps N_h = {radius:.4g} exceeds 1/A = "
            f"{1.0 / spec.A:.4g}; the envelope does not apply")
    U = radius * units[:, 0] / phi
    V = radius * units[:, 1] / phi
    ratios = [r for r in _pair_ratios(table, F, phi, U, V) if r is not None]
    max_ratio = max(ratios) if ratios else 0.0
    return ContractionReport(epsilon=cfg.epsilon, sampled_pairs=len(ratios),
                             max_ratio=max_ratio, ratios=tuple(ratios))


def contraction_probe(spec: NonlinearitySpec, cfg: SolverConfig, n_pairs=20,
                      rng_seed=0, data_k=1.0):
    """Empirical contraction factor of u -> duhamel(F(u)) on the ball.

    Samples n_pairs >= 1 independent pairs (u, v) with weighted norm equal
    to the ball radius 2 eps N_h and reports the largest ratio
    ||L F(u) - L F(v)|| / ||u - v|| in the Phi_h norm. Degenerate pairs
    (u = v) are skipped. All pairs share one stacked Duhamel call.
    """
    units = _pair_shapes(rng_seed, n_pairs, cfg.t_grid, cfg.r_grid)
    return _probe(spec, cfg, units, data_k)


def epsilon_threshold(spec: NonlinearitySpec, cfg: SolverConfig,
                      target_ratio=0.5, rng_seed=0, data_k=1.0,
                      n_pairs=20, n_steps=20):
    """Largest probed eps whose contraction factor stays below target_ratio.

    Bisection with n_steps >= 0 steps on [1e-12, 1]; the returned value is
    the lower bracket end, so it is itself admissible: a contraction_probe
    at the result with the same rng_seed and n_pairs reproduces a
    max_ratio within target_ratio, because the sampled pair shapes do not
    depend on eps (only the ball radius scales). The shapes are therefore
    drawn once, and each probe costs one stacked Duhamel call.
    Deterministic for a fixed rng_seed. Raises DomainError for
    n_pairs < 1, n_steps < 0 or target_ratio <= 0, and ConvergenceError
    when even the floor 1e-12 fails the probe.
    """
    return _threshold_search(spec, cfg, target_ratio, rng_seed, data_k,
                             n_pairs, n_steps)[0]


def _threshold_search(spec, cfg, target_ratio, rng_seed, data_k, n_pairs,
                      n_steps):
    """epsilon_threshold's bisection: (eps0, the ContractionReport of its
    probe at eps0), which is bit for bit the contraction_probe at eps0
    with the same rng_seed and n_pairs."""
    if n_steps < 0:
        raise DomainError(f"n_steps must be nonnegative, got {n_steps}")
    if not target_ratio > 0:
        raise DomainError(f"target_ratio must be positive, got {target_ratio}")
    units = _pair_shapes(rng_seed, n_pairs, cfg.t_grid, cfg.r_grid)

    reports = {}

    def ratio_at(eps):
        try:
            reports[eps] = _probe(spec, replace(cfg, epsilon=eps), units, data_k)
        except EscapeError:
            return np.inf
        return reports[eps].max_ratio

    lo, hi = 1e-12, 1.0
    if ratio_at(lo) > target_ratio:
        raise ConvergenceError(
            f"no admissible epsilon found down to the floor {lo:g} "
            f"(target ratio {target_ratio})")
    for _ in range(n_steps):
        mid = 0.5 * (lo + hi)
        if ratio_at(mid) <= target_ratio:
            lo = mid
        else:
            hi = mid
    return lo, reports[lo]


# ---------------------------------------------------------------------------
# the claim integral


def claim_bound_check(p, h, epsilon, t, r):
    """The double integral controlling the contraction lemma.

    claim_value = int_0^t W(t - tau, r, f_tau) dtau with

        f_tau(lam) = (ln(1/eps) + lam)^{1-p} sinh(lam) <tau-lam>^{-h}
                     (cosh lam)^{-1/2},

    and weighted = claim_value (cosh r)^{1/2} <t-r>^h, the quantity the
    lemma needs to be small. The tau integral is composite Simpson; the
    inner W uses the 2cosh weight.
    """
    if not p > 3 or not 1.0 < h < p - 2.0:
        raise DomainError("claim_bound_check needs p > 3 and h in (1, p-2)")
    if not 0 < epsilon <= 1:
        raise DomainError("epsilon must lie in (0, 1]")
    if t < 0 or r < 0:
        raise DomainError("t and r must be nonnegative")
    if t == 0.0:
        return 0.0, 0.0
    a = MonotoneWeight.two_cosh()
    log_inv_eps = np.log(1.0 / epsilon)

    def f_tau(tau):
        def f(lam):
            lam = np.asarray(lam, dtype=float)
            return ((log_inv_eps + lam) ** (1.0 - p) * np.sinh(lam)
                    * bracket(tau - lam) ** (-h) / np.sqrt(np.cosh(lam)))

        return f

    n_tau = max(8, 2 * int(np.ceil(0.5 * _TAU_PER_UNIT * t)))
    taus = np.linspace(0.0, t, n_tau + 1)
    vals = np.array([W_evaluator(t - tau, r, f_tau(tau), a) for tau in taus])
    # n_tau is even, so these are the composite Simpson weights
    claim_value = float(t / n_tau * _time_weights(n_tau) @ vals)
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


def local_existence_window(M):
    """The guaranteed contraction window T = 1/(2 sqrt(2) e M), capped at 1."""
    if not M > 0:
        raise DomainError("M must be positive")
    return min(1.0, 1.0 / (2.0 * np.sqrt(2.0) * np.e * M))
