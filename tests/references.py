"""Reference implementations that only the tests use.

None of these is on the path of a `wavecli` command; each is kept as an
independent check of what the library computes another way:

* from_samples, a sampled RadialProfile interpolated monotone-cubically
  (PCHIP, from scipy, a test dependency), 0 past the last sample;
* slice_profile and time_index, a time slice of a SpaceTimeField as such
  a profile and the index of a time on its grid;
* time_weights, the Newton-Cotes weights of int_0^{t_i} on grid indices
  0..i, the check of meanprop._lag_weights;
* duhamel, the Duhamel integral at one point as a Newton-Cotes sum of
  pointwise sine propagators over the source's time slices, the check of
  PropagatorTable.duhamel_field;
* duhamel_per_lag, the gridded Duhamel integral as the causal
  convolution in time done directly, one matrix product per lag, the
  check of the FFT convolution of PropagatorTable.duhamel_field;
* per_lag_table, PropagatorTable's matrices built one _kernel_nodes call
  per lag, each node scattered to its cell's moments in panel order, the
  check of the table's lag blocks;
* unit_shape_per_point, a contraction pair shape as the sum of its
  random Fourier features evaluated at every grid point, the check of
  globalsolver._unit_shape's product of 1-D cosines and sines;
* per_tau_claim, the claim integral of globalsolver.claim_bound_check as
  a Simpson sum of one settled W_evaluator per tau node, the check of its
  one kernel call over every lag;
* bump_everywhere, blowlab.bump_profile's formula with its ramps run on
  every input, the check of the bump that runs them on the support only;
* lower_bounds_everywhere, meanprop.lower_bound_I with its integrand run
  on every quadrature node, and first_iterate_both, the c0 of
  blowlab.first_iterate_bound taken from it with bound_large computed
  and dropped: the checks of the bounds that skip the nodes past the
  support and of the c0 that computes bound_small alone;
* decimated, certificate_verify's sample of passing points taken from
  the list of every passing point, the check of the sample it picks by
  index;
* full_grid_certificate_verify, blowlab.certificate_verify with its
  region masks over the whole (t, r) meshgrid, the check of the one that
  finds each region's points per time row within its band of radii.
"""

import math

import numpy as np
from scipy.interpolate import PchipInterpolator

from hypwave.blowlab import (VerifyReport, _first_min, _mask_S, _mask_sigma,
                             _scalar_pow)
from hypwave.globalsolver import _N_FEATURES, _TAU_PER_UNIT
from hypwave.hypgeo import DomainError, bracket, log_sinh
from hypwave.meanprop import (_KERNEL_LEVEL, _STENCIL, _TWO_COSH, MonotoneWeight,
                              RadialProfile, W_evaluator, _as_profile,
                              _gl_integrals, _kernel_nodes, _lag_weights,
                              default_C0, sine_propagator)


def from_samples(lam, values, support_radius=None):
    """A RadialProfile through the samples (lam, values), PCHIP between
    them and 0 beyond the last; the sample abscissae are its knots."""
    lam = np.asarray(lam, dtype=float)
    values = np.asarray(values, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise DomainError("sampled profile needs at least 2 points")
    if np.any(np.diff(lam) <= 0) or lam[0] < 0:
        raise DomainError("sample abscissae must be nonnegative and strictly increasing")
    if not np.all(np.isfinite(values)):
        raise DomainError("sample values must be finite")
    core = PchipInterpolator(lam, values, extrapolate=False)
    lo, hi = lam[0], lam[-1]

    def func(x):
        x = np.asarray(x, dtype=float)
        out = core(np.clip(x, lo, hi))
        out = np.where(x > hi, 0.0, out)
        return np.nan_to_num(out, nan=0.0)

    knots = lam if support_radius is None else np.append(lam, support_radius)
    return RadialProfile(func, support_radius=support_radius, knots=np.unique(knots))


def slice_profile(field, i):
    """The time slice t = t_grid[i] of a SpaceTimeField as a RadialProfile."""
    return from_samples(field.r_grid, field.values[i])


def time_index(field, t):
    """The index of t on the field's time grid, matched to 1e-9 max(1, |t|)."""
    i = int(np.argmin(np.abs(field.t_grid - t)))
    if abs(field.t_grid[i] - t) > 1e-9 * max(1.0, abs(t)):
        raise DomainError(f"t={t} is not on the field's time grid")
    return i


def time_weights(i):
    """Newton-Cotes weights (units of dt) for int_0^{t_i} on grid indices 0..i:
    composite Simpson for even i, Simpson + 3/8 tail for odd i >= 3,
    trapezoid for i = 1."""
    if i == 0:
        return np.zeros(1)
    if i == 1:
        return np.array([0.5, 0.5])
    w = np.zeros(i + 1)
    if i % 2 == 0:
        w[0] = w[i] = 1.0 / 3.0
        w[1:i:2] = 4.0 / 3.0
        w[2:i:2] += 2.0 / 3.0
    else:
        head = time_weights(i - 3)
        w[: i - 2] += head
        w[i - 3 :] += np.array([3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0])
    return w


def duhamel(F, t, r):
    """int_0^t I(t - tau, r, F(tau, .)) dtau for a gridded source F.

    t must lie on the source's time grid; the source grid must cover the
    backward light cone of (t, r).
    """
    if r < 0:
        raise DomainError("duhamel needs r >= 0")
    i = time_index(F, t)
    if i == 0:
        return 0.0
    if F.r_grid[-1] + 1e-9 < r + t:
        raise DomainError(
            f"source grid (r <= {F.r_grid[-1]}) does not cover the backward "
            f"light cone of (t={t}, r={r}), which needs r <= {r + t}")
    dt = F.t_grid[1] - F.t_grid[0]
    if not np.allclose(np.diff(F.t_grid[: i + 1]), dt, rtol=1e-9):
        raise DomainError("duhamel requires a uniform time grid")
    w = time_weights(i) * dt
    total = 0.0
    for k in range(i + 1):
        lag = F.t_grid[i] - F.t_grid[k]
        if lag == 0.0 or w[k] == 0.0:
            continue
        total += w[k] * sine_propagator(slice_profile(F, k), lag, r)
    return float(total)


def duhamel_per_lag(A, F, dt):
    """PropagatorTable.duhamel_field of the table with matrices A and time
    step dt, as it was computed before the FFT: the causal convolution
    out[i] = dt sum_{d=1..i} A[d] (w_d F)[i - d] with the weights of
    _lag_weights, one matrix product per lag d over all rows and sources.
    F has shape (n_t, n_r) or (m, n_t, n_r)."""
    F = np.asarray(F, dtype=float)
    n_t, n_r = A.shape[:2]
    src = np.ascontiguousarray(np.moveaxis(F.reshape(-1, n_t, n_r), 1, 0))
    m = src.shape[1]
    w = (_lag_weights(n_t) * dt)[:, :, None, None]
    simpson = w[0] * src
    out = np.zeros((n_t, m, n_r))
    for d in range(1, n_t):
        rows = n_t - d
        g = simpson[:rows] if d >= 4 else w[d, :rows] * src[:rows]
        out[d:] += (g.reshape(-1, n_r) @ A[d].T).reshape(rows, m, n_r)
    return np.moveaxis(out, 1, 0).reshape(F.shape)


def per_lag_table(t_grid, r_grid):
    """meanprop._lag_matrices(t_grid, r_grid) as the table built it before
    its lag blocks: one _kernel_nodes call and one moment array per lag, the
    nodes of each chunk scattered in (panel, node) order."""
    t_grid = np.asarray(t_grid, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    dt, dr = t_grid[1] - t_grid[0], r_grid[1] - r_grid[0]
    n_t, n_r = t_grid.size, r_grid.size
    A = np.zeros((n_t, n_r, n_r))
    for d in range(1, n_t):
        A[d] = _lag_matrix(d * dt, r_grid, dr)
    return A


def _lag_matrix(t, r_grid, dr):
    n_r = r_grid.size
    width = n_r + 2  # cells l0 = 0 .. n_r, then the dump cell
    mom = np.zeros((4, n_r * width))
    inv_dr = 1.0 / dr
    # from lam = (n_r + 1) dr on, the whole stencil lies past the grid
    nodes = _kernel_nodes(t, r_grid, _TWO_COSH, dr, lam_max=(n_r + 1) * dr)
    for row, lam, w in nodes(_KERNEL_LEVEL):
        lam, w = lam.T, w.T  # (panels, n)
        w *= np.sinh(lam)
        w /= np.pi
        pos = lam * inv_dr
        l0 = np.floor(pos)
        xi = pos - l0
        cell = np.minimum(l0, n_r + 1).astype(np.intp)
        # rows ascend, so a chunk touches the moments of rows lo..hi-1
        lo, hi = row[0], row[-1] + 1
        flat = (((row - lo) * width)[:, None] + cell).ravel()
        part = mom[:, lo * width:hi * width]
        for p in range(4):
            part[p] += np.bincount(flat, weights=w.ravel(), minlength=part.shape[1])
            w *= xi
    # entry l0 + o - 1 of row j gets sum_p _STENCIL[o, p] mom[p, j, l0]
    coef = np.tensordot(_STENCIL, mom.reshape(4, n_r, width), axes=1)
    M = np.zeros((n_r, width + 3))
    for o in range(4):
        M[:, o:o + width] += coef[o]
    M[:, 2] += M[:, 0]  # even reflection through r = 0: entry -1 is entry 1
    return M[:, 1:n_r + 1]


def unit_shape_per_point(rng, t, r):
    """globalsolver._unit_shape(rng, t, r) as it was computed before it
    split its features: sum a cos(w_t T + w_r R + phase) over the
    features at every point (T, R) of the grid t x r, over its sup. Draws
    the same numbers from rng in the same order."""
    T, R = np.meshgrid(t, r, indexing="ij")
    xi = np.zeros_like(T)
    amps = rng.standard_normal(_N_FEATURES)
    w_t = rng.uniform(0.0, 1.5, _N_FEATURES)
    w_r = rng.uniform(0.0, 1.5, _N_FEATURES)
    phase = rng.uniform(0.0, 2.0 * np.pi, _N_FEATURES)
    for a, wt, wr, ph in zip(amps, w_t, w_r, phase):
        xi += a * np.cos(wt * T + wr * R + ph)
    return xi / np.max(np.abs(xi))


def per_tau_claim(p, h, epsilon, t, r, W=W_evaluator):
    """claim_value of globalsolver.claim_bound_check(p, h, epsilon, t, r)
    as it was computed before its one kernel call: W(t - tau, r, f_tau, a)
    at every Simpson node tau, each settled on its own. W is a parameter
    so that a test can put a stand-in in its place."""
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
    vals = np.array([W(t - tau, r, f_tau(tau), a) for tau in taus])
    # n_tau is even, so these are the composite Simpson weights
    return float(t / n_tau * time_weights(n_tau) @ vals)


def bump_everywhere(tau0):
    """blowlab.bump_profile(tau0)'s callable, its two exp(-1/x) ramps
    evaluated at every lam."""
    half = 0.5 * tau0

    def g(x):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)

    def ramp(x):
        rise = g(x)
        return rise / (rise + g(1.0 - x))

    def bump(lam):
        lam = np.asarray(lam, dtype=float)
        out = ramp((lam - half) / half) * ramp((3.5 * tau0 - lam) / half)
        return out if out.ndim else float(out)

    return bump


def lower_bounds_everywhere(phi, t, r, tau0):
    """meanprop.lower_bound_I(phi, t, r, tau0) with phi and the
    integrand evaluated at every quadrature node, beyond phi's support
    too, and both bounds' integrals in one _gl_integrals call."""
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                               np.asarray(r, dtype=float))
    pref = default_C0(tau0) * np.exp(-0.5 * log_sinh(r))
    prof = _as_profile(phi)
    hi = t + r
    wide = np.abs(t - r) > tau0 / 8.0
    ints = _gl_integrals(lambda lam: prof(lam) * np.exp(0.5 * log_sinh(lam)),
                         np.concatenate([np.maximum(t, r).ravel(), np.abs(t - r)[wide]]),
                         np.concatenate([hi.ravel(), hi[wide]]))
    bound_large = pref * ints[:hi.size].reshape(hi.shape)
    bound_small = np.full(hi.shape, np.nan)
    bound_small[wide] = pref[wide] * ints[hi.size:]
    if hi.ndim == 0:
        return bound_large[()], (bound_small[()] if wide else None)
    return bound_large, bound_small


def first_iterate_both(u1, params):
    """blowlab.first_iterate_bound(u1, params) through
    lower_bounds_everywhere, which computes bound_large as well."""
    tau0, eps = params.tau0, params.epsilon
    widths = np.linspace(tau0 * (1.0 + 1e-6), 2.0 * tau0 * (1.0 - 1e-6), 15)
    offsets = np.array([0.0, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5,
                        0.75, 1.0, 1.5, 2.5, 5.0])
    r_corner = 0.5 * (3.0 * tau0 - widths)
    r = (r_corner[:, None] * (1.0 + 1e-6) + offsets * tau0).ravel()
    t = r + np.repeat(widths, offsets.size)
    _, small = lower_bounds_everywhere(u1, t, r, tau0)
    keep = np.isfinite(small)
    values = [math.exp(0.5 * ls) * s
              for ls, s in zip(log_sinh(r[keep]).tolist(), small[keep])]
    cap = (1.0 - 1e-9) * params.delta0 * math.sqrt(math.sinh(0.5 * tau0)) / eps
    return min(min(values), cap)


def decimated(passing):
    """Every passing point's tuple in a list, then every stride-th of them
    up to 200, stride = max(1, len // 200): VerifyReport.passed_points."""
    passing = list(passing)
    stride = max(1, len(passing) // 200)
    return passing[::stride][:200]


def full_grid_certificate_verify(cert, u_sim):
    """certificate_verify's report from the masks of S and Sigma_{l0} over
    the whole (t, r) meshgrid, and (sinh r)^{-1/2} at every radius."""
    params, boost = cert.params, cert.boost
    tau0, eps, p, l0 = params.tau0, params.epsilon, params.p, boost.l0
    T, R = np.meshgrid(u_sim.t_grid, u_sim.r_grid, indexing="ij")
    U = u_sim.values
    decay = np.array([math.exp(-0.5 * x)
                      for x in log_sinh(u_sim.r_grid).tolist()])
    warnings = []

    in_s = _mask_S(R, T, tau0)
    t, r, val = T[in_s], R[in_s], U[in_s]
    bound = cert.c0 * eps * decay[np.nonzero(in_s)[1]]
    first_margins = val - bound
    fail = first_margins < 0.0
    first_violations = list(zip(t[fail], r[fail], bound[fail], val[fail]))
    ok = np.flatnonzero(first_margins >= 0.0)
    ok = ok[::max(1, ok.size // 200)][:200]
    passed = list(zip(t[ok], r[ok], bound[ok], val[ok]))
    if not first_margins.size:
        warnings.append(
            f"grid covers no point of S (needs {tau0} < t - r < {2 * tau0} "
            f"and t + r > {3 * tau0})")

    c_top = boost.entries[-1][3]
    L = -math.log(c_top * eps)
    in_sigma = _mask_sigma(R, T, tau0, l0)
    t, r, val = T[in_sigma], R[in_sigma], U[in_sigma]
    bound = (c_top * eps * r * decay[np.nonzero(in_sigma)[1]]
             * _scalar_pow(t + r + L, -l0 * (p - 1.0))
             * _scalar_pow(t - r, 2.0 * l0 - 2.0))
    boost_margins = val - bound
    fail = boost_margins < 0.0
    boost_violations = list(zip(t[fail], r[fail], bound[fail], val[fail]))
    if not boost_margins.size:
        warnings.append(
            f"grid covers no point of Sigma_{l0} (needs t - r > "
            f"{6 * l0 * tau0:g} and r > {0.5 * tau0:g})")

    return VerifyReport(
        first_checked=len(first_margins),
        first_violations=tuple(first_violations),
        first_min_margin=_first_min(first_margins),
        boost_checked=len(boost_margins),
        boost_violations=tuple(boost_violations),
        boost_min_margin=_first_min(boost_margins),
        coverage_warning="; ".join(warnings) if warnings else None,
        passed_points=tuple(passed),
    )
