"""Reference implementations that only the tests use.

None of these is on the path of a `wavecli` command; each is kept as an
independent check of what the library computes another way:

* from_samples, a sampled RadialProfile interpolated monotone-cubically
  (PCHIP, from scipy, a test dependency), 0 past the last sample;
* slice_profile and time_index, a time slice of a SpaceTimeField as such
  a profile and the index of a time on its grid;
* duhamel, the Duhamel integral at one point as a Newton-Cotes sum of
  pointwise sine propagators over the source's time slices, the check of
  PropagatorTable.duhamel_field.
"""

import numpy as np
from scipy.interpolate import PchipInterpolator

from hypwave.hypgeo import DomainError
from hypwave.meanprop import RadialProfile, _time_weights, sine_propagator


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
    w = _time_weights(i) * dt
    total = 0.0
    for k in range(i + 1):
        lag = F.t_grid[i] - F.t_grid[k]
        if lag == 0.0 or w[k] == 0.0:
            continue
        total += w[k] * sine_propagator(slice_profile(F, k), lag, r)
    return float(total)
