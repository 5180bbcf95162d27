"""Spherical means and wave propagation on the hyperbolic plane.

This module is the integral-kernel engine of the package. Everything the
solver layers need is built from four pieces:

* the radial spherical mean
      M^t f(r) = (1/pi) int_{|r-t|}^{r+t} f(lam) sinh(lam)
                 [(cosh(r+t) - cosh lam)(cosh lam - cosh(r-t))]^{-1/2} dlam,
* the sine-type propagator
      I(t, r, phi) = int_0^t sinh(s) (2 cosh t - 2 cosh s)^{-1/2} M^s phi(r) ds,
  which solves the shifted linear wave equation with data (0, phi),
* the Duhamel integral of a space-time source, and
* the W double integral and the R smoothing operator for a general even
  monotone weight a(s), together with their closed-form companions
  (the Beta identity and the explicit propagator lower bounds).

Both endpoint singularities of the mean are removed exactly by the
substitution cosh(lam) = midpoint + halfwidth*cos(theta); the resulting
theta integral is integrated on panels that are geometrically graded in
cosh(lam) so that the enormous dynamic range at large t + r costs only
O(log cosh(t+r)) panels. The outer s integral uses unit-width panels away
from s = t and the substitution sigma^2 = 2 cosh t - 2 cosh s on the last
panel, which removes the endpoint singularity there as well.

One node builder (_mean_nodes) serves every evaluation of the mean: it
lists the nodes of sum_k ws_k M^{s_k} f(r_j) for all pairs (s_k, r_j) in
one flat panel list, breakpoints from one pass with both angular ends
pinned, panels broken at the profile's knots, expanded to Gauss nodes in
bounded chunks. spherical_mean is the list of one pair; sine_propagator
is the outer s-rule at one radius; both settle over the angular levels
(n, n + 4), n = n0, 2 n0, 4 n0 (_settle). The grid sweeps take the first
level n0 + 4 at every time level: linear_field sums the weighted profile
values of the nodes to their radii, with the profile's knots; the table,
without knots, scatters each node's weight to the cubic-interpolation
cell it falls in as four moments w xi^p, then turns the moments into
stencil entries with the stencil's monomial coefficients.

All operations are pure; grid sweeps share no mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .hypgeo import DomainError, QuadratureConfig, cg_nodes, log_cosh, log_sinh, sinhc

__all__ = [
    "QuadratureError",
    "RadialProfile",
    "SpaceTimeField",
    "MonotoneWeight",
    "spherical_mean",
    "sine_propagator",
    "linear_field",
    "duhamel",
    "PropagatorTable",
    "W_evaluator",
    "w_majorant",
    "beta_identity_check",
    "r_operator",
    "dt_r_bound_check",
    "kernel_lower_integral",
    "default_C0",
    "lower_bound_I",
]

_PANEL_RATIO = 3.0  # growth factor of the cosh(lam) panel breakpoints
_DEGENERATE_REL = 1e-13
_NODE_CHUNK = 1 << 14  # Gauss nodes _mean_nodes expands at a time


@lru_cache
def leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    Every caller shares the returned arrays, so they are read-only.
    """
    x, w = legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


class QuadratureError(RuntimeError):
    """A quadrature rule failed to settle within the configured tolerances."""


# ---------------------------------------------------------------------------
# profiles and fields


class RadialProfile:
    """A radial function on [0, inf), either closed-form or sampled.

    Sampled profiles interpolate monotone-cubically (PCHIP) by default and
    return 0 beyond the last sample; a profile with ``support_radius`` set
    returns 0 beyond that radius regardless of kind.
    """

    def __init__(self, func, *, kind, support_radius=None, knots=None):
        self._func = func
        self.kind = kind
        self.support_radius = support_radius
        # abscissae where the profile is merely C^1; quadrature rules align
        # their panels with these so convergence stays spectral
        self.knots = knots

    @classmethod
    def from_function(cls, func, support_radius=None):
        knots = None if support_radius is None else np.asarray([support_radius])
        return cls(func, kind="closed_form", support_radius=support_radius,
                   knots=knots)

    @classmethod
    def constant(cls, value):
        v = float(value)
        return cls(lambda lam: np.full_like(np.asarray(lam, dtype=float), v),
                   kind="closed_form")

    @classmethod
    def from_samples(cls, lam, values, interp="cubic", support_radius=None):
        lam = np.asarray(lam, dtype=float)
        values = np.asarray(values, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise DomainError("sampled profile needs at least 2 points")
        if np.any(np.diff(lam) <= 0) or lam[0] < 0:
            raise DomainError("sample abscissae must be nonnegative and strictly increasing")
        if not np.all(np.isfinite(values)):
            raise DomainError("sample values must be finite")
        from scipy.interpolate import PchipInterpolator, interp1d

        if interp == "cubic":
            core = PchipInterpolator(lam, values, extrapolate=False)
        elif interp == "linear":
            core = interp1d(lam, values, kind="linear", bounds_error=False)
        else:
            raise DomainError(f"unknown interpolation kind {interp!r}")
        lo, hi = lam[0], lam[-1]

        def func(x):
            x = np.asarray(x, dtype=float)
            out = core(np.clip(x, lo, hi))
            out = np.where(x > hi, 0.0, out)
            return np.nan_to_num(out, nan=0.0)

        knots = lam if support_radius is None else np.append(lam, support_radius)
        return cls(func, kind="sampled", support_radius=support_radius,
                   knots=np.unique(knots))

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.asarray(self._func(lam), dtype=float)
        if self.support_radius is not None:
            out = np.where(lam > self.support_radius, 0.0, out)
        return out


@dataclass
class SpaceTimeField:
    """Values of a radial space-time function on a rectangular (t, r) grid."""

    t_grid: np.ndarray
    r_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        for name, g in (("t_grid", self.t_grid), ("r_grid", self.r_grid)):
            if g.ndim != 1 or g.size < 1:
                raise DomainError(f"{name} must be a nonempty 1-d array")
            if g[0] < 0 or np.any(np.diff(g) <= 0):
                raise DomainError(f"{name} must be nonnegative and strictly increasing")
        if self.values.shape != (self.t_grid.size, self.r_grid.size):
            raise DomainError("values shape must be (len(t_grid), len(r_grid))")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")

    def slice_profile(self, i, interp="cubic"):
        """The time slice t = t_grid[i] as a RadialProfile."""
        return RadialProfile.from_samples(self.r_grid, self.values[i], interp=interp)

    def time_index(self, t, tol=1e-9):
        i = int(np.argmin(np.abs(self.t_grid - t)))
        if abs(self.t_grid[i] - t) > tol * max(1.0, abs(t)):
            raise DomainError(f"t={t} is not on the field's time grid")
        return i


class MonotoneWeight:
    """An even C^1 weight a(s) with a'(s) > 0 for s > 0.

    Carries, besides a and a', the inverse of a on [0, inf) and a
    cancellation-free difference quotient dq(x, y) = (a(x) - a(y))/(x - y);
    the latter keeps the Beta-type integrands accurate when two abscissae
    nearly coincide. Construction verifies the two conditions required of
    the weight (positivity of a' and monotonicity of the smoothed
    derivative quotient) on a sample grid.
    """

    def __init__(self, name, a, da, inv, dq, _validate=True):
        self.name = name
        self.a = a
        self.da = da
        self.inv = inv
        self.dq = dq
        if _validate:
            self._check_conditions()

    def _check_conditions(self):
        for t in (0.7, 1.7, 4.0):
            s = np.linspace(t * 1e-3, t * (1 - 1e-6), 200)
            if np.any(self.da(s) <= 0):
                raise DomainError(f"weight {self.name!r}: a' must be positive for s > 0")
            g = (self.da(t) - self.da(s)) / np.sqrt(self.a(t) - self.a(s))
            if np.any(np.diff(g) > 1e-9 * (1 + np.abs(g[:-1]))):
                raise DomainError(
                    f"weight {self.name!r}: (a'(t)-a'(s))/sqrt(a(t)-a(s)) "
                    "must be nonincreasing in s")

    @classmethod
    def two_cosh(cls):
        return cls(
            "2cosh",
            a=lambda s: 2.0 * np.cosh(s),
            da=lambda s: 2.0 * np.sinh(s),
            inv=lambda y: np.arccosh(np.maximum(np.asarray(y, dtype=float), 2.0) / 2.0),
            # 2cosh x - 2cosh y = 4 sinh((x+y)/2) sinh((x-y)/2)
            dq=lambda x, y: 2.0 * np.sinh(0.5 * (x + y)) * sinhc(0.5 * (x - y)),
        )

    @classmethod
    def s_squared(cls):
        return cls(
            "s^2",
            a=lambda s: np.square(np.asarray(s, dtype=float)),
            da=lambda s: 2.0 * np.asarray(s, dtype=float),
            inv=lambda y: np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0)),
            dq=lambda x, y: np.asarray(x, dtype=float) + np.asarray(y, dtype=float),
        )

    def dq_of_squares(self, X, Y):
        """(a(sqrt X) - a(sqrt Y)) / (X - Y) without cancellation."""
        sx, sy = np.sqrt(X), np.sqrt(Y)
        return self.dq(sx, sy) / (sx + sy)


def _as_profile(f):
    if isinstance(f, RadialProfile):
        return f
    if callable(f):
        return RadialProfile.from_function(f)
    return RadialProfile.constant(f)


# ---------------------------------------------------------------------------
# the spherical mean


def _mean_nodes(s, ws, r, n_gl, knots=None):
    """The flat node list of sum_k ws_k M^{s_k} f(r_j) for every radius r_j.

    Yields chunks (row, lam, w) of flat arrays, rows ascending within each
    chunk, such that sum_k ws_k M^{s_k} f(r_j) ~= sum over the nodes with
    row == j of w f(lam). Each pair (s_k, r_j) gets panels geometric in
    y = cosh(lam) between cosh(r_j - s_k) and cosh(r_j + s_k), broken also
    at the knots inside that range, with n_gl Gauss nodes per panel in the
    substituted angle. All breakpoints come out of one in-place pass over
    their fractions of the log span, padded to the widest pair with the
    fraction 1 and with the knots clamped into range; both angular ends
    are set exactly, so each pair's weights sum to ws_k, and the
    zero-width panels are dropped. lam is recovered through log1p on
    delta = y - 1 assembled from exact nonnegative pieces, which keeps
    nodes accurate near lam = 0 even when cosh(r + s) is ~1e10. Panels
    are expanded at most _NODE_CHUNK nodes at a time. A degenerate pair
    (s_k or r_j ~ 0) is one node of weight ws_k at max(r_j, s_k); those
    come in the last chunk.
    """
    c_lo = np.cosh(r[:, None] - s)
    c_hi = np.cosh(r[:, None] + s)
    degenerate = (c_hi - c_lo) <= _DEGENERATE_REL * c_hi
    j, k = np.nonzero(~degenerate)
    c_lo, c_hi = c_lo[j, k], c_hi[j, k]
    span = np.log(c_hi / c_lo)
    n_pan = np.ceil(span / np.log(_PANEL_RATIO)).astype(int)
    mbar = 0.5 * (c_hi + c_lo)
    hbar = 0.5 * (c_hi - c_lo)

    th = np.arange(n_pan.max(initial=1) + 1) / n_pan[:, None]
    np.minimum(th, 1.0, out=th)
    if knots is not None:
        f_knot = (log_cosh(np.asarray(knots, dtype=float))
                  - np.log(c_lo)[:, None]) / span[:, None]
        th = np.sort(np.concatenate([th, np.clip(f_knot, 0.0, 1.0)], axis=1),
                     axis=1)
    bottom, top = th == 0.0, th == 1.0
    # th = arccos((y - mbar) / hbar) at y = c_lo exp(span f), in place
    th *= span[:, None]
    np.exp(th, out=th)
    th *= c_lo[:, None]
    th -= mbar[:, None]
    th /= hbar[:, None]
    np.clip(th, -1.0, 1.0, out=th)
    np.arccos(th, out=th)
    # near +-1 arccos turns the rounding of its argument into angle errors
    # up to ~1e-7, a weight lost at the end panels: set both ends exactly
    th[bottom] = np.pi  # theta decreases with y
    th[top] = 0.0
    half = 0.5 * (th[:, :-1] - th[:, 1:])
    pair, p = np.nonzero(half)
    mid = 0.5 * (th[pair, p] + th[pair, p + 1])
    half = half[pair, p]
    j, k, c_lo1, hbar = j[pair], k[pair], c_lo[pair] - 1.0, hbar[pair]

    xg, wg = leggauss(n_gl)
    per = max(_NODE_CHUNK // n_gl, 1)
    for a in range(0, pair.size, per):
        b = slice(a, a + per)
        theta = mid[b, None] + half[b, None] * xg
        w = ws[k[b], None] * ((half[b, None] * wg) / np.pi)
        delta = c_lo1[b, None] + 2.0 * hbar[b, None] * np.cos(theta / 2.0) ** 2
        lam = np.log1p(delta + np.sqrt(delta * (delta + 2.0)))
        yield np.repeat(j[b], n_gl), lam.ravel(), w.ravel()
    if degenerate.any():
        j, k = np.nonzero(degenerate)
        yield j, np.maximum(r[j], s[k]), ws[k]


def _mean_sum(prof, s, ws, r, n_gl):
    """sum_k ws_k M^{s_k} prof(r_j) for every radius r_j, from _mean_nodes
    with panels broken at the profile's knots."""
    out = np.zeros(r.size)
    for row, lam, w in _mean_nodes(s, ws, r, n_gl, prof.knots):
        out += np.bincount(row, weights=w * prof(lam), minlength=r.size)
    return out


def _first_level(q):
    """n0, the smallest angular Gauss level of the mean's rule."""
    return max(6, q.nodes_inner // 5)


def _settle(prof, s, ws, r, q, what):
    """sum_k ws_k M^{s_k} prof(r) at one radius r, settled over the angular
    levels (n, n + 4) for n = n0, 2 n0, 4 n0.

    Returns the value at n + 4 for the first pair of levels that agrees
    within the configured tolerances and raises QuadratureError when even
    the finest pair disagrees.
    """
    rr = np.asarray([r])
    n0 = _first_level(q)
    for n in (n0, 2 * n0, 4 * n0):
        coarse, fine = (float(_mean_sum(prof, s, ws, rr, m)[0]) for m in (n, n + 4))
        err = abs(fine - coarse)
        if err <= max(q.abs_tol, q.rel_tol * max(abs(coarse), abs(fine))):
            return fine
    raise QuadratureError(
        f"{what} did not settle: the finest refinement still moved the "
        f"value by {err:.3e}")


def spherical_mean(f, t, r, q=QuadratureConfig()):
    """The mean of a radial profile over the geodesic sphere of radius t at r.

    Evaluates the graded-panel rule of _mean_nodes at two node counts
    (escalating once the levels disagree) and raises QuadratureError when
    even the finest pair disagrees beyond the configured tolerances. t = 0
    returns f(r) exactly.
    """
    if t < 0 or r < 0:
        raise DomainError("spherical_mean needs t >= 0 and r >= 0")
    prof = _as_profile(f)
    if t == 0.0:
        return float(prof(np.asarray([r]))[0])
    return _settle(prof, np.asarray([t]), np.ones(1), r, q,
                   f"spherical mean at (t={t}, r={r})")


# ---------------------------------------------------------------------------
# the sine-type propagator


def _propagator_nodes(t, q):
    """Outer s-quadrature for I(t, r, .): nodes s_k and weights W_k with
    I = sum_k W_k M^{s_k} phi(r). Unit panels on [0, t-1], then the
    sigma-substituted endpoint panel on [max(t-1,0), t]."""
    n_sigma = max(8, q.nodes_outer // 4)
    n_reg = max(6, q.nodes_outer // 8)
    xg, wg = leggauss(n_sigma)
    t_break = max(t - 1.0, 0.0)

    sig1 = np.sqrt(2.0 * np.cosh(t) - 2.0 * np.cosh(t_break))
    sig = 0.5 * sig1 * (xg + 1.0)
    w_end = 0.5 * sig1 * wg
    delta = (np.cosh(t) - 1.0) - 0.5 * sig**2
    delta = np.maximum(delta, 0.0)
    s_end = np.log1p(delta + np.sqrt(delta * (delta + 2.0)))

    if t_break == 0.0:
        return s_end, w_end

    xg2, wg2 = leggauss(n_reg)
    n_panels = int(np.ceil(t_break))
    edges = np.linspace(0.0, t_break, n_panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    s_reg = (mids[:, None] + halfs[:, None] * xg2[None, :]).ravel()
    w_reg = (halfs[:, None] * wg2[None, :]).ravel()
    w_reg = w_reg * np.sinh(s_reg) / np.sqrt(2.0 * np.cosh(t) - 2.0 * np.cosh(s_reg))
    return np.concatenate([s_reg, s_end]), np.concatenate([w_reg, w_end])


def sine_propagator(phi, t, r, q=QuadratureConfig()):
    """Solution at (t, r) of the shifted linear wave equation with data (0, phi).

    The outer s-rule of _propagator_nodes with the spherical means of all
    its nodes in one _mean_nodes list, at the settled angular level.
    """
    if t < 0 or r < 0:
        raise DomainError("sine_propagator needs t >= 0 and r >= 0")
    if t == 0.0:
        return 0.0
    prof = _as_profile(phi)
    s, ws = _propagator_nodes(t, q)
    return _settle(prof, s, ws, r, q, f"sine propagator at (t={t}, r={r})")


def linear_field(phi, t_grid, r_grid, q=QuadratureConfig()):
    """sine_propagator evaluated on a full (t, r) grid.

    Each time level is the first level of sine_propagator's rule (n0 + 4
    angular nodes, panels broken at the profile's knots): the nodes of
    every (s-node, radius) pair come from one _mean_nodes list, the profile
    is evaluated on each chunk of nodes, and the weighted values are summed
    to their radii with one bincount.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    prof = _as_profile(phi)
    n_gl = _first_level(q) + 4
    out = np.zeros((t_grid.size, r_grid.size))
    for i, t in enumerate(t_grid):
        if t > 0.0:
            s, ws = _propagator_nodes(t, q)
            out[i] = _mean_sum(prof, s, ws, r_grid, n_gl)
    return SpaceTimeField(t_grid, r_grid, out)


# ---------------------------------------------------------------------------
# Duhamel


def _time_weights(i):
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
        head = _time_weights(i - 3)
        w[: i - 2] += head
        w[i - 3 :] += np.array([3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0])
    return w


def _lag_weights(n_t):
    """Time weights (units of dt) of the Duhamel convolution on n_t rows.

    Entry [c, k] weighs source row k in output row i = k + d, with c = d
    for the lags d = 1, 2, 3 and c = 0 for d >= 4, so that it equals
    _time_weights(i)[k] for every k < i (the lag-0 propagator vanishes).
    Row 0 is the Simpson weight b(k); rows 1..3 add the end corrections
    of the trapezoid row i = 1 and of the 3/8 tail on odd rows i >= 3.
    """
    b = np.full(n_t, 2.0 / 3.0)
    b[1::2] = 4.0 / 3.0
    b[0] = 1.0 / 3.0
    w = np.tile(b, (4, 1))
    w[1, 0] += 1.0 / 6.0
    w[1, 2::2] += 11.0 / 24.0
    w[2, 1::2] -= 5.0 / 24.0
    w[3, 0::2] += 1.0 / 24.0
    return w


def duhamel(F, t, r, q=QuadratureConfig()):
    """int_0^t I(t - tau, r, F(tau, .)) dtau for a gridded source F.

    t must lie on the source's time grid; the source grid must cover the
    backward light cone of (t, r).
    """
    if r < 0:
        raise DomainError("duhamel needs r >= 0")
    i = F.time_index(t)
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
        total += w[k] * sine_propagator(F.slice_profile(k), lag, r, q)
    return float(total)


# The 4-point Lagrange stencil on l0-1 .. l0+2 at xi = lam/dr - l0 in
# monomial form: row o (offset o - 1) holds the coefficients of xi^0 .. xi^3.
_STENCIL = np.array([[0.0, -1.0 / 3.0, 0.5, -1.0 / 6.0],
                     [1.0, -0.5, -1.0, 0.5],
                     [0.0, 1.0, 0.5, -0.5],
                     [0.0, -1.0 / 6.0, 0.0, 1.0 / 6.0]])


class PropagatorTable:
    """Precomputed linear propagation on a fixed rectangular grid.

    For each time lag d the table stores a matrix A[d] with
    I(d*dt, r_j, f) ~= sum_l A[d, j, l] f(lam_l) for radial profiles f
    sampled on the r grid itself; profile values at quadrature nodes are
    reconstructed by 4-point (cubic) Lagrange interpolation with even
    reflection through the origin. Sources are treated as zero beyond the
    last grid radius, so Duhamel values are exact (up to quadrature and
    interpolation) inside the triangle t + r <= r_max and truncated
    outside it. The time grid starts at 0, so that row i is lag i.

    A[d] is built from the first level of sine_propagator's rule at
    t = d*dt (n0 + 4 angular nodes, both angular ends pinned, no knots:
    the data are grid samples), from _mean_nodes' flat panel list, by
    cell moments: a node at lam = dr (l0 + xi), 0 <= xi < 1, adds w xi^p
    (p = 0..3) to the moments of its cell (j, l0), four bincounts over one
    flat index; nodes past the grid share one dump cell. The stencil's
    monomial coefficients then turn the moments of cell l0 into the
    entries l0-1 .. l0+2 of row j, the entry -1 folds onto 1 (the even
    reflection) and the columns >= n_r are dropped.

    apply_linear contracts the table against a sampled data profile.
    duhamel_field evaluates the source integral on the whole grid, for one
    source or a stack of them, as a causal convolution in time: Simpson
    weights with end corrections, one matrix product per lag.
    """

    def __init__(self, t_grid, r_grid, q=QuadratureConfig()):
        t_grid = np.asarray(t_grid, dtype=float)
        r_grid = np.asarray(r_grid, dtype=float)
        if t_grid.size < 2 or r_grid.size < 2:
            raise DomainError("PropagatorTable needs at least a 2x2 grid")
        dt = t_grid[1] - t_grid[0]
        dr = r_grid[1] - r_grid[0]
        if not np.allclose(np.diff(t_grid), dt, rtol=1e-9) or t_grid[0] != 0.0:
            raise DomainError("PropagatorTable requires a uniform time grid from 0")
        if not np.allclose(np.diff(r_grid), dr, rtol=1e-9) or r_grid[0] != 0.0:
            raise DomainError("PropagatorTable requires a uniform radius grid from 0")
        self.t_grid = t_grid
        self.r_grid = r_grid
        self.dt = dt
        self.dr = dr
        self.quad = q
        n_t, n_r = t_grid.size, r_grid.size
        A = np.zeros((n_t, n_r, n_r))
        for d in range(1, n_t):
            A[d] = self._lag_matrix(d * dt)
        self._A = A

    def _lag_matrix(self, t):
        n_r = self.r_grid.size
        width = n_r + 2  # cells l0 = 0 .. n_r, then the dump cell
        mom = np.zeros((4, n_r * width))
        inv_dr = 1.0 / self.dr
        s, ws = _propagator_nodes(t, self.quad)
        n_gl = _first_level(self.quad) + 4
        for row, lam, w in _mean_nodes(s, ws, self.r_grid, n_gl):
            pos = lam * inv_dr
            l0 = np.floor(pos)
            xi = pos - l0
            # from l0 = n_r + 1 on, the whole stencil lies past the grid
            cell = np.minimum(l0, n_r + 1).astype(np.intp)
            # rows ascend, so a chunk touches the moments of rows lo..hi-1
            lo, hi = row[0], row[-1] + 1
            flat = (row - lo) * width + cell
            part = mom[:, lo * width:hi * width]
            for p in range(4):
                part[p] += np.bincount(flat, weights=w, minlength=part.shape[1])
                w = w * xi
        # entry l0 + o - 1 of row j gets sum_p _STENCIL[o, p] mom[p, j, l0]
        coef = np.tensordot(_STENCIL, mom.reshape(4, n_r, width), axes=1)
        M = np.zeros((n_r, width + 3))
        for o in range(4):
            M[:, o:o + width] += coef[o]
        M[:, 2] += M[:, 0]  # even reflection through r = 0: entry -1 is entry 1
        return M[:, 1:n_r + 1]

    def apply_linear(self, data_values):
        """Field of I(t_i, r_j, f) for f sampled on the r grid (zero beyond)."""
        data_values = np.asarray(data_values, dtype=float)
        if data_values.shape != self.r_grid.shape:
            raise DomainError("data must be sampled on the table's r grid")
        return np.tensordot(self._A, data_values, axes=([2], [0]))

    def duhamel_field(self, source_values):
        """int_0^{t_i} I(t_i - tau, r_j, F(tau, .)) dtau for all (i, j).

        source_values is the source sampled on the grid, shape (n_t, n_r),
        or a stack of m sources, shape (m, n_t, n_r), whose m fields come
        back stacked the same way. The time integral is the causal
        convolution out[i] = dt sum_{d=1..i} A[d] (w_d F)[i - d]: one
        matrix product per lag d over all rows and sources. w_d is the
        Simpson weight b(k), with the end corrections of the trapezoid
        row i = 1 and of the 3/8 tail on odd rows i >= 3 carried by the
        lags 1..3 (_lag_weights), so every row gets the _time_weights(i)
        rule.
        """
        F = np.asarray(source_values, dtype=float)
        n_t, n_r = self.t_grid.size, self.r_grid.size
        if F.ndim not in (2, 3) or F.shape[-2:] != (n_t, n_r):
            raise DomainError(
                f"source must be sampled on the table's grid: shape "
                f"({n_t}, {n_r}) or (m, {n_t}, {n_r}), got {F.shape}")
        # time-major, so the rows of all sources at one lag form one matrix
        src = np.moveaxis(F.reshape(-1, n_t, n_r), 1, 0)
        m = src.shape[1]
        w = (_lag_weights(n_t) * self.dt)[:, :, None, None]
        simpson = w[0] * src
        out = np.zeros((n_t, m, n_r))
        for d in range(1, n_t):
            rows = n_t - d
            g = simpson[:rows] if d >= 4 else w[d, :rows] * src[:rows]
            out[d:] += (g.reshape(-1, n_r) @ self._A[d].T).reshape(rows, m, n_r)
        return np.moveaxis(out, 1, 0).reshape(F.shape)


# ---------------------------------------------------------------------------
# the W operator and its companions


def beta_identity_check(b, c, a, q=QuadratureConfig()):
    """int_b^c a'(s) [(a(c)-a(s))(a(s)-a(b))]^{-1/2} ds; equals pi always.

    Computed with the substitution x = s^2 (a is even, so the integrand is
    smooth in x) followed by the Chebyshev-Gauss rule; the square-root
    pair is absorbed through difference quotients so nothing singular is
    ever evaluated.
    """
    if not 0 <= b < c:
        raise DomainError("beta_identity_check needs 0 <= b < c")
    x, w = cg_nodes(q.nodes_inner, b * b, c * c)
    s = np.sqrt(x)
    g = (a.da(s) / (2.0 * s)) / np.sqrt(
        a.dq_of_squares(c * c, x) * a.dq_of_squares(x, b * b))
    return float(np.dot(w, g))


def _w_inner(t, r, lam, a, q, kappa_switch=0.75):
    """Inner s-integral of W at fixed lam, over s in [b, c] with the
    remaining factor (a(M)-a(s))^{-1/2}; b = |r-lam|, {c, M} = {t, r+lam}.

    Away from the singular line kappa -> 1 this is the Beta-type integral
    on Chebyshev-Gauss nodes in x = s^2; near it the exact reduction to
    the complete elliptic integral takes over:
        inner = 2 K(kappa) / sqrt(a(M) - a(b)).
    """
    b = abs(r - lam)
    c = min(t, r + lam)
    M = max(t, r + lam)
    if c <= b:
        return 0.0
    amb = a.a(M) - a.a(b)
    kap = (a.a(c) - a.a(b)) / amb
    if kap > kappa_switch:
        from scipy.special import ellipk

        return 2.0 * ellipk(min(kap, 1.0 - 1e-16)) / np.sqrt(amb)
    x, w = cg_nodes(q.nodes_inner, b * b, c * c)
    s = np.sqrt(x)
    g = (a.da(s) / (2.0 * s)) / np.sqrt(
        a.dq_of_squares(c * c, x) * a.dq_of_squares(x, b * b))
    extra = 1.0 / np.sqrt(a.a(M) - a.a(s))
    return float(np.dot(w, g * extra))


def W_evaluator(t, r, f, a, q=QuadratureConfig()):
    """The double integral W(t, r, f) of the appendix lemma.

    Fubini order: lam outside, s inside. The inner integral is Beta-type
    and evaluated by _w_inner; the outer integral is adaptive, split at
    lam = |t - r| where (for t > r) the inner value has a logarithmic
    singularity. At r = 0 the s-interval shrinks to the point lam and the
    inner value to pi (a(t) - a(lam))^{-1/2}, so W is the single integral
    pi int_0^t f(lam) (a(t) - a(lam))^{-1/2} dlam, signed as f.
    """
    if t < 0 or r < 0:
        raise DomainError("W_evaluator needs t >= 0 and r >= 0")
    prof = _as_profile(f)
    lo = max(r - t, 0.0)
    hi = r + t
    if hi <= lo or t == 0.0:
        return 0.0
    if r == 0.0:
        return _line_integral(t, r, prof, a, q, signed=True)
    from scipy.integrate import quad

    def g(lam):
        return float(prof(np.asarray([lam]))[0]) * _w_inner(t, r, lam, a, q)

    kink = abs(t - r)
    edges = [lo, hi]
    if lo < kink < hi:
        edges = [lo, kink, hi]
    total = 0.0
    for aa, bb in zip(edges[:-1], edges[1:]):
        res = quad(g, aa, bb, epsabs=q.abs_tol, epsrel=q.rel_tol,
                   limit=200, full_output=1)
        if len(res) > 3:
            raise QuadratureError(
                f"W outer integral on [{aa:.3g}, {bb:.3g}] at (t={t}, r={r}): {res[3]}")
        total += res[0]
    return total


def _line_integral(t, r, prof, a, q, signed):
    """pi int f(lam) |a(r+lam) - a(t)|^{-1/2} dlam over [r - t, r + t]
    (r >= t) or [0, t + r] (t > r), with |f| unless signed."""
    from scipy.integrate import quad

    def g(lam):
        d = abs(a.a(r + lam) - a.a(t))
        if d == 0.0:
            return 0.0
        v = float(prof(np.asarray([lam]))[0])
        return (v if signed else abs(v)) / np.sqrt(d)

    if r >= t:
        lo, hi, pts = r - t, r + t, []
    else:
        lo, hi, pts = 0.0, t + r, [t - r]
    edges = [lo] + [p for p in pts if lo < p < hi] + [hi]
    total = 0.0
    for aa, bb in zip(edges[:-1], edges[1:]):
        val, _ = quad(g, aa, bb, epsabs=q.abs_tol, epsrel=q.rel_tol, limit=200)
        total += val
    return np.pi * total


def w_majorant(t, r, f, a, q=QuadratureConfig()):
    """The single-integral bound on |W| from the appendix lemma.

    r >= t:  pi int_{r-t}^{r+t} |f| (a(r+lam) - a(t))^{-1/2} dlam;
    t > r:   pi int_0^{t+r} |f| |a(r+lam) - a(t)|^{-1/2} dlam,
    the latter with an integrable singularity at lam = t - r.
    """
    return _line_integral(t, r, _as_profile(f), a, q, signed=False)


# ---------------------------------------------------------------------------
# the R operator


def r_operator(v, t, a, q=QuadratureConfig()):
    """Rv(t) = int_0^t (a'(s)/2) (a(t) - a(s))^{-1/2} v(s) ds.

    The substitution u^2 = a(t) - a(s) flattens the kernel to du exactly,
    and writing u = sqrt(a(t) - a(0)) sin(psi) makes s an analytic function
    of psi at both endpoints (s is linear in pi/2 - psi near s = 0), so a
    single Gauss-Legendre rule in psi converges spectrally.
    """
    if t < 0:
        raise DomainError("r_operator needs t >= 0")
    if t == 0.0:
        return 0.0
    a_t, a_0 = float(a.a(t)), float(a.a(0.0))
    U = np.sqrt(a_t - a_0)
    xg, wg = leggauss(max(8, q.nodes_outer // 2))
    psi = 0.25 * np.pi * (xg + 1.0)
    w = 0.25 * np.pi * wg * U * np.cos(psi)
    arg = a_t * np.cos(psi) ** 2 + a_0 * np.sin(psi) ** 2
    s = a.inv(arg)
    vals = np.asarray([float(v(si)) for si in s])
    return float(np.dot(w, vals))


def dt_r_bound_check(v, dv, t, a, q=QuadratureConfig()):
    """Check |d/dt Rv| <= (a'(t)/2)(a(t)-a(0))^{-1/2} |v(t)| + R|dv|(t).

    Returns (lhs, rhs): lhs by central differencing of r_operator, rhs
    assembled from the two terms of the bound.
    """
    step = 1e-5 * max(1.0, t)
    if t <= step:
        raise DomainError("t too small for the differencing stencil")
    lhs = abs(r_operator(v, t + step, a, q) - r_operator(v, t - step, a, q)) / (2 * step)
    rhs = 0.5 * float(a.da(t)) / np.sqrt(float(a.a(t)) - float(a.a(0.0))) * abs(float(v(t)))
    rhs += r_operator(lambda s: abs(float(dv(s))), t, a, q)
    return lhs, rhs


# ---------------------------------------------------------------------------
# explicit lower bounds for the propagator


def _gl_integrals(fn, lo, hi, q, per_unit=2.0):
    """Composite Gauss-Legendre integrals of fn over [lo_k, hi_k], each on
    ~unit-width panels; 0 where hi_k <= lo_k.

    The panels of [lo_k, hi_k] are those of np.linspace(lo_k, hi_k, n + 1):
    edge i at lo_k + i (hi_k - lo_k)/n, the last one at hi_k. fn is
    evaluated once, on the nodes of all intervals together, and each
    integral is its own dot product over its own nodes and weights, so it
    keeps the bits of a one-interval call.
    """
    xg, wg = leggauss(max(8, q.nodes_outer // 8))
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    live = hi > lo
    width = np.where(live, hi - lo, 0.0)
    n = np.where(live, np.maximum(1.0, np.ceil(width * per_unit)), 0.0)
    n = n.astype(np.intp)
    owner = np.repeat(np.arange(lo.size), n)
    i = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    step = width[owner] / n[owner]
    left = i * step + lo[owner]
    right = np.where(i + 1 == n[owner], hi[owner], (i + 1) * step + lo[owner])
    mids = 0.5 * (right + left)
    halfs = 0.5 * (right - left)
    w = (halfs[:, None] * wg).ravel()
    vals = fn((mids[:, None] + halfs[:, None] * xg).ravel())
    cuts = [0] + (np.cumsum(n) * xg.size).tolist()
    return np.array([np.dot(w[a:b], vals[a:b])
                     for a, b in zip(cuts[:-1], cuts[1:])])


def kernel_lower_integral(phi, t, r, q=QuadratureConfig()):
    """int_{|r-t|}^{r+t} phi(lam) sinh(lam) (2 cosh(r+lam))^{-1/2} dlam.

    This is the explicit intermediate bound: I(t, r, phi) dominates it for
    nonnegative phi. Written with exponentials kept in log form so large
    r + lam cannot overflow.
    """
    prof = _as_profile(phi)
    half_log2 = 0.5 * np.log(2.0)

    def fn(lam):
        # sinh(lam) / sqrt(2 cosh(r + lam)), assembled in log space so the
        # two exponentially large factors cancel before exponentiation
        log_kernel = log_sinh(lam) - half_log2 - 0.5 * log_cosh(r + lam)
        return prof(lam) * np.exp(log_kernel)

    return float(_gl_integrals(fn, [abs(r - t)], [r + t], q)[0])


def default_C0(tau0):
    """C0 = (1/2) sqrt(tanh(tau0/8) tanh(tau0/2)), from the proof's
    pointwise inequality (tanh lam tanh r)^{1/2} >= 2 C0 on the relevant
    ranges; always in (0, 1/2]."""
    if tau0 <= 0:
        raise DomainError("tau0 must be positive")
    return min(1.0, 0.5 * np.sqrt(np.tanh(tau0 / 8.0) * np.tanh(tau0 / 2.0)))


def lower_bound_I(phi, t, r, tau0, C0=None, q=QuadratureConfig()):
    """The two explicit propagator lower bounds at (t, r).

    Returns (bound_large, bound_small): bound_large integrates phi
    (sinh lam)^{1/2} from max(t, r) to t + r; bound_small lowers the limit
    to |t - r| and is present (not None) only when |t - r| > tau0/8. Both
    require r > tau0/2.

    t and r may be arrays (they broadcast): then both bounds come back as
    arrays of that shape, bound_small NaN where it is absent, and phi is
    evaluated once on the nodes of every point's integrals.
    """
    if tau0 <= 0:
        raise DomainError("tau0 must be positive")
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                               np.asarray(r, dtype=float))
    if np.any(r <= tau0 / 2.0):
        raise DomainError(f"lower_bound_I needs r > tau0/2 = {tau0 / 2.0}; "
                          f"got r = {r[r <= tau0 / 2.0].min()}")
    if C0 is None:
        C0 = default_C0(tau0)
    if not 0.0 < C0 <= 1.0:
        raise DomainError("C0 must lie in (0, 1]")
    prof = _as_profile(phi)
    pref = C0 * np.exp(-0.5 * log_sinh(r))

    def fn(lam):
        return prof(lam) * np.exp(0.5 * log_sinh(lam))

    hi = t + r
    wide = np.abs(t - r) > tau0 / 8.0
    ints = _gl_integrals(fn, np.concatenate([np.maximum(t, r).ravel(),
                                             np.abs(t - r)[wide]]),
                         np.concatenate([hi.ravel(), hi[wide]]), q)
    bound_large = pref * ints[:hi.size].reshape(hi.shape)
    bound_small = np.full(hi.shape, np.nan)
    bound_small[wide] = pref[wide] * ints[hi.size:]
    if hi.ndim == 0:
        return bound_large[()], (bound_small[()] if wide else None)
    return bound_large, bound_small
