"""Spherical means and wave propagation on the hyperbolic plane.

This module is the integral-kernel engine of the package. Everything the
solver layers need is built from four pieces:

* the radial spherical mean
      M^t f(r) = (1/pi) int_{|r-t|}^{r+t} f(lam) sinh(lam)
                 [(cosh(r+t) - cosh lam)(cosh lam - cosh(r-t))]^{-1/2} dlam,
* the sine-type propagator
      I(t, r, phi) = int_0^t sinh(s) (2 cosh t - 2 cosh s)^{-1/2} M^s phi(r) ds,
  which solves the shifted linear wave equation with data (0, phi) and is
  evaluated through its closed-form kernel in lam,
* the Duhamel integral of a space-time source on a grid, a causal
  convolution in time that PropagatorTable does by FFT over the lag
  axis, with the end corrections of the time rule added directly, and
* the W double integral, its single-integral majorant and the R
  smoothing operator for a general even monotone weight a(s), together
  with their closed-form companions (the Beta identity and the explicit
  propagator lower bounds).

The inner s-integral of W is a complete elliptic integral, so for every
weight a, W(t, r, f) = int f(lam) 2 K(kappa) / sqrt(a(M) - a(b)) dlam
over max(r - t, 0) < lam < r + t, with b = |r - lam|, c = min(t, r + lam),
M = max(t, r + lam) and kappa = (a(c) - a(b)) / (a(M) - a(b)); and
I(t, r, phi) = W(t, r, phi sinh, 2cosh) / pi. W's majorant
pi int |f| (a(M) - a(c))^{-1/2} dlam lives on the same domain, with its
square-root branch at the same lam*. One node builder
(_kernel_nodes) lists that lam-rule for a set of (t, r) points, every
radius of one time, a block of lags or a whole grid: each side of the log
singularity lam* = |t - r| is mapped by lam = lam* +- H u^2 and graded
geometrically toward its nearest non-analytic point (u = 0, or for a
right side with t < r, which is analytic there, u = i y at the lam = 0
branch or the nearest knot), with panels on the table's grid cells (so
each integrates one cubic of the interpolant) or on unit steps and the
profile's knots. It builds the panels one group of points at a time,
in six tiers by side of lam* and node count, and queues each tier's
panels across groups; its evaluator yields chunks of one tier, full
but for each tier's last, node-major (one row per node index, one
column per panel), from buffers that the chunks reuse. 1 - kappa and a(M) - a(b) come from the
weight's product form (MonotoneWeight.s) as ratios and roots of factors
of like size.
The table reduces each panel of a block of whole lags, at most
_POINT_BLOCK points and built as one group, to the moments w xi^p of
its grid cell. Every other consumer sums panels to points through one
evaluator, _kernel_sums, which hands all its points to one builder
call in groups of _POINT_BLOCK: linear_field at one node level,
sine_propagator, W_evaluator, w_majorant and
globalsolver.claim_bound_check settled over doubling node levels.

The spherical mean keeps a rule of its own, the independent check of its
identities: cosh(lam) = midpoint + halfwidth*cos(theta) removes both
endpoint singularities, on panels geometric in cosh(lam), so that the
dynamic range at large t + r costs only O(log cosh(t+r)) panels.

All operations are pure; grid sweeps share no mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .hypgeo import DomainError, cg_nodes, log_cosh, log_sinh

__all__ = [
    "QuadratureError",
    "RadialProfile",
    "SpaceTimeField",
    "MonotoneWeight",
    "spherical_mean",
    "sine_propagator",
    "linear_field",
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

_PANEL_RATIO = 3.0  # growth factor of the mean's cosh(lam) panel breakpoints
_DEGENERATE_REL = 1e-13
_NODE_CHUNK = 1 << 14  # Gauss nodes _kernel_nodes expands at a time
# (t, r) points per panel group of _kernel_sums' _kernel_nodes call, and
# per table lag block (whole lags, at least one), built as one group
_POINT_BLOCK = 256
_SPECTRUM_SLAB = 8  # columns of every lag matrix per matrix product of _lag_spectrum
_GRADE_RATIO = 0.2  # ratio of the kernel rule's graded breaks in u
_GRADE_DEPTH = 1e-4  # deepest graded break in u, lam* + 1e-8 of the side
_GRADE_REACH = 0.25  # deepest graded break of a side analytic at u = 0, in its y
_GL_PER_UNIT = 2.0  # panels per unit length of the lower bounds' integrals
_GL_NODES = 16  # Gauss nodes per panel of the lower bounds' integrals
_MEAN_LEVEL = 12  # Gauss nodes per angular panel, the mean's first level
_KERNEL_LEVEL = 8  # Gauss nodes per panel, the kernel rule's first level
_CG_NODES = 64  # Chebyshev-Gauss nodes of beta_identity_check
_R_NODES = 64  # Gauss-Legendre nodes in psi of r_operator
_ABS_TOL = 1e-10  # _settle: two levels agree within max(_ABS_TOL, _REL_TOL |v|)
_REL_TOL = 1e-8
# (least m1, steps): _agm_K's step count for a call whose smallest m1 is
# at least the bound. Each gave seven steps' bits on 3e7 samples above
# its bound; below, differences begin at 0.273, 6.2e-3, 2.5e-6, 3.8e-13
_AGM_STEPS = ((0.35, 3), (0.01, 4), (1e-5, 5), (1e-12, 6))


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
    """A quadrature rule failed to settle within _ABS_TOL and _REL_TOL."""


# ---------------------------------------------------------------------------
# profiles and fields


class RadialProfile:
    """A radial function on [0, inf) given by a callable, or the constant
    function of a number.

    A profile with ``support_radius`` set returns 0 beyond that radius.
    ``knots`` are the abscissae where it is merely C^1; the mean's rule
    and the kernel rule (the propagator, W and W's majorant) break their
    panels there, so convergence stays spectral. Without knots, the
    support edge is the one knot.
    """

    def __init__(self, f, *, support_radius=None, knots=None):
        if not callable(f):
            value = float(f)
            f = lambda lam: np.full_like(lam, value)
        self._func = f
        self.support_radius = support_radius
        if knots is None and support_radius is not None:
            knots = np.asarray([support_radius])
        self.knots = knots

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


class MonotoneWeight:
    """An even C^1 weight a(s) with a'(s) > 0 for s > 0.

    Carries, besides a and a', the inverse of a on [0, inf) and the
    function s of its product form (DLMF 4.35)

        a(x) - a(y) = 4 s((x + y)/2) s((x - y)/2):

    s = sinh for 2cosh and the identity for s^2, each a ufunc that takes
    out=. s lets the kernel rule form ratios and roots of a(M) - a(b)
    from factors of like size, without the difference, which cancels, or
    the product, which underflows when both lengths are tiny, and keeps
    the Beta identity's integrand accurate when two abscissae nearly
    coincide. Construction verifies the two conditions required of the
    weight (positivity of a' and monotonicity of the smoothed derivative
    quotient) on a sample grid.
    """

    def __init__(self, name, a, da, inv, s):
        self.name = name
        self.a = a
        self.da = da
        self.inv = inv
        self.s = s
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
            s=np.sinh,
        )

    @classmethod
    def s_squared(cls):
        return cls(
            "s^2",
            a=lambda s: np.square(np.asarray(s, dtype=float)),
            da=lambda s: 2.0 * np.asarray(s, dtype=float),
            inv=lambda y: np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0)),
            s=np.positive,
        )


def _as_profile(f):
    return f if isinstance(f, RadialProfile) else RadialProfile(f)


# ---------------------------------------------------------------------------
# the spherical mean


def _mean_nodes(t, r, knots=None):
    """The mean's rule for M^t f(r): None when the sphere is degenerate (t
    or r ~ 0, where the mean is f(max(r, t))), else nodes(n_gl) giving
    (lam, w) with M^t f(r) ~= sum w f(lam).

    The panels are geometric in y = cosh(lam) between cosh(r - t) and
    cosh(r + t), broken also at the knots inside that range, and built
    once; nodes(n_gl) puts n_gl Gauss nodes on each in the substituted
    angle theta = arccos((y - mbar) / hbar). Both angular ends are set
    exactly, so the weights sum to one. lam is recovered through log1p on
    delta = y - 1 assembled from exact nonnegative pieces, which keeps
    nodes accurate near lam = 0 even when cosh(r + t) is ~1e10.
    """
    c_lo = np.cosh(r - t)
    c_hi = np.cosh(r + t)
    if c_hi - c_lo <= _DEGENERATE_REL * c_hi:
        return None
    span = np.log(c_hi / c_lo)
    n_pan = int(np.ceil(span / np.log(_PANEL_RATIO)))
    mbar = 0.5 * (c_hi + c_lo)
    hbar = 0.5 * (c_hi - c_lo)
    th = np.arange(n_pan + 1) / n_pan
    if knots is not None:
        f_knot = (log_cosh(np.asarray(knots, dtype=float)) - np.log(c_lo)) / span
        th = np.sort(np.concatenate([th, np.clip(f_knot, 0.0, 1.0)]))
    bottom, top = th == 0.0, th == 1.0
    th = np.arccos(np.clip((np.exp(th * span) * c_lo - mbar) / hbar, -1.0, 1.0))
    # near +-1 arccos turns the rounding of its argument into angle errors
    # up to ~1e-7, a weight lost at the end panels: set both ends exactly
    th[bottom] = np.pi  # theta decreases with y
    th[top] = 0.0
    half = 0.5 * (th[:-1] - th[1:])
    p = np.flatnonzero(half)
    mid, half = 0.5 * (th[p] + th[p + 1]), half[p]

    def nodes(n_gl):
        xg, wg = leggauss(n_gl)
        theta = mid[:, None] + half[:, None] * xg
        w = (half[:, None] * wg) / np.pi
        delta = (c_lo - 1.0) + 2.0 * hbar * np.cos(theta / 2.0) ** 2
        lam = np.log1p(delta + np.sqrt(delta * (delta + 2.0)))
        return lam.ravel(), w.ravel()

    return nodes


def _settle(value, levels, what):
    """value(n) at the fine level of the first pair of node levels (coarse,
    fine) that agrees within _ABS_TOL and _REL_TOL; QuadratureError when
    even the last pair disagrees. Each level is evaluated once."""
    value = lru_cache(value)
    for coarse_n, fine_n in levels:
        coarse, fine = value(coarse_n), value(fine_n)
        err = abs(fine - coarse)
        if err <= max(_ABS_TOL, _REL_TOL * max(abs(coarse), abs(fine))):
            return fine
    raise QuadratureError(
        f"{what} did not settle: the finest refinement still moved the "
        f"value by {err:.3e}")


def spherical_mean(f, t, r):
    """The mean of a radial profile over the geodesic sphere of radius t at r.

    The rule of _mean_nodes with the profile's knots, settled over the
    angular levels (n, n + 4), n = n0, 2 n0, 4 n0 with n0 = _MEAN_LEVEL;
    t = 0 returns f(r) exactly. It shares nothing with the propagation
    kernel, so it checks the mean's identities independently.
    """
    if t < 0 or r < 0:
        raise DomainError("spherical_mean needs t >= 0 and r >= 0")
    prof = _as_profile(f)
    if t == 0.0:
        return float(prof(np.asarray([r]))[0])
    nodes = _mean_nodes(t, r, prof.knots)
    if nodes is None:
        return float(prof(np.asarray([max(r, t)]))[0])

    def value(n_gl):
        lam, w = nodes(n_gl)
        return float(np.cumsum(w * prof(lam))[-1])  # summed in node order

    n0 = _MEAN_LEVEL
    return _settle(value, [(n, n + 4) for n in (n0, 2 * n0, 4 * n0)],
                   f"spherical mean at (t={t}, r={r})")


# ---------------------------------------------------------------------------
# the propagation kernel


def _agm_K(m1, work=None):
    """The complete elliptic integral K(kappa) from the complement
    m1 = 1 - kappa in [0, 1]: pi / (2 AGM(1, sqrt(m1))) (DLMF 19.8.1).

    Seven steps of the arithmetic-geometric mean settle it to 6e-16 for
    m1 >= 1e-25 (2.4e-15 at 1e-30); m1 = 0 gives a large finite value,
    never inf. Fewer steps give seven steps' bits once the smallest m1
    of the call is large enough, so the call runs the step count of
    _AGM_STEPS for its smallest m1 (seven for a NaN). The first step,
    from a = 1, is written out. work, a pair of arrays of m1's shape,
    lets the steps run in place: m1 is overwritten and K comes back in
    work[0]. Each step rounds as 0.5 (a + b), sqrt(a b) does.
    """
    if work is None:
        m1 = np.array(m1, dtype=float)
        work = np.empty_like(m1), np.empty_like(m1)
    least = np.min(m1, initial=1.0)
    steps = next((k for bound, k in _AGM_STEPS if least >= bound), 7)
    a, b = work
    np.sqrt(m1, out=b)
    np.add(b, 1.0, out=a)
    a *= 0.5
    np.sqrt(b, out=b)
    for _ in range(steps - 1):
        np.multiply(a, b, out=m1)
        a += b
        a *= 0.5
        np.sqrt(m1, out=b)
    a += b
    return np.divide(np.pi, a, out=a)


def _kernel_nodes(t, r, a, step, knots=None, lam_max=np.inf, majorant=False,
                  group=None):
    """The rule for int f(lam) k_a(t_k, r_k, lam) dlam at every point
    (t_k, r_k), k_a = 2 K(kappa) / sqrt(a(M) - a(b)), or with majorant
    k_a = pi / sqrt(a(M) - a(c)), cut at lam_max; t and
    r are arrays that broadcast, so a scalar t serves every radius.
    Returns nodes(n_gl), which yields chunks (row, lam, w): row, shape
    (panels,), names each panel's point, and lam and w, shape
    (n, panels), hold its n nodes and weights in column i for panel i,
    so that the integral at point k ~= sum of w f(lam) over the columns
    with row == k. The layout is node-major so that every per-panel
    operand of the evaluator broadcasts along the long axis. row, lam and
    w are fresh arrays the consumer owns; the evaluator's intermediates
    live in buffers that every chunk of one nodes() call reuses.

    The panels are built one group at a time: a group is `group`
    consecutive points (all of them by default), and the last group's
    panels are kept, so a one-group call builds them once for every
    level. A group's panels fall into six tiers, one per side of lam*
    (right, left) and node count n (close, middle, far; see below). Each
    tier queues its panels, rows ascending, across groups and yields
    them in chunks of at most _NODE_CHUNK nodes, one evaluation each;
    only its last chunk is partial. A one-group call yields the tiers in
    turn, each one's chunks in panel order.

    k_a has a log singularity at lam* = |t - r| (t >= r) and square-root
    branches 2r and |t - r| away from it. lam = lam* +- H u^2 (H the
    side's length) makes a branch at lam* itself (r = 0, r = t) regular.
    In u the panels break at 0.5 * _GRADE_RATIO^k, at the multiples of
    step and at the knots. Gauss-Legendre error on a panel is set by its
    nearest complex singularity, so the graded breaks go toward the
    side's nearest non-analytic point u = i y. A right side with t < r
    is analytic at u = 0: y^2 H is the distance from lam* to the lam = 0
    branch (r - t) or to the nearest knot, whichever is less, and its
    breaks stop at _GRADE_REACH y. Every other side (left sides, right
    sides with t >= r, a knot at lam*) has y = 0 and breaks down to
    _GRADE_DEPTH, deeper when a branch is closer than H; so does a side
    whose _GRADE_REACH y lies below that depth. A panel gets n_gl Gauss
    nodes; twice that when its centre lies within two widths of u = i y,
    three quarters when it is narrower than 1/4 in lam and eight widths
    or more away. A break within a few ulps of the side's own end t + r
    moves onto it and drops out, as the breaks past the end do, instead
    of cutting a sliver panel that the rounding of u left inside. So a
    side's panels, and every bit of its nodes and weights, do not depend
    on the other points of the call.

    Both kernels come from the weight's product form
    a(x) - a(y) = 4 s((x + y)/2) s((x - y)/2) at the node's d = H u^2:
    on the right side (M = r + lam, c = t)
        a(M) - a(c) = 4 s(max(t, r) + d/2) s(d/2 + max(r - t, 0)),
        a(M) - a(b) = 4 s(lam) s(r),
    and on the left side (M = t, c = r + lam)
        a(M) - a(c) = 4 s(t - d/2) s(d/2),
        a(M) - a(b) = 4 s(lam + d/2) s(r + d/2).
    1 - kappa is the ratio of the first factors times that of the second
    ones, and each root is a product of the factors' roots. No difference
    of nearby values and no product of two factors is formed, so K stays
    accurate up to lam* and nothing underflows for t and r down to
    1e-300. Smaller scales are outside the domain: at t = 1e-302 (r = 0)
    or a subnormal radius such as 5e-324 the factors leave the normal
    range and the weights overflow.
    """
    t, r = (x.ravel() for x in np.broadcast_arrays(np.asarray(t, dtype=float),
                                                   np.asarray(r, dtype=float)))
    group = group or max(t.size, 1)
    s = a.s

    @lru_cache(maxsize=1)
    def panels(g):
        # the panels of the points g .. g + group - 1, tier by tier: their
        # points, the operands (mid, half, t, r) that chunk() reads, one
        # row each, and where each tier starts
        t_g, r_g = t[g:g + group], r[g:g + group]
        # two sides per point: up from lam* to r + t, and (t > r) down to 0
        H = np.stack([2.0 * np.minimum(r_g, t_g), np.maximum(t_g - r_g, 0.0)], axis=1).ravel()
        side = np.flatnonzero(H > 0.0)
        H, row, right = H[side], side // 2, side % 2 == 0
        tt, rr, sgn = t_g[row], r_g[row], np.where(right, 1.0, -1.0)
        st = np.abs(tt - rr)
        near = np.where(right, st, 2.0 * rr)  # lam* to the next branch
        depth = _GRADE_DEPTH * np.where(near > 0.0, np.clip(np.sqrt(near / H), 1e-8, 1.0), 1.0)
        # u = i y, the nearest non-analytic point of a right side with t < r;
        # the nearest knot counts on either side of lam*, since one just above
        # ends a panel near u = 0 that the graded breaks still resolve
        reach = np.where(right & (tt < rr), st, 0.0)
        if knots is not None:
            gap = np.abs(st[:, None] - np.asarray(knots, dtype=float))
            reach = np.minimum(reach, gap.min(axis=1, initial=np.inf))
        y = np.sqrt(reach / H)
        depth = np.maximum(depth, _GRADE_REACH * y)
        n_grade = np.floor(np.log(2.0 * depth) / np.log(_GRADE_RATIO)) + 1
        k = np.arange(n_grade.max(initial=0))
        graded = np.where(k < n_grade[:, None], 0.5 * _GRADE_RATIO ** k, 0.0)
        # the breaks of the group's farthest-reaching point; past a side's
        # end they clip onto it and drop out
        lam_b = step * np.arange(1.0, np.ceil(min(lam_max, (t_g + r_g).max(initial=0.0)) / step))
        if knots is not None:
            lam_b = np.concatenate([lam_b, knots])
        # u of lam_max, then of the other breaks, on every side; a break
        # within 4 ulps of t + r goes to u = 1, the right side's end
        u_b = np.sqrt(np.maximum(sgn[:, None] * (np.append(lam_max, lam_b) - st[:, None]),
                                 0.0) / H[:, None])
        end = (tt + rr)[:, None]
        u_b[:, 1:][np.abs(lam_b - end) <= 4.0 * np.finfo(float).eps * end] = 1.0
        u_lo = np.where(right, 0.0, np.minimum(u_b[:, 0], 1.0))
        u_hi = np.where(right, np.minimum(u_b[:, 0], 1.0), 1.0)
        u = np.concatenate([u_lo[:, None], u_hi[:, None], graded, u_b[:, 1:]], axis=1)
        u = np.sort(np.clip(u, u_lo[:, None], u_hi[:, None]), axis=1)
        # each panel's ends lo < hi, at flat indices i and i + 1 of u; o its side
        i = np.flatnonzero(u[:, 1:] > u[:, :-1])
        o = i // (u.shape[1] - 1)
        i += o
        lo, hi = u.ravel()[i], u.ravel()[i + 1]
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        xi = np.hypot(mid, y[o]) / half  # the panel's centre in halfwidths from u = i y
        close = xi < 4.0
        far = (xi >= 16.0) & (H[o] * 4.0 * mid * half <= 0.25)
        # tiers 0, 1 close, 2, 3 middle, 4, 5 far, each on the right side,
        # then the left; a stable sort keeps each tier's rows ascending
        tier = np.where(close, 0, np.where(far, 4, 2)).astype(np.int8) + ~right[o]
        order = np.argsort(tier, kind="stable")
        ob = o[order]
        cuts = np.concatenate([[0], np.cumsum(np.bincount(tier, minlength=6))])
        return row[ob] + g, np.stack([mid[order], half[order], tt[ob], rr[ob]]), cuts

    def chunk(pool, ops, n, xg, wg, is_right):
        # lam and w, shaped (n, panels), of the panels whose (mid, half, t,
        # r) are the columns of ops, from the five node buffers in pool; a
        # function, so that no intermediate outlives it.
        # a(M) - a(c) = 4 s(P) s(Q) and a(M) - a(b) = 4 s(X) s(Y), where
        # P, Q, X and Y are turned into their s in place
        mid, half, tp, rp = ops
        st = np.abs(tp - rp)
        H = 2.0 * np.minimum(rp, tp) if is_right else np.maximum(tp - rp, 0.0)
        U, D, P, Q, X = pool[:, :n * mid.size].reshape(5, n, mid.size)
        np.multiply(xg, half, out=U)
        U += mid  # u
        np.multiply(0.5 * H, U, out=D)
        D *= U  # d/2
        lam = np.add(D, D)
        if is_right:
            lam += st
            s(np.add(D, np.maximum(tp, rp), out=P), out=P)
            s(np.add(D, np.maximum(rp - tp, 0.0), out=Q), out=Q)
            s(lam, out=X)
            Y = s(rp)
        else:
            np.subtract(st, lam, out=lam)
            s(np.subtract(tp, D, out=P), out=P)
            s(np.subtract(st, D, out=X), out=X)  # lam + d/2
            s(D, out=Q)
            Y = s(np.add(rp, D, out=D), out=D)
        if majorant:  # pi / sqrt(a(M) - a(c))
            K = np.sqrt(P, out=P)
            K *= np.sqrt(Q, out=Q)
            np.divide(0.5 * np.pi, K, out=K)
        else:
            P /= X
            Q /= Y
            P *= Q
            np.minimum(P, 1.0, out=P)  # 1 - kappa
            np.sqrt(X, out=X)
            X *= np.sqrt(Y, out=Y)
            K = _agm_K(P, work=(Q, D))
            K /= X  # 2 K / sqrt(a(M) - a(b))
        np.multiply(2.0 * H, U, out=U)  # dlam/du
        np.multiply(wg, half, out=D)
        D *= U
        return lam, np.multiply(D, K)

    def nodes(n_gl):
        # five node buffers, each as long as the largest chunk (a chunk
        # holds one panel when its 2 n_gl nodes exceed _NODE_CHUNK)
        pool = np.empty((5, max(_NODE_CHUNK, 2 * n_gl)))
        rules = []
        for times in (2.0, 1.0, 0.75):  # close, middle, far
            n = int(times * n_gl)
            xg, wg = (x[:, None] for x in leggauss(n))
            rules += [(n, xg, wg, max(_NODE_CHUNK // n, 1), is_right)
                      for is_right in (True, False)]
        # per tier, the (row, ops) of the panels that did not fill a chunk
        pending = [None] * len(rules)
        for g in range(0, t.size, group):
            last = g + group >= t.size
            rows, opss, cuts = panels(g)
            for k, (n, xg, wg, per, is_right) in enumerate(rules):
                row, ops = rows[cuts[k]:cuts[k + 1]], opss[:, cuts[k]:cuts[k + 1]]
                if pending[k] is not None:
                    row = np.concatenate([pending[k][0], row])
                    ops = np.concatenate([pending[k][1], ops], axis=1)
                stop = row.size if last else row.size - row.size % per
                for f in range(0, stop, per):
                    yield (row[f:f + per].copy(),
                           *chunk(pool, ops[:, f:f + per], n, xg, wg, is_right))
                pending[k] = (row[stop:], ops[:, stop:]) if stop < row.size else None

    return nodes


def _kernel_sums(t, r, a, knots, weigh, majorant=False):
    """sums(n_gl): the kernel rule's integrals at the points (t, r), which
    broadcast, with n_gl Gauss nodes per panel on unit panels and the
    knots. All the points go to one _kernel_nodes call, which builds
    their panels in groups of _POINT_BLOCK points and fills its chunks
    across the groups; a call of one group builds its panels once for
    every level. weigh(w, lam, row) scales a chunk's w in place by the
    integrand, row naming each panel's point; each panel is summed, and
    the panel sums go to their points with one bincount per chunk."""
    t, r = (x.ravel() for x in np.broadcast_arrays(np.asarray(t, dtype=float),
                                                   np.asarray(r, dtype=float)))
    nodes = _kernel_nodes(t, r, a, 1.0, knots, majorant=majorant, group=_POINT_BLOCK)

    def sums(n_gl):
        out = np.zeros(t.size)
        for row, lam, w in nodes(n_gl):
            weigh(w, lam, row)
            # rows ascend, so a chunk adds to the points row[0] .. row[-1]
            lo = row[0]
            out[lo:row[-1] + 1] += np.bincount(row - lo, weights=w.sum(axis=0))
            del lam, w  # before the next chunk is made
        return out

    return sums


def _settle_sums(sums, coef, what):
    """coef @ sums(n_gl) settled over the node levels n0, 2 n0, 4 n0, 8 n0
    with n0 = _KERNEL_LEVEL."""
    n0, coef = _KERNEL_LEVEL, np.asarray(coef, dtype=float)
    return _settle(lambda n_gl: float(coef @ sums(n_gl)),
                   [(n0, 2 * n0), (2 * n0, 4 * n0), (4 * n0, 8 * n0)], what)


def _times_sinh(prof):
    """weigh by the sine propagator's integrand sinh(lam) prof(lam)."""
    def weigh(w, lam, row):
        w *= np.sinh(lam)
        w *= prof(lam)
    return weigh


_TWO_COSH = MonotoneWeight.two_cosh()


# ---------------------------------------------------------------------------
# the sine-type propagator


def sine_propagator(phi, t, r):
    """Solution at (t, r) of the shifted linear wave equation with data (0, phi).

    I(t, r, phi) = W(t, r, phi sinh, 2cosh) / pi, the kernel rule settled
    over doubling node levels (_settle_sums).
    """
    if t < 0 or r < 0:
        raise DomainError("sine_propagator needs t >= 0 and r >= 0")
    if t == 0.0:
        return 0.0
    prof = _as_profile(phi)
    sums = _kernel_sums(t, r, _TWO_COSH, prof.knots, _times_sinh(prof))
    return _settle_sums(sums, [1.0], f"sine propagator at (t={t}, r={r})") / np.pi


def linear_field(phi, t_grid, r_grid):
    """sine_propagator evaluated on a full (t, r) grid.

    The grid's points, flattened t-major, go to _kernel_sums, and every
    point gets the second level (2 _KERNEL_LEVEL nodes per panel) of
    sine_propagator's rule. Points at t = 0 have no panels and stay 0.
    Against 64 nodes per panel, the second level is within 5e-8 of the
    field's largest value for a profile smooth but not analytic at its
    knots (bump_profile(1.0)'s ramps) and within 2e-14 for theta_k data
    (k = 1, 2), on wavecli propagate's default grid (4 x 8 at dt 0.04,
    dr 0.05), the field benchmark's (2 x 8) and its decay grid.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    prof = _as_profile(phi)
    T, R = np.meshgrid(t_grid, r_grid, indexing="ij")
    out = _kernel_sums(T, R, _TWO_COSH, prof.knots, _times_sinh(prof))(2 * _KERNEL_LEVEL)
    return SpaceTimeField(t_grid, r_grid, out.reshape(t_grid.size, r_grid.size) / np.pi)


# ---------------------------------------------------------------------------
# Duhamel


def _lag_weights(n_t):
    """Time weights (units of dt) of the Duhamel convolution on n_t rows.

    Entry [c, k] weighs source row k in output row i = k + d, with c = d
    for the lags d = 1, 2, 3 and c = 0 for d >= 4, so that it equals the
    Newton-Cotes weight of index k in int_0^{t_i} for every k < i (the
    lag-0 propagator vanishes): composite Simpson for even i, Simpson
    plus a 3/8 tail for odd i >= 3, the trapezoid for i = 1. Row 0 is the
    Simpson weight b(k); rows 1..3 add the end corrections of the
    trapezoid row i = 1 and of the 3/8 tail on odd rows i >= 3.
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


# The 4-point Lagrange stencil on l0-1 .. l0+2 at xi = lam/dr - l0 in
# monomial form: row o (offset o - 1) holds the coefficients of xi^0 .. xi^3.
_STENCIL = np.array([[0.0, -1.0 / 3.0, 0.5, -1.0 / 6.0],
                     [1.0, -0.5, -1.0, 0.5],
                     [0.0, 1.0, 0.5, -0.5],
                     [0.0, -1.0 / 6.0, 0.0, 1.0 / 6.0]])


def _uniform_step(name, grid):
    """The step of a uniform grid from 0, which PropagatorTable requires:
    every step within 1e-9 of the first (no absolute slack) and positive.
    DomainError names the grid and its first bad step."""
    steps = np.diff(grid)
    h = steps[0]
    bad = np.flatnonzero(~(np.abs(steps - h) <= 1e-9 * h))  # NaN counts as bad
    if grid[0] != 0.0:
        problem = f"it starts at {float(grid[0])!r}"
    elif not h > 0.0:
        problem = f"its first step is {float(h)!r}"
    elif bad.size:
        k = bad[0]
        problem = f"step {k} is {float(steps[k])!r} against a first step of {float(h)!r}"
    else:
        return h
    raise DomainError(f"PropagatorTable requires a uniform {name} grid from 0 "
                      f"with a positive step; {problem}")


def _add_moments(mom, width, inv_dr, row, lam, w):
    """Scatters one _kernel_nodes chunk of the table's rule to the moments
    of its cells. A panel of point j lies in one cell, l0 = floor(lam/dr)
    at its middle node (capped at the dump cell width - 1), and adds the
    sum over its nodes lam = dr (l0 + xi) of w sinh(lam) / pi xi^p to
    mom[p, j width + l0], p = 0..3. A node rounded across the cell's edge
    costs only rounding: neighbouring cubics agree there. Overwrites lam
    and w."""
    xi = np.sinh(lam)
    w *= xi
    w /= np.pi
    lam *= inv_dr
    l0 = np.minimum(np.floor(lam[lam.shape[0] // 2]), width - 1)
    np.subtract(lam, l0, out=xi)
    # rows ascend, so a chunk touches the moments of rows lo..hi-1
    lo, hi = row[0], row[-1] + 1
    flat = l0.astype(np.intp)
    flat += (row - lo) * width
    part = mom[:, lo * width:hi * width]
    for p in range(4):
        part[p] += np.bincount(flat, weights=w.sum(axis=0), minlength=part.shape[1])
        if p < 3:
            w *= xi


def _lag_block(t, r_grid, dr):
    """A[d] for the lags t = d dt of one block, shape (t.size, n_r, n_r),
    from one _kernel_nodes call over all their points, one group."""
    n_r = r_grid.size
    width = n_r + 2  # cells l0 = 0 .. n_r, then the dump cell
    points = t.size * n_r
    mom = np.zeros((4, points * width))
    # from lam = (n_r + 1) dr on, the whole stencil lies past the grid
    nodes = _kernel_nodes(np.repeat(t, n_r), np.tile(r_grid, t.size),
                          _TWO_COSH, dr, lam_max=(n_r + 1) * dr)
    inv_dr = 1.0 / dr
    for chunk in nodes(_KERNEL_LEVEL):
        _add_moments(mom, width, inv_dr, *chunk)
    # entry l0 + o - 1 of row j gets sum_p _STENCIL[o, p] mom[p, j, l0]
    coef = np.tensordot(_STENCIL, mom.reshape(4, points, width), axes=1)
    M = np.zeros((points, width + 3))
    for o in range(4):
        M[:, o:o + width] += coef[o]
    M[:, 2] += M[:, 0]  # even reflection through r = 0: entry -1 is entry 1
    return M[:, 1:n_r + 1].reshape(t.size, n_r, n_r)


def _lag_matrices(t_grid, r_grid):
    """The matrices A, shape (n_t, n_r, n_r), of PropagatorTable's grid:
    I(d*dt, r_j, f) ~= sum_l A[d, j, l] f(lam_l) for radial profiles f
    sampled on the r grid itself, A[0] = 0.

    Profile values at quadrature nodes are reconstructed by 4-point
    (cubic) Lagrange interpolation with even reflection through the
    origin, and data count as zero beyond the last grid radius. A[d] is
    the first level (_KERNEL_LEVEL nodes per panel) of sine_propagator's
    kernel rule at t = d*dt, with panels on the grid cells, where the
    interpolant is one cubic, up to r_max + 2 dr, past which the stencil
    misses the grid. The lags go to _kernel_nodes in blocks of whole lags,
    as many as fit in _POINT_BLOCK points and at least one, one call and
    one moment array per block (_lag_block). Each panel lies in one cell
    (j, l0); its nodes at lam = dr (l0 + xi) add their sum of w xi^p
    (p = 0..3) to the cell's moments, one bincount entry per panel and
    moment (a panel past the grid would go to a dump cell). The stencil's
    monomial coefficients then turn the moments of cell l0 into the
    entries l0-1 .. l0+2 of row j, the entry -1 folds onto 1 (the even
    reflection) and the columns >= n_r are dropped. Both grids must be
    uniform from 0 with a positive step (_uniform_step).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    if t_grid.size < 2 or r_grid.size < 2:
        raise DomainError("PropagatorTable needs at least a 2x2 grid")
    dt = _uniform_step("time", t_grid)
    dr = _uniform_step("radius", r_grid)
    n_t, n_r = t_grid.size, r_grid.size
    per = max(_POINT_BLOCK // n_r, 1)  # whole lags per _kernel_nodes call
    A = np.zeros((n_t, n_r, n_r))
    for d0 in range(1, n_t, per):
        d1 = min(d0 + per, n_t)
        A[d0:d1] = _lag_block(np.arange(d0, d1) * dt, r_grid, dr)
    return A


def _fft_length(n_t):
    """The least n = 2^a 3^b 5^c >= 2 n_t - 1: a transform of that length
    over n_t lags and n_t source rows, both zero-padded, wraps no product
    of the causal convolution, and numpy's FFT is fast on it (on a length
    with a large prime factor, 2 * 41 = 82 say, it takes its slow path)."""
    n = 2 * n_t - 1
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _lag_spectrum(A, n):
    """S[f] = (sum_d A[d] exp(-2 pi i f d / n)).T for f = 0..n//2: the
    real DFT of A at length n over its lag axis, each frequency's matrix
    transposed. The angles are exact, 2 pi ((f d) mod n) / n, and the DFT
    is two real matrix products (cosine and sine) per slab of
    _SPECTRUM_SLAB columns of every A[d], copied as rows of A[d].T, so
    that besides A and S only one slab and its products are held."""
    n_t, n_r = A.shape[:2]
    freq = np.arange(n // 2 + 1)
    angle = (2.0 * np.pi / n) * (np.outer(freq, np.arange(n_t)) % n)
    cos, sin = np.cos(angle), -np.sin(angle)
    S = np.empty((freq.size, n_r, n_r), dtype=complex)
    for j in range(0, n_r, _SPECTRUM_SLAB):
        rows = A[:, :, j:j + _SPECTRUM_SLAB].transpose(0, 2, 1).reshape(n_t, -1)
        part = S[:, j:j + _SPECTRUM_SLAB]
        part.real = (cos @ rows).reshape(part.shape)
        part.imag = (sin @ rows).reshape(part.shape)
    return S


class PropagatorTable:
    """Precomputed linear propagation on a fixed rectangular grid.

    The propagator of lag d is the matrix A[d] of _lag_matrices, which
    treats data as zero beyond the last grid radius, so Duhamel values
    are exact (up to quadrature and interpolation) inside the triangle
    t + r <= r_max and truncated outside it. The time grid starts at 0,
    so that row i is lag i.

    The table does not keep A. It keeps A's real DFT over the lag axis
    at the length n = _fft_length(n_t), the least 2^a 3^b 5^c >= 2 n_t - 1,
    one transposed n_r x n_r matrix per frequency f = 0..n//2
    (_lag_spectrum), and A[1..3] for the end corrections of the time
    rule. The spectrum holds about twice A's bytes: 4.3 MB on 41 x 81,
    67 MB on 161 x 161.

    apply_linear contracts the table against a sampled data profile.
    duhamel_field evaluates the source integral on the whole grid, for one
    source or a stack of them, as a causal convolution in time: Simpson
    weights by FFT, then the end corrections of lags 1..3 directly.
    """

    def __init__(self, t_grid, r_grid):
        A = _lag_matrices(t_grid, r_grid)
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.r_grid = np.asarray(r_grid, dtype=float)
        self.dt = self.t_grid[1] - self.t_grid[0]
        self._n = _fft_length(self.t_grid.size)
        self._spectrum = _lag_spectrum(A, self._n)
        # A[1..3].T stacked, (lags * n_r, n_r): fewer lags on a shorter grid
        self._near = np.concatenate(A[1:4].transpose(0, 2, 1))

    def apply_linear(self, data_values):
        """Field of I(t_i, r_j, f) for f sampled on the r grid (zero beyond):
        A[i] f for every lag i, as the inverse real DFT of the spectrum
        contracted with f. Row 0 is exactly 0."""
        data_values = np.asarray(data_values, dtype=float)
        if data_values.shape != self.r_grid.shape:
            raise DomainError("data must be sampled on the table's r grid")
        out = np.fft.irfft(data_values @ self._spectrum, n=self._n, axis=0)
        out = out[:self.t_grid.size]
        out[0] = 0.0
        return out

    def duhamel_field(self, source_values):
        """int_0^{t_i} I(t_i - tau, r_j, F(tau, .)) dtau for all (i, j).

        source_values is the source sampled on the grid, shape (n_t, n_r),
        or a stack of m sources, shape (m, n_t, n_r), whose m fields come
        back stacked the same way. The time integral is the causal
        convolution out[i] = dt sum_{d=1..i} A[d] (w_d F)[i - d]. w_d is
        the Simpson weight b(k), with the end corrections of the trapezoid
        row i = 1 and of the 3/8 tail on odd rows i >= 3 carried by the
        lags 1..3 (_lag_weights), so every row i gets its Newton-Cotes
        rule on t_0..t_i. The b-weighted sources take one rfft over time
        at the table's length n, one complex matrix product per frequency
        with the spectrum and one irfft. The corrections (w_d - b) F of
        lags 1..3 fall on the odd rows only, and they are added directly,
        in one product of each odd row's three shifted source rows with
        A[1..3] stacked. Row 0 is exactly 0.
        """
        F = np.asarray(source_values, dtype=float)
        n_t, n_r = self.t_grid.size, self.r_grid.size
        if F.ndim not in (2, 3) or F.shape[-2:] != (n_t, n_r):
            raise DomainError(
                f"source must be sampled on the table's grid: shape "
                f"({n_t}, {n_r}) or (m, {n_t}, {n_r}), got {F.shape}")
        # time-major, so that every frequency's rows of all sources form
        # one matrix
        src = np.moveaxis(F.reshape(-1, n_t, n_r), 1, 0)
        m = src.shape[1]
        w = (_lag_weights(n_t) * self.dt)[:, :, None, None]
        # one expression, so that the rfft's output is freed before the
        # irfft's is made
        out = np.fft.irfft(np.fft.rfft(w[0] * src, n=self._n, axis=0) @ self._spectrum,
                           n=self._n, axis=0)[:n_t]
        # the corrections of lags 1..3 land on the odd rows i only, each
        # row's three in one product with the stacked A[1..3]
        odd = np.arange(1, n_t, 2)
        lags = self._near.shape[0] // n_r
        c = np.zeros((odd.size, m, lags, n_r))
        for d in range(1, lags + 1):
            k = odd[odd >= d] - d
            c[odd.size - k.size:, :, d - 1] = (w[d, k] - w[0, k]) * src[k]
        out[1::2] += (c.reshape(-1, lags * n_r) @ self._near).reshape(odd.size, m, n_r)
        out[0] = 0.0
        return np.moveaxis(out, 1, 0).reshape(F.shape)


# ---------------------------------------------------------------------------
# the W operator and its companions


def beta_identity_check(b, c, a):
    """int_b^c a'(s) [(a(c)-a(s))(a(s)-a(b))]^{-1/2} ds; equals pi always.

    Computed with the substitution x = s^2 (a is even, so the integrand is
    smooth in x) followed by the Chebyshev-Gauss rule; the square-root
    pair is absorbed through the quotients (a(c) - a(s)) / (c^2 - s^2) and
    (a(s) - a(b)) / (s^2 - b^2), each (s(p) / p) (s(q) / q) by the
    weight's product form at p, q = (hi +- lo)/2 > 0 (the nodes lie
    strictly inside), so nothing singular is ever evaluated.
    """
    if not 0 <= b < c:
        raise DomainError("beta_identity_check needs 0 <= b < c")
    x, w = cg_nodes(_CG_NODES, b * b, c * c)
    s = np.sqrt(x)

    def ratio(v):  # s(v) / v
        return a.s(v) / v

    quot = ratio(0.5 * (c + s)) * ratio(0.5 * (c - s)) * (
        ratio(0.5 * (s + b)) * ratio(0.5 * (s - b)))
    return float(np.dot(w, (a.da(s) / (2.0 * s)) / np.sqrt(quot)))


def W_evaluator(t, r, f, a):
    """The double integral W(t, r, f) of the appendix lemma.

    Fubini order: lam outside, s inside, where the inner integral is the
    closed form k_a of _kernel_nodes; settled over doubling node levels
    (_settle_sums). At r = 0, kappa = 0 and W = pi int_0^t f(lam)
    (a(t) - a(lam))^{-1/2} dlam, which the rule approaches as r -> 0.
    """
    if t < 0 or r < 0:
        raise DomainError("W_evaluator needs t >= 0 and r >= 0")
    if t == 0.0:
        return 0.0
    prof = _as_profile(f)
    sums = _kernel_sums(t, r, a, prof.knots,
                        lambda w, lam, row: np.multiply(w, prof(lam), out=w))
    return _settle_sums(sums, [1.0], f"W at (t={t}, r={r})")


def w_majorant(t, r, f, a):
    """The single-integral bound on |W| from the appendix lemma,

        pi int |f(lam)| (a(M) - a(c))^{-1/2} dlam

    over W's domain max(r - t, 0) < lam < r + t, c = min(t, r + lam),
    M = max(t, r + lam): for t > r the integrand has an integrable
    singularity at lam = t - r. W's kernel rule on |f|, with the kernel
    pi / sqrt(a(M) - a(c)) (_kernel_nodes), settled over doubling node
    levels (_settle_sums); at r = 0 it is W_evaluator's rule on |f|.
    """
    if t < 0 or r < 0:
        raise DomainError("w_majorant needs t >= 0 and r >= 0")
    if t == 0.0:
        return 0.0
    prof = _as_profile(f)
    sums = _kernel_sums(t, r, a, prof.knots,
                        lambda w, lam, row: np.multiply(w, np.abs(prof(lam)), out=w),
                        majorant=True)
    return _settle_sums(sums, [1.0], f"W majorant at (t={t}, r={r})")


# ---------------------------------------------------------------------------
# the R operator


def r_operator(v, t, a):
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
    xg, wg = leggauss(_R_NODES)
    psi = 0.25 * np.pi * (xg + 1.0)
    w = 0.25 * np.pi * wg * U * np.cos(psi)
    arg = a_t * np.cos(psi) ** 2 + a_0 * np.sin(psi) ** 2
    s = a.inv(arg)
    vals = np.asarray([float(v(si)) for si in s])
    return float(np.dot(w, vals))


def dt_r_bound_check(v, dv, t, a):
    """Check |d/dt Rv| <= (a'(t)/2)(a(t)-a(0))^{-1/2} |v(t)| + R|dv|(t).

    Returns (lhs, rhs): lhs by central differencing of r_operator, rhs
    assembled from the two terms of the bound.
    """
    step = 1e-5 * max(1.0, t)
    if t <= step:
        raise DomainError("t too small for the differencing stencil")
    lhs = abs(r_operator(v, t + step, a) - r_operator(v, t - step, a)) / (2 * step)
    rhs = 0.5 * float(a.da(t)) / np.sqrt(float(a.a(t)) - float(a.a(0.0))) * abs(float(v(t)))
    rhs += r_operator(lambda s: abs(float(dv(s))), t, a)
    return lhs, rhs


# ---------------------------------------------------------------------------
# explicit lower bounds for the propagator


def _gl_integrals(fn, lo, hi):
    """Composite Gauss-Legendre integrals of fn over [lo_k, hi_k], each on
    panels of width at most 1/_GL_PER_UNIT, _GL_NODES nodes each; 0 where
    hi_k <= lo_k.

    The panels of [lo_k, hi_k] are those of np.linspace(lo_k, hi_k, n + 1):
    edge i at lo_k + i (hi_k - lo_k)/n, the last one at hi_k. fn is
    evaluated once, on the nodes of all intervals together, and each
    integral is its own dot product over its own nodes and weights, so it
    keeps the bits of a one-interval call.
    """
    xg, wg = leggauss(_GL_NODES)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    live = hi > lo
    width = np.where(live, hi - lo, 0.0)
    n = np.where(live, np.maximum(1.0, np.ceil(width * _GL_PER_UNIT)), 0.0)
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


def _times_exp(vals, lam, log_factor):
    """vals * exp(log_factor(lam)) per node, log_factor evaluated only
    where vals != 0 and the product exactly 0 elsewhere: where a profile
    has underflowed to 0 its factor may lie beyond the float range, and
    0 * inf would be NaN; a product that overflows is redone in log space."""
    out = np.zeros_like(vals)
    live = np.flatnonzero(vals)
    v, x = vals[live], log_factor(lam[live])
    with np.errstate(over="ignore"):
        out[live] = v * np.exp(x)
    far = np.isinf(out[live])
    out[live[far]] = np.copysign(np.exp(np.log(np.abs(v[far])) + x[far]), v[far])
    return out


def kernel_lower_integral(phi, t, r):
    """int_{|r-t|}^{r+t} phi(lam) sinh(lam) (2 cosh(r+lam))^{-1/2} dlam.

    This is the explicit intermediate bound: I(t, r, phi) dominates it for
    nonnegative phi. The kernel is assembled in log space, so its two
    exponentially large factors cancel before exponentiation; it is still
    about exp((lam - r)/2) and leaves the float range for lam - r beyond
    ~1419, so it is evaluated only where phi is nonzero (_times_exp).
    """
    prof = _as_profile(phi)
    half_log2 = 0.5 * np.log(2.0)

    def fn(lam):
        return _times_exp(prof(lam), lam, lambda x: (
            log_sinh(x) - half_log2 - 0.5 * log_cosh(r + x)))

    return float(_gl_integrals(fn, [abs(r - t)], [r + t])[0])


def default_C0(tau0):
    """C0 = (1/2) sqrt(tanh(tau0/8) tanh(tau0/2)), from the proof's
    pointwise inequality (tanh lam tanh r)^{1/2} >= 2 C0 on the relevant
    ranges; always in (0, 1/2]."""
    if tau0 <= 0:
        raise DomainError("tau0 must be positive")
    return 0.5 * np.sqrt(np.tanh(tau0 / 8.0) * np.tanh(tau0 / 2.0))


def _sqrt_sinh_bound(prof, lo, t, r, C0):
    """C0 (sinh r)^{-1/2} int_lo^{t+r} prof(lam) (sinh lam)^{1/2} dlam per
    element, the integral by _gl_integrals: lower_bound_I's bounds, whose
    lower limits lo are the caller's.

    The integrand is evaluated only at the nodes within prof's
    support_radius, and its factor (sinh lam)^{1/2}, which leaves the
    float range beyond lam ~ 1419, only where prof is nonzero
    (_times_exp); at the other nodes it is exactly 0.
    """
    top = np.inf if prof.support_radius is None else prof.support_radius

    def fn(lam):
        out = np.zeros_like(lam)
        live = lam <= top
        lam = lam[live]
        out[live] = _times_exp(prof(lam), lam, lambda x: 0.5 * log_sinh(x))
        return out

    return C0 * np.exp(-0.5 * log_sinh(r)) * _gl_integrals(fn, lo, t + r)


def lower_bound_I(phi, t, r, tau0):
    """The two explicit propagator lower bounds at (t, r).

    Returns (bound_large, bound_small): bound_large integrates phi
    (sinh lam)^{1/2} from max(t, r) to t + r; bound_small lowers the limit
    to |t - r| and is present (not None) only when |t - r| > tau0/8. Both
    require r > tau0/2.

    t and r may be arrays (they broadcast): then both bounds come back as
    arrays of that shape, bound_small NaN where it is absent. phi is
    evaluated once, on the quadrature nodes of every point's integrals
    that lie within its support_radius; the integrand is exactly 0 at the
    rest.
    """
    C0 = default_C0(tau0)  # which refuses tau0 <= 0
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                               np.asarray(r, dtype=float))
    if np.any(r <= tau0 / 2.0):
        raise DomainError(f"lower_bound_I needs r > tau0/2 = {tau0 / 2.0}; "
                          f"got r = {r[r <= tau0 / 2.0].min()}")
    wide = np.abs(t - r) > tau0 / 8.0
    bounds = _sqrt_sinh_bound(
        _as_profile(phi),
        np.concatenate([np.maximum(t, r).ravel(), np.abs(t - r)[wide]]),
        np.concatenate([t.ravel(), t[wide]]),
        np.concatenate([r.ravel(), r[wide]]), C0)
    bound_large = bounds[:t.size].reshape(t.shape)
    bound_small = np.full(t.shape, np.nan)
    bound_small[wide] = bounds[t.size:]
    if t.ndim == 0:
        return bound_large[()], (bound_small[()] if wide else None)
    return bound_large, bound_small
