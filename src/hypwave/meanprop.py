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
* the Duhamel integral of a space-time source on a grid, and
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
radius of one time or a block of a whole grid: each side of the log
singularity lam* = |t - r| is mapped by lam = lam* +- H u^2 and graded
geometrically toward u = 0, with panels on the table's grid cells (so
each integrates one cubic of the interpolant) or on unit steps and the
profile's knots. Its evaluator yields chunks of whole panels and keeps
its intermediates in buffers that the chunks reuse. 1 - kappa comes from
the weight's factorisation a(M) - a(M - g) = P(M, g) Q(g) at the exact
gaps g = M - c and M - b, as a ratio of P's times a ratio of Q's, so no
product of two small lengths is formed. The table scatters the nodes of
one lag to their cells as moments w xi^p; linear_field sums each panel
to its point, over blocks of _POINT_BLOCK grid points; sine_propagator,
W_evaluator and w_majorant settle over doubling node levels.

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

from .hypgeo import DomainError, cg_nodes, log_cosh, log_sinh, sinhc

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
_POINT_BLOCK = 256  # (t, r) points linear_field hands _kernel_nodes at a time
_GRADE_RATIO = 0.2  # ratio of the kernel rule's graded breaks in u
_GRADE_DEPTH = 1e-4  # deepest graded break in u, lam* + 1e-8 of the side
_GL_PER_UNIT = 2.0  # panels per unit length of the lower bounds' integrals
_GL_NODES = 16  # Gauss nodes per panel of the lower bounds' integrals
_MEAN_LEVEL = 12  # Gauss nodes per angular panel, the mean's first level
_KERNEL_LEVEL = 8  # Gauss nodes per panel, the kernel rule's first level
_CG_NODES = 64  # Chebyshev-Gauss nodes of beta_identity_check
_R_NODES = 64  # Gauss-Legendre nodes in psi of r_operator
_ABS_TOL = 1e-10  # _settle: two levels agree within max(_ABS_TOL, _REL_TOL |v|)
_REL_TOL = 1e-8


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
    """A radial function on [0, inf) given by a callable.

    A profile with ``support_radius`` set returns 0 beyond that radius.
    ``knots`` are the abscissae where it is merely C^1; the mean's rule
    and the kernel rule (the propagator, W and W's majorant) break their
    panels there, so convergence stays spectral.
    """

    def __init__(self, func, *, support_radius=None, knots=None):
        self._func = func
        self.support_radius = support_radius
        self.knots = knots

    @classmethod
    def from_function(cls, func, support_radius=None):
        knots = None if support_radius is None else np.asarray([support_radius])
        return cls(func, support_radius=support_radius, knots=knots)

    @classmethod
    def constant(cls, value):
        v = float(value)
        return cls(lambda lam: np.full_like(np.asarray(lam, dtype=float), v))

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


def _two_cosh_gap(x, g):
    """2cosh x - 2cosh(x - g) = 2 sinh(x - g/2) * 2 sinh(g/2)."""
    h = 0.5 * g
    return 2.0 * np.sinh(x - h), 2.0 * np.sinh(h)


class MonotoneWeight:
    """An even C^1 weight a(s) with a'(s) > 0 for s > 0.

    Carries, besides a and a', the inverse of a on [0, inf), a
    cancellation-free difference quotient dq(x, y) = (a(x) - a(y))/(x - y)
    and a cancellation-free factorisation of its gaps,
    gap(x, g) = (P, Q) with a(x) - a(x - g) = P(x, g) Q(g):
    P = 2 sinh(x - g/2), Q = 2 sinh(g/2) for 2cosh and P = 2x - g, Q = g
    for s^2. dq keeps the Beta-type integrands accurate when two
    abscissae nearly coincide; gap lets the kernel rule form ratios and
    roots of a(M) - a(b) without forming the product, which underflows
    when both lengths are tiny. Construction verifies the two conditions
    required of the weight (positivity of a' and monotonicity of the
    smoothed derivative quotient) on a sample grid.
    """

    def __init__(self, name, a, da, inv, dq, gap):
        self.name = name
        self.a = a
        self.da = da
        self.inv = inv
        self.dq = dq
        self.gap = gap
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
            gap=_two_cosh_gap,
        )

    @classmethod
    def s_squared(cls):
        return cls(
            "s^2",
            a=lambda s: np.square(np.asarray(s, dtype=float)),
            da=lambda s: 2.0 * np.asarray(s, dtype=float),
            inv=lambda y: np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0)),
            dq=lambda x, y: np.asarray(x, dtype=float) + np.asarray(y, dtype=float),
            gap=lambda x, g: (2.0 * x - g, g),
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

    Seven steps of the arithmetic-geometric mean settle it to 4e-16 for
    m1 >= 1e-15; m1 = 0 gives a large finite value, never inf. The first
    step, from a = 1, is written out. work, a pair of arrays of m1's
    shape, lets the steps run in place: m1 is overwritten and K comes
    back in work[0]. Each step rounds as 0.5 (a + b), sqrt(a b) does.
    """
    if work is None:
        m1 = np.array(m1, dtype=float)
        work = np.empty_like(m1), np.empty_like(m1)
    a, b = work
    np.sqrt(m1, out=b)
    np.add(b, 1.0, out=a)
    a *= 0.5
    np.sqrt(b, out=b)
    for _ in range(6):
        np.multiply(a, b, out=m1)
        a += b
        a *= 0.5
        np.sqrt(m1, out=b)
    a += b
    return np.divide(np.pi, a, out=a)


def _kernel_nodes(t, r, a, step, knots=None, lam_max=np.inf, majorant=False):
    """The rule for int f(lam) k_a(t_k, r_k, lam) dlam at every point
    (t_k, r_k), k_a = 2 K(kappa) / sqrt(a(M) - a(b)), or with majorant
    k_a = pi / sqrt(a(M) - a(c)), cut at lam_max; t and
    r are arrays that broadcast, so a scalar t serves every radius. Builds
    the panels once and returns nodes(n_gl), which yields chunks
    (row, lam, w): row, shape (panels,), names each panel's point, and lam
    and w, shape (panels, n), hold its n nodes and weights, so that the
    integral at point k ~= sum of w f(lam) over the panels with row == k.
    A chunk holds at most _NODE_CHUNK nodes, all from one side of lam*
    with one node count n, rows ascending. row, lam and w are fresh
    arrays the consumer owns; the evaluator's intermediates live in
    buffers that every chunk of one nodes() call reuses.

    k_a has a log singularity at lam* = |t - r| and square-root branches
    2r and |t - r| away from it. lam = lam* +- H u^2 (H the side's length)
    makes a branch at lam* itself (r = 0, r = t) regular. In u the panels
    break at 0.5 * _GRADE_RATIO^k down to _GRADE_DEPTH (deeper when a
    branch is closer than H), at the multiples of step and at the knots.
    A panel gets n_gl Gauss nodes; twice that when its centre lies within
    two widths of u = 0, three quarters when it is narrower than 1/4 in
    lam and eight widths or more away. A side's panels, and every bit of
    its nodes and weights, do not depend on the other points of the call.

    1 - kappa = (a(M) - a(c)) / (a(M) - a(b)) comes from the weight's gap
    factorisation a(M) - a(M - g) = P(M, g) Q(g) at the exact gaps
    g = M - c and g = M - b, as (P_c / P_b) (Q_c / Q_b), and
    1 / sqrt(a(M) - a(b)) as 1 / (sqrt(P_b) sqrt(Q_b)); the majorant's
    kernel is pi / (sqrt(P_c) sqrt(Q_c)), with no K. Neither forms
    the product P_b Q_b, so K stays accurate up to lam* and nothing
    underflows for t and r down to 1e-300. Smaller scales are outside the
    domain: at t = 1e-302 (r = 0) or a subnormal radius such as 5e-324 the
    gaps leave the normal range and the weights overflow.
    """
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(r, dtype=float))
    # two sides per point: up from lam* to r + t, and (t > r) down to 0
    H = np.stack([2.0 * np.minimum(r, t), np.maximum(t - r, 0.0)], axis=1).ravel()
    side = np.flatnonzero(H > 0.0)
    H, row, right = H[side], side // 2, side % 2 == 0
    tt, rr, sgn = t[row], r[row], np.where(right, 1.0, -1.0)
    st = np.abs(tt - rr)
    near = np.where(right, st, 2.0 * rr)  # lam* to the next branch
    depth = _GRADE_DEPTH * np.where(near > 0.0, np.clip(np.sqrt(near / H), 1e-8, 1.0), 1.0)
    n_grade = np.floor(np.log(2.0 * depth) / np.log(_GRADE_RATIO)) + 1
    k = np.arange(n_grade.max(initial=0))
    graded = np.where(k < n_grade[:, None], 0.5 * _GRADE_RATIO ** k, 0.0)
    # the breaks of the farthest-reaching point; past a side's end they
    # clip onto it and drop out
    lam_b = step * np.arange(1.0, np.ceil(min(lam_max, (t + r).max(initial=0.0)) / step))
    if knots is not None:
        lam_b = np.concatenate([lam_b, knots])
    # u of lam_max, then of the other breaks, on every side
    u_b = np.sqrt(np.maximum(sgn[:, None] * (np.append(lam_max, lam_b) - st[:, None]),
                             0.0) / H[:, None])
    u_lo = np.where(right, 0.0, np.minimum(u_b[:, 0], 1.0))
    u_hi = np.where(right, np.minimum(u_b[:, 0], 1.0), 1.0)
    u = np.concatenate([u_lo[:, None], u_hi[:, None], graded, u_b[:, 1:]], axis=1)
    u = np.sort(np.clip(u, u_lo[:, None], u_hi[:, None]), axis=1)
    o, p = np.nonzero(u[:, 1:] > u[:, :-1])
    mid, half = 0.5 * (u[o, p + 1] + u[o, p]), 0.5 * (u[o, p + 1] - u[o, p])

    gap_c = 2.0 * np.maximum(rr - tt, 0.0)  # M - c - d on the right side
    xi = mid / half  # the panel's centre in halfwidths from u = 0
    close = xi < 4.0
    far = (xi >= 16.0) & (H[o] * 4.0 * mid * half <= 0.25)
    on_right = right[o]
    tiers = [(np.flatnonzero(sel & (on_right == is_right)), times, is_right)
             for sel, times in ((close, 2.0), (~close & ~far, 1.0), (far, 0.75))
             for is_right in (True, False)]

    def nodes(n_gl):
        # five node buffers, each as long as the largest chunk (a chunk
        # holds one panel when its 2 n_gl nodes exceed _NODE_CHUNK)
        pool = np.empty((5, max(_NODE_CHUNK, 2 * n_gl)))
        for sel, times, is_right in tiers:
            n = int(times * n_gl)
            xg, wg = leggauss(n)
            per = max(_NODE_CHUNK // n, 1)
            for s in range(0, sel.size, per):
                b = sel[s:s + per]
                ob = o[b]
                U, D, Mc, Mb, M = pool[:, :b.size * n].reshape(5, b.size, n)
                Hb, stb, rb, tb = H[ob, None], st[ob, None], rr[ob, None], tt[ob, None]
                np.multiply(half[b, None], xg, out=U)
                U += mid[b, None]  # u
                np.multiply(Hb, U, out=D)
                D *= U  # d = H u^2
                if is_right:  # M - c = d + gap_c, M - b = 2 min(r, lam)
                    lam = stb + D
                    gc = np.add(D, gap_c[ob, None], out=Mc)
                    gb = np.minimum(rb, lam, out=Mb)
                    gb *= 2.0
                    x = np.add(rb, lam, out=M)
                    np.maximum(tb, x, out=x)
                else:  # M = t, M - c = d, M - b = min(2r + d, lam* + lam)
                    lam = stb - D
                    gb = np.add(2.0 * rb, D, out=Mb)
                    np.minimum(gb, np.add(stb, lam, out=M), out=gb)
                    gc, x = D, tb
                # Q may be the gap array itself (s^2), so Mb must outlive
                # _agm_K, which runs in Mc and M, and Qc is read before
                # D turns into the weights
                Pc, Qc = a.gap(x, gc)
                if majorant:  # pi / sqrt(a(M) - a(c))
                    K = np.pi / (np.sqrt(Pc) * np.sqrt(Qc))
                else:
                    Pb, Qb = a.gap(x, gb)
                    Pc = Pc / Pb
                    Pc *= Qc / Qb
                    np.minimum(Pc, 1.0, out=Pc)  # 1 - kappa
                    K = _agm_K(Pc, work=(Mc, M))
                    K *= 2.0
                    K /= np.sqrt(Pb) * np.sqrt(Qb)  # 2 K / sqrt(a(M) - a(b))
                np.multiply(2.0 * Hb, U, out=U)  # dlam/du
                np.multiply(half[b, None], wg, out=D)
                D *= U
                w = D * K
                yield row[ob], lam, w

    return nodes


def _kernel_value(t, r, prof, a, what, majorant=False):
    """int prof k_a(t, r, .) at one point on unit panels and the profile's
    knots, settled over the node levels n0, 2 n0, 4 n0, 8 n0 with
    n0 = _KERNEL_LEVEL; majorant picks _kernel_nodes' kernel."""
    nodes = _kernel_nodes(t, np.asarray([float(r)]), a, 1.0, prof.knots,
                          majorant=majorant)

    def value(n_gl):
        return float(sum(np.dot(w.ravel(), prof(lam.ravel()))
                         for _, lam, w in nodes(n_gl)))

    n0 = _KERNEL_LEVEL
    return _settle(value, [(n0, 2 * n0), (2 * n0, 4 * n0), (4 * n0, 8 * n0)],
                   what)


_TWO_COSH = MonotoneWeight.two_cosh()


# ---------------------------------------------------------------------------
# the sine-type propagator


def sine_propagator(phi, t, r):
    """Solution at (t, r) of the shifted linear wave equation with data (0, phi).

    I(t, r, phi) = W(t, r, phi sinh, 2cosh) / pi, the kernel rule settled
    over doubling node levels (_kernel_value).
    """
    if t < 0 or r < 0:
        raise DomainError("sine_propagator needs t >= 0 and r >= 0")
    if t == 0.0:
        return 0.0
    prof = _as_profile(phi)
    phi_sinh = RadialProfile(lambda lam: prof(lam) * np.sinh(lam), knots=prof.knots)
    return _kernel_value(t, r, phi_sinh, _TWO_COSH,
                         f"sine propagator at (t={t}, r={r})") / np.pi


def linear_field(phi, t_grid, r_grid):
    """sine_propagator evaluated on a full (t, r) grid.

    The grid's points, flattened t-major, go to _kernel_nodes in blocks of
    _POINT_BLOCK, one call per block. Every point gets the second level
    (2 _KERNEL_LEVEL nodes per panel) of sine_propagator's rule; each
    panel's w sinh(lam) phi(lam) is summed, and the panel sums go to their
    points with one bincount per chunk. Points at t = 0 have no panels and
    stay 0. The second level keeps profiles that are smooth but not
    analytic at their knots (bump_profile's ramps) within 1e-7 of the
    settled values.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    prof = _as_profile(phi)
    T, R = (g.ravel() for g in np.meshgrid(t_grid, r_grid, indexing="ij"))
    out = np.zeros(T.size)
    for s in range(0, T.size, _POINT_BLOCK):
        acc = out[s:s + _POINT_BLOCK]
        nodes = _kernel_nodes(T[s:s + _POINT_BLOCK], R[s:s + _POINT_BLOCK],
                              _TWO_COSH, 1.0, prof.knots)
        for row, lam, w in nodes(2 * _KERNEL_LEVEL):
            w *= np.sinh(lam)
            w *= prof(lam)
            acc += np.bincount(row, weights=w.sum(axis=1), minlength=acc.size)
    return SpaceTimeField(t_grid, r_grid, out.reshape(t_grid.size, r_grid.size) / np.pi)


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

    A[d] is the first level (_KERNEL_LEVEL nodes per panel) of
    sine_propagator's kernel rule at t = d*dt, with panels on the grid
    cells, where the interpolant is one cubic, up to r_max + 2 dr, past
    which the stencil misses the grid. A node at lam = dr (l0 + xi), 0 <= xi < 1, adds
    w xi^p (p = 0..3) to the moments of its cell (j, l0), four bincounts
    over one flat index (nodes past the grid would share a dump cell).
    The stencil's monomial coefficients then turn the moments of cell l0
    into the entries l0-1 .. l0+2 of row j, the entry -1 folds onto 1
    (the even reflection) and the columns >= n_r are dropped.

    apply_linear contracts the table against a sampled data profile.
    duhamel_field evaluates the source integral on the whole grid, for one
    source or a stack of them, as a causal convolution in time: Simpson
    weights with end corrections, one matrix product per lag.
    """

    def __init__(self, t_grid, r_grid):
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
        # from lam = (n_r + 1) dr on, the whole stencil lies past the grid
        nodes = _kernel_nodes(t, self.r_grid, _TWO_COSH, self.dr,
                              lam_max=(n_r + 1) * self.dr)
        for row, lam, w in nodes(_KERNEL_LEVEL):
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
        # time-major and C-ordered, so the rows of all sources at one lag
        # form one matrix without a copy per lag
        src = np.ascontiguousarray(np.moveaxis(F.reshape(-1, n_t, n_r), 1, 0))
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


def beta_identity_check(b, c, a):
    """int_b^c a'(s) [(a(c)-a(s))(a(s)-a(b))]^{-1/2} ds; equals pi always.

    Computed with the substitution x = s^2 (a is even, so the integrand is
    smooth in x) followed by the Chebyshev-Gauss rule; the square-root
    pair is absorbed through difference quotients so nothing singular is
    ever evaluated.
    """
    if not 0 <= b < c:
        raise DomainError("beta_identity_check needs 0 <= b < c")
    x, w = cg_nodes(_CG_NODES, b * b, c * c)
    s = np.sqrt(x)
    g = (a.da(s) / (2.0 * s)) / np.sqrt(
        a.dq_of_squares(c * c, x) * a.dq_of_squares(x, b * b))
    return float(np.dot(w, g))


def W_evaluator(t, r, f, a):
    """The double integral W(t, r, f) of the appendix lemma.

    Fubini order: lam outside, s inside, where the inner integral is the
    closed form k_a of _kernel_nodes; settled over doubling node levels
    (_kernel_value). At r = 0, kappa = 0 and W = pi int_0^t f(lam)
    (a(t) - a(lam))^{-1/2} dlam, which the rule approaches as r -> 0.
    """
    if t < 0 or r < 0:
        raise DomainError("W_evaluator needs t >= 0 and r >= 0")
    if t == 0.0:
        return 0.0
    return _kernel_value(t, r, _as_profile(f), a, f"W at (t={t}, r={r})")


def w_majorant(t, r, f, a):
    """The single-integral bound on |W| from the appendix lemma,

        pi int |f(lam)| (a(M) - a(c))^{-1/2} dlam

    over W's domain max(r - t, 0) < lam < r + t, c = min(t, r + lam),
    M = max(t, r + lam): for t > r the integrand has an integrable
    singularity at lam = t - r. W's kernel rule on |f|, with the kernel
    pi / sqrt(a(M) - a(c)) (_kernel_nodes), settled over doubling node
    levels (_kernel_value); at r = 0 it is W_evaluator's rule on |f|.
    """
    if t < 0 or r < 0:
        raise DomainError("w_majorant needs t >= 0 and r >= 0")
    if t == 0.0:
        return 0.0
    prof = _as_profile(f)
    abs_f = RadialProfile(lambda lam: np.abs(prof(lam)), knots=prof.knots)
    return _kernel_value(t, r, abs_f, a, f"W majorant at (t={t}, r={r})",
                         majorant=True)


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


def kernel_lower_integral(phi, t, r):
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

    return float(_gl_integrals(fn, [abs(r - t)], [r + t])[0])


def default_C0(tau0):
    """C0 = (1/2) sqrt(tanh(tau0/8) tanh(tau0/2)), from the proof's
    pointwise inequality (tanh lam tanh r)^{1/2} >= 2 C0 on the relevant
    ranges; always in (0, 1/2]."""
    if tau0 <= 0:
        raise DomainError("tau0 must be positive")
    return min(1.0, 0.5 * np.sqrt(np.tanh(tau0 / 8.0) * np.tanh(tau0 / 2.0)))


def _lower_bound_prefactor(t, r, tau0, C0):
    """lower_bound_I's inputs checked and broadcast: (t, r, C0 (sinh r)^{-1/2})."""
    if tau0 <= 0:
        raise DomainError("tau0 must be positive")
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                               np.asarray(r, dtype=float))
    if np.any(r <= tau0 / 2.0):
        raise DomainError(f"lower_bound_I needs r > tau0/2 = {tau0 / 2.0}; "
                          f"got r = {r[r <= tau0 / 2.0].min()}")
    C0 = default_C0(tau0) if C0 is None else C0
    if not 0.0 < C0 <= 1.0:
        raise DomainError("C0 must lie in (0, 1]")
    return t, r, C0 * np.exp(-0.5 * log_sinh(r))


def _sqrt_sinh_integrals(prof, lo, hi):
    """int_{lo_k}^{hi_k} prof(lam) (sinh lam)^{1/2} dlam for every k."""
    return _gl_integrals(lambda lam: prof(lam) * np.exp(0.5 * log_sinh(lam)), lo, hi)


def lower_bound_I(phi, t, r, tau0, C0=None):
    """The two explicit propagator lower bounds at (t, r).

    Returns (bound_large, bound_small): bound_large integrates phi
    (sinh lam)^{1/2} from max(t, r) to t + r; bound_small lowers the limit
    to |t - r| and is present (not None) only when |t - r| > tau0/8. Both
    require r > tau0/2.

    t and r may be arrays (they broadcast): then both bounds come back as
    arrays of that shape, bound_small NaN where it is absent, and phi is
    evaluated once on the nodes of every point's integrals.
    """
    t, r, pref = _lower_bound_prefactor(t, r, tau0, C0)
    hi = t + r
    wide = np.abs(t - r) > tau0 / 8.0
    ints = _sqrt_sinh_integrals(_as_profile(phi),
                                np.concatenate([np.maximum(t, r).ravel(),
                                                np.abs(t - r)[wide]]),
                                np.concatenate([hi.ravel(), hi[wide]]))
    bound_large = pref * ints[:hi.size].reshape(hi.shape)
    bound_small = np.full(hi.shape, np.nan)
    bound_small[wide] = pref[wide] * ints[hi.size:]
    if hi.ndim == 0:
        return bound_large[()], (bound_small[()] if wide else None)
    return bound_large, bound_small
