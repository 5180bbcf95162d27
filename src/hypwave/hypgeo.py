"""Scalar kernels, envelopes, weights, singular-quadrature nodes and grids.

Everything in this module is a pure function of its arguments.  The
conventions are those of the radial wave problem on the hyperbolic plane
with curvature -1:

* data envelope      theta_k(r) = (cosh r)^(-k-1/2),
* decay factor       K_k(s)     = (cosh s)^(-k+1/2), <s>, or 1
                     depending on whether k is below, at, or above 1/2,
* space-time weight  Phi_h(t,r) = e^(r/2) <t-r>^h,

with the Japanese bracket <s> = sqrt(1+s^2).  cosh and sinh are also
given in log form so that envelopes and weights can be evaluated far
beyond the ~700 overflow threshold of cosh; the W operator's weights
carry the product form of their differences (meanprop.MonotoneWeight.s).

The quadrature helper ``cg_nodes`` builds the Chebyshev-Gauss rule for
integrals carrying the paired endpoint weight ((c_hi-x)(x-c_lo))^(-1/2);
meanprop.beta_identity_check is its one user. (The spherical mean removes
its endpoint singularities itself, with Gauss-Legendre nodes in theta.)
Node counts and tolerances are not configurable: each rule in meanprop
owns its node level as a module constant, and the pointwise rules settle
over doubling levels from it.

``Grid``, the uniform (t, r) grid of every solver and command, is the one
caller of ``uniform_grid``; meanprop's ``_uniform_step`` checks the table's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EnvelopeParams",
    "WeightParams",
    "Grid",
    "DomainError",
    "theta_k",
    "log_theta_k",
    "K_factor",
    "phi_weight",
    "log_phi_weight",
    "bracket",
    "log_cosh",
    "log_sinh",
    "cg_nodes",
    "uniform_grid",
]

_LOG2 = float(np.log(2.0))


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


@dataclass(frozen=True)
class EnvelopeParams:
    """Decay index of the data envelope theta_k."""

    k: float

    def __post_init__(self) -> None:
        if not self.k > 0:
            raise DomainError(f"envelope index k must be positive, got {self.k}")


@dataclass(frozen=True)
class WeightParams:
    """Exponent h of the weight Phi_h(t,r)."""

    h: float

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise DomainError(f"weight exponent h must be positive, got {self.h}")


def log_cosh(x):
    """log(cosh x), stable for |x| up to the largest finite float."""
    ax = np.abs(np.asarray(x, dtype=float))
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LOG2


def log_sinh(x):
    """log(sinh x) for x > 0, stable for large x.

    Returns -inf at x = 0; raises for negative arguments.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("log_sinh needs a nonnegative argument")
    small = x < 20.0
    with np.errstate(divide="ignore"):
        out = np.where(
            small,
            np.log(np.sinh(np.where(small, x, 1.0))),
            x + np.log1p(-np.exp(-2.0 * np.where(small, 1.0, x))) - _LOG2,
        )
    return out


def bracket(s):
    """Japanese bracket <s> = sqrt(1 + s^2)."""
    return np.hypot(1.0, np.asarray(s, dtype=float))


def theta_k(r, params: EnvelopeParams):
    """Data envelope (cosh r)^(-k-1/2) for r >= 0 (log_theta_k refuses r < 0)."""
    return np.exp(log_theta_k(r, params))


def log_theta_k(r, params: EnvelopeParams):
    """log theta_k; usable where the envelope itself underflows.

    The 1/2 in the exponent is the spectral shift (n-1)/2 of the
    hyperbolic plane, n = 2.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("theta_k is defined for r >= 0")
    return -(params.k + 0.5) * log_cosh(r)


def K_factor(s, k: float):
    """Decay correction K_k(s).

    (cosh s)^(1/2 - k) below the threshold index k = 1/2, the Japanese
    bracket exactly at it, and 1 above it.  Even in s.
    """
    if not k > 0:
        raise DomainError(f"K_factor needs k > 0, got {k}")
    s = np.asarray(s, dtype=float)
    if k < 0.5:
        return np.exp((0.5 - k) * log_cosh(s))
    if k == 0.5:
        return bracket(s)
    return np.ones_like(s)


def phi_weight(t, r, params: WeightParams):
    """Weight Phi_h(t,r) = e^(r/2) <t-r>^h for r >= 0; always >= 1."""
    return np.exp(log_phi_weight(t, r, params))


def log_phi_weight(t, r, params: WeightParams):
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("phi_weight is defined for r >= 0")
    return 0.5 * r + params.h * np.log(bracket(t - r))


def cg_nodes(n: int, c_lo: float, c_hi: float):
    """Chebyshev-Gauss rule for the weight ((c_hi-x)(x-c_lo))^(-1/2).

    Its one user is meanprop.beta_identity_check.

    Parameters
    ----------
    n : int
        Number of nodes; the rule is exact whenever the smooth factor is
        a polynomial of degree < 2n.
    c_lo, c_hi : float
        Integration endpoints, c_lo < c_hi.

    Returns
    -------
    nodes, weights : ndarray
        Arrays of length n with sum(w_i g(x_i)) approximating
        int_{c_lo}^{c_hi} g(x) ((c_hi-x)(x-c_lo))^(-1/2) dx.
        All weights equal pi/n; the affine map from [-1,1] leaves the
        Chebyshev weights unchanged.
    """
    if n < 1:
        raise DomainError(f"cg_nodes needs n >= 1, got {n}")
    if not c_lo < c_hi:
        raise DomainError(f"cg_nodes needs c_lo < c_hi, got [{c_lo}, {c_hi}]")
    i = np.arange(1, n + 1)
    theta = (2.0 * i - 1.0) * np.pi / (2.0 * n)
    mid = 0.5 * (c_hi + c_lo)
    half = 0.5 * (c_hi - c_lo)
    nodes = mid + half * np.cos(theta)
    weights = np.full(n, np.pi / n)
    return nodes, weights


def uniform_grid(span, step, name):
    """The axis 0, step, ..., span of a Grid. name labels span/step in
    errors (e.g. "t_max/dt"); both must be positive and finite, and the
    ratio an integer (to within 1e-9) of at least 1."""
    if not (0 < span < np.inf and 0 < step < np.inf):
        raise DomainError(
            f"{name} needs positive finite entries, got {span!r}/{step!r}")
    n = span / step
    if abs(n - round(n)) > 1e-9:
        raise DomainError(f"{name} must be an integer, got {n:.6g}")
    if round(n) < 1:
        raise DomainError(f"{name} must be at least 1, got {n:.6g}")
    return np.linspace(0.0, span, round(n) + 1)


@dataclass(frozen=True)
class Grid:
    """The uniform grid [0, t_max] x [0, r_max] with steps dt and dr; its
    axes t and r are uniform_grid's arrays, read-only. Equal numbers make
    equal grids of equal hash, so a Grid keys the caches built on it."""

    t_max: float
    r_max: float
    dt: float
    dr: float
    t: np.ndarray = field(init=False, repr=False, compare=False)
    r: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for axis, span, step in (("t", self.t_max, self.dt),
                                 ("r", self.r_max, self.dr)):
            values = uniform_grid(span, step, f"{axis}_max/d{axis}")
            values.flags.writeable = False
            object.__setattr__(self, axis, values)
