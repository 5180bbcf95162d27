"""The logarithmic nonlinearity family.

Two concrete nonlinearities are provided. The canonical one,

    F_p(u) = (asinh(1/|u|))^{-(p-1)} |u|,

is even, C^1, vanishes to first order at the origin, and behaves like
(ln 1/|u|)^{1-p} |u| for small u and like |u|^p for large u. The generic
one realizes the two lower bounds

    F(u) >= delta0 (ln 1/|u|)^{1-p} |u|   for |u| <= delta0,
    F(u) >= delta0 |u|^q                  for |u| >= 1/delta0,

with equality on both outer branches and a single C^1 cubic Hermite blend
in log-log coordinates between them: writing x = ln|u| and g(x) = ln F(e^x),
the two branches give

    g_left(x)  = ln(delta0) + x + (1-p) ln(-x),      x <= ln(delta0),
    g_right(x) = ln(delta0) + q x,                   x >= -ln(delta0),

and on [ln(delta0), -ln(delta0)] the module uses the cubic Hermite
interpolant of (g_left, g_left') and (g_right, g_right') at the endpoints.
That interpolant is the published formula of the piecewise nonlinearity.

The Lipschitz envelope G(u) = A (ln 1/u)^{1-p} controls difference
quotients of either nonlinearity on (0, 1/A] once A is large enough;
a spec's A is fit_A's, computed numerically on its first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .hypgeo import DomainError

__all__ = [
    "NonlinearitySpec",
    "G_envelope",
    "nonlinearity",
    "fit_A",
    "lipschitz_diff_bound",
]

_KINDS = ("canonical_sinh_inverse", "piecewise_generic")
_FIT_U_MAX = 0.5  # fit_A's log grid ends here, so A >= 1/_FIT_U_MAX
_FIT_POINTS = 4001  # points of fit_A's log grid


@dataclass(frozen=True)
class NonlinearitySpec:
    """Parameters of one member of the nonlinearity family.

    p is the logarithmic exponent, q the large-u power on the blow-up
    side, delta0 the constant in the lower bounds; A, the constant of the
    Lipschitz envelope G, is fit_A's (the blow-up side never reads it).
    """

    p: float
    q: float
    delta0: float
    kind: str = "canonical_sinh_inverse"
    A = cached_property(lambda self: fit_A(self))

    def __post_init__(self):
        if not self.p > 1:
            raise DomainError("p must exceed 1")
        if not self.q > 1:
            raise DomainError("q must exceed 1")
        if not 0 < self.delta0 < 1:
            raise DomainError("delta0 must lie in (0, 1)")
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}")
        if self.kind == "piecewise_generic":
            _blend_coeffs(self.p, self.q, self.delta0)  # the monotone check


@lru_cache(maxsize=64)
def _canonical(p):
    """The canonical F of one p, (asinh(1/|u|))^{-(p-1)} |u| extended by
    0 at u = 0, as a callable of u with 1 - p bound; nonlinearity(spec)
    returns it for a canonical spec, and the spec has checked p > 1.

    1/|u|, its asinh, the power and the product are formed in place. No
    input needs a guard: u = 0 gives 1/0 = inf, asinh inf = inf,
    inf^(1-p) = 0 and 0 |u| = 0, the limit; a subnormal u, whose 1/|u|
    overflows, gives 0 the same way; u = +-inf gives 0^(1-p) inf = inf;
    and a NaN stays NaN. Those divisions by zero and overflows (as of a
    large |u|^p) are the limits, so they do not warn. A scalar u runs
    the same array loops, so it gives its array element's bits.
    """
    e = 1.0 - p

    def F(u):
        au = np.abs(np.asarray(u, dtype=float))
        v = np.empty_like(au)
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(1.0, au, out=v)
            np.arcsinh(v, out=v)
            v **= e
            v *= au
        if v.ndim == 0:
            return float(v)
        return v

    return F


def _blend_coeffs(p, q, delta0):
    """Cubic Hermite data for the log-log blend of the piecewise F on
    [ln delta0, -ln delta0], plus a construction-time monotonicity check."""
    xl = np.log(delta0)
    xr = -np.log(delta0)
    gl = np.log(delta0) + xl + (1.0 - p) * np.log(-xl)
    dgl = 1.0 + (1.0 - p) / xl
    gr = np.log(delta0) + q * xr
    dgr = q
    h = xr - xl
    # monotone means g' >= 0 across the blend; for a cubic Hermite the
    # derivative is a quadratic in the panel coordinate, sampled densely
    s = np.linspace(0.0, 1.0, 257)
    dH = (gl * (6 * s * s - 6 * s) / h + dgl * (3 * s * s - 4 * s + 1)
          + gr * (6 * s - 6 * s * s) / h + dgr * (3 * s * s - 2 * s))
    if np.any(dH < 0):
        raise DomainError(
            f"(p={p}, q={q}, delta0={delta0}) gives a non-monotone blend; "
            "the piecewise nonlinearity requires branch slopes close enough "
            "to the chord")
    return xl, xr, gl, dgl, gr, dgr


@lru_cache(maxsize=64)
def _generic(spec: NonlinearitySpec):
    """The piecewise F of the module docstring for one spec, as a callable
    of u with the blend data, delta0, 1/delta0, 1 - p and q bound as
    floats; nonlinearity(spec) returns it for a piecewise_generic spec.

    Each branch is evaluated only on the points it covers, in place: 0 at
    u = 0, the small branch on 0 < |u| <= delta0, the large one on
    |u| >= 1/delta0 and the blend on the rest, NaN included (a NaN stays
    NaN); the large branch and the blend are skipped when they cover
    none. A scalar u gives a float. The blend is h00 gl + (h10 h) dgl +
    h01 gr + (h11 h) dgr, the cubic Hermite form in the panel coordinate
    s, with (1 - s)^2, s^2 and 2 s each computed once.
    """
    xl, xr, gl, dgl, gr, dgr = map(
        float, _blend_coeffs(spec.p, spec.q, spec.delta0))
    h = xr - xl
    d = spec.delta0
    inv_d = 1.0 / d
    e = 1.0 - spec.p
    q = spec.q

    def F(u):
        au = np.abs(np.asarray(u, dtype=float))
        below = au <= d
        large = au >= inv_d
        small = below & (au > 0.0)
        blend = ~(below | large)
        out = np.zeros(au.shape)
        a = au[small]
        # ln|u| < 0 on the small branch, since delta0 < 1
        v = np.log(a)
        np.negative(v, out=v)
        v **= e
        v *= d
        v *= a
        out[small] = v
        v = au[large]
        if v.size:
            v **= q
            v *= d
            out[large] = v
        s = au[blend]
        if s.size:
            np.log(s, out=s)
            s -= xl
            s /= h
            c = 1.0 - s
            c *= c                           # (1 - s)^2
            two_s = 2.0 * s
            acc = two_s + 1.0
            acc *= c
            acc *= gl                        # h00 gl
            c *= s
            c *= h
            c *= dgl
            acc += c                         # + (h10 h) dgl
            np.multiply(s, s, out=c)         # s^2
            np.subtract(3.0, two_s, out=two_s)
            two_s *= c
            two_s *= gr
            acc += two_s                     # + h01 gr
            s -= 1.0
            s *= c
            s *= h
            s *= dgr
            acc += s                         # + (h11 h) dgr
            np.exp(acc, out=acc)
            out[blend] = acc
        if out.ndim == 0:
            return float(out)
        return out

    return F


def G_envelope(u_abs, p, A):
    """The Lipschitz envelope A (ln 1/u)^{1-p} on (0, 1/A]."""
    if not p > 1:
        raise DomainError("p must exceed 1")
    if not A > 0:
        raise DomainError("A must be positive")
    u_abs = np.asarray(u_abs, dtype=float)
    if np.any(u_abs <= 0) or np.any(u_abs > 1.0 / A + 1e-15):
        raise DomainError(f"G_envelope domain is (0, 1/A] = (0, {1.0 / A:.6g}]")
    out = A * (-np.log(u_abs)) ** (1.0 - p)
    if out.ndim == 0:
        return float(out)
    return out


def nonlinearity(spec: NonlinearitySpec):
    """The nonlinearity of a spec as a plain callable of u: the one way
    to evaluate F.

    The callable is cached per spec (per p for the canonical kind), so
    repeated calls return the same object and evaluate with constants
    bound once.
    """
    if spec.kind == "canonical_sinh_inverse":
        return _canonical(spec.p)
    return _generic(spec)


def fit_A(spec: NonlinearitySpec):
    """A numeric constant A for the envelope G of this nonlinearity.

    Computes sup |F'(u)| (ln 1/u)^{p-1} over a log grid on (0, u*],
    u* = _FIT_U_MAX = 1/2, through central difference quotients, pads it
    by 5 percent, and returns at least 1/u*. The returned A
    satisfies |F'(w)| <= G(w) for all w in (0, 1/A], which is what the
    difference bound needs, because 1/A <= u* and G only grows with A.
    """
    F = nonlinearity(spec)
    u = np.geomspace(1e-16, _FIT_U_MAX, _FIT_POINTS)
    h = 1e-6 * u
    dF = (F(u + h) - F(u - h)) / (2.0 * h)
    sup = float(np.max(np.abs(dF) * (-np.log(u)) ** (spec.p - 1.0)))
    return max(1.0 / _FIT_U_MAX, 1.05 * sup)


def lipschitz_diff_bound(u, v, spec: NonlinearitySpec):
    """(|F(u) - F(v)|, G(max(|u|,|v|)) |u - v|) for |u|, |v| <= 1/A.

    The second component bounds the first, since spec.A is fit_A's;
    equal arguments give (0, 0).
    """
    cap = 1.0 / spec.A
    if abs(u) > cap + 1e-15 or abs(v) > cap + 1e-15:
        raise DomainError(f"lipschitz_diff_bound needs |u|, |v| <= 1/A = {cap:.6g}")
    F = nonlinearity(spec)
    diff = abs(float(F(u)) - float(F(v)))
    m = max(abs(u), abs(v))
    if m == 0.0 or u == v:
        return 0.0, 0.0
    bound = float(G_envelope(m, spec.p, spec.A)) * abs(u - v)
    return diff, bound
