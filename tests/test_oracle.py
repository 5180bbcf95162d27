"""A live 30-digit oracle for the propagation kernel and the spherical mean.

Everything here is computed with mpmath at 30 significant digits from the
defining integrals and shares no code with hypwave.meanprop:

* the W double integral reduced to one lam-integral by the elliptic
  closed form of its inner s-integral,
      W(t, r, f) = int f(lam) 2 K(kappa) / sqrt(a(M) - a(b)) dlam,
  b = |r - lam|, c = min(t, r + lam), M = max(t, r + lam),
  kappa = (a(c) - a(b)) / (a(M) - a(b)), over max(r - t, 0) < lam < r + t,
  with mp.ellipk and mp.quad split at |t - r| and r + t;
* the sine propagator as I(t, r, phi) = W(t, r, phi sinh, 2cosh) / pi;
* the spherical mean from its defining integral with the endpoint
  singularities left to tanh-sinh quadrature.
"""

import mpmath as mp
import numpy as np
import pytest

from hypwave.meanprop import (
    MonotoneWeight,
    W_evaluator,
    linear_field,
    sine_propagator,
    spherical_mean,
)

mp.mp.dps = 30

WEIGHTS = {"2cosh": lambda s: 2 * mp.cosh(s), "s^2": lambda s: s * s}


def theta1(lam):
    return np.cosh(lam) ** -1.5


def theta1_mp(lam):
    return mp.cosh(lam) ** mp.mpf(-1.5)


def w_oracle(t, r, f, a):
    t, r = mp.mpf(t), mp.mpf(r)

    def kernel(lam):
        b, c, M = abs(r - lam), min(t, r + lam), max(t, r + lam)
        amb = a(M) - a(b)
        return 2 * mp.ellipk((a(c) - a(b)) / amb) / mp.sqrt(amb)

    lo, hi = max(r - t, 0), r + t
    pts = [lo] + [p for p in (abs(t - r),) if lo < p < hi] + [hi]
    return mp.quad(lambda lam: f(lam) * kernel(lam), pts)


def sine_oracle(t, r, phi):
    return w_oracle(t, r, lambda lam: phi(lam) * mp.sinh(lam), WEIGHTS["2cosh"]) / mp.pi


def mean_oracle(t, r, f):
    t, r = mp.mpf(t), mp.mpf(r)
    lo, hi = abs(r - t), r + t
    c_lo, c_hi = mp.cosh(lo), mp.cosh(hi)
    g = lambda lam: f(lam) * mp.sinh(lam) / mp.sqrt(
        (c_hi - mp.cosh(lam)) * (mp.cosh(lam) - c_lo))
    return mp.quad(g, [lo, hi]) / mp.pi


def rel(got, want):
    return float(abs(mp.mpf(got) - want) / abs(want))


# r = 0; t = r; r - t = 0.03 and 0.05 (the log singularity just outside
# the support); (0.56, 0.04), where the branch at scale 2r sits next to
# the log singularity; a thin shell far out, and long ranges
SINE_POINTS = [(1.0, 0.5), (2.0, 0.0), (0.5, 0.0), (4.0, 2.0), (4.0, 6.0),
               (8.0, 3.0), (0.05, 7.9), (0.56, 0.04), (1.0, 1.0), (8.0, 8.0),
               (2.0, 2.03), (2.0, 2.05), (3.0, 0.2), (0.3, 0.2)]


@pytest.mark.parametrize("t, r", SINE_POINTS)
def test_sine_propagator(t, r):
    assert rel(sine_propagator(theta1, t, r), sine_oracle(t, r, theta1_mp)) <= 1e-12


@pytest.mark.parametrize("t, r", [(2.0, 0.5), (0.8, 1.6), (3.0, 3.0), (1.0, 4.0),
                                  (2.0, 0.0)])
@pytest.mark.parametrize("name", ["2cosh", "s^2"])
def test_W_evaluator(name, t, r):
    weight = (MonotoneWeight.two_cosh() if name == "2cosh"
              else MonotoneWeight.s_squared())
    want = w_oracle(t, r, theta1_mp, WEIGHTS[name])
    assert rel(W_evaluator(t, r, theta1, weight), want) <= 1e-12


@pytest.mark.parametrize("t, r, tol", [
    (2.0, 5.0, 1e-12), (0.7, 9.0, 1e-12), (4.0, 4.5, 1e-12), (3.0, 2.0, 1e-12),
    (0.05, 0.3, 1e-12),
    # the mean rule's levels agree there to its _REL_TOL of 1e-8, and its
    # settled value is 8.5e-12 off
    (12.0, 11.0, 1e-11)])
def test_spherical_mean(t, r, tol):
    want = mean_oracle(t, r, theta1_mp)
    assert rel(spherical_mean(theta1, t, r), mp.re(want)) <= tol


def test_linear_field_on_the_grid():
    # the first level of the rule, every radius at once
    g = np.linspace(0.0, 4.0, 9)
    fld = linear_field(theta1, g, g)
    for i, j in [(1, 0), (2, 1), (4, 4), (8, 3), (3, 8), (8, 8)]:
        assert rel(fld.values[i, j], sine_oracle(g[i], g[j], theta1_mp)) <= 1e-10
