"""Blow-up laboratory: boosted lower bounds and finite-time escape.

For 1 < p < 3 small positive data are expected to leave every bounded set in
finite time. The argument that motivates this module runs through explicit
machinery, all of which is reproduced here with every constant made concrete:

* a family of space-time regions (S, Sigma_l, R_{r,t}, T^l_{r,t}, Y) on the
  (lambda, tau) half-plane,
* a first-iterate lower bound u >= c0 eps (sinh r)^{-1/2} on S, with c0
  machine-found from the propagator's kernel bounds,
* a boost ladder (a_l, b_l, c_l) that trades powers of (t+r+log 1/(c eps))
  for powers of (t-r), running until the exponents cross at l0,
* a John-style doubling recursion (A_m, B_m, D_m) whose series constant E
  controls the time T after which the iterates detach,
* a closed-form blow-up time bound, and
* pointwise certificate checks of the two lower bounds against an
  independently simulated solution.

Everything past the first-iterate bound composes constants that a proof
would hide inside "C"; they are kept explicit (and conservative) so a
certificate can be re-derived and re-checked mechanically. The first-iterate
bound is the load-bearing one: certificate_verify asserts it pointwise,
while the boosted bound is reported for inspection only since its constant
chain is not claimed sharp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hypgeo import DomainError, QuadratureConfig, log_sinh
from .meanprop import (RadialProfile, SpaceTimeField, _as_profile,
                       _lower_bound_prefactor, _sqrt_sinh_integrals)
from .fdoracle import FDConfig, leapfrog

__all__ = [
    "BlowupParams", "BoostSequence", "JohnSequence", "BlowupCertificate",
    "VerifyReport", "EscapeReport", "bump_profile", "region_membership",
    "first_iterate_bound", "boost_sequence", "area_lower_bound",
    "john_recursion", "blowup_time_bound", "estimate_tilde_c",
    "build_certificate", "certificate_verify", "escape_detector",
]


@dataclass(frozen=True)
class BlowupParams:
    """Parameters of a blow-up run.

    p is the logarithmic exponent (subcritical regime 1 < p < 3), q the
    power in the large-amplitude branch of the nonlinearity, tau0 the data
    scale (the velocity profile is at least 1 on [tau0, 3*tau0]), epsilon
    the data amplitude, delta0 the nonlinearity's smallness threshold, C0
    the kernel lower-bound constant, and c0 the first-iterate constant.

    c0*epsilon must stay below delta0*sqrt(sinh(tau0/2)): the boost ladder
    feeds the first-iterate bound into the small-amplitude branch of the
    nonlinearity, which is only available below delta0, and the worst point
    of S sits at r = tau0/2. first_iterate_bound caps its output so the
    constraint can always be met by shrinking c0.
    """

    p: float
    q: float
    tau0: float
    epsilon: float
    delta0: float
    C0: float
    c0: float

    def __post_init__(self):
        if not 1.0 < self.p < 3.0:
            raise DomainError(f"p must lie in (1, 3); got p = {self.p}")
        if not self.q > 1.0:
            raise DomainError(f"q must exceed 1; got q = {self.q}")
        if not self.tau0 > 0.0:
            raise DomainError("tau0 must be positive")
        if not self.epsilon > 0.0:
            raise DomainError("epsilon must be positive")
        if not 0.0 < self.delta0 < 1.0:
            raise DomainError(f"delta0 must lie in (0, 1); got {self.delta0}")
        if not 0.0 < self.C0 <= 1.0:
            raise DomainError(f"C0 must lie in (0, 1]; got {self.C0}")
        if not self.c0 > 0.0:
            raise DomainError("c0 must be positive")
        ceiling = self.delta0 * math.sqrt(math.sinh(0.5 * self.tau0))
        if not self.c0 * self.epsilon < ceiling:
            raise DomainError(
                f"c0*epsilon = {self.c0 * self.epsilon:.6g} must stay below "
                f"delta0*sqrt(sinh(tau0/2)) = {ceiling:.6g}; shrink c0 or epsilon")


def bump_profile(tau0):
    """Smooth velocity bump: 1 on [tau0, 3*tau0], supported in
    [tau0/2, 7*tau0/2].

    The ramps are the standard exp(-1/x) partition-of-unity joins, so the
    profile is C^infinity; the joins are still flagged as quadrature knots
    because the function is not analytic there.
    """
    if not tau0 > 0.0:
        raise DomainError("tau0 must be positive")
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

    return RadialProfile(bump, support_radius=3.5 * tau0,
                         knots=np.array([half, tau0, 3.0 * tau0, 3.5 * tau0]))


# ---------------------------------------------------------------------------
# region geometry on the (lambda, tau) half-plane
# ---------------------------------------------------------------------------

def _mask_S(lam, tau, tau0):
    w = tau - lam
    return (w > tau0) & (w < 2.0 * tau0) & (tau + lam > 3.0 * tau0)


def _mask_sigma(lam, tau, tau0, l):
    return (tau - lam > 6.0 * l * tau0) & (lam > 0.5 * tau0)


def _mask_R(lam, tau, tau0, r, t):
    return ((tau >= 0.0)
            & (tau - lam <= t - r)
            & (t <= tau + lam) & (tau + lam <= t + r)
            & (np.abs(t - r - tau) >= 0.125 * tau0))


def _mask_T(lam, tau, tau0, l, r, t):
    w = tau - lam
    return (_mask_R(lam, tau, tau0, r, t)
            & _mask_sigma(lam, tau, tau0, l)
            & (0.5 * (6.0 * l * tau0 + (t - r)) <= w) & (w <= t - r))


def _mask_Y(lam, tau, tau0, T):
    return (lam > 0.5 * tau0) & (tau > T) & (tau + lam <= T + tau0)


def region_membership(lam, tau, params, which, *, l=None, r=None, t=None, T=None):
    """Membership test for the blow-up regions.

    which is one of "S", "Sigma" (needs l), "R" (needs r, t), "T" (needs
    l, r, t), "Y" (needs T). params may be a BlowupParams or a bare tau0.
    lam and tau may be arrays, in which case a boolean array comes back.

    The defining inequalities, verbatim:

        S:        tau0 < tau - lam < 2*tau0  and  tau + lam > 3*tau0
        Sigma_l:  tau - lam > 6*l*tau0       and  lam > tau0/2
        R_{r,t}:  tau >= 0,  tau - lam <= t - r,  t <= tau + lam <= t + r,
                  |t - r - tau| >= tau0/8
        T^l_{r,t}: R_{r,t} and Sigma_l and
                  (6*l*tau0 + t - r)/2 <= tau - lam <= t - r
        Y:        lam > tau0/2,  tau > T,  tau + lam <= T + tau0
    """
    tau0 = params.tau0 if isinstance(params, BlowupParams) else float(params)
    if not tau0 > 0.0:
        raise DomainError("tau0 must be positive")
    lam = np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)

    def need(name, val):
        if val is None:
            raise DomainError(f"region {which} needs parameter {name}")
        return float(val)

    if which == "S":
        mask = _mask_S(lam, tau, tau0)
    elif which == "Sigma":
        mask = _mask_sigma(lam, tau, tau0, need("l", l))
    elif which == "R":
        mask = _mask_R(lam, tau, tau0, need("r", r), need("t", t))
    elif which == "T":
        mask = _mask_T(lam, tau, tau0, need("l", l), need("r", r), need("t", t))
    elif which == "Y":
        mask = _mask_Y(lam, tau, tau0, need("T", T))
    else:
        raise DomainError(f"unknown region {which!r}; expected S, Sigma, R, T or Y")
    return mask if mask.ndim else bool(mask)


# ---------------------------------------------------------------------------
# first-iterate bound on S
# ---------------------------------------------------------------------------

_N_WIDTH = 15  # widths t - r at which first_iterate_bound samples S


def first_iterate_bound(u1, params, q=QuadratureConfig()):
    """Machine-found constant c0 with u >= c0*eps*(sinh r)^{-1/2} on S.

    The first Duhamel iterate of velocity data eps*u1 dominates
    eps*lower_bound_I(u1, t, r) wherever the kernel bound applies, and every
    point of S qualifies: on S the width w = t - r lies in (tau0, 2*tau0),
    clear of the |t - r| > tau0/8 requirement, and t + r > 3*tau0 forces
    r > tau0/2. Since the nonlinearity is nonnegative on the relevant range
    and the propagation kernel is positive, the full solution inherits the
    bound. c0 is the infimum of (sinh r)^{1/2} * lower_bound_I over a dense
    sample of S (_N_WIDTH widths, a geometric ladder of radii per width,
    about 200 points total; the integrand is monotone towards the corner
    w -> 2*tau0, r -> tau0/2, so the corner is sampled tightly).

    The returned constant is additionally capped just under
    delta0*sqrt(sinh(tau0/2))/eps, which only weakens the bound and keeps
    the BlowupParams constraint satisfiable; params.c0 itself is ignored.
    Returns (c0, handle) where handle(t, r) evaluates c0*eps*(sinh r)^{-1/2};
    the handle is meaningful on S only. Data with u1 identically zero give
    c0 = 0 (and a zero handle), which is valid but useless downstream.
    """
    prof = _as_profile(u1)
    tau0, eps = params.tau0, params.epsilon
    widths = np.linspace(tau0 * (1.0 + 1e-6), 2.0 * tau0 * (1.0 - 1e-6), _N_WIDTH)
    # radial offsets above the corner r = (3*tau0 - w)/2, in units of tau0
    offsets = np.array([0.0, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5,
                        0.75, 1.0, 1.5, 2.5, 5.0])
    r_corner = 0.5 * (3.0 * tau0 - widths)
    r = (r_corner[:, None] * (1.0 + 1e-6) + offsets * tau0).ravel()
    t = r + np.repeat(widths, offsets.size)
    # lower_bound_I's bound_small alone
    t, r, pref = _lower_bound_prefactor(t, r, tau0, params.C0)
    keep = np.abs(t - r) > tau0 / 8.0
    small = pref[keep] * _sqrt_sinh_integrals(prof, np.abs(t - r)[keep],
                                              (t + r)[keep], q)
    # math.exp keeps c0's bits: np.exp's vector kernel can round the last
    # bit differently
    values = [math.exp(0.5 * ls) * s
              for ls, s in zip(log_sinh(r[keep]).tolist(), small)]
    if not values:
        raise DomainError("empty effective sample of S; tau0 may be degenerate")
    c0 = min(values)
    cap = (1.0 - 1e-9) * params.delta0 * math.sqrt(math.sinh(0.5 * tau0)) / eps
    c0 = min(c0, cap)

    def handle(t, r):
        r = np.asarray(r, dtype=float)
        out = c0 * eps * np.exp(-0.5 * log_sinh(np.maximum(r, 1e-300)))
        return out if out.ndim else float(out)

    return c0, handle


# ---------------------------------------------------------------------------
# the boost ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoostSequence:
    """The ladder (l, a_l, b_l, c_l) for l = 1..l0, with the crossing data.

    The bound at stage l reads

        u(t, r) >= c_l * eps * r * (sinh r)^{-1/2}
                   * (t + r + log(1/(c_l eps)))^{-b_l} * (t - r)^{a_l}

    on Sigma_l. a gains 2 per stage, b gains p - 1, so a catches b after
    l0 = floor(2/(3-p)) + 1 stages and the surplus A0 = l0(3-p) - 2 is
    strictly positive in the subcritical range.
    """

    entries: tuple
    l0: int
    A0: float

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        if not self.entries:
            raise DomainError("boost sequence must be nonempty")
        ls, a, b, c = (np.array(col) for col in zip(*self.entries))
        if list(ls) != list(range(1, len(ls) + 1)):
            raise DomainError("boost entries must be numbered 1..l0")
        if self.l0 != len(ls):
            raise DomainError("l0 must equal the number of entries")
        if a[0] != 0.0:
            raise DomainError("a_1 must be 0")
        if np.any(np.abs(np.diff(a) - 2.0) > 1e-12):
            raise DomainError("a must advance by 2 per stage")
        p = b[0] + 1.0
        if np.any(np.abs(np.diff(b) - (p - 1.0)) > 1e-12):
            raise DomainError("b must advance by p - 1 per stage")
        if np.any(c <= 0.0) or np.any(np.diff(c) > 0.0):
            raise DomainError("c must be positive and nonincreasing")
        if np.any(a[:-1] > b[:-1] + 1e-12):
            raise DomainError("a_l must not exceed b_l before the last stage")
        if abs(self.A0 - (self.l0 * (3.0 - p) - 2.0)) > 1e-9 or self.A0 <= 0.0:
            raise DomainError("A0 must equal l0*(3 - p) - 2 and be positive")


def boost_sequence(params):
    """Build the (a_l, b_l, c_l) ladder up to the crossing index l0.

    Exponents follow the exact recursion a_{l+1} = a_l + 2,
    b_{l+1} = b_l + p - 1 from (a_1, b_1) = (0, p - 1); in closed form
    a_j = 2j - 2 and b_j = (p-1)j, so stages keep a_j <= b_j exactly while
    j <= 2/(3-p) and l0 = floor(2/(3-p)) + 1 is the first crossing.

    Constants: c_1 = min(c0, tau0*C0*delta0*c0/4) seeds the ladder (the
    tau0/4 factor is the measure of the first iteration's inner region; the
    cap at c0 keeps every stage below the first-iterate constant so the
    log(1/(c_l eps)) factors stay in one sign regime). Each further stage
    multiplies by C0*delta0/32: one factor C0 from the kernel bound, delta0
    from the small-amplitude branch, 1/8 from the parabolic area bound and
    1/4 from the (alpha, beta) = (tau - lambda, tau + lambda) Jacobian,
    composed exactly as in area_lower_bound. The discarded ratio
    (t - r - 6l*tau0 - 3*tau0)/(t - r) is order one on Sigma_{l+1} but
    carries no uniform constant, so it is dropped rather than estimated;
    the resulting c_l are conservative.

    As p approaches 3 the ladder needs l0 ~ 2/(3-p) stages and the chain
    c_1 * (C0*delta0/32)^{l0-1} leaves float range; the constants are
    consumed multiplicatively downstream, so rather than silently flushing
    to zero this raises a DomainError. Desk-scale certificates live at
    p well inside (1, 3).
    """
    p = params.p
    if not 1.0 < p < 3.0:
        raise DomainError(f"p must lie in (1, 3); got p = {p}")
    l0 = math.floor(2.0 / (3.0 - p)) + 1
    A0 = l0 * (3.0 - p) - 2.0
    c = min(params.c0, 0.25 * params.tau0 * params.C0 * params.delta0 * params.c0)
    gain = params.C0 * params.delta0 / 32.0
    entries = []
    a, b = 0.0, p - 1.0
    for l in range(1, l0 + 1):
        if not c > 0.0:
            raise DomainError(
                f"boost constant underflows float range at stage {l} of {l0}; "
                f"p = {p} sits too close to 3 for a concrete constant chain")
        entries.append((l, a, b, c))
        a, b, c = a + 2.0, b + (p - 1.0), c * gain
    return BoostSequence(entries=tuple(entries), l0=l0, A0=A0)


def area_lower_bound(l, r, t, tau0):
    """Lower bound 0.5*((t - r - 6l*tau0 - 3*tau0)/2)^2 * r for the measure
    integral of lambda over T^l_{r,t}; 0 when the region is degenerate.

    The bound counts only the triangle between the diagonals
    tau - lam = (6l*tau0 + t - r)/2 and tau - lam = t - r below the
    backward light cone, with lambda >= r/... replaced by the crude factor
    r. It is a genuine lower bound for moderate widths; once
    t - r - 6l*tau0 - 3*tau0 grows past the order of r + tau0 the dropped
    Jacobian quarter makes it overshoot, and the boost ladder never uses it
    there. (On Sigma_{l+1} the width-to-cone ratio is at least
    3/(6l + 6); that observation is recorded here but deliberately not
    asserted anywhere.)
    """
    if not tau0 > 0.0:
        raise DomainError("tau0 must be positive")
    width = t - r - 6.0 * l * tau0 - 3.0 * tau0
    if width <= 0.0 or r <= 0.0:
        return 0.0
    return 0.5 * (0.5 * width) ** 2 * r


# ---------------------------------------------------------------------------
# the John-style doubling recursion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JohnSequence:
    """Entries (m, A_m, B_m, log D_m) of the doubling recursion, plus the
    series constant E and a rigorous bound on its truncation tail.

    D itself overflows float range within a few steps (it is doubly
    exponential in m), so the fourth slot stores log D_m. The guaranteed
    growth is log D_m >= (E - E_tail_bound) * q^m for every stored m.
    """

    q: float
    entries: tuple
    E: float
    E_tail_bound: float

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        if not self.q > 1.0:
            raise DomainError(f"q must exceed 1; got q = {self.q}")
        if self.E_tail_bound < 0.0:
            raise DomainError("E_tail_bound must be nonnegative")
        if not self.entries:
            raise DomainError("john sequence must be nonempty")
        ms, A, B, logD = (np.array(col) for col in zip(*self.entries))
        if list(ms) != list(range(len(ms))):
            raise DomainError("john entries must be numbered 0..m_max")
        q = self.q
        qm = q ** ms
        if not np.allclose(A, A[0] * qm, rtol=1e-12, atol=0.0):
            raise DomainError("A_m must follow the closed form A_0 q^m")
        if not np.allclose(B, 2.0 * (qm - 1.0) / (q - 1.0), rtol=1e-12, atol=1e-12):
            raise DomainError("B_m must follow the closed form 2(q^m - 1)/(q - 1)")
        floor = (self.E - self.E_tail_bound) * qm
        if np.any(logD < floor - 1e-9 * (1.0 + np.abs(floor))):
            raise DomainError("log D_m must stay above (E - E_tail_bound) q^m")


def john_recursion(A0, D0, q, C0, delta0, m_max=20):
    """Run A_{m+1} = q A_m, B_{m+1} = q B_m + 2, D_{m+1} = C0 d0 D_m^q / B_{m+1}^2
    from (A0, B0, D0) = (A0, 0, D0), in log-domain for D.

    The series constant is E = log D0 - sum_{j>=0} term_j / q^{j+1} with
    term_j = 2 log(j+1) + 2 j log q - log(C0*delta0/4); it controls the
    growth through log D_m >= E q^m, a consequence of B_m <= 2 m q^{m-1}.
    The terms increase with j, so the sum is truncated when a summand drops
    below 1e-14 (which the q^{-(j+1)} factor guarantees), and the discarded
    tail is bounded through log(j+1) <= log(J+1) + (j-J)/(J+1) by

        E_tail_bound = [term_J q/(q-1) + (2/(J+1) + 2 log q) q/(q-1)^2] / q^{J+1}

    so that log D_m >= (E - E_tail_bound) q^m holds rigorously.

    C0*delta0 may not exceed 4: past that the early series terms turn
    negative and the tail comparison above (and the stop rule) would be
    invalid. Equality is fine; it makes term_0 vanish exactly.
    """
    if not q > 1.0:
        raise DomainError(f"q must exceed 1; the series for E diverges at q = {q}")
    if not D0 > 0.0:
        raise DomainError("D0 must be positive")
    if not (C0 > 0.0 and delta0 > 0.0):
        raise DomainError("C0 and delta0 must be positive")
    if C0 * delta0 > 4.0:
        raise DomainError(
            f"C0*delta0 = {C0 * delta0:.6g} exceeds 4; the series terms for E "
            "would start negative and the tail bound would not apply")
    if not (isinstance(m_max, (int, np.integer)) and m_max >= 0):
        raise DomainError("m_max must be a nonnegative integer")

    log_cd = math.log(C0 * delta0)
    A, B, logD = float(A0), 0.0, math.log(D0)
    entries = [(0, A, B, logD)]
    for m in range(1, m_max + 1):
        A *= q
        B = B * q + 2.0
        logD = q * logD + log_cd - 2.0 * math.log(B)
        entries.append((m, A, B, logD))

    log_gap = -math.log(0.25 * C0 * delta0)  # = -log(C0*delta0/4) >= 0 here
    log_q = math.log(q)
    summands = []
    q_pow = q  # q^{j+1}
    j = 0
    while True:
        term = 2.0 * math.log(j + 1.0) + 2.0 * j * log_q + log_gap
        summand = term / q_pow
        if term > 0.0 and summand < 1e-14:
            break
        summands.append(summand)
        q_pow *= q
        j += 1
        if j > 100000:  # unreachable for q > 1; guards a pathological loop
            break
    # analytic truncation tail via log(j+1) <= log(J+1) + (j-J)/(J+1),
    # plus a cushion for the (correctly rounded, fsum) summation itself
    tail = (term * q / (q - 1.0)
            + (2.0 / (j + 1.0) + 2.0 * log_q) * q / (q - 1.0) ** 2) / q_pow
    E = math.log(D0) - math.fsum(summands)
    tail += 4e-16 * (1.0 + abs(E))
    return JohnSequence(q=float(q), entries=tuple(entries),
                        E=E, E_tail_bound=tail)


def blowup_time_bound(A0, E, q, tau0, c, epsilon, delta0, tilde_c):
    """Smallest time T past which the doubling argument closes, as the max
    of its three explicit thresholds:

        E + A0 log T + (2/(q-1)) log(tau0/2) > 0   (series constant wins)
        T > (1/(c eps))^{1/A0}                     (log factor stays positive)
        tilde_c eps T^{A0} > 1/delta0              (seed leaves the small regime)

    Returns the max of the three threshold values; the strict inequalities
    hold for every T beyond it. The result can be astronomically large (or
    inf) for tiny epsilon; that is an honest report, not an error.
    """
    if not A0 > 0.0:
        raise DomainError("A0 must be positive")
    if not q > 1.0:
        raise DomainError(f"q must exceed 1; got q = {q}")
    if not tau0 > 0.0:
        raise DomainError("tau0 must be positive")
    for name, val in (("c", c), ("epsilon", epsilon), ("tilde_c", tilde_c)):
        if not val > 0.0:
            raise DomainError(f"{name} must be positive")
    if not 0.0 < delta0 < 1.0:
        raise DomainError(f"delta0 must lie in (0, 1); got {delta0}")
    log_t1 = (-E - (2.0 / (q - 1.0)) * math.log(0.5 * tau0)) / A0
    t1 = math.exp(log_t1) if log_t1 < 709.0 else math.inf
    with np.errstate(over="ignore"):
        t2 = (1.0 / (c * epsilon)) ** (1.0 / A0)
        t3 = (1.0 / (delta0 * tilde_c * epsilon)) ** (1.0 / A0)
    return max(t1, t2, t3)


def estimate_tilde_c(boost, params):
    """Machine-found tilde_c with u >= tilde_c * eps * t^{A0} on Y.

    Plugging the last boost stage into Y: with c = c_{l0} and
    L = log(1/(c eps)), the stage-l0 bound divided by t^{A0} equals

        c r (sinh r)^{-1/2} (1 - r/t)^{2 l0 - 2} (1 + (r + L)/t)^{-l0(p-1)}

    using 2 l0 - 2 - l0(p-1) = A0. Both t-dependent factors increase in t,
    so the infimum over Y sits on the early-time edge t -> T, and the value
    at any T is itself increasing in T. Evaluating at the smallest T
    compatible with Y being inside Sigma_{l0}, namely T_ref = (6 l0 + 1) tau0,
    therefore yields a constant valid for every admissible later T. The
    infimum over the radial extent r in (tau0/2, tau0) of Y is taken over a
    dense sample, in log-space to dodge overflow in the large powers.
    """
    tau0, eps, p = params.tau0, params.epsilon, params.p
    l0 = boost.l0
    c = boost.entries[-1][3]
    if not c > 0.0:
        raise DomainError("boost constant must be positive")
    T_ref = (6.0 * l0 + 1.0) * tau0
    L = -(math.log(c) + math.log(eps))
    r = np.linspace(0.5 * tau0 * (1.0 + 1e-9), tau0 * (1.0 - 1e-9), 200)
    log_val = (math.log(c) + np.log(r) - 0.5 * log_sinh(r)
               + (2.0 * l0 - 2.0) * np.log(T_ref - r)
               - l0 * (p - 1.0) * np.log(T_ref + r + L)
               - boost.A0 * math.log(T_ref))
    return float(np.exp(np.min(log_val)))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupCertificate:
    """A reproducible record of one blow-up construction.

    T is the certified detachment time (past every threshold of
    blowup_time_bound and large enough that Y fits inside Sigma_{l0}).
    verification_points holds (t, r, bound, simulated_value) tuples from a
    completed certificate_verify run; each stored point must dominate.
    """

    params: BlowupParams
    boost: BoostSequence
    john: JohnSequence
    T: float
    verification_points: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "verification_points",
                           tuple(map(tuple, self.verification_points)))
        if not self.T > 0.0:
            raise DomainError("T must be positive")
        if self.T < (6.0 * self.boost.l0 + 1.0) * self.params.tau0 * (1.0 - 1e-12):
            raise DomainError(
                "T must be at least (6*l0 + 1)*tau0 so Y sits inside Sigma_l0")
        if abs(self.john.entries[0][1] - self.boost.A0) > 1e-9 * (1.0 + self.boost.A0):
            raise DomainError("john A_0 must match the boost crossing surplus A0")
        for point in self.verification_points:
            t, r, bound, value = point
            if value < bound:
                raise DomainError(
                    f"verification point (t={t:.6g}, r={r:.6g}) has simulated "
                    f"value {value:.6g} below its bound {bound:.6g}")


def build_certificate(u1, params, m_max=20, q=QuadratureConfig()):
    """Assemble the full constant chain for data (0, eps*u1).

    Steps: machine-find c0 on S, seed the boost ladder, extract tilde_c on
    Y, run the John recursion from D0 = tilde_c*eps, and pick T as the
    blow-up time bound (using the rigorous side E - E_tail_bound of the
    series constant), raised to (6*l0 + 1)*tau0 if the bound lands below
    the Y containment threshold. The returned certificate carries no
    verification points; attach them from a certificate_verify report via
    dataclasses.replace if simulation data are available.
    """
    c0, _ = first_iterate_bound(u1, params, q=q)
    if not c0 > 0.0:
        raise DomainError(
            "first-iterate constant vanished; u1 must be positive on [tau0, 3*tau0]")
    params = replace(params, c0=c0)
    boost = boost_sequence(params)
    tilde_c = estimate_tilde_c(boost, params)
    john = john_recursion(boost.A0, tilde_c * params.epsilon, params.q,
                          params.C0, params.delta0, m_max)
    c_top = boost.entries[-1][3]
    T = blowup_time_bound(boost.A0, john.E - john.E_tail_bound, params.q,
                          params.tau0, c_top, params.epsilon, params.delta0,
                          tilde_c)
    T = max(T, (6.0 * boost.l0 + 1.0) * params.tau0 * (1.0 + 1e-9))
    return BlowupCertificate(params=params, boost=boost, john=john, T=T)


@dataclass(frozen=True)
class VerifyReport:
    """Pointwise comparison of a simulated field against certificate bounds.

    Margins are absolute (value - bound); violations hold the offending
    (t, r, bound, value) tuples. first_* covers the first-iterate bound on
    S, boost_* the stage-l0 bound on Sigma_{l0}. coverage_warning is set
    when the simulation grid misses one of the regions entirely, making the
    report partial. passed_points is a decimated sample (at most 200) of
    passing first-iterate points, suitable for embedding in a certificate.
    """

    first_checked: int
    first_violations: tuple
    first_min_margin: float | None
    boost_checked: int
    boost_violations: tuple
    boost_min_margin: float | None
    coverage_warning: str | None
    passed_points: tuple

    def __post_init__(self):
        object.__setattr__(self, "first_violations",
                           tuple(map(tuple, self.first_violations)))
        object.__setattr__(self, "boost_violations",
                           tuple(map(tuple, self.boost_violations)))
        object.__setattr__(self, "passed_points",
                           tuple(map(tuple, self.passed_points)))
        for name in ("first_checked", "boost_checked"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")
        if len(self.first_violations) > self.first_checked:
            raise DomainError("more first violations than checked points")
        if len(self.boost_violations) > self.boost_checked:
            raise DomainError("more boost violations than checked points")


def _scalar_pow(base, expo):
    """base ** expo per element through numpy's scalar power, whose last
    bit can differ from the vectorised ufunc's."""
    return np.array([b ** expo for b in base])


def _first_min(margins):
    """The smallest margin, its first occurrence as min() picks it; None
    if there is none."""
    return margins[np.argmin(margins)] if margins.size else None


def certificate_verify(cert, u_sim):
    """Check a simulated solution against the certificate's lower bounds.

    The first-iterate bound c0*eps*(sinh r)^{-1/2} is checked at every grid
    point of u_sim inside S; this is the asserted inequality. The boosted
    stage-l0 bound is checked on Sigma_{l0} and reported for inspection:
    its constants are conservative compositions, so violations there flag
    the constant chain, not the simulation. Sigma_{l0} only opens at
    t - r > 6*l0*tau0, so short simulations typically produce a coverage
    warning and a partial report; that is expected, not an error.

    u_sim should come from the same data and nonlinearity the certificate
    describes (amplitude eps included); the verifier has no way to check
    provenance.
    """
    if not isinstance(u_sim, SpaceTimeField):
        raise DomainError("u_sim must be a SpaceTimeField")
    params, boost = cert.params, cert.boost
    tau0, eps, p, l0 = params.tau0, params.epsilon, params.p, boost.l0
    T, R = np.meshgrid(u_sim.t_grid, u_sim.r_grid, indexing="ij")
    U = u_sim.values
    # (sinh r)^{-1/2} per grid radius, by math.exp as in first_iterate_bound
    decay = np.array([math.exp(-0.5 * x)
                      for x in log_sinh(u_sim.r_grid).tolist()])

    warnings = []

    # first-iterate bound on S: (lam, tau) read as (r, t)
    in_s = _mask_S(R, T, tau0)
    t, r, val = T[in_s], R[in_s], U[in_s]
    bound = params.c0 * eps * decay[np.nonzero(in_s)[1]]
    first_margins = val - bound
    fail, ok = first_margins < 0.0, first_margins >= 0.0
    first_violations = list(zip(t[fail], r[fail], bound[fail], val[fail]))
    passing = list(zip(t[ok], r[ok], bound[ok], val[ok]))
    if not first_margins.size:
        warnings.append(
            f"grid covers no point of S (needs {tau0} < t - r < {2 * tau0} "
            f"and t + r > {3 * tau0})")

    # boosted bound on Sigma_{l0}, reported only
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

    stride = max(1, len(passing) // 200)
    return VerifyReport(
        first_checked=len(first_margins),
        first_violations=tuple(first_violations),
        first_min_margin=_first_min(first_margins),
        boost_checked=len(boost_margins),
        boost_violations=tuple(boost_violations),
        boost_min_margin=_first_min(boost_margins),
        coverage_warning="; ".join(warnings) if warnings else None,
        passed_points=tuple(passing[::stride][:200]),
    )


# ---------------------------------------------------------------------------
# escape detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EscapeReport:
    """Outcome of watching sup_r u along a finite-difference run.

    t_escape is the first time the sup exceeds the threshold (or the time
    of the first non-finite value, with instability set), None if neither
    happens in the window. Histories stop at the escape step; the sup entry
    at an instability step is NaN.
    """

    t_escape: float | None
    instability: bool
    threshold: float
    t_history: np.ndarray
    sup_history: np.ndarray

    def __post_init__(self):
        if self.instability and self.t_escape is None:
            raise DomainError("an instability must carry its escape time")
        if len(self.t_history) != len(self.sup_history):
            raise DomainError("history arrays must align")
        if not np.isfinite(self.threshold):
            raise DomainError("threshold must be finite")

    @property
    def escaped(self):
        return self.t_escape is not None


def escape_detector(u0, u1, F, cfg: FDConfig, threshold):
    """Step the finite-difference scheme, watching for sup_r u > threshold.

    Runs fdoracle.leapfrog, the stepper of fd_solve, but records only the
    signed spatial max per step and stops early at the first crossing. A
    non-finite value before the crossing is reported as an escape at that
    time with the instability flag raised, since a genuine blow-up drives
    the explicit scheme through overflow; the flag keeps the two causes
    separable.

    F is a callable of u or None for the linear equation. The threshold is
    compared strictly; data already above it escape at t = 0.
    """
    threshold = float(threshold)
    if not np.isfinite(threshold):
        raise DomainError("threshold must be finite")
    times, sups = [], []
    t_escape, instability = None, False
    with np.errstate(over="ignore", invalid="ignore"):
        for n, u in enumerate(leapfrog(u0, u1, F, cfg)):
            t = n * cfg.dt
            times.append(t)
            if not np.all(np.isfinite(u)):
                sups.append(np.nan)
                t_escape, instability = t, True
                break
            sups.append(float(np.max(u)))
            if sups[-1] > threshold:
                t_escape = t
                break

    return EscapeReport(t_escape=t_escape, instability=instability,
                        threshold=threshold,
                        t_history=np.asarray(times),
                        sup_history=np.asarray(sups))
