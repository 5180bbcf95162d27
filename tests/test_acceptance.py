"""Acceptance gate: twelve end-to-end checks of the whole laboratory.

Each test is one criterion with its tolerance and runtime budget fixed
up front; `pytest tests/test_acceptance.py -v` prints one pass/fail
line per criterion. The checks intentionally cross module boundaries
(kernel engine against the finite-difference oracle, empirical
contraction against Picard convergence, certificate bounds against a
simulated blow-up) so a regression anywhere in the chain surfaces here.

Frozen reference values and the reasoning behind window or grid choices
that differ from the obvious ones (the cfl cap in criterion 4, the
t_max = 5 simulation window in criterion 10) are documented inline.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypwave.blowlab import (
    BlowupParams,
    boost_sequence,
    build_certificate,
    bump_profile,
    certificate_verify,
    escape_detector,
    john_recursion,
)
from hypwave.fdoracle import FDConfig, convergence_order, fd_solve
from hypwave.globalsolver import (
    SolverConfig,
    claim_bound_check,
    contraction_probe,
    decay_fit,
    epsilon_threshold,
    picard_solve,
)
from hypwave.hypgeo import Grid, theta_k
from hypwave.meanprop import (
    MonotoneWeight,
    RadialProfile,
    SpaceTimeField,
    beta_identity_check,
    linear_field,
    sine_propagator,
    spherical_mean,
)
from hypwave.nonlin import NonlinearitySpec, nonlinearity
from references import duhamel

ZERO = RadialProfile(0.0)
ONES = RadialProfile(1.0)
THETA1 = RadialProfile(lambda r: theta_k(r, 1.0))

SPEC35 = NonlinearitySpec(p=3.5, q=2.0, delta0=0.45)
CFG35 = SolverConfig(p=3.5, h=1.2, epsilon=0.05,
                     grid=Grid(8.0, 8.0, 0.05, 0.05))

# Calibrated on this grid, wavecli's default for solve and contraction,
# with rng_seed 11 and 20 pairs; the threshold is empirical, so criteria
# 6, 7 and 11 reuse exactly that seed and pair count. Criterion 6
# recomputes and checks the freeze.
EPS0_FROZEN = 0.07496261596772194


@pytest.fixture(scope="module")
def eps0():
    return epsilon_threshold(SPEC35, CFG35, rng_seed=11, n_pairs=20).epsilon


def test_01_beta_identity_is_pi():
    """100 random (b, c) in (0, 5), both admissible weights, 1e-10."""
    rng = np.random.default_rng(42)
    weights = (MonotoneWeight.two_cosh(), MonotoneWeight.s_squared())
    for _ in range(100):
        b, c = np.sort(rng.uniform(0.0, 5.0, 2))
        if c - b < 1e-6:
            c = b + 1e-6
        for weight in weights:
            assert abs(beta_identity_check(float(b), float(c), weight)
                       - math.pi) < 1e-10


def test_02_constant_data_exactness():
    """I(t, r, 1) = 2 sinh(t/2) and unit-source Duhamel = 4(cosh(t/2)-1)."""
    for t in (0.5, 1.0, 2.0, 4.0):
        want = 2.0 * math.sinh(t / 2.0)
        for r in (0.0, 1.0, 3.0):
            got = sine_propagator(ONES, t, r)
            assert abs(got - want) <= 1e-6 * want

    tg = np.linspace(0.0, 2.0, 41)
    rg = np.linspace(0.0, 8.0, 81)
    unit = SpaceTimeField(tg, rg, np.ones((41, 81)))
    for t in (0.5, 1.0, 2.0):
        want = 4.0 * (math.cosh(t / 2.0) - 1.0)
        for r in (0.0, 1.0):
            assert abs(duhamel(unit, t, r) - want) <= 1e-6 * want


def test_03_mean_identities_on_grid():
    """Symmetry of the mean in (t, r) and mean-of-one = 1, 1e-8, 50x50."""
    prof = RadialProfile(lambda r: np.exp(-0.5 * r**2))
    grid = np.linspace(0.0, 10.0, 50)
    worst_sym = worst_one = 0.0
    for t in grid:
        for r in grid:
            worst_one = max(worst_one,
                            abs(spherical_mean(ONES, float(t), float(r))
                                - 1.0))
            if t >= r:
                a = spherical_mean(prof, float(t), float(r))
                b = spherical_mean(prof, float(r), float(t))
                worst_sym = max(worst_sym, abs(a - b))
    assert worst_sym < 1e-8
    assert worst_one < 1e-8


def test_04_cross_oracle_agreement():
    """Kernel engine vs fd at dr = 2e-3 within 5e-3 relative on t, r <= 4.

    dt is 4/2240 = 1.786e-3 rather than 2e-3: the leapfrog scheme's
    origin row caps the stable Courant number near 0.9, so dt = dr
    diverges. The comparison runs at the stated dr with the largest
    stable dt that divides the horizon.
    """
    cfg = FDConfig(Grid(4.0, 9.0, 4.0 / 2240.0, 2e-3), snapshot_every=112)
    fd = fd_solve(ZERO, THETA1, None, cfg)
    worst = 0.0
    for i, t in enumerate(fd.t_grid):
        if t == 0.0:
            continue
        for r in np.arange(0.0, 4.0 + 1e-9, 0.4):
            j = int(round(r / cfg.grid.dr))
            kernel = sine_propagator(THETA1, float(t), float(r))
            if abs(kernel) > 1e-12:
                worst = max(worst,
                            abs(kernel - fd.values[i, j]) / abs(kernel))
    assert worst <= 5e-3


@pytest.mark.slow
def test_05_dispersive_decay_slope_and_weighted_sup():
    """Slope of ln|u| vs r on t - r = 1 in [-0.55, -0.45]; weighted sup
    over t, r <= 12 stable within 5% under grid halving."""
    sups = []
    for step in (0.25, 0.125):
        grid = np.linspace(0.0, 12.0, round(12.0 / step) + 1)
        field = linear_field(THETA1, grid, grid)
        rep = decay_fit(field, k=1.0)
        assert -0.55 <= rep.slope_r <= -0.45
        assert math.isfinite(rep.sup_weighted)
        sups.append(rep.sup_weighted)
    assert abs(sups[1] - sups[0]) <= 0.05 * sups[0]


@pytest.mark.slow
def test_06_contraction_threshold(eps0):
    """epsilon_threshold > 0; 20-pair probe at eps0 has max_ratio <= 0.5
    and the re-probe at eps0/10 is strictly smaller."""
    assert eps0 > 0.0
    assert eps0 == pytest.approx(EPS0_FROZEN, rel=1e-12)
    at_eps0 = contraction_probe(SPEC35, replace(CFG35, epsilon=eps0),
                                n_pairs=20, rng_seed=11)
    assert at_eps0.max_ratio <= 0.5
    tenth = contraction_probe(SPEC35, replace(CFG35, epsilon=eps0 / 10.0),
                              n_pairs=20, rng_seed=11)
    assert tenth.max_ratio < at_eps0.max_ratio


@pytest.mark.slow
def test_07_picard_convergence(eps0):
    """At eps0/2 the weighted difference norms contract with ratio <= 0.5
    from iterate 2 and the converged residual is <= 2 tol."""
    cfg = replace(CFG35, epsilon=eps0 / 2.0)
    _, history = picard_solve(SPEC35, cfg)
    assert len(history) >= 3
    for n in range(1, len(history) - 1):
        assert history[n + 1] <= 0.5 * history[n]
    assert history[-1] <= 2.0 * cfg.fixed_point_tol


def test_08_claim_bound_monotone_and_small():
    """Weighted claim value grows with eps at 10 sampled (t, r); the grid
    supremum at eps = 1e-4 stays below 1."""
    points = [(t, r) for t in (0.5, 1.0, 2.0, 4.0, 6.0) for r in (0.5, 2.0)]
    for t, r in points:
        _, w_small = claim_bound_check(3.5, 1.2, 1e-4, t, r)
        _, w_large = claim_bound_check(3.5, 1.2, 1e-1, t, r)
        assert w_small < w_large
    grid_sup = 0.0
    for t in np.linspace(0.5, 8.0, 6):
        for r in np.linspace(0.0, 8.0, 6):
            _, w = claim_bound_check(3.5, 1.2, 1e-4, float(t), float(r))
            grid_sup = max(grid_sup, w)
    assert grid_sup < 1.0


def test_09_blowup_sequences_exact():
    """p = q = 2: l0 = 3, A0 = 1, a = (0,2,4), b = (1,2,3) exactly;
    rational closed forms match the float recursion for m <= 20; every
    log D_m respects the guaranteed-growth floor."""
    params = BlowupParams(p=2.0, q=2.0, tau0=1.0, epsilon=0.5, delta0=0.45)
    boost = boost_sequence(params, 0.1)
    assert boost.l0 == 3
    assert boost.A0 == 1.0
    assert tuple(e[1] for e in boost.entries) == (0.0, 2.0, 4.0)
    assert tuple(e[2] for e in boost.entries) == (1.0, 2.0, 3.0)

    john = john_recursion(A0=boost.A0, D0=0.37, q=2.0,
                          C0=params.C0, delta0=params.delta0, m_max=20)
    A, B = Fraction(1), Fraction(0)
    for m, A_m, B_m, logD_m in john.entries:
        assert Fraction(A_m) == A == Fraction(2) ** m
        assert Fraction(B_m) == B == 2 * (Fraction(2) ** m - 1)
        assert logD_m >= (john.E - john.E_tail_bound) * 2.0**m \
            - 1e-9 * (1.0 + abs(john.E))
        A, B = 2 * A, 2 * B + 2
    assert len(john.entries) == 21


def test_10_certificate_dominance():
    """The simulated p = 2, eps = 0.5, tau0 = 1 solution dominates the
    first-iterate bound at every grid point of S, zero violations.

    The window stops at t = 5 because the solution genuinely leaves
    float range near t = 5.24; every S grid point that exists therefore
    has t well below 12.
    """
    params = BlowupParams(p=2.0, q=2.0, tau0=1.0, epsilon=0.5, delta0=0.45)
    bump = bump_profile(1.0)
    cert = build_certificate(bump, params)
    spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45,
                            kind="piecewise_generic")
    data = RadialProfile(lambda lam: params.epsilon * bump(lam),
                         support_radius=bump.support_radius,
                         knots=bump.knots)
    cfg = FDConfig(Grid(5.0, 9.0, 0.04, 0.05), snapshot_every=5)
    field = fd_solve(ZERO, data, nonlinearity(spec), cfg)
    report = certificate_verify(cert, field)
    assert report.first_checked > 200
    assert report.first_violations == ()
    assert report.first_min_margin > 0.0


@pytest.mark.slow
def test_11_blowup_vs_existence_contrast(eps0):
    """Escape within t <= 40 for p = 2, eps = 1 at threshold 10x the
    initial sup; no escape for p = 3.5, eps = eps0/2 within t <= 8."""
    bump = bump_profile(1.0)
    spec2 = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45,
                             kind="piecewise_generic")
    cfg2 = FDConfig(Grid(40.0, 43.6, 0.04, 0.05))
    threshold = 10.0 * float(np.max(np.abs(bump(cfg2.grid.r))))
    rep = escape_detector(ZERO, bump, nonlinearity(spec2), cfg2, threshold)
    assert rep.escaped
    assert rep.t_escape is not None and rep.t_escape <= 40.0

    eps = eps0 / 2.0
    small = RadialProfile(lambda r: eps * theta_k(r, 1.0))
    cfg35 = FDConfig(Grid(8.0, 20.0, 0.04, 0.05))
    threshold35 = 10.0 * float(np.max(np.abs(small(
        np.linspace(0.0, 20.0, 401)))))
    rep35 = escape_detector(ZERO, small, nonlinearity(SPEC35), cfg35,
                            threshold35)
    assert not rep35.escaped
    assert not rep35.instability


@pytest.mark.slow
def test_12_fd_oracle_order():
    """Richardson order on smooth data lands in [1.8, 2.2]."""
    cfg = FDConfig(Grid(1.8, 8.0, 1.8e-2, 2e-2))
    rep = convergence_order(ZERO, THETA1, None, cfg, refinements=2)
    assert not rep.inconclusive
    assert 1.8 <= rep.order <= 2.2
