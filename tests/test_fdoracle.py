"""Tests for the finite-difference cross-check solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypwave.fdoracle import (
    ConvergenceReport,
    FDConfig,
    InstabilityError,
    convergence_order,
    fd_solve,
)
from hypwave.hypgeo import DomainError, EnvelopeParams, theta_k
from hypwave.meanprop import RadialProfile, sine_propagator

EP1 = EnvelopeParams(k=1.0)


def theta1(lam):
    return theta_k(lam, EP1)


def zero(lam):
    return np.zeros_like(np.asarray(lam, dtype=float))


def ones(lam):
    return np.ones_like(np.asarray(lam, dtype=float))


QUICK = FDConfig(dr=2e-2, dt=1.8e-2, r_max=8.0, t_max=1.8)


class TestFDConfig:
    def test_cfl_derived(self):
        cfg = FDConfig(dr=0.02, dt=0.018, r_max=1.0, t_max=0.9)
        assert_allclose(cfg.cfl, 0.9)

    def test_cfl_limit_enforced(self):
        with pytest.raises(DomainError, match="stability margin"):
            FDConfig(dr=0.02, dt=0.02, r_max=1.0, t_max=1.0)

    def test_noninteger_grid_rejected(self):
        with pytest.raises(DomainError, match="integer"):
            FDConfig(dr=0.02, dt=0.018, r_max=1.01, t_max=0.9)

    def test_positive_fields(self):
        with pytest.raises(DomainError):
            FDConfig(dr=-0.02, dt=0.018, r_max=1.0, t_max=0.9)

    def test_zero_step_grid_rejected(self):
        with pytest.raises(DomainError, match="t_max/dt must be at least 1"):
            FDConfig(dr=0.05, dt=0.04, r_max=1.0, t_max=1e-12)

    def test_snapshot_divisibility(self):
        with pytest.raises(DomainError, match="snapshot"):
            FDConfig(dr=0.02, dt=0.018, r_max=1.0, t_max=0.9, snapshot_every=7)

    def test_default_grid_constructs(self):
        cfg = FDConfig()
        assert (cfg.t_max, cfg.r_max, cfg.dt, cfg.dr) == (4.0, 8.0, 0.04, 0.05)
        assert_allclose(cfg.cfl, 0.8)

    def test_grid_properties(self):
        cfg = FDConfig(dr=0.5, dt=0.25, r_max=2.0, t_max=1.0)
        assert_allclose(cfg.r_grid, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert cfg.n_steps == 4


class TestFDSolve:
    def test_zero_data_zero_solution(self):
        fld = fd_solve(zero, zero, None, QUICK)
        assert np.all(fld.values == 0.0)

    def test_constant_data_identity(self):
        # velocity 1 everywhere reduces to the ODE u'' = u/4, so
        # u = 2 sinh(t/2) independently of r away from the boundary
        fld = fd_solve(zero, ones, None, QUICK)
        i = fld.time_index(1.8)
        want = 2.0 * np.sinh(0.9)
        for r_probe in (0.0, 1.0, 3.0):
            j = int(round(r_probe / QUICK.dr))
            assert_allclose(fld.values[i, j], want, rtol=1e-4)

    def test_cross_validates_integral_path(self):
        cfg = FDConfig(dr=5e-3, dt=4.5e-3, r_max=12.0, t_max=2.25)
        fld = fd_solve(zero, theta1, None, cfg)
        i = fld.time_index(2.25)
        j = int(round(1.0 / cfg.dr))
        want = sine_propagator(theta1, 2.25, 1.0)
        assert_allclose(fld.values[i, j], want, rtol=1e-4)

    def test_finite_propagation_speed(self):
        bump = RadialProfile.from_function(
            lambda lam: np.where(lam < 2.0,
                                 np.exp(-1.0 / np.maximum(1 - (lam / 2.0) ** 2, 1e-12)),
                                 0.0),
            support_radius=2.0)
        fld = fd_solve(zero, bump, None, QUICK)
        i = fld.time_index(1.8)
        beyond = fld.r_grid > 2.0 + 1.8 + 3 * QUICK.dr
        assert np.abs(fld.values[i, beyond]).max() < 1e-13

    def test_time_reversal_second_order(self):
        def reversal_error(dr):
            dt = 0.9 * dr
            cfg = FDConfig(dr=dr, dt=dt, r_max=8.0, t_max=round(1.8 / dt) * dt)
            fwd = fd_solve(theta1, zero, None, cfg)
            uN, uN1, uN2 = fwd.values[-1], fwd.values[-2], fwd.values[-3]
            vN = (3 * uN - 4 * uN1 + uN2) / (2 * dt)
            rg = fwd.r_grid
            back = fd_solve(RadialProfile.from_samples(rg, uN),
                            RadialProfile.from_samples(rg, -vN), None, cfg)
            interior = rg <= cfg.r_max - 2 * cfg.t_max - 0.5
            return np.abs(back.values[-1][interior] - theta1(rg)[interior]).max()

        e_coarse = reversal_error(2e-2)
        e_fine = reversal_error(1e-2)
        assert e_coarse < 5e-4
        assert 3.0 < e_coarse / e_fine < 5.0

    def test_oversized_support_rejected(self):
        wide = RadialProfile.from_function(ones, support_radius=7.5)
        with pytest.raises(DomainError, match="support"):
            fd_solve(zero, wide, None, QUICK)

    def test_instability_reports_location(self):
        # a focusing power nonlinearity with large data blows up in finite
        # time; the solver must say where it first went non-finite
        cfg = FDConfig(dr=2e-2, dt=1.8e-2, r_max=22.0, t_max=9.0)
        with pytest.raises(InstabilityError, match=r"t = [\d.]+, r = [\d.]+"):
            fd_solve(lambda lam: 5.0 * np.exp(-(lam**2)), zero,
                     lambda u: u * np.abs(u), cfg)

    def test_snapshot_thinning(self):
        cfg = FDConfig(dr=2e-2, dt=1.8e-2, r_max=8.0, t_max=1.8, snapshot_every=10)
        thin = fd_solve(zero, theta1, None, cfg)
        full = fd_solve(zero, theta1, None, QUICK)
        assert thin.t_grid.size == 11
        i_thin = thin.time_index(0.9)
        i_full = full.time_index(0.9)
        assert_allclose(thin.values[i_thin], full.values[i_full], rtol=1e-12)

    def test_nonlinear_term_enters(self):
        lin = fd_solve(zero, theta1, None, QUICK)
        non = fd_solve(zero, theta1, lambda u: u**3, QUICK)
        i = lin.time_index(1.8)
        assert np.abs(lin.values[i] - non.values[i]).max() > 1e-6


class TestConvergenceOrder:
    def test_smooth_data_gives_second_order(self):
        rep = convergence_order(zero, theta1, None, QUICK, refinements=2)
        assert not rep.inconclusive
        assert 1.8 <= rep.order <= 2.2

    def test_constant_data_second_order_vs_exact(self):
        # the exact solution 2 sinh(t/2) is available: direct error halving
        errors = []
        for k in range(3):
            cfg = FDConfig(dr=2e-2 / 2**k, dt=1.8e-2 / 2**k, r_max=8.0, t_max=1.8)
            fld = fd_solve(zero, ones, None, cfg)
            i = fld.time_index(1.8)
            j = int(round(1.0 / cfg.dr))
            errors.append(abs(fld.values[i, j] - 2.0 * np.sinh(0.9)))
        order = np.log2(errors[0] / errors[1])
        assert 1.8 <= order <= 2.2
        order = np.log2(errors[1] / errors[2])
        assert 1.8 <= order <= 2.2

    def test_single_refinement_inconclusive(self):
        rep = convergence_order(zero, theta1, None, QUICK, refinements=1)
        assert rep.inconclusive
        assert np.isnan(rep.order)
        assert not rep

    def test_zero_data_inconclusive(self):
        # all refinements agree exactly, so no order can be extracted
        rep = convergence_order(zero, zero, None, QUICK, refinements=2)
        assert rep.inconclusive
