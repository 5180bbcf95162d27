"""Tests for the finite-difference cross-check solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hypwave.blowlab import bump_profile, escape_detector
from hypwave.fdoracle import (
    _BLOCK,
    FDConfig,
    InstabilityError,
    convergence_order,
    fd_solve,
    leapfrog,
)
from hypwave.hypgeo import DomainError, EnvelopeParams, theta_k
from hypwave.meanprop import RadialProfile, _as_profile, sine_propagator
from hypwave.nonlin import NonlinearitySpec, nonlinearity
from references import from_samples, time_index
from test_nonlin import F_generic_all_branches, bits, generic

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
        i = time_index(fld, 1.8)
        want = 2.0 * np.sinh(0.9)
        for r_probe in (0.0, 1.0, 3.0):
            j = int(round(r_probe / QUICK.dr))
            assert_allclose(fld.values[i, j], want, rtol=1e-4)

    def test_cross_validates_integral_path(self):
        cfg = FDConfig(dr=5e-3, dt=4.5e-3, r_max=12.0, t_max=2.25)
        fld = fd_solve(zero, theta1, None, cfg)
        i = time_index(fld, 2.25)
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
        i = time_index(fld, 1.8)
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
            back = fd_solve(from_samples(rg, uN),
                            from_samples(rg, -vN), None, cfg)
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
        i_thin = time_index(thin, 0.9)
        i_full = time_index(full, 0.9)
        assert_allclose(thin.values[i_thin], full.values[i_full], rtol=1e-12)

    def test_nonlinear_term_enters(self):
        lin = fd_solve(zero, theta1, None, QUICK)
        non = fd_solve(zero, theta1, lambda u: u**3, QUICK)
        i = time_index(lin, 1.8)
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
            i = time_index(fld, 1.8)
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


def full_grid_leapfrog(u0, u1, F, cfg):
    """The reference: the leapfrog loop that updates every cell each step."""
    u0, u1 = _as_profile(u0), _as_profile(u1)
    r = cfg.r_grid
    coth_r = np.cosh(r[1:-1]) / np.sinh(r[1:-1])
    dr, dt = cfg.dr, cfg.dt

    def rhs(u):
        out = np.empty_like(u)
        out[1:-1] = ((u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr**2
                     + coth_r * (u[2:] - u[:-2]) / (2.0 * dr)
                     + 0.25 * u[1:-1])
        out[0] = 4.0 * (u[1] - u[0]) / dr**2 + 0.25 * u[0]
        out[-1] = 0.0
        if F is not None:
            out = out + F(u)
            out[-1] = 0.0
        return out

    prev = u0(r)
    prev[-1] = 0.0
    yield prev
    cur = prev + dt * u1(r) + 0.5 * dt**2 * rhs(prev)
    cur[-1] = 0.0
    yield cur
    for _ in range(1, cfg.n_steps):
        prev, cur = cur, 2.0 * cur - prev + dt**2 * rhs(cur)
        cur[-1] = 0.0
        yield cur


def spec_F(kind):
    return nonlinearity(NonlinearitySpec(p=2.0, q=2.0, delta0=0.45, A=2.0,
                                         kind=kind))


def scaled(prof, c):
    return RadialProfile(lambda lam: c * prof(lam), knots=prof.knots)


BUMP = bump_profile(1.0)
# the escape grid of wavecli blowup at dr = 0.05: the bump's support ends
# at cell 69 of 873
ESCAPE = FDConfig(dr=0.05, dt=0.04, r_max=43.6, t_max=40.0)
SHORT = FDConfig(dr=0.05, dt=0.04, r_max=43.6, t_max=4.0)


class TestLeapfrogWindow:
    CASES = {
        "bump-piecewise": (zero, scaled(BUMP, 0.1), spec_F("piecewise_generic"),
                           SHORT),
        "bump-canonical": (zero, scaled(BUMP, 0.1),
                           spec_F("canonical_sinh_inverse"), SHORT),
        # 1000 steps: the window reaches r_max at step 699
        "bump-linear-hits-r_max": (zero, BUMP, None, ESCAPE),
        "theta1": (zero, theta1, spec_F("canonical_sinh_inverse"), QUICK),
        "F(0)!=0": (zero, BUMP, lambda u: 0.01 + u * np.abs(u), SHORT),
        # 0.5 dt^2 F(0) rounds to 0 but dt^2 F(0) does not: the step-1
        # state is zero past the support, and only F(0) itself shows that
        # the zero cells do not stay zero
        "F(0)-subnormal": (zero, BUMP, lambda u: 2.5e-321 + u * np.abs(u),
                           SHORT),
        # overflows at t = 5.24 (step 131), when the window is 256 of 873 cells
        "overflow": (zero, scaled(BUMP, 0.5), spec_F("piecewise_generic"),
                     FDConfig(dr=0.05, dt=0.04, r_max=43.6, t_max=8.0)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_states_equal_full_grid(self, case):
        u0, u1, F, cfg = self.CASES[case]
        with np.errstate(over="ignore", invalid="ignore"):
            got = list(leapfrog(u0, u1, F, cfg))
            want = list(full_grid_leapfrog(u0, u1, F, cfg))
        assert len(got) == len(want) == cfg.n_steps + 1
        for n, (g, w) in enumerate(zip(got, want)):
            assert g.shape == w.shape
            assert_array_equal(g, w, err_msg=f"state {n}")

    def test_overflow_names_the_same_point(self):
        u0, u1, F, cfg = self.CASES["overflow"]
        r = cfg.r_grid
        with np.errstate(over="ignore", invalid="ignore"):
            for n, u in enumerate(full_grid_leapfrog(u0, u1, F, cfg)):
                if not np.all(np.isfinite(u)):
                    bad = np.flatnonzero(~np.isfinite(u))[0]
                    break
        assert n < cfg.n_steps
        want = f"non-finite value at t = {n * cfg.dt:.6g}, r = {r[bad]:.6g}"
        with pytest.raises(InstabilityError) as exc:
            fd_solve(u0, u1, F, cfg)
        assert str(exc.value) == want

    @staticmethod
    def window_lengths(F, cfg):
        """len(u) of every F call while leapfrog makes each state, by step."""
        seen = []

        def recording(u):
            seen.append(len(u))
            return F(u)

        per_step = []
        for _ in leapfrog(zero, scaled(BUMP, 0.1), recording, cfg):
            per_step.append(seen[:])
            seen.clear()
        return per_step

    def test_window_follows_the_light_cone(self):
        n_r = ESCAPE.r_grid.size
        support = int(np.flatnonzero(BUMP(ESCAPE.r_grid))[-1])
        # a defocusing F, so that the 1000 steps stay finite
        per_step = self.window_lengths(lambda u: -u * np.abs(u), ESCAPE)
        assert per_step[1] == [n_r]
        for n in range(2, ESCAPE.n_steps + 1):
            bound = -(-(support + n + 2) // _BLOCK) * _BLOCK
            assert max(per_step[n]) <= min(bound, n_r), f"step {n}"
        assert per_step[2][-1] == _BLOCK < n_r

    def test_F_nonzero_at_zero_steps_the_whole_grid(self):
        n_r = SHORT.r_grid.size
        per_step = self.window_lengths(lambda u: 0.01 + u * np.abs(u), SHORT)
        assert all(calls[-1] == n_r for calls in per_step[1:])


def old_F(spec):
    """F_generic as plain array arithmetic: all branches, then np.select."""
    return lambda u: F_generic_all_branches(u, spec)


# wavecli certify's default grid, every state kept
CERTIFY = FDConfig(dr=0.05, dt=0.04, r_max=9.0, t_max=5.0)


class TestBlowupPipelineOldArithmetic:
    """The escape run and the certificate simulation of wavecli blowup and
    certify, stepped by leapfrog with nonlinearity(spec), against
    full_grid_leapfrog stepping F_generic_all_branches: the same numbers,
    bit for bit."""

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_escape_history(self, p, eps):
        spec = generic(p)
        u1 = scaled(BUMP, eps)
        threshold = 10.0 * eps
        rep = escape_detector(zero, u1, nonlinearity(spec), ESCAPE, threshold)
        want = []
        with np.errstate(over="ignore", invalid="ignore"):
            for u in full_grid_leapfrog(zero, u1, old_F(spec), ESCAPE):
                if not np.all(np.isfinite(u)):
                    want.append(np.nan)
                    break
                want.append(np.max(u))
                if want[-1] > threshold:
                    break
        assert rep.escaped and len(want) < ESCAPE.n_steps
        assert rep.t_history.size == len(want)
        assert bits(rep.sup_history) == bits(want)

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_fd_solve_states(self, p, eps):
        spec = generic(p)
        u1 = scaled(BUMP, eps)
        got = fd_solve(zero, u1, nonlinearity(spec), CERTIFY).values
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.array(list(full_grid_leapfrog(zero, u1, old_F(spec),
                                                    CERTIFY)))
        assert got.shape == want.shape == (CERTIFY.n_steps + 1,
                                           CERTIFY.r_grid.size)
        assert bits(got) == bits(want)

    def test_overflow_message(self):
        u0, u1, _, cfg = TestLeapfrogWindow.CASES["overflow"]
        spec = generic(2.0)
        r = cfg.r_grid
        with np.errstate(over="ignore", invalid="ignore"):
            for n, u in enumerate(full_grid_leapfrog(u0, u1, old_F(spec),
                                                     cfg)):
                if not np.all(np.isfinite(u)):
                    bad = np.flatnonzero(~np.isfinite(u))[0]
                    break
        assert n < cfg.n_steps
        with pytest.raises(InstabilityError) as exc:
            fd_solve(u0, u1, nonlinearity(spec), cfg)
        assert str(exc.value) == (
            f"non-finite value at t = {n * cfg.dt:.6g}, r = {r[bad]:.6g}")
