"""Tests for the weighted-space Picard solver and its probes."""

import numpy as np
import pytest

from hypwave.fdoracle import FDConfig, fd_solve
from hypwave.hypgeo import (
    DomainError,
    EnvelopeParams,
    theta_k,
)
from hypwave.meanprop import SpaceTimeField, sine_propagator
from hypwave.nonlin import NonlinearitySpec, nonlinearity
from hypwave import globalsolver as gs

ENV1 = EnvelopeParams(k=1.0)
SPEC = NonlinearitySpec(p=3.5, q=2.5, delta0=0.3, A=2.0)


def data_profile(lam):
    return theta_k(lam, ENV1)


@pytest.fixture(scope="module")
def coarse_cfg():
    return gs.SolverConfig(p=3.5, h=1.2, epsilon=0.02, grid=(4.0, 4.0, 0.1, 0.1))


@pytest.fixture(scope="module")
def coarse_table(coarse_cfg):
    table = gs._get_table(coarse_cfg)
    assert np.all(np.isfinite(table._A))
    return table


def unit_shapes(rng, cfg, n):
    """The next n unit shapes _unit_shape draws from rng on cfg's grid."""
    T, R = np.meshgrid(cfg.t_grid, cfg.r_grid, indexing="ij")
    return [gs._unit_shape(rng, T, R) for _ in range(n)]


def with_eps(cfg, eps):
    return gs.SolverConfig(p=cfg.p, h=cfg.h, epsilon=eps, grid=cfg.grid,
                           max_iters=cfg.max_iters,
                           fixed_point_tol=cfg.fixed_point_tol)


class TestSolverConfig:
    def test_grids(self):
        cfg = gs.SolverConfig(p=4.0, h=1.5, epsilon=0.1, grid=(2.0, 3.0, 0.5, 0.25))
        assert np.allclose(cfg.t_grid, [0, 0.5, 1.0, 1.5, 2.0])
        assert cfg.r_grid.size == 13

    def test_p_at_most_3_rejected(self):
        with pytest.raises(DomainError, match=r"h must lie in \(1, p-2\)"):
            gs.SolverConfig(p=3.0, h=1.2, epsilon=0.1)

    @pytest.mark.parametrize("h", [0.9, 1.0, 1.5, 2.0])
    def test_h_outside_window_rejected(self, h):
        with pytest.raises(DomainError, match="h must lie in"):
            gs.SolverConfig(p=3.5, h=h, epsilon=0.1)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DomainError, match="epsilon"):
            gs.SolverConfig(p=3.5, h=1.2, epsilon=-1e-3)

    def test_zero_epsilon_allowed(self):
        assert gs.SolverConfig(p=3.5, h=1.2, epsilon=0.0).epsilon == 0.0

    def test_bad_grids_rejected(self):
        with pytest.raises(DomainError, match="t_max"):
            gs.SolverConfig(p=3.5, h=1.2, epsilon=0.1, grid=(0.05, 8.0, 0.1, 0.1))
        with pytest.raises(DomainError, match="integer"):
            gs.SolverConfig(p=3.5, h=1.2, epsilon=0.1, grid=(1.0, 1.0, 0.3, 0.1))
        with pytest.raises(DomainError, match="positive"):
            gs.SolverConfig(p=3.5, h=1.2, epsilon=0.1, grid=(1.0, -1.0, 0.1, 0.1))

    def test_iteration_knobs_validated(self):
        with pytest.raises(DomainError, match="max_iters"):
            gs.SolverConfig(p=3.5, h=1.2, epsilon=0.1, max_iters=0)
        with pytest.raises(DomainError, match="fixed_point_tol"):
            gs.SolverConfig(p=3.5, h=1.2, epsilon=0.1, fixed_point_tol=0.0)


class TestReports:
    def test_contraction_report_checks_max(self):
        with pytest.raises(DomainError, match="max_ratio"):
            gs.ContractionReport(epsilon=0.1, sampled_pairs=2, max_ratio=0.1,
                                 ratios=(0.1, 0.4))

    def test_decay_report_requires_finite(self):
        with pytest.raises(DomainError, match="finite"):
            gs.DecayFitReport(slope_r=np.nan, slope_tr=-0.5, sup_weighted=1.0,
                              fit_window="")


class TestWeightedNorm:
    def test_zero_field(self):
        t = np.linspace(0, 2, 5)
        r = np.linspace(0, 3, 7)
        u = SpaceTimeField(t, r, np.zeros((5, 7)))
        assert gs.weighted_norm(u, 1.2) == 0.0

    def test_inverse_weight_has_norm_one(self):
        t = np.linspace(0, 4, 21)
        r = np.linspace(0, 6, 31)
        u = SpaceTimeField(t, r, 1.0 / gs.phi_weight_grid(t, r, 1.3))
        assert gs.weighted_norm(u, 1.3) == pytest.approx(1.0, rel=1e-15)

    def test_exponential_profile_peaks_at_origin(self):
        t = np.linspace(0, 4, 21)
        r = np.linspace(0, 6, 31)
        T, R = np.meshgrid(t, r, indexing="ij")
        h = 1.4
        vals = np.exp(-R) * np.hypot(1.0, T - R) ** (-h)
        u = SpaceTimeField(t, r, vals)
        assert gs.weighted_norm(u, h) == pytest.approx(1.0, rel=1e-15)

    def test_h_must_be_positive(self):
        u = SpaceTimeField([0.0], [0.0], [[1.0]])
        with pytest.raises(DomainError):
            gs.weighted_norm(u, 0.0)


class TestLinearDataField:
    def test_velocity_data_matches_pointwise_propagator(self, coarse_cfg):
        # points inside the triangle t + r <= r_max, where the gridded
        # propagation sees the whole cone of dependence
        vals = gs.linear_data_field(0.0, data_profile, coarse_cfg)
        for (i, j) in [(5, 3), (10, 20), (30, 8)]:
            t = coarse_cfg.t_grid[i]
            r = coarse_cfg.r_grid[j]
            ref = sine_propagator(data_profile, t, r)
            assert vals[i, j] == pytest.approx(ref, rel=5e-5, abs=1e-12)

    def test_position_data_row_zero_is_data(self, coarse_cfg):
        vals = gs.linear_data_field(data_profile, 0.0, coarse_cfg)
        assert np.allclose(vals[0], data_profile(coarse_cfg.r_grid), rtol=1e-14)

    def test_position_data_matches_fine_difference(self):
        cfg = gs.SolverConfig(p=3.5, h=1.2, epsilon=0.1, grid=(1.0, 4.0, 0.25, 0.1))
        vals = gs.linear_data_field(data_profile, 0.0, cfg)
        t, r = 0.5, 0.7
        i = np.argmin(np.abs(cfg.t_grid - t))
        j = np.argmin(np.abs(cfg.r_grid - r))
        d = 1e-4
        ref = (sine_propagator(data_profile, t + d, r)
               - sine_propagator(data_profile, t - d, r)) / (2 * d)
        assert vals[i, j] == pytest.approx(ref, rel=5e-3)

    def test_n_h_is_cached_and_positive(self, coarse_cfg):
        gs.clear_caches()
        first = gs.estimate_N_h(1.0, 1.2, coarse_cfg)
        again = gs.estimate_N_h(1.0, 1.2, coarse_cfg)
        assert first == again > 0


class TestPicard:
    def test_zero_epsilon_converges_immediately(self, coarse_cfg):
        cfg = with_eps(coarse_cfg, 0.0)
        u, history = gs.picard_solve(0.0, data_profile, SPEC, cfg)
        assert len(history) == 1
        assert history[0] == 0.0
        assert np.all(u.values == 0.0)

    def test_linear_problem_returns_scaled_data_evolution(self, coarse_cfg):
        u, history = gs.picard_solve(0.0, data_profile, None, coarse_cfg)
        assert len(history) == 1
        base = gs.linear_data_field(0.0, data_profile, coarse_cfg)
        assert np.allclose(u.values, coarse_cfg.epsilon * base, rtol=1e-15)

    def test_epsilon_scaling_is_exactly_linear(self, coarse_cfg):
        ua, _ = gs.picard_solve(0.0, data_profile, None, with_eps(coarse_cfg, 0.01))
        ub, _ = gs.picard_solve(0.0, data_profile, None, with_eps(coarse_cfg, 0.02))
        assert np.max(np.abs(ub.values - 2.0 * ua.values)) <= 1e-12

    def test_envelope_violation_rejected(self, coarse_cfg):
        with pytest.raises(DomainError, match="envelope"):
            gs.picard_solve(0.0, lambda lam: 2.0 * theta_k(lam, ENV1),
                            SPEC, coarse_cfg)

    def test_convergence_history_contracts(self, coarse_cfg):
        u, history = gs.picard_solve(0.0, data_profile, SPEC, coarse_cfg)
        assert history[-1] < coarse_cfg.fixed_point_tol
        for a, b in zip(history[1:-1], history[2:]):
            assert b <= 0.5 * a

    def test_fixed_point_residual_small(self, coarse_cfg, coarse_table):
        u, _ = gs.picard_solve(0.0, data_profile, SPEC, coarse_cfg)
        F = nonlinearity(SPEC)
        lin = coarse_cfg.epsilon * gs.linear_data_field(0.0, data_profile,
                                                        coarse_cfg)
        resid = u.values - lin - coarse_table.duhamel_field(F(u.values))
        phi = gs.phi_weight_grid(coarse_cfg.t_grid, coarse_cfg.r_grid,
                                 coarse_cfg.h)
        assert np.max(phi * np.abs(resid)) <= 2 * coarse_cfg.fixed_point_tol

    def test_solution_stays_in_ball(self, coarse_cfg):
        u, _ = gs.picard_solve(0.0, data_profile, SPEC, coarse_cfg)
        radius = 2 * coarse_cfg.epsilon * gs.estimate_N_h(1.0, coarse_cfg.h,
                                                          coarse_cfg)
        assert gs.weighted_norm(u, coarse_cfg.h) <= radius

    def test_max_iters_exhaustion_carries_history(self, coarse_cfg):
        cfg = gs.SolverConfig(p=3.5, h=1.2, epsilon=0.02, grid=coarse_cfg.grid,
                              max_iters=2, fixed_point_tol=1e-14)
        with pytest.raises(gs.ConvergenceError) as err:
            gs.picard_solve(0.0, data_profile, SPEC, cfg)
        assert len(err.value.history) == 2

    def test_large_epsilon_escapes(self, coarse_cfg):
        with pytest.raises(gs.EscapeError, match="too large"):
            gs.picard_solve(0.0, data_profile, SPEC, with_eps(coarse_cfg, 0.9))


class TestContraction:
    def test_probe_is_deterministic(self, coarse_cfg):
        a = gs.contraction_probe(SPEC, coarse_cfg, n_pairs=4, rng_seed=7)
        b = gs.contraction_probe(SPEC, coarse_cfg, n_pairs=4, rng_seed=7)
        assert a == b
        assert a.sampled_pairs == 4
        assert 0 < a.max_ratio < 1

    def test_ratio_symmetric_and_degenerate_skipped(self, coarse_cfg,
                                                    coarse_table):
        F = nonlinearity(SPEC)
        phi = gs.phi_weight_grid(coarse_cfg.t_grid, coarse_cfg.r_grid, 1.2)
        rng = np.random.default_rng(3)
        u, v = (0.05 * shape / phi for shape in unit_shapes(rng, coarse_cfg, 2))

        def ratio(u, v):
            return gs._pair_ratios(coarse_table, F, phi, u[None], v[None])[0]

        assert ratio(u, v) == ratio(v, u)
        assert ratio(u, u) is None

    def test_sampled_fields_fill_the_ball(self, coarse_cfg):
        phi = gs.phi_weight_grid(coarse_cfg.t_grid, coarse_cfg.r_grid, 1.2)
        rng = np.random.default_rng(11)
        (shape,) = unit_shapes(rng, coarse_cfg, 1)
        u = 0.125 * shape / phi
        assert np.max(phi * np.abs(u)) == pytest.approx(0.125, rel=1e-12)

    def test_ratio_grows_with_epsilon(self, coarse_cfg):
        lo = gs.contraction_probe(SPEC, with_eps(coarse_cfg, 0.005),
                                  n_pairs=6, rng_seed=19)
        hi = gs.contraction_probe(SPEC, with_eps(coarse_cfg, 0.05),
                                  n_pairs=6, rng_seed=19)
        assert hi.max_ratio > lo.max_ratio

    def test_oversized_ball_rejected(self, coarse_cfg):
        with pytest.raises(gs.EscapeError, match="1/A"):
            gs.contraction_probe(SPEC, with_eps(coarse_cfg, 0.5), n_pairs=2)

    def test_no_pairs_rejected(self, coarse_cfg):
        with pytest.raises(DomainError, match="n_pairs"):
            gs.contraction_probe(SPEC, coarse_cfg, n_pairs=0)

    def test_batched_pairs_are_the_ball_draws(self, coarse_cfg, monkeypatch):
        seen = []
        pair_ratios = gs._pair_ratios

        def spy(table, F, phi, U, V):
            seen.append((U, V))
            return pair_ratios(table, F, phi, U, V)

        monkeypatch.setattr(gs, "_pair_ratios", spy)
        gs.contraction_probe(SPEC, coarse_cfg, n_pairs=3, rng_seed=5)
        (U, V), = seen
        phi = gs.phi_weight_grid(coarse_cfg.t_grid, coarse_cfg.r_grid, 1.2)
        radius = 2.0 * coarse_cfg.epsilon * gs.estimate_N_h(
            1.0, 1.2, coarse_cfg)
        rng = np.random.default_rng(5)
        for u_batch, v_batch in zip(U, V):
            u, v = (radius * shape / phi
                    for shape in unit_shapes(rng, coarse_cfg, 2))
            assert np.array_equal(u_batch, u)
            assert np.array_equal(v_batch, v)


class TestThreshold:
    def test_threshold_exists_and_reprobes_admissibly(self, coarse_cfg):
        spec = NonlinearitySpec(p=4.0, q=3.0, delta0=0.3, A=2.0)
        cfg = gs.SolverConfig(p=4.0, h=1.5, epsilon=1e-3, grid=coarse_cfg.grid)
        eps0 = gs.epsilon_threshold(spec, cfg, rng_seed=13, n_pairs=6,
                                    n_steps=12)
        assert eps0 > 0
        rep = gs.contraction_probe(spec, with_eps(cfg, eps0), n_pairs=6,
                                   rng_seed=13)
        assert rep.max_ratio <= 0.5
        again = gs.epsilon_threshold(spec, cfg, rng_seed=13, n_pairs=6,
                                     n_steps=12)
        assert eps0 == again
        # the search's own probe at eps0 is that re-probe, bit for bit
        assert gs._threshold_search(spec, cfg, 0.5, 13, 1.0, 6, 12) == (eps0, rep)

    def test_impossible_target_fails(self, coarse_cfg):
        with pytest.raises(gs.ConvergenceError, match="no admissible"):
            gs.epsilon_threshold(SPEC, coarse_cfg, target_ratio=1e-12,
                                 rng_seed=2, n_pairs=2, n_steps=4)

    @pytest.mark.parametrize("kwargs, key", [
        ({"n_pairs": 0}, "n_pairs"),
        ({"n_steps": -4}, "n_steps"),
        ({"target_ratio": 0.0}, "target_ratio"),
        ({"target_ratio": -0.5}, "target_ratio"),
    ])
    def test_unmeasurable_search_rejected(self, coarse_cfg, kwargs, key):
        with pytest.raises(DomainError, match=key):
            gs.epsilon_threshold(SPEC, coarse_cfg, **kwargs)

    def test_shared_shapes_match_independent_probes(self, coarse_cfg):
        # the bisection of epsilon_threshold, redone with a fresh
        # contraction_probe (and a fresh draw) at every eps
        def ratio_at(eps):
            try:
                return gs.contraction_probe(SPEC, with_eps(coarse_cfg, eps),
                                            n_pairs=3, rng_seed=21).max_ratio
            except gs.EscapeError:
                return np.inf

        lo, hi = 1e-12, 1.0
        assert ratio_at(lo) <= 0.5
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            if ratio_at(mid) <= 0.5:
                lo = mid
            else:
                hi = mid
        assert lo > 1e-3  # the search accepted some eps and rejected others
        assert gs.epsilon_threshold(SPEC, coarse_cfg, rng_seed=21, n_pairs=3,
                                    n_steps=8) == lo


class TestClaimBound:
    def test_zero_time(self):
        assert gs.claim_bound_check(3.5, 1.2, 1e-3, 0.0, 2.0) == (0.0, 0.0)

    def test_smaller_epsilon_gives_smaller_claim(self):
        _, w_small = gs.claim_bound_check(3.5, 1.2, 1e-4, 3.0, 2.0)
        _, w_large = gs.claim_bound_check(3.5, 1.2, 1e-1, 3.0, 2.0)
        assert 0 < w_small < w_large

    def test_weighting_relation(self):
        t, r = 2.0, 1.5
        claim, weighted = gs.claim_bound_check(3.5, 1.2, 1e-2, t, r)
        expect = claim * np.sqrt(np.cosh(r)) * np.hypot(1.0, t - r) ** 1.2
        assert weighted == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("t", [0.7, 2.0, 3.3])
    def test_tau_rule_is_simpson(self, monkeypatch, t):
        # a smooth stand-in for W, so that only the tau rule is compared
        from scipy.integrate import simpson

        def fake_W(lag, r, f, a):
            return float(np.exp(-lag) * np.cos(3.0 * lag) + r * lag**2)

        monkeypatch.setattr(gs, "W_evaluator", fake_W)
        claim, _ = gs.claim_bound_check(3.5, 1.2, 1e-2, t, 0.5)
        n_tau = max(8, 2 * int(np.ceil(2.0 * t)))
        taus = np.linspace(0.0, t, n_tau + 1)
        want = simpson([fake_W(t - tau, 0.5, None, None) for tau in taus],
                       x=taus)
        assert claim == pytest.approx(want, rel=1e-14)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(DomainError):
            gs.claim_bound_check(3.0, 1.2, 1e-3, 1.0, 1.0)
        with pytest.raises(DomainError):
            gs.claim_bound_check(3.5, 1.2, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            gs.claim_bound_check(3.5, 1.2, 2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            gs.claim_bound_check(3.5, 1.2, 1e-3, -1.0, 1.0)


class TestDecayFit:
    @staticmethod
    def synthetic_field(t_max=8.0, r_max=8.0, n=81):
        t = np.linspace(0, t_max, n)
        r = np.linspace(0, r_max, n)
        T, R = np.meshgrid(t, r, indexing="ij")
        return SpaceTimeField(t, r, np.exp(-0.5 * T))

    def test_synthetic_slopes_exact(self):
        u = self.synthetic_field()
        rep = gs.decay_fit(u, k=1.0)
        assert rep.slope_r == pytest.approx(-0.5, abs=1e-12)
        assert rep.slope_tr == pytest.approx(-0.5, abs=1e-12)

    def test_synthetic_sup_weighted_is_one(self):
        t = np.linspace(0, 6, 61)
        r = np.linspace(0, 6, 61)
        T, R = np.meshgrid(t, r, indexing="ij")
        vals = 1.0 / np.sqrt(np.cosh(R) * np.cosh(T - R))
        rep = gs.decay_fit(SpaceTimeField(t, r, vals), k=1.0)
        assert rep.sup_weighted == pytest.approx(1.0, rel=1e-14)

    def test_k_below_half_rescales_sup(self):
        t = np.linspace(0, 6, 61)
        r = np.linspace(0, 6, 61)
        T, R = np.meshgrid(t, r, indexing="ij")
        k = 0.4
        vals = np.cosh(T - R) ** (0.5 - k) / np.sqrt(np.cosh(R) * np.cosh(T - R))
        rep = gs.decay_fit(SpaceTimeField(t, r, vals), k=k)
        assert rep.sup_weighted == pytest.approx(1.0, rel=1e-13)

    def test_too_few_ray_points_rejected(self):
        t = np.linspace(0, 0.5, 6)
        r = np.linspace(0, 0.5, 6)
        u = SpaceTimeField(t, r, np.ones((6, 6)))
        with pytest.raises(DomainError, match="fit ray"):
            gs.decay_fit(u, k=1.0)

    def test_zero_field_rejected(self):
        t = np.linspace(0, 8, 81)
        u = SpaceTimeField(t, t, np.zeros((81, 81)))
        with pytest.raises(DomainError):
            gs.decay_fit(u, k=1.0)


class TestLocalWindow:
    def test_reference_value(self):
        expect = 1.0 / (2.0 * np.sqrt(2.0) * np.e)
        assert gs.local_existence_window(1.0) == pytest.approx(expect, rel=1e-15)

    def test_cap_and_scaling(self):
        assert gs.local_existence_window(1e-6) == 1.0
        assert gs.local_existence_window(2.0) == pytest.approx(
            0.5 * gs.local_existence_window(1.0), rel=1e-15)

    def test_nonpositive_m_rejected(self):
        with pytest.raises(DomainError):
            gs.local_existence_window(0.0)
        with pytest.raises(DomainError):
            gs.local_existence_window(-1.0)


@pytest.mark.slow
class TestOracleConsistency:
    def test_picard_matches_finite_differences(self):
        eps = 0.0375
        cfg = gs.SolverConfig(p=3.5, h=1.2, epsilon=eps,
                              grid=(4.0, 8.0, 0.05, 0.05))
        u_pic, _ = gs.picard_solve(0.0, data_profile, SPEC, cfg)
        fd_cfg = FDConfig(dr=0.02, dt=0.01, r_max=10.0, t_max=4.0,
                          snapshot_every=5)
        u_fd = fd_solve(0.0, lambda lam: eps * theta_k(lam, ENV1),
                        nonlinearity(SPEC), fd_cfg)
        assert np.allclose(u_pic.t_grid, u_fd.t_grid)
        pic = u_pic.values[:, ::2][:, :41]
        fd = u_fd.values[:, ::5][:, :41]
        sup = np.max(np.abs(fd))
        assert np.max(np.abs(pic - fd)) <= 1e-2 * sup

    def test_interior_pde_residual_refines(self):
        eps = 0.05
        F = nonlinearity(SPEC)

        def interior_residual(grid):
            cfg = gs.SolverConfig(p=3.5, h=1.2, epsilon=eps, grid=grid)
            u, _ = gs.picard_solve(0.0, data_profile, SPEC, cfg)
            t, r, U = u.t_grid, u.r_grid, u.values
            dt, dr = t[1] - t[0], r[1] - r[0]
            utt = (U[2:, 1:-1] - 2 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / dt ** 2
            urr = (U[1:-1, 2:] - 2 * U[1:-1, 1:-1] + U[1:-1, :-2]) / dr ** 2
            ur = (U[1:-1, 2:] - U[1:-1, :-2]) / (2 * dr)
            coth = np.cosh(r[1:-1]) / np.sinh(r[1:-1])
            res = (utt - urr - coth * ur - 0.25 * U[1:-1, 1:-1]
                   - F(U[1:-1, 1:-1]))
            T, R = np.meshgrid(t[1:-1], r[1:-1], indexing="ij")
            keep = (T + R <= grid[1] - 2 * max(dt, dr)) & (R >= 4 * dr)
            return float(np.max(np.abs(res[keep])))

        coarse = interior_residual((4.0, 8.0, 0.1, 0.1))
        fine = interior_residual((4.0, 8.0, 0.05, 0.05))
        assert coarse < 1e-3
        assert fine < 0.5 * coarse
