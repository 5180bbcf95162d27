"""Tests for the weighted-space Picard solver and its probes."""

import importlib
import pkgutil

import numpy as np
import pytest

import hypwave
from hypwave.fdoracle import FDConfig, fd_solve
from hypwave.hypgeo import (
    DomainError,
    EnvelopeParams,
    Grid,
    WeightParams,
    phi_weight,
    theta_k,
)
from hypwave.meanprop import SpaceTimeField, _lag_matrices, sine_propagator
from hypwave.nonlin import NonlinearitySpec, nonlinearity
from hypwave import globalsolver as gs
from references import per_tau_claim, unit_shape_per_point

ENV1 = EnvelopeParams(k=1.0)
SPEC = NonlinearitySpec(p=3.5, q=2.5, delta0=0.3)
SMALL = Grid(1.0, 1.0, 0.5, 0.5)  # for configs that are only validated


def data_profile(lam):
    return theta_k(lam, ENV1)


@pytest.fixture(scope="module")
def coarse_cfg():
    return gs.SolverConfig(p=3.5, h=1.2, epsilon=0.02,
                           grid=Grid(4.0, 4.0, 0.1, 0.1))


@pytest.fixture(scope="module")
def coarse_table(coarse_cfg):
    grid = coarse_cfg.grid
    assert np.all(np.isfinite(_lag_matrices(grid.t, grid.r)))
    return gs._table(grid)


def phi_on(t, r, h):
    """Phi_h on the product grid t x r, from the full meshgrid."""
    return phi_weight(*np.meshgrid(t, r, indexing="ij"), WeightParams(h=h))


def unit_shapes(rng, cfg, n):
    """The next n unit shapes _unit_shape draws from rng on cfg's grid."""
    return [gs._unit_shape(rng, cfg.grid.t, cfg.grid.r) for _ in range(n)]


def spy_on(calls, name, run):
    """run, appending name to the list calls at every call."""
    def call(*args, **kwargs):
        calls.append(name)
        return run(*args, **kwargs)
    return call


def with_eps(cfg, eps):
    return gs.SolverConfig(p=cfg.p, h=cfg.h, epsilon=eps, grid=cfg.grid,
                           max_iters=cfg.max_iters,
                           fixed_point_tol=cfg.fixed_point_tol)


class TestSolverConfig:
    def test_grids(self):
        cfg = gs.SolverConfig(p=4.0, h=1.5, epsilon=0.1,
                              grid=Grid(2.0, 3.0, 0.5, 0.25))
        assert np.allclose(cfg.grid.t, [0, 0.5, 1.0, 1.5, 2.0])
        assert cfg.grid.r.size == 13

    def test_grid_has_no_default(self):
        with pytest.raises(TypeError, match="grid"):
            gs.SolverConfig(p=3.5, h=1.2, epsilon=0.1)

    @pytest.mark.parametrize("run", [
        lambda spec, cfg: gs.picard_solve(0.0, data_profile, spec, cfg),
        gs.contraction_probe, gs.epsilon_threshold],
        ids=["solve", "probe", "threshold"])
    def test_spec_p_must_be_the_solver_p(self, coarse_cfg, run):
        # h = 1.2 lies in (1, p - 2) at the config's p = 3.5, not at 3.1
        spec = NonlinearitySpec(p=3.1, q=2.5, delta0=0.3)
        with pytest.raises(DomainError, match=r"p = 3\.1 differs .* p = 3\.5"):
            run(spec, coarse_cfg)

    def test_p_at_most_3_rejected(self):
        with pytest.raises(DomainError, match=r"h must lie in \(1, p-2\)"):
            gs.SolverConfig(p=3.0, h=1.2, epsilon=0.1, grid=SMALL)

    @pytest.mark.parametrize("h", [0.9, 1.0, 1.5, 2.0])
    def test_h_outside_window_rejected(self, h):
        with pytest.raises(DomainError, match="h must lie in"):
            gs.SolverConfig(p=3.5, h=h, epsilon=0.1, grid=SMALL)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DomainError, match="epsilon"):
            gs.SolverConfig(p=3.5, h=1.2, epsilon=-1e-3, grid=SMALL)

    def test_zero_epsilon_allowed(self):
        assert gs.SolverConfig(p=3.5, h=1.2, epsilon=0.0,
                               grid=SMALL).epsilon == 0.0

    def test_bad_grids_rejected(self):
        # a Grid checks itself on construction, so no config holds a bad one
        with pytest.raises(DomainError, match="t_max"):
            Grid(0.05, 8.0, 0.1, 0.1)
        with pytest.raises(DomainError, match="integer"):
            Grid(1.0, 1.0, 0.3, 0.1)
        with pytest.raises(DomainError, match="positive"):
            Grid(1.0, -1.0, 0.1, 0.1)

    def test_iteration_knobs_validated(self):
        with pytest.raises(DomainError, match="max_iters"):
            gs.SolverConfig(p=3.5, h=1.2, epsilon=0.1, grid=SMALL,
                            max_iters=0)
        with pytest.raises(DomainError, match="fixed_point_tol"):
            gs.SolverConfig(p=3.5, h=1.2, epsilon=0.1, grid=SMALL,
                            fixed_point_tol=0.0)


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
        u = SpaceTimeField(t, r, 1.0 / phi_on(t, r, 1.3))
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
        vals = gs.linear_data_field(0.0, data_profile, coarse_cfg.grid)
        for (i, j) in [(5, 3), (10, 20), (30, 8)]:
            t = coarse_cfg.grid.t[i]
            r = coarse_cfg.grid.r[j]
            ref = sine_propagator(data_profile, t, r)
            assert vals[i, j] == pytest.approx(ref, rel=5e-5, abs=1e-12)

    def test_position_data_row_zero_is_data(self, coarse_cfg):
        vals = gs.linear_data_field(data_profile, 0.0, coarse_cfg.grid)
        assert np.allclose(vals[0], data_profile(coarse_cfg.grid.r),
                           rtol=1e-14)

    def test_position_data_matches_fine_difference(self):
        cfg = gs.SolverConfig(p=3.5, h=1.2, epsilon=0.1,
                              grid=Grid(1.0, 4.0, 0.25, 0.1))
        vals = gs.linear_data_field(data_profile, 0.0, cfg.grid)
        t, r = 0.5, 0.7
        i = np.argmin(np.abs(cfg.grid.t - t))
        j = np.argmin(np.abs(cfg.grid.r - r))
        d = 1e-4
        ref = (sine_propagator(data_profile, t + d, r)
               - sine_propagator(data_profile, t - d, r)) / (2 * d)
        assert vals[i, j] == pytest.approx(ref, rel=5e-3)

    def test_n_h_is_cached_and_positive(self, coarse_cfg):
        gs.clear_caches()
        first = gs.estimate_N_h(1.0, 1.2, coarse_cfg.grid)
        again = gs.estimate_N_h(1.0, 1.2, coarse_cfg.grid)
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
        base = gs.linear_data_field(0.0, data_profile, coarse_cfg.grid)
        assert np.allclose(u.values, coarse_cfg.epsilon * base, rtol=1e-15)

    def test_epsilon_scaling_is_exactly_linear(self, coarse_cfg):
        ua, _ = gs.picard_solve(0.0, data_profile, None, with_eps(coarse_cfg, 0.01))
        ub, _ = gs.picard_solve(0.0, data_profile, None, with_eps(coarse_cfg, 0.02))
        assert np.max(np.abs(ub.values - 2.0 * ua.values)) <= 1e-12

    def test_envelope_violation_rejected(self, coarse_cfg):
        with pytest.raises(DomainError, match="envelope"):
            gs.picard_solve(0.0, lambda lam: 2.0 * theta_k(lam, ENV1),
                            SPEC, coarse_cfg)

    def test_nan_data_rejected_at_its_radius(self, coarse_cfg):
        def u1(lam):
            return np.where(np.isclose(lam, 1.5), np.nan, data_profile(lam))

        with pytest.raises(
                DomainError, match=r"u1 violates the data envelope .* r = 1\.5 "):
            gs.picard_solve(0.0, u1, SPEC, coarse_cfg)

    def test_nan_iterate_stops_at_its_sweep(self, coarse_cfg, monkeypatch):
        # F turns NaN at one point on its second call, the sweep that
        # makes iterate 2
        calls = []

        def nan_at_second_call(spec):
            F = nonlinearity(spec)

            def F_nan(u):
                calls.append(1)
                out = F(u)
                if len(calls) == 2:
                    out[3, 7] = np.nan
                return out
            return F_nan

        monkeypatch.setattr(gs, "nonlinearity", nan_at_second_call)
        with pytest.raises(gs.EscapeError,
                           match=r"^sweep 2 gave a non-finite iterate, "
                                 r"first at t = \S+, r = \S+$"):
            gs.picard_solve(0.0, data_profile, SPEC, coarse_cfg)
        assert len(calls) == 2

    def test_convergence_history_contracts(self, coarse_cfg):
        u, history = gs.picard_solve(0.0, data_profile, SPEC, coarse_cfg)
        assert history[-1] < coarse_cfg.fixed_point_tol
        for a, b in zip(history[1:-1], history[2:]):
            assert b <= 0.5 * a

    def test_fixed_point_residual_small(self, coarse_cfg, coarse_table):
        u, _ = gs.picard_solve(0.0, data_profile, SPEC, coarse_cfg)
        F = nonlinearity(SPEC)
        lin = coarse_cfg.epsilon * gs.linear_data_field(0.0, data_profile,
                                                        coarse_cfg.grid)
        resid = u.values - lin - coarse_table.duhamel_field(F(u.values))
        phi = phi_on(coarse_cfg.grid.t, coarse_cfg.grid.r, coarse_cfg.h)
        assert np.max(phi * np.abs(resid)) <= 2 * coarse_cfg.fixed_point_tol

    def test_solution_stays_in_ball(self, coarse_cfg):
        u, _ = gs.picard_solve(0.0, data_profile, SPEC, coarse_cfg)
        radius = 2 * coarse_cfg.epsilon * gs.estimate_N_h(1.0, coarse_cfg.h,
                                                          coarse_cfg.grid)
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
        phi = phi_on(coarse_cfg.grid.t, coarse_cfg.grid.r, 1.2)
        rng = np.random.default_rng(3)
        u, v = (0.05 * shape / phi for shape in unit_shapes(rng, coarse_cfg, 2))

        def ratio(u, v):
            norm = np.max(phi * np.abs(u - v))
            return gs._pair_ratios(coarse_table, F, phi, u[None], v[None],
                                   [norm])[0]

        assert ratio(u, v) == ratio(v, u)
        assert ratio(u, u) is None

    def test_sampled_fields_fill_the_ball(self, coarse_cfg):
        phi = phi_on(coarse_cfg.grid.t, coarse_cfg.grid.r, 1.2)
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

        def spy(table, F, phi, U, V, denom):
            seen.append((U, V, denom))
            return pair_ratios(table, F, phi, U, V, denom)

        monkeypatch.setattr(gs, "_pair_ratios", spy)
        gs.contraction_probe(SPEC, coarse_cfg, n_pairs=3, rng_seed=5)
        (U, V, denom), = seen
        phi = phi_on(coarse_cfg.grid.t, coarse_cfg.grid.r, 1.2)
        radius = 2.0 * coarse_cfg.epsilon * gs.estimate_N_h(
            1.0, 1.2, coarse_cfg.grid)
        rng = np.random.default_rng(5)
        for u_batch, v_batch, d in zip(U, V, denom):
            su, sv = unit_shapes(rng, coarse_cfg, 2)
            assert np.array_equal(u_batch, radius * (su / phi))
            assert np.array_equal(v_batch, radius * (sv / phi))
            # ||u - v|| is the radius times the shapes' own sup distance
            assert d == radius * np.max(np.abs(su - sv))
            assert d == pytest.approx(np.max(phi * np.abs(u_batch - v_batch)),
                                      rel=1e-14)


class TestThreshold:
    def test_threshold_exists_and_reprobes_admissibly(self, coarse_cfg):
        spec = NonlinearitySpec(p=4.0, q=3.0, delta0=0.3)
        cfg = gs.SolverConfig(p=4.0, h=1.5, epsilon=1e-3, grid=coarse_cfg.grid)
        found = gs.epsilon_threshold(spec, cfg, rng_seed=13, n_pairs=6,
                                     n_steps=12)
        eps0 = found.epsilon
        assert eps0 > 0
        gs.clear_caches()  # a fresh draw of the shapes and a fresh table
        rep = gs.contraction_probe(spec, with_eps(cfg, eps0), n_pairs=6,
                                   rng_seed=13)
        assert rep.max_ratio <= 0.5
        # the search's own probe at eps0 is that re-probe, bit for bit
        assert found == rep
        again = gs.epsilon_threshold(spec, cfg, rng_seed=13, n_pairs=6,
                                     n_steps=12)
        assert again == found

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
            gs._pair_quotients.cache_clear()
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
                                    n_steps=8).epsilon == lo

    def test_search_draws_its_shapes_once(self, coarse_cfg, monkeypatch):
        calls = []
        for name in ("contraction_probe", "_pair_ratios"):
            monkeypatch.setattr(gs, name, spy_on(calls, name,
                                                 getattr(gs, name)))
        gs._pair_quotients.cache_clear()
        gs.epsilon_threshold(SPEC, coarse_cfg, rng_seed=21, n_pairs=3,
                             n_steps=8)
        info = gs._pair_quotients.cache_info()
        # every probe of the bisection, the floor's included, that does
        # not escape asks once; an escaping one does not ask
        measured = calls.count("_pair_ratios")
        assert calls.count("contraction_probe") == 9 and 1 < measured < 9
        assert (info.misses, info.hits) == (1, measured - 1)

    def test_caches_key_on_the_grid(self, coarse_cfg, monkeypatch):
        # one table and one N_h serve a whole search, and a config on an
        # equal but distinct Grid finds them; a grid that differs does not
        tables, fields = [], []

        def counted(record, build):
            def call(*args):
                record.append(args)
                return build(*args)
            return call

        monkeypatch.setattr(gs, "PropagatorTable",
                            counted(tables, gs.PropagatorTable))
        monkeypatch.setattr(gs, "linear_data_field",
                            counted(fields, gs.linear_data_field))
        gs.clear_caches()
        gs.epsilon_threshold(SPEC, coarse_cfg, rng_seed=21, n_pairs=3,
                             n_steps=20)
        assert (len(tables), len(fields)) == (1, 1)
        twin = Grid(*(getattr(coarse_cfg.grid, key)
                      for key in ("t_max", "r_max", "dt", "dr")))
        assert twin is not coarse_cfg.grid and twin == coarse_cfg.grid
        same = gs.SolverConfig(p=3.5, h=1.2, epsilon=0.01, grid=twin)
        gs.contraction_probe(SPEC, same, n_pairs=3, rng_seed=21)
        assert gs._pair_quotients.cache_info().misses == 1
        assert (len(tables), len(fields)) == (1, 1)
        other = gs.SolverConfig(p=3.5, h=1.2, epsilon=0.01,
                                grid=Grid(4.0, 4.0, 0.2, 0.1))
        gs.contraction_probe(SPEC, other, n_pairs=3, rng_seed=21)
        assert (len(tables), len(fields)) == (2, 2)


class TestPairShapes:
    @pytest.mark.parametrize("grid", [Grid(2.0, 4.0, 0.05, 0.05),
                                      Grid(8.0, 8.0, 0.05, 0.05)],
                             ids=["bench-41x81", "test06-161x161"])
    @pytest.mark.parametrize("seed", [0, 1, 11])
    def test_shapes_match_the_per_point_sum(self, grid, seed):
        shapes = gs._pair_shapes(seed, 20, grid)
        assert np.all(np.max(np.abs(shapes), axis=(2, 3)) == 1.0)
        # the reference draws one shape after another, u, v, u, v, ...
        rng = np.random.default_rng(seed)
        for pair in shapes:
            for shape in pair:
                ref = unit_shape_per_point(rng, grid.t, grid.r)
                assert np.max(np.abs(shape - ref)) <= 1e-14

    def test_shapes_are_read_only(self, coarse_cfg):
        units, norms = gs._pair_quotients(5, 3, coarse_cfg.grid, 1.2)
        assert units.shape == (3, 2, coarse_cfg.grid.t.size,
                               coarse_cfg.grid.r.size)
        assert norms.shape == (3,)
        for cached in (units, gs._grid_phi(coarse_cfg.grid, 1.2)):
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[..., 0, 0] = 1.0

    def test_escaping_probe_does_no_array_work(self, coarse_cfg,
                                               monkeypatch):
        gs.clear_caches()
        gs.estimate_N_h(1.0, 1.2, coarse_cfg.grid)  # the radius needs N_h
        gs._grid_phi.cache_clear()
        calls = []
        for name in ("phi_weight", "_pair_shapes"):
            monkeypatch.setattr(gs, name, spy_on(calls, name,
                                                 getattr(gs, name)))
        monkeypatch.setattr(gs.PropagatorTable, "duhamel_field", spy_on(
            calls, "duhamel_field", gs.PropagatorTable.duhamel_field))
        with pytest.raises(gs.EscapeError, match="1/A"):
            gs.contraction_probe(SPEC, with_eps(coarse_cfg, 0.5), n_pairs=2)
        assert calls == []

    @pytest.mark.parametrize("kwargs, key", [({"n_pairs": 0}, "n_pairs"),
                                             ({"rng_seed": -1}, "rng_seed")])
    def test_escaping_probe_validates_first(self, coarse_cfg, kwargs, key):
        with pytest.raises(DomainError, match=key):
            gs.contraction_probe(SPEC, with_eps(coarse_cfg, 0.5), **kwargs)

    def test_search_builds_phi_and_the_norms_once(self, coarse_cfg,
                                                  monkeypatch):
        calls = []
        for name in ("phi_weight", "_pair_shapes"):
            monkeypatch.setattr(gs, name, spy_on(calls, name,
                                                 getattr(gs, name)))
        # a cleared cache pays again what a fresh process pays
        for _ in range(2):
            gs.clear_caches()
            del calls[:]
            found = gs.epsilon_threshold(SPEC, coarse_cfg, rng_seed=21,
                                         n_pairs=3, n_steps=20)
            assert sorted(calls) == ["_pair_shapes", "phi_weight"]
        # a second search on the same draw and weight builds nothing
        assert gs.epsilon_threshold(SPEC, coarse_cfg, rng_seed=21, n_pairs=3,
                                    n_steps=20) == found
        assert len(calls) == 2

    def test_numpy_integer_seed_is_the_int_seed(self, coarse_cfg):
        a = gs.contraction_probe(SPEC, coarse_cfg, n_pairs=2, rng_seed=4)
        gs.clear_caches()
        assert gs.contraction_probe(SPEC, coarse_cfg, n_pairs=2,
                                    rng_seed=np.int64(4)) == a

    @pytest.mark.parametrize("seed", [None, np.random.default_rng(3), 2.0,
                                      "3", -1],
                             ids=["None", "Generator", "float", "str",
                                  "negative"])
    @pytest.mark.parametrize("search", [False, True],
                             ids=["probe", "threshold"])
    def test_seed_the_cache_would_freeze_rejected(self, coarse_cfg, seed,
                                                  search):
        # a Generator or None seed would make every cached draw the first
        run = gs.epsilon_threshold if search else gs.contraction_probe
        with pytest.raises(DomainError, match="rng_seed") as err:
            run(SPEC, coarse_cfg, n_pairs=2, rng_seed=seed)
        assert repr(seed) in str(err.value)


def test_clear_caches_empties_every_cache(coarse_cfg):
    # every cache of the package's modules, found by its cache_clear
    modules = [importlib.import_module(f"hypwave.{m.name}")
               for m in pkgutil.iter_modules(hypwave.__path__)]
    caches = {id(obj): obj for module in modules
              for obj in vars(module).values() if hasattr(obj, "cache_clear")}
    gs.clear_caches()
    gs.contraction_probe(SPEC, coarse_cfg, n_pairs=2, rng_seed=4)
    nonlinearity(NonlinearitySpec(p=3.5, q=2.5, delta0=0.3,
                                  kind="piecewise_generic"))
    assert all(c.cache_info().currsize > 0 for c in caches.values())
    gs.clear_caches()
    assert [c.__name__ for c in caches.values()
            if c.cache_info().currsize > 0] == []


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
        # a smooth stand-in for the kernel sums at the lags t - tau, 0 at
        # lag 0 as W is, so that only the tau rule is compared: with the
        # per-tau reference on the same stand-in, and with scipy's Simpson
        from scipy.integrate import simpson

        def fake_W(lag, r, f=None, a=None):
            return np.expm1(-lag) * np.cos(3.0 * lag) + r * lag**2

        lags = []

        def fake_sums(t, r, a, knots, weigh, majorant=False):
            lags.append(t)
            return lambda n_gl: fake_W(t, r)

        monkeypatch.setattr(gs, "_kernel_sums", fake_sums)
        claim, _ = gs.claim_bound_check(3.5, 1.2, 1e-2, t, 0.5)
        n_tau = max(8, 2 * int(np.ceil(2.0 * t)))
        taus = np.linspace(0.0, t, n_tau + 1)
        assert len(lags) == 1 and np.array_equal(lags[0], t - taus[:-1])
        want = per_tau_claim(3.5, 1.2, 1e-2, t, 0.5, W=fake_W)
        assert claim == pytest.approx(want, rel=1e-14)
        assert claim == pytest.approx(simpson(fake_W(t - taus, 0.5), x=taus), rel=1e-14)

    def test_matches_the_per_tau_reference(self):
        # acceptance test_08's points: one kernel call over every lag, its
        # Simpson sum settled, against one settled W per tau node
        points = [(t, r, eps) for t in (0.5, 1.0, 2.0, 4.0, 6.0) for r in (0.5, 2.0)
                  for eps in (1e-4, 1e-1)]
        points += [(float(t), float(r), 1e-4) for t in np.linspace(0.5, 8.0, 6)
                   for r in np.linspace(0.0, 8.0, 6)]
        for t, r, eps in points:
            claim, _ = gs.claim_bound_check(3.5, 1.2, eps, t, r)
            assert claim == pytest.approx(per_tau_claim(3.5, 1.2, eps, t, r), rel=1e-13)

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


@pytest.mark.slow
class TestOracleConsistency:
    def test_picard_matches_finite_differences(self):
        eps = 0.0375
        cfg = gs.SolverConfig(p=3.5, h=1.2, epsilon=eps,
                              grid=Grid(4.0, 8.0, 0.05, 0.05))
        u_pic, _ = gs.picard_solve(0.0, data_profile, SPEC, cfg)
        fd_cfg = FDConfig(Grid(4.0, 10.0, 0.01, 0.02), snapshot_every=5)
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
            keep = (T + R <= grid.r_max - 2 * max(dt, dr)) & (R >= 4 * dr)
            return float(np.max(np.abs(res[keep])))

        coarse = interior_residual(Grid(4.0, 8.0, 0.1, 0.1))
        fine = interior_residual(Grid(4.0, 8.0, 0.05, 0.05))
        assert coarse < 1e-3
        assert fine < 0.5 * coarse
