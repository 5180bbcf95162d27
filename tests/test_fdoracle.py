"""Tests for the finite-difference cross-check solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hypwave import blowlab, fdoracle
from hypwave.blowlab import bump_profile, escape_detector
from hypwave.fdoracle import (
    _BLOCK,
    FDConfig,
    InstabilityError,
    _coth,
    _finite_max,
    convergence_order,
    fd_solve,
    leapfrog,
)
from hypwave.cli import _SCHEMA
from hypwave.hypgeo import DomainError, Grid, theta_k
from hypwave.meanprop import RadialProfile, _as_profile, sine_propagator
from hypwave.nonlin import NonlinearitySpec, nonlinearity
from references import from_samples, time_index
from test_nonlin import F_generic_all_branches, bits, generic

def theta1(lam):
    return theta_k(lam, 1.0)


def zero(lam):
    return np.zeros_like(np.asarray(lam, dtype=float))


def ones(lam):
    return np.ones_like(np.asarray(lam, dtype=float))


QUICK = FDConfig(Grid(1.8, 8.0, 1.8e-2, 2e-2))


class TestFDConfig:
    def test_cfl_derived(self):
        cfg = FDConfig(Grid(0.9, 1.0, 0.018, 0.02))
        assert_allclose(cfg.cfl, 0.9)

    def test_cfl_limit_enforced(self):
        with pytest.raises(DomainError, match="stability margin"):
            FDConfig(Grid(1.0, 1.0, 0.02, 0.02))

    def test_noninteger_grid_rejected(self):
        with pytest.raises(DomainError, match="integer"):
            FDConfig(Grid(0.9, 1.01, 0.018, 0.02))

    def test_positive_fields(self):
        with pytest.raises(DomainError):
            FDConfig(Grid(0.9, 1.0, 0.018, -0.02))

    def test_zero_step_grid_rejected(self):
        with pytest.raises(DomainError, match="t_max/dt must be at least 1"):
            FDConfig(Grid(1e-12, 1.0, 0.04, 0.05))

    def test_snapshot_divisibility(self):
        with pytest.raises(DomainError, match="snapshot"):
            FDConfig(Grid(0.9, 1.0, 0.018, 0.02), snapshot_every=7)

    def test_default_grid_constructs(self):
        # wavecli's default grid of propagate and decay, which the oracle
        # runs on there; FDConfig itself has no default grid
        grid = Grid(**{key: default for key, (_, default)
                       in _SCHEMA["propagate"]["grid"].items()})
        assert grid == Grid(4.0, 8.0, 0.04, 0.05)
        assert_allclose(FDConfig(grid).cfl, 0.8)

    def test_grid_properties(self):
        cfg = FDConfig(Grid(1.0, 2.0, 0.25, 0.5))
        assert_allclose(cfg.grid.r, [0.0, 0.5, 1.0, 1.5, 2.0])
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
            j = int(round(r_probe / QUICK.grid.dr))
            assert_allclose(fld.values[i, j], want, rtol=1e-4)

    def test_cross_validates_integral_path(self):
        cfg = FDConfig(Grid(2.25, 12.0, 4.5e-3, 5e-3))
        fld = fd_solve(zero, theta1, None, cfg)
        i = time_index(fld, 2.25)
        j = int(round(1.0 / cfg.grid.dr))
        want = sine_propagator(theta1, 2.25, 1.0)
        assert_allclose(fld.values[i, j], want, rtol=1e-4)

    def test_finite_propagation_speed(self):
        bump = RadialProfile(
            lambda lam: np.where(lam < 2.0,
                                 np.exp(-1.0 / np.maximum(1 - (lam / 2.0) ** 2, 1e-12)),
                                 0.0),
            support_radius=2.0)
        fld = fd_solve(zero, bump, None, QUICK)
        i = time_index(fld, 1.8)
        beyond = fld.r_grid > 2.0 + 1.8 + 3 * QUICK.grid.dr
        assert np.abs(fld.values[i, beyond]).max() < 1e-13

    def test_time_reversal_second_order(self):
        def reversal_error(dr):
            dt = 0.9 * dr
            cfg = FDConfig(Grid(round(1.8 / dt) * dt, 8.0, dt, dr))
            fwd = fd_solve(theta1, zero, None, cfg)
            uN, uN1, uN2 = fwd.values[-1], fwd.values[-2], fwd.values[-3]
            vN = (3 * uN - 4 * uN1 + uN2) / (2 * dt)
            rg = fwd.r_grid
            back = fd_solve(from_samples(rg, uN),
                            from_samples(rg, -vN), None, cfg)
            interior = rg <= cfg.grid.r_max - 2 * cfg.grid.t_max - 0.5
            return np.abs(back.values[-1][interior] - theta1(rg)[interior]).max()

        e_coarse = reversal_error(2e-2)
        e_fine = reversal_error(1e-2)
        assert e_coarse < 5e-4
        assert 3.0 < e_coarse / e_fine < 5.0

    def test_oversized_support_rejected(self):
        wide = RadialProfile(ones, support_radius=7.5)
        with pytest.raises(DomainError, match="support"):
            fd_solve(zero, wide, None, QUICK)

    def test_instability_reports_location(self):
        # a focusing power nonlinearity with large data blows up in finite
        # time; the solver must say where it first went non-finite
        cfg = FDConfig(Grid(9.0, 22.0, 1.8e-2, 2e-2))
        with pytest.raises(InstabilityError, match=r"t = [\d.]+, r = [\d.]+"):
            fd_solve(lambda lam: 5.0 * np.exp(-(lam**2)), zero,
                     lambda u: u * np.abs(u), cfg)

    def test_snapshot_thinning(self):
        cfg = FDConfig(Grid(1.8, 8.0, 1.8e-2, 2e-2), snapshot_every=10)
        thin = fd_solve(zero, theta1, None, cfg)
        full = fd_solve(zero, theta1, None, QUICK)
        assert thin.t_grid.size == 11
        i_thin = time_index(thin, 0.9)
        i_full = time_index(full, 0.9)
        assert_allclose(thin.values[i_thin], full.values[i_full], rtol=1e-12)

    def test_coth_keeps_cosh_over_sinh_bits_below_the_overflow(self):
        # every radius below 710 keeps the bits of cosh r / sinh r; from
        # r = 710.48 on both overflow and coth r is 1 / tanh r = 1.0, with
        # no RuntimeWarning (the test settings make one an error)
        r = Grid(1.0, 720.0, 2.5e-3, 5e-3).r[1:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.cosh(r) / np.sinh(r)
        got = _coth(r)
        below = r < 710.0
        assert np.count_nonzero(below) == 141999
        assert bits(got[below]) == bits(want[below])
        finite = np.isfinite(want)
        assert bits(got[finite]) == bits(want[finite])
        assert r[~finite].min() == 710.48 and np.all(got[~finite] == 1.0)

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
            cfg = FDConfig(Grid(1.8, 8.0, 1.8e-2 / 2**k, 2e-2 / 2**k))
            fld = fd_solve(zero, ones, None, cfg)
            i = time_index(fld, 1.8)
            j = int(round(1.0 / cfg.grid.dr))
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
    r = cfg.grid.r
    coth_r = np.cosh(r[1:-1]) / np.sinh(r[1:-1])
    dr, dt = cfg.grid.dr, cfg.grid.dt

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
    return nonlinearity(NonlinearitySpec(p=2.0, q=2.0, delta0=0.45,
                                         kind=kind))


def scaled(prof, c):
    return RadialProfile(lambda lam: c * prof(lam), knots=prof.knots)


BUMP = bump_profile(1.0)
# the escape grid of wavecli blowup at dr = 0.05: the bump's support ends
# at cell 69 of 873
ESCAPE = FDConfig(Grid(40.0, 43.6, 0.04, 0.05))
SHORT = FDConfig(Grid(4.0, 43.6, 0.04, 0.05))


class TestLeapfrogWindow:
    CASES = {
        "bump-piecewise": (zero, scaled(BUMP, 0.1), spec_F("piecewise_generic"),
                           SHORT),
        "bump-canonical": (zero, scaled(BUMP, 0.1),
                           spec_F("canonical_sinh_inverse"), SHORT),
        # 1000 steps: the window reaches r_max at step 795
        "bump-linear-hits-r_max": (zero, BUMP, None, ESCAPE),
        "theta1": (zero, theta1, spec_F("canonical_sinh_inverse"), QUICK),
        "F(0)!=0": (zero, BUMP, lambda u: 0.01 + u * np.abs(u), SHORT),
        # 0.5 dt^2 F(0) rounds to 0 but dt^2 F(0) does not: the step-1
        # state is zero past the support, and only F(0) itself shows that
        # the zero cells do not stay zero
        "F(0)-subnormal": (zero, BUMP, lambda u: 2.5e-321 + u * np.abs(u),
                           SHORT),
        # u0 is -0.0 past its support, the full-grid states from step 1
        # on are +0.0 there
        "negative-bump": (scaled(BUMP, -1.0), scaled(BUMP, -0.1),
                          spec_F("piecewise_generic"), SHORT),
        # overflows at t = 5.24 (step 131), when the window is 224 of 873 cells
        "overflow": (zero, scaled(BUMP, 0.5), spec_F("piecewise_generic"),
                     FDConfig(Grid(8.0, 43.6, 0.04, 0.05))),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_states_equal_full_grid(self, case):
        u0, u1, F, cfg = self.CASES[case]
        with np.errstate(over="ignore", invalid="ignore"):
            got = [u.copy() for u, _ in leapfrog(u0, u1, F, cfg)]
            want = list(full_grid_leapfrog(u0, u1, F, cfg))
        assert len(got) == len(want) == cfg.n_steps + 1
        for n, (g, w) in enumerate(zip(got, want)):
            assert g.shape == w.shape
            assert_array_equal(g, w, err_msg=f"state {n}")

    def test_overflow_names_the_same_point(self):
        u0, u1, F, cfg = self.CASES["overflow"]
        r = cfg.grid.r
        with np.errstate(over="ignore", invalid="ignore"):
            for n, u in enumerate(full_grid_leapfrog(u0, u1, F, cfg)):
                if not np.all(np.isfinite(u)):
                    bad = np.flatnonzero(~np.isfinite(u))[0]
                    break
        assert n < cfg.n_steps
        want = (f"non-finite value at t = {n * cfg.grid.dt:.6g}, "
                f"r = {r[bad]:.6g}")
        with pytest.raises(InstabilityError) as exc:
            fd_solve(u0, u1, F, cfg)
        assert str(exc.value) == want

    @pytest.mark.parametrize("every", [1, 5])
    def test_overflow_keeps_the_finite_snapshots(self, every):
        u0, u1, F, cfg = self.CASES["overflow"]
        cfg = FDConfig(cfg.grid, snapshot_every=every)
        with np.errstate(over="ignore", invalid="ignore"):
            states = []
            for u in full_grid_leapfrog(u0, u1, F, cfg):
                if not np.all(np.isfinite(u)):
                    break
                states.append(u)
        with pytest.raises(InstabilityError) as exc:
            fd_solve(u0, u1, F, cfg)
        field = exc.value.field
        kept = states[::every]
        # the times the whole run would have had, up to the last kept one
        t_full = np.linspace(0.0, cfg.grid.t_max, cfg.n_steps // every + 1)
        assert bits(field.t_grid) == bits(t_full[:len(kept)])
        assert bits(field.r_grid) == bits(cfg.grid.r)
        assert bits(field.values) == bits(np.array(kept))

    def test_instability_at_the_start_keeps_no_field(self):
        with pytest.raises(InstabilityError) as exc:
            fd_solve(lambda lam: np.full_like(lam, np.inf), zero, None, QUICK)
        assert "t = 0," in str(exc.value) and exc.value.field is None

    @pytest.mark.parametrize("case", CASES)
    def test_cells_from_k_on_are_plus_zero(self, case):
        """Each yielded (u, k): u is the full-grid state, sign of zero
        included, and its cells from k on are +0.0."""
        u0, u1, F, cfg = self.CASES[case]
        n_r = cfg.grid.r.size
        with np.errstate(over="ignore", invalid="ignore"):
            for n, ((u, k), w) in enumerate(zip(
                    leapfrog(u0, u1, F, cfg),
                    full_grid_leapfrog(u0, u1, F, cfg))):
                assert bits(u) == bits(w), f"state {n}"
                assert bits(u[k:]) == bits(np.zeros(n_r - k)), f"state {n}"

    @pytest.mark.parametrize("every", [1, 5])
    def test_kept_states_outlive_the_buffers(self, every):
        # leapfrog writes each state into the buffer of the state three
        # steps back: fd_solve's copies must not follow
        u0, u1, F, cfg = self.CASES["bump-piecewise"]
        cfg = FDConfig(cfg.grid, snapshot_every=every)
        got = fd_solve(u0, u1, F, cfg).values
        want = list(full_grid_leapfrog(u0, u1, F, cfg))[::every]
        assert got.shape == (cfg.n_steps // every + 1, cfg.grid.r.size)
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("cfg", [SHORT, ESCAPE],
                             ids=["window-below-r_max", "window-hits-r_max"])
    def test_escape_sup_is_the_full_grid_max(self, cfg):
        """escape_detector reduces the window [0, k). Negative data keep its
        max at 0 while k < n_r, where the cells from k on join in; from
        k = n_r on the window is the whole state."""
        u1 = scaled(BUMP, -1.0)
        n_r = cfg.grid.r.size
        ks, zero_max = [], 0
        for u, k in leapfrog(zero, u1, None, cfg):
            ks.append(k)
            zero_max += k < n_r and u[:k].max() <= 0.0
        assert zero_max > 20
        assert (ks[-1] == n_r) == (cfg is ESCAPE)
        rep = escape_detector(zero, u1, None, cfg, 10.0)
        want = [np.max(u) for u in full_grid_leapfrog(zero, u1, None, cfg)]
        assert not rep.escaped and len(want) == len(ks)
        assert bits(rep.sup_history) == bits(want)

    def test_escape_sup_keeps_np_max_signed_zero(self, monkeypatch):
        """A window [0, 4) whose max ties -0.0 with +0.0: np.max of the
        window and of the whole state may pick different zeros, and the
        sup is the whole state's."""
        u = np.array([-0.0, -1.0, -1.0] + [0.0] * 6)
        monkeypatch.setattr(blowlab, "leapfrog",
                            lambda *args: iter([(u, 4)]))
        rep = escape_detector(zero, zero, None, SHORT, 1.0)
        assert bits(rep.sup_history) == bits([np.max(u)])

    @staticmethod
    def window_lengths(F, cfg):
        """len(u) of every F call while leapfrog makes each state, by step,
        and the k yielded with each state."""
        seen = []

        def recording(u):
            seen.append(len(u))
            return F(u)

        per_step, ks = [], []
        for _, k in leapfrog(zero, scaled(BUMP, 0.1), recording, cfg):
            per_step.append(seen[:])
            ks.append(k)
            seen.clear()
        return per_step, ks

    def test_window_follows_the_light_cone(self):
        n_r = ESCAPE.grid.r.size
        support = int(np.flatnonzero(BUMP(ESCAPE.grid.r))[-1])
        # a defocusing F, so that the 1000 steps stay finite
        per_step, ks = self.window_lengths(lambda u: -u * np.abs(u), ESCAPE)
        assert per_step[1] == [n_r]
        for n in range(2, ESCAPE.n_steps + 1):
            bound = -(-(support + n + 2) // _BLOCK) * _BLOCK
            assert max(per_step[n]) <= min(bound, n_r), f"step {n}"
        assert per_step[2][-1] == -(-(support + 4) // _BLOCK) * _BLOCK < n_r
        # the yielded k is the window F saw; states 0 and 1 are whole
        assert ks[0] == n_r
        assert ks[1:] == [calls[-1] for calls in per_step[1:]]

    def test_F_nonzero_at_zero_steps_the_whole_grid(self):
        n_r = SHORT.grid.r.size
        per_step, ks = self.window_lengths(lambda u: 0.01 + u * np.abs(u),
                                           SHORT)
        assert all(calls[-1] == n_r for calls in per_step[1:])
        assert set(ks) == {n_r}


def planted(n_bad, cells, value):
    """leapfrog with state n_bad yielded as a copy whose cells, the list
    cells(k) of cells of its window [0, k), hold value; the stepper's own
    buffers keep the true states."""
    def stepper(u0, u1, F, cfg):
        for n, (u, k) in enumerate(leapfrog(u0, u1, F, cfg)):
            if n == n_bad:
                u = u.copy()
                u[cells(k)] = value
            yield u, k
    return stepper


class TestStepGuard:
    """fd_solve sums each step's window once and asks _finite_max only when
    that sum is not finite: a NaN or an infinity stops the run where
    _finite_max alone stopped it, and a finite window whose sum overflows
    does not stop it."""

    DATA = (zero, scaled(BUMP, 0.1), spec_F("piecewise_generic"))
    CELLS = {"first": lambda k: [0], "window's last": lambda k: [k - 1],
             "two": lambda k: [1, k // 3]}

    @pytest.mark.parametrize("every", [1, 5])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", CELLS)
    @pytest.mark.parametrize("n_bad", [0, 1, 37, 100])
    def test_named_as_finite_max_names_it(self, monkeypatch, n_bad, where,
                                          value, every):
        cfg = FDConfig(SHORT.grid, snapshot_every=every)
        stepper = planted(n_bad, self.CELLS[where], value)
        kept = []
        for n, (u, k) in enumerate(stepper(*self.DATA, cfg)):
            if _finite_max(u[:k]) is None:
                bad = np.flatnonzero(~np.isfinite(u[:k]))[0]
                break
            if n % every == 0:
                kept.append(u.copy())
        assert n == n_bad
        monkeypatch.setattr(fdoracle, "leapfrog", stepper)
        with pytest.raises(InstabilityError) as exc:
            fd_solve(*self.DATA, cfg)
        r = cfg.grid.r
        assert str(exc.value) == (f"non-finite value at t = "
                                  f"{n * cfg.grid.dt:.6g}, r = {r[bad]:.6g}")
        field = exc.value.field
        if not kept:
            assert field is None
            return
        t_full = np.linspace(0.0, cfg.grid.t_max, cfg.n_steps // every + 1)
        assert bits(field.t_grid) == bits(t_full[:len(kept)])
        assert bits(field.values) == bits(np.array(kept))

    @pytest.mark.parametrize("n_bad", [0, 1, 37, 100])
    def test_finite_window_whose_sum_overflows_passes(self, monkeypatch,
                                                      n_bad):
        stepper = planted(n_bad, self.CELLS["two"], 1e308)
        for n, (u, k) in enumerate(stepper(*self.DATA, SHORT)):
            if n == n_bad:
                with np.errstate(over="ignore"):
                    assert np.add.reduce(u[:k]) == np.inf
                assert _finite_max(u[:k]) == 1e308
                cells = self.CELLS["two"](k)
        want = fd_solve(*self.DATA, SHORT).values
        want[n_bad, cells] = 1e308
        monkeypatch.setattr(fdoracle, "leapfrog", stepper)
        assert bits(fd_solve(*self.DATA, SHORT).values) == bits(want)


def old_F(spec):
    """The piecewise F as plain array arithmetic: all branches, then
    np.select."""
    return lambda u: F_generic_all_branches(u, spec)


# wavecli certify's default grid, every state kept
CERTIFY = FDConfig(Grid(5.0, 9.0, 0.04, 0.05))


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
                                           CERTIFY.grid.r.size)
        assert bits(got) == bits(want)

    def test_overflow_message(self):
        u0, u1, _, cfg = TestLeapfrogWindow.CASES["overflow"]
        spec = generic(2.0)
        r = cfg.grid.r
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
            f"non-finite value at t = {n * cfg.grid.dt:.6g}, r = {r[bad]:.6g}")
