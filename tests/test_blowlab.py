import dataclasses
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypwave.blowlab import (
    BlowupParams, BoostSequence, EscapeReport, JohnSequence,
    VerifyReport, area_lower_bound, blowup_time_bound, boost_sequence,
    build_certificate, bump_profile, certificate_verify, escape_detector,
    estimate_tilde_c, first_iterate_bound, john_recursion,
    _mask_R, _mask_S, _mask_sigma, _mask_T,
)
from hypwave.fdoracle import FDConfig, fd_solve
from hypwave.hypgeo import (DomainError, EnvelopeParams, Grid, log_sinh,
                            theta_k)
from hypwave.meanprop import (RadialProfile, SpaceTimeField, _as_profile,
                              default_C0, leggauss, lower_bound_I,
                              sine_propagator)
from hypwave.nonlin import NonlinearitySpec, nonlinearity
from references import (bump_everywhere, decimated, first_iterate_both,
                        lower_bounds_everywhere)

TAU0 = 1.0
C0 = default_C0(TAU0)


def make_params(**kw):
    base = dict(p=2.0, q=2.0, tau0=TAU0, epsilon=0.5, delta0=0.45)
    base.update(kw)
    return BlowupParams(**base)


def zero_profile(r):
    return np.zeros_like(np.asarray(r, dtype=float))


class TestBlowupParams:
    def test_valid(self):
        p = make_params()
        assert p.p == 2.0 and p.C0 == C0

    def test_c0_is_not_a_parameter(self):
        # c0 is computed by build_certificate and C0 is default_C0(tau0);
        # neither is set
        for name in ("c0", "C0"):
            with pytest.raises(TypeError, match=name):
                make_params(**{name: 0.1})

    @pytest.mark.parametrize("tau0", [0.25, 1.0, 3.0, 100.0])
    def test_C0_defaults_to_default_C0(self, tau0):
        params = BlowupParams(p=2.0, q=2.0, tau0=tau0, epsilon=0.5, delta0=0.45)
        assert bits(params.C0) == bits(default_C0(tau0))

    @pytest.mark.parametrize("bad", [0.9, 1.0, 3.0, 3.5])
    def test_p_range(self, bad):
        with pytest.raises(DomainError, match=r"p must lie in \(1, 3\)"):
            make_params(p=bad)

    def test_other_fields(self):
        with pytest.raises(DomainError, match="q must exceed 1"):
            make_params(q=1.0)
        with pytest.raises(DomainError, match="tau0"):
            make_params(tau0=0.0)
        with pytest.raises(DomainError, match="epsilon"):
            make_params(epsilon=0.0)
        with pytest.raises(DomainError, match="delta0"):
            make_params(delta0=1.0)

    @pytest.mark.parametrize("tau0", [100.5, 150.0, 1420.0, 2000.0, np.inf])
    def test_tau0_cap(self, tau0):
        # first_iterate_bound's integrand (sinh lam)^(1/2) reaches lam =
        # 13 tau0; at tau0 = 150 it overflowed into a c0 taken over NaNs,
        # and from 1420 on the ceiling's sinh(tau0/2) overflowed too
        with pytest.raises(DomainError, match=r"tau0 = .* exceeds 100: .* overflows"):
            make_params(tau0=tau0)
        make_params(tau0=100.0)


class TestBump:
    def test_plateau_and_support(self):
        b = bump_profile(TAU0)
        lam = np.linspace(1.0, 3.0, 21)
        assert np.all(b(lam) == 1.0)
        outside = np.array([0.0, 0.25, 0.5, 3.5, 4.0, 10.0])
        assert np.all(b(outside) == 0.0)
        assert b.support_radius == 3.5

    def test_ramps_monotone_and_bounded(self):
        b = bump_profile(TAU0)
        rise = b(np.linspace(0.55, 0.95, 30))
        fall = b(np.linspace(3.05, 3.45, 30))
        assert np.all(np.diff(rise) > 0) and np.all(np.diff(fall) < 0)
        assert np.all((rise >= 0) & (rise <= 1))

    def test_scale_invariance(self):
        lam = np.linspace(0.0, 4.0, 57)
        b1, b2 = bump_profile(1.0), bump_profile(2.0)
        assert np.allclose(b2(2.0 * lam), b1(lam), rtol=0, atol=0)

    def test_scalar_call(self):
        assert bump_profile(TAU0)(2.0) == 1.0

    def test_bad_tau0(self):
        with pytest.raises(DomainError):
            bump_profile(0.0)


class TestRegions:
    def test_stated_examples(self):
        assert _mask_S(1.0, 2.5, TAU0)
        assert not _mask_sigma(0.4, 10.0, TAU0, 1)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 20.0))
    def test_S_forces_wide_radius(self, lam, tau):
        if _mask_S(lam, tau, TAU0):
            assert lam > 0.5 * TAU0

    @given(st.floats(0.0, 30.0), st.floats(0.0, 60.0), st.integers(1, 3))
    def test_sigma_nesting(self, lam, tau, l):
        inner = _mask_sigma(lam, tau, TAU0, l + 1)
        outer = _mask_sigma(lam, tau, TAU0, l)
        assert not inner or outer

    def test_R_excludes_cone_neighborhood(self):
        t, r = 6.0, 2.0
        # tau exactly on t - r is within tau0/8 of the cone
        assert not _mask_R(1.0, t - r, TAU0, r, t)
        assert _mask_R(2.5, 3.5, TAU0, r, t)

    @given(st.floats(0.0, 15.0), st.floats(0.0, 30.0))
    def test_T_inside_R_and_sigma(self, lam, tau):
        l, r, t = 1, 2.0, 12.0
        if _mask_T(lam, tau, TAU0, l, r, t):
            assert _mask_R(lam, tau, TAU0, r, t)
            assert _mask_sigma(lam, tau, TAU0, l)

    def test_vectorized_matches_scalar(self):
        lam = np.array([0.3, 0.8, 1.0, 2.0])
        tau = np.array([2.0, 2.2, 2.5, 3.3])
        vec = _mask_S(lam, tau, TAU0)
        assert vec.dtype == bool
        for i in range(lam.size):
            assert vec[i] == _mask_S(lam[i], tau[i], TAU0)


class TestFirstIterate:
    def test_zero_data(self):
        assert first_iterate_bound(RadialProfile.constant(0.0), make_params()) == 0.0

    def test_linearity(self):
        params = make_params(epsilon=0.1)
        bump = bump_profile(TAU0)
        doubled = RadialProfile(lambda lam: 2.0 * bump(lam),
                                support_radius=bump.support_radius, knots=bump.knots)
        c_one = first_iterate_bound(bump, params)
        c_two = first_iterate_bound(doubled, params)
        cap = params.delta0 * math.sqrt(math.sinh(0.5 * TAU0)) / params.epsilon
        assert c_two < cap, "cap must not bind for the linearity check"
        assert c_two == pytest.approx(2.0 * c_one, rel=1e-12)

    def test_cap_binds_for_large_amplitude(self):
        params = make_params(epsilon=2.0)
        c0 = first_iterate_bound(bump_profile(TAU0), params)
        cap = (1.0 - 1e-9) * params.delta0 * math.sqrt(math.sinh(0.5 * TAU0)) / 2.0
        assert c0 == pytest.approx(cap, rel=1e-12)
        boost_sequence(params, c0)  # passes the ceiling

    def test_propagator_dominates_constant(self):
        # the true first iterate should exceed c0 throughout S; the kernel
        # constant C0 is conservative by a wide factor, which covers the
        # sampling gap between this grid and the one c0 was found on
        params = make_params()
        bump = bump_profile(TAU0)
        c0 = first_iterate_bound(bump, params)
        assert 0.0 < c0 <= 1.0
        # radii stay below ~7 so the spherical means resolve comfortably;
        # the infimum lives at the corner anyway
        widths = np.linspace(1.001 * TAU0, 1.999 * TAU0, 16)
        offsets = TAU0 * np.array([1e-3, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75,
                                   1.0, 1.5, 2.5, 4.0, 5.0, 6.0])
        worst = np.inf
        for w in widths:
            r_corner = 0.5 * (3.0 * TAU0 - w)
            for off in offsets:
                r = r_corner * (1.0 + 1e-6) + off
                val = sine_propagator(bump, r + w, r) * math.exp(0.5 * log_sinh(r))
                worst = min(worst, val / c0)
        assert worst >= 1.0


class TestBoostSequence:
    def test_p2_example(self):
        boost = boost_sequence(make_params(), 0.1)
        assert boost.l0 == 3 and boost.A0 == 1.0
        ls, a, b, c = zip(*boost.entries)
        assert ls == (1, 2, 3)
        assert a == (0.0, 2.0, 4.0)
        assert b == (1.0, 2.0, 3.0)

    def test_p25_example(self):
        params = make_params(p=2.5)
        boost = boost_sequence(params, 0.1)
        assert boost.l0 == 5
        assert boost.A0 == pytest.approx(0.5, rel=1e-12)

    def test_stop_rule_no_extra_entry(self):
        boost = boost_sequence(make_params(), 0.1)
        ls, a, b, _ = zip(*boost.entries)
        assert all(ai <= bi for ai, bi in zip(a[:-1], b[:-1]))
        assert a[-1] > b[-1]
        assert len(boost.entries) == boost.l0

    def test_closed_form_exponents(self):
        p = 2.2
        boost = boost_sequence(make_params(p=p), 0.1)
        for l, a, b, _ in boost.entries:
            assert a == 2.0 * l - 2.0
            assert b == pytest.approx((p - 1.0) * l, rel=1e-12)

    def test_constant_chain(self):
        params = make_params()
        boost = boost_sequence(params, 0.1)
        c = [e[3] for e in boost.entries]
        seed = min(0.1, 0.25 * TAU0 * params.C0 * params.delta0 * 0.1)
        assert c[0] == seed
        gain = params.C0 * params.delta0 / 32.0
        assert c[1] == pytest.approx(c[0] * gain, rel=1e-15)
        assert c[2] == pytest.approx(c[1] * gain, rel=1e-15)

    @given(st.floats(1.01, 2.95))
    @settings(max_examples=60)
    def test_crossing_properties(self, p):
        boost = boost_sequence(make_params(p=p), 0.1)
        assert boost.l0 == math.floor(2.0 / (3.0 - p)) + 1
        assert 0.0 < boost.A0 <= (3.0 - p) + 1e-12

    def test_underflow_near_critical_is_explicit(self):
        # l0 ~ 200 stages at p = 2.99 push the chain below float range
        with pytest.raises(DomainError, match="underflows float range"):
            boost_sequence(make_params(p=2.99), 0.1)

    def test_c0_positive(self):
        with pytest.raises(DomainError, match="c0"):
            boost_sequence(make_params(), 0.0)

    def test_smallness_constraint(self):
        # the ceiling is delta0*sqrt(sinh(tau0/2)) ~ 0.326 at these values
        with pytest.raises(DomainError, match="shrink c0 or epsilon"):
            boost_sequence(make_params(), 1.0)
        boost_sequence(make_params(epsilon=0.5), 0.6)  # just inside

    def test_validation_rejects_corrupt(self):
        good = boost_sequence(make_params(), 0.1)
        with pytest.raises(DomainError, match="a_1 must be 0"):
            BoostSequence(entries=((1, 1.0, 1.0, 0.1),), l0=1, A0=1.0)
        bad = list(map(list, good.entries))
        bad[1][3] = 2 * bad[0][3]
        with pytest.raises(DomainError, match="nonincreasing"):
            BoostSequence(entries=tuple(map(tuple, bad)), l0=3, A0=1.0)
        with pytest.raises(DomainError, match="A0"):
            BoostSequence(entries=good.entries, l0=3, A0=2.0)


class TestAreaLowerBound:
    def test_stated_example(self):
        assert area_lower_bound(1, 5.0, 17.0, 1.0) == pytest.approx(5.625, rel=1e-15)

    def test_degenerate(self):
        assert area_lower_bound(1, 5.0, 5.0 + 9.0, 1.0) == 0.0
        assert area_lower_bound(1, 5.0, 10.0, 1.0) == 0.0
        assert area_lower_bound(1, 0.0, 100.0, 1.0) == 0.0

    def test_bad_tau0(self):
        with pytest.raises(DomainError):
            area_lower_bound(1, 5.0, 17.0, 0.0)

    @pytest.mark.slow
    def test_brute_force_region_integral_dominates(self):
        # midpoint quadrature of the integral of lambda over T^l must beat
        # the parabolic bound; the moderate-width regime W <= (r+tau0)/2 is
        # the one the boost ladder uses
        rng = np.random.default_rng(7)
        for _ in range(20):
            l = int(rng.integers(1, 3))
            tau0 = float(rng.uniform(0.4, 1.2))
            r = float(rng.uniform(0.8 * tau0, 6.0 * tau0))
            width = float(rng.uniform(0.05, 0.5)) * (r + tau0)
            t = r + 6.0 * l * tau0 + 3.0 * tau0 + width
            bound = area_lower_bound(l, r, t, tau0)
            assert bound > 0.0
            lam = np.linspace(0.0, 0.51 * (t + r), 900)
            tau = np.linspace(0.0, 1.02 * (t + r), 1800)
            L, T = np.meshgrid(lam, tau, indexing="ij")
            mask = _mask_T(L, T, tau0, l, r, t)
            brute = float(np.sum(L[mask]) * (lam[1] - lam[0]) * (tau[1] - tau[0]))
            assert brute >= bound


class TestJohnRecursion:
    def test_stated_closed_form_examples(self):
        seq = john_recursion(1.0, 1.0, 2.0, 1.0, 0.5, 20)
        entries = {m: (A, B, logD) for m, A, B, logD in seq.entries}
        assert entries[3][1] == 14.0  # B_3 = 2(2^3 - 1)
        assert entries[5][0] == 32.0  # A_5 = q^5

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_rational_arithmetic_agreement(self, q):
        seq = john_recursion(1.0, 1.0, q, 1.0, 0.5, 20)
        qf = Fraction(q)
        A, B = Fraction(1), Fraction(0)
        for m, A_f, B_f, _ in seq.entries:
            assert A_f == float(A) and B_f == float(B)
            # closed forms, exactly
            assert A == qf**m
            assert B == 2 * (qf**m - 1) / (qf - 1)
            A, B = A * qf, B * qf + 2

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_B_growth_bound(self, q):
        seq = john_recursion(1.0, 1.0, q, 1.0, 0.5, 20)
        for m, _, B, _ in seq.entries[1:]:
            assert B <= 2.0 * m * q ** (m - 1) * (1.0 + 1e-12)

    def test_logD_floor(self):
        seq = john_recursion(1.0, 4.27e-10, 2.0, C0, 0.45, 20)
        for m, _, _, logD in seq.entries:
            floor = (seq.E - seq.E_tail_bound) * 2.0**m
            assert logD >= floor - 1e-9 * (1.0 + abs(floor))

    def test_saturated_gap_matches_independent_recursion(self):
        # C0*delta0 = 4 makes the log(C0*delta0/4) correction vanish; the
        # loop must agree with a direct evaluation of
        # logD_{m+1} = q logD_m + log 4 - 2 log B_{m+1}
        seq = john_recursion(1.0, math.e, 2.0, 8.0, 0.5, 20)
        logD, B = 1.0, 0.0
        for m, _, B_f, logD_f in seq.entries:
            assert logD_f == pytest.approx(logD, rel=1e-12, abs=1e-12)
            B = B * 2.0 + 2.0
            logD = 2.0 * logD + math.log(4.0) - 2.0 * math.log(B)

    def test_series_constant_and_tail(self):
        seq = john_recursion(1.0, 1.0, 2.0, 1.0, 0.5, 5)
        assert 0.0 <= seq.E_tail_bound < 1e-9
        # E = -sum term_j / q^{j+1} here (log D0 = 0); recompute densely
        dense = sum((2.0 * math.log(j + 1.0) + 2.0 * j * math.log(2.0)
                     - math.log(0.125)) / 2.0 ** (j + 1) for j in range(200))
        assert seq.E == pytest.approx(-dense, abs=2.0 * seq.E_tail_bound + 1e-13)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError, match="q must exceed 1"):
            john_recursion(1.0, 1.0, 1.0, 1.0, 0.5, 5)
        with pytest.raises(DomainError, match="got D0 = 0.0"):
            john_recursion(1.0, 0.0, 2.0, 1.0, 0.5, 5)
        with pytest.raises(DomainError, match="got C0 = 1.0, delta0 = -0.5"):
            john_recursion(1.0, 1.0, 2.0, 1.0, -0.5, 5)
        with pytest.raises(DomainError, match="exceeds 4"):
            john_recursion(1.0, 1.0, 2.0, 9.0, 0.5, 5)
        with pytest.raises(DomainError, match="m_max"):
            john_recursion(1.0, 1.0, 2.0, 1.0, 0.5, -1)

    def test_sequence_validation(self):
        seq = john_recursion(1.0, 1.0, 2.0, 1.0, 0.5, 5)
        rows = list(map(list, seq.entries))
        rows[2][1] *= 1.5
        with pytest.raises(DomainError, match="closed form"):
            JohnSequence(q=2.0, entries=tuple(map(tuple, rows)), E=seq.E,
                         E_tail_bound=seq.E_tail_bound)


class TestBlowupTimeBound:
    def test_stated_example(self):
        # first threshold dominates: exp(5 + 2 log 2) = 4 e^5
        T = blowup_time_bound(A0=1.0, E=-5.0, q=2.0, tau0=1.0, c=1.0,
                              epsilon=1.0, delta0=0.5, tilde_c=1.0)
        assert T == pytest.approx(4.0 * math.e**5, rel=1e-12)

    def test_nonincreasing_in_E(self):
        kw = dict(A0=1.0, q=2.0, tau0=1.0, c=1.0, epsilon=1.0, delta0=0.5,
                  tilde_c=1.0)
        assert blowup_time_bound(E=-4.0, **kw) <= blowup_time_bound(E=-5.0, **kw)

    def test_epsilon_scaling_of_amplitude_thresholds(self):
        # E large positive parks the first threshold at ~0, leaving the
        # epsilon-carrying ones; both scale as epsilon^{-1/A0}
        kw = dict(A0=2.0, E=100.0, q=2.0, tau0=1.0, c=0.01, delta0=0.5,
                  tilde_c=0.01)
        T1 = blowup_time_bound(epsilon=1.0, **kw)
        T2 = blowup_time_bound(epsilon=2.0, **kw)
        assert T2 == pytest.approx(T1 * 2.0 ** (-1.0 / 2.0), rel=1e-12)

    def test_honest_overflow(self):
        T = blowup_time_bound(A0=1.0, E=-1e6, q=2.0, tau0=1.0, c=1.0,
                              epsilon=1.0, delta0=0.5, tilde_c=1.0)
        assert math.isinf(T)

    @pytest.mark.parametrize("c, tilde_c", [(1e-10, 1.0), (1.0, 1e-10)],
                             ids=["t2", "t3"])
    def test_power_overflow_is_inf(self, c, tilde_c):
        # A0 ~ 1e-3 puts one amplitude threshold past float range, the
        # other finite; a Python float power raised OverflowError here
        T = blowup_time_bound(A0=1e-3, E=100.0, q=2.0, tau0=1.0, c=c,
                              epsilon=1.0, delta0=0.5, tilde_c=tilde_c)
        assert T == math.inf and type(T) is float

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError, match="A0"):
            blowup_time_bound(0.0, -5.0, 2.0, 1.0, 1.0, 1.0, 0.5, 1.0)
        with pytest.raises(DomainError, match="delta0"):
            blowup_time_bound(1.0, -5.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0)


class TestTildeC:
    def test_matches_dense_sampling(self):
        params = make_params()
        boost = boost_sequence(params, 0.29)
        tc = estimate_tilde_c(boost, params)
        assert tc > 0.0
        l0, A0 = boost.l0, boost.A0
        c = boost.entries[-1][3]
        T_ref = (6.0 * l0 + 1.0) * TAU0
        L = -math.log(c * params.epsilon)
        r = np.linspace(0.5 * TAU0 * (1 + 1e-9), TAU0 * (1 - 1e-9), 2000)
        dense = np.min(np.exp(
            math.log(c) + np.log(r) - 0.5 * log_sinh(r)
            + (2.0 * l0 - 2.0) * np.log(T_ref - r)
            - l0 * (params.p - 1.0) * np.log(T_ref + r + L)
            - A0 * math.log(T_ref)))
        assert dense <= tc <= dense * (1.0 + 1e-3)

    def test_later_times_only_improve(self):
        # the Y infimum is taken at the earliest admissible T; the same
        # expression at larger T must dominate, or the constant would not
        # transfer to certificates with later detachment times
        params = make_params()
        boost = boost_sequence(params, 0.29)
        tc = estimate_tilde_c(boost, params)
        l0, A0 = boost.l0, boost.A0
        c = boost.entries[-1][3]
        L = -math.log(c * params.epsilon)
        for T in [(6 * l0 + 1) * TAU0 * 2.0, (6 * l0 + 1) * TAU0 * 10.0]:
            r = np.linspace(0.5 * TAU0 * (1 + 1e-9), TAU0 * (1 - 1e-9), 400)
            vals = np.exp(math.log(c) + np.log(r) - 0.5 * log_sinh(r)
                          + (2.0 * l0 - 2.0) * np.log(T - r)
                          - l0 * (params.p - 1.0) * np.log(T + r + L)
                          - A0 * math.log(T))
            assert np.min(vals) >= tc * (1.0 - 1e-12)


@pytest.fixture(scope="module")
def reference_run():
    """The p=2, eps=0.5, tau0=1 certificate and its fd simulation.

    The simulated window stops at t = 5: the solution genuinely leaves
    float range near t = 5.24 (that is the blow-up the certificate is
    about), so every grid point in S that exists has t well below 12.
    """
    params = make_params()
    bump = bump_profile(TAU0)
    cert = build_certificate(bump, params)
    spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45,
                            kind="piecewise_generic")
    scaled = RadialProfile(lambda lam: params.epsilon * bump(lam),
                           support_radius=bump.support_radius, knots=bump.knots)
    cfg = FDConfig(Grid(5.0, 9.0, 0.04, 0.05), snapshot_every=5)
    field = fd_solve(zero_profile, scaled, nonlinearity(spec), cfg)
    return cert, field


class TestCertificate:
    def test_build_shape(self, reference_run):
        cert, _ = reference_run
        assert cert.c0 > 0.0
        assert cert.boost.l0 == 3 and cert.boost.A0 == 1.0
        assert cert.john.E < 0.0
        assert cert.T >= (6 * 3 + 1) * TAU0
        assert cert.verification_points == ()

    def test_c0_is_first_iterate_bound(self, reference_run):
        cert, _ = reference_run
        c0 = first_iterate_bound(bump_profile(TAU0), make_params())
        assert bits(cert.c0) == bits(c0)

    def test_verify_bound_reads_cert_c0(self, reference_run):
        cert, field = reference_run
        eps = cert.params.epsilon
        for c0 in (cert.c0, 0.5 * cert.c0):
            report = certificate_verify(replace(cert, c0=c0), field)
            for _, r, bound, _ in report.passed_points:
                want = c0 * eps * math.exp(-0.5 * log_sinh(r))
                assert bits(bound) == bits(want)

    def test_zero_data_rejected(self):
        with pytest.raises(DomainError, match="vanished"):
            build_certificate(RadialProfile.constant(0.0), make_params())

    def test_first_iterate_dominance(self, reference_run):
        cert, field = reference_run
        report = certificate_verify(cert, field)
        assert report.first_checked > 200
        assert report.first_violations == ()
        assert report.first_min_margin > 0.0

    def test_coverage_warning_for_sigma(self, reference_run):
        cert, field = reference_run
        report = certificate_verify(cert, field)
        assert report.boost_checked == 0
        assert "Sigma_3" in report.coverage_warning

    def test_constructed_failure_reports_violations(self, reference_run):
        # scale the field so one checked point dips just below its bound;
        # a plain factor 2 is swallowed by the conservative kernel constant
        cert, field = reference_run
        report = certificate_verify(cert, field)
        t, r, bound, value = report.passed_points[0]
        shrunk = SpaceTimeField(field.t_grid, field.r_grid,
                                field.values * (0.99 * bound / value))
        report2 = certificate_verify(cert, shrunk)
        assert len(report2.first_violations) > 0
        assert report2.first_min_margin < 0.0
        offender = report2.first_violations[0]
        assert offender[3] < offender[2]

    def test_points_embed_and_validate(self, reference_run):
        cert, field = reference_run
        report = certificate_verify(cert, field)
        assert 0 < len(report.passed_points) <= 200
        cert2 = replace(cert, verification_points=report.passed_points)
        assert len(cert2.verification_points) == len(report.passed_points)
        t, r, bound, value = report.passed_points[0]
        with pytest.raises(DomainError, match="below its bound"):
            replace(cert, verification_points=((t, r, bound, 0.5 * bound),))

    def test_T_floor_validated(self, reference_run):
        cert, _ = reference_run
        with pytest.raises(DomainError, match="Sigma_l0"):
            replace(cert, T=10.0)

    def test_verify_needs_field(self, reference_run):
        cert, _ = reference_run
        with pytest.raises(DomainError, match="SpaceTimeField"):
            certificate_verify(cert, np.zeros((3, 3)))

    def test_report_validation(self):
        with pytest.raises(DomainError, match="more first violations"):
            VerifyReport(first_checked=0, first_violations=((0, 0, 1, 0),),
                         first_min_margin=-1.0, boost_checked=0,
                         boost_violations=(), boost_min_margin=None,
                         coverage_warning=None, passed_points=())


# ---------------------------------------------------------------------------
# the per-point loops the vectorised certificate pipeline replaced, kept as
# references: the batched code must reproduce them bit for bit


def gl_integral_loop(fn, lo, hi, per_unit=2.0):
    if hi <= lo:
        return 0.0
    n_panels = max(1, int(np.ceil((hi - lo) * per_unit)))
    xg, wg = leggauss(16)
    edges = np.linspace(lo, hi, n_panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    s = (mids[:, None] + halfs[:, None] * xg[None, :]).ravel()
    w = (halfs[:, None] * wg[None, :]).ravel()
    return float(np.dot(w, fn(s)))


def lower_bound_I_loop(phi, t, r, tau0):
    prof = _as_profile(phi)
    pref = default_C0(tau0) * np.exp(-0.5 * float(log_sinh(r)))

    def fn(lam):
        return prof(lam) * np.exp(0.5 * log_sinh(lam))

    bound_large = pref * gl_integral_loop(fn, max(t, r), t + r)
    bound_small = None
    if abs(t - r) > tau0 / 8.0:
        bound_small = pref * gl_integral_loop(fn, abs(t - r), t + r)
    return bound_large, bound_small


def first_iterate_c0_loop(u1, params, n_width=15):
    prof = _as_profile(u1)
    tau0, eps = params.tau0, params.epsilon
    widths = np.linspace(tau0 * (1.0 + 1e-6), 2.0 * tau0 * (1.0 - 1e-6), n_width)
    offsets = np.array([0.0, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5,
                        0.75, 1.0, 1.5, 2.5, 5.0])
    values = []
    for w in widths:
        r_corner = 0.5 * (3.0 * tau0 - w)
        for off in offsets:
            r = r_corner * (1.0 + 1e-6) + off * tau0
            t = r + w
            _, small = lower_bound_I_loop(prof, t, r, tau0)
            if small is None:
                continue
            values.append(math.exp(0.5 * log_sinh(r)) * small)
    cap = (1.0 - 1e-9) * params.delta0 * math.sqrt(math.sinh(0.5 * tau0)) / eps
    return min(min(values), cap)


def first_points_loop(cert, u_sim):
    """(t, r, bound, value) of the first-iterate check at every grid point
    of S, in grid order."""
    eps = cert.params.epsilon
    T, R = np.meshgrid(u_sim.t_grid, u_sim.r_grid, indexing="ij")
    return [(T[ti, ri], R[ti, ri],
             cert.c0 * eps * math.exp(-0.5 * log_sinh(R[ti, ri])),
             u_sim.values[ti, ri])
            for ti, ri in zip(*np.where(_mask_S(R, T, cert.params.tau0)))]


def certificate_verify_loop(cert, u_sim):
    params, boost = cert.params, cert.boost
    tau0, eps, p, l0 = params.tau0, params.epsilon, params.p, boost.l0
    T, R = np.meshgrid(u_sim.t_grid, u_sim.r_grid, indexing="ij")
    U = u_sim.values
    warnings = []
    first_violations, first_margins, passing = [], [], []
    for t, r, bound, val in first_points_loop(cert, u_sim):
        margin = val - bound
        first_margins.append(margin)
        if margin < 0.0:
            first_violations.append((t, r, bound, val))
        else:
            passing.append((t, r, bound, val))
    if not first_margins:
        warnings.append(
            f"grid covers no point of S (needs {tau0} < t - r < {2 * tau0} "
            f"and t + r > {3 * tau0})")
    c_top = boost.entries[-1][3]
    L = -math.log(c_top * eps)
    b_idx = np.where(_mask_sigma(R, T, tau0, l0))
    boost_violations, boost_margins = [], []
    for ti, ri in zip(*b_idx):
        t, r, val = T[ti, ri], R[ti, ri], U[ti, ri]
        bound = (c_top * eps * r * math.exp(-0.5 * log_sinh(r))
                 * (t + r + L) ** (-l0 * (p - 1.0))
                 * (t - r) ** (2.0 * l0 - 2.0))
        margin = val - bound
        boost_margins.append(margin)
        if margin < 0.0:
            boost_violations.append((t, r, bound, val))
    if not boost_margins:
        warnings.append(
            f"grid covers no point of Sigma_{l0} (needs t - r > "
            f"{6 * l0 * tau0:g} and r > {0.5 * tau0:g})")
    return VerifyReport(
        first_checked=len(first_margins),
        first_violations=tuple(first_violations),
        first_min_margin=min(first_margins) if first_margins else None,
        boost_checked=len(boost_margins),
        boost_violations=tuple(boost_violations),
        boost_min_margin=min(boost_margins) if boost_margins else None,
        coverage_warning="; ".join(warnings) if warnings else None,
        passed_points=tuple(decimated(passing)),
    )


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_same_report(got, want):
    for field in dataclasses.fields(VerifyReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if b is None or isinstance(b, (int, str)):
            assert a == b and type(a) is type(b), field.name
        else:
            assert np.shape(a) == np.shape(b), field.name
            assert bits(a) == bits(b), field.name


@pytest.fixture(scope="module")
def sigma_cert():
    """A tau0 = 1/4 certificate, whose Sigma_3 opens at t - r > 4.5."""
    params = make_params(tau0=0.25)
    return build_certificate(bump_profile(0.25), params)


def synthetic_field(cert, scale=1.0):
    """The first-iterate bound for t - r < 4 tau0 and the boosted one past
    it, times a factor in [1.1, 2.1]: no violation at scale 1, some of
    each kind at scale 1/2."""
    params, boost = cert.params, cert.boost
    tau0, eps, p, l0 = params.tau0, params.epsilon, params.p, boost.l0
    t_grid = 0.05 * np.arange(161)
    r_grid = 0.05 * np.arange(81)
    T, R = np.meshgrid(t_grid, r_grid, indexing="ij")
    Rs = np.maximum(R, 0.05)
    decay = np.exp(-0.5 * log_sinh(Rs))
    c_top = boost.entries[-1][3]
    L = -math.log(c_top * eps)
    first = cert.c0 * eps * decay
    boosted = (c_top * eps * Rs * decay * (T + Rs + L) ** (-l0 * (p - 1.0))
               * np.maximum(T - R, tau0) ** (2.0 * l0 - 2.0))
    base = np.where(T - R < 4.0 * tau0, first, boosted)
    values = scale * base * (1.6 + 0.5 * np.sin(7.0 * T + 5.0 * R))
    return SpaceTimeField(t_grid, r_grid, values)


class TestAgainstPointLoops:
    POINTS = [(1.7, 0.6), (3.0, 1.2), (2.05, 2.0), (0.3, 0.9), (6.0, 5.0),
              (12.0, 30.0)]

    @pytest.mark.parametrize("t, r", POINTS)
    def test_lower_bound_I_scalar_bits(self, t, r):
        bump = bump_profile(TAU0)
        large, small = lower_bound_I(bump, t, r, TAU0)
        want_large, want_small = lower_bound_I_loop(bump, t, r, TAU0)
        assert type(large) is type(want_large) is np.float64
        assert bits(large) == bits(want_large)
        if want_small is None:
            assert small is None
        else:
            assert type(small) is np.float64
            assert bits(small) == bits(want_small)

    def test_lower_bound_I_arrays(self):
        t, r = (np.array(x) for x in zip(*self.POINTS))
        large, small = lower_bound_I(bump_profile(TAU0), t, r, TAU0)
        assert large.shape == small.shape == t.shape
        for k, (tk, rk) in enumerate(self.POINTS):
            want_large, want_small = lower_bound_I_loop(
                bump_profile(TAU0), tk, rk, TAU0)
            assert bits(large[k]) == bits(want_large)
            if want_small is None:
                assert np.isnan(small[k])
            else:
                assert bits(small[k]) == bits(want_small)

    def test_lower_bound_I_arrays_keep_the_checks(self):
        with pytest.raises(DomainError, match=r"tau0/2 = 0.5; got r = 0.4"):
            lower_bound_I(bump_profile(TAU0), [2.0, 2.0], [1.0, 0.4], TAU0)
        with pytest.raises(DomainError, match="tau0 must be positive"):
            lower_bound_I(bump_profile(TAU0), [2.0], [1.0], 0.0)

    # tau0 = 0.2 has an infimum whose factor np.exp and math.exp round apart
    @pytest.mark.parametrize("tau0, eps", [(1.0, 0.1), (1.0, 0.5), (1.0, 2.0),
                                           (0.2, 0.5), (0.25, 0.5), (3.0, 0.05)])
    def test_first_iterate_c0_bits(self, tau0, eps):
        params = make_params(tau0=tau0, epsilon=eps)
        for prof in (bump_profile(tau0),
                     lambda lam: np.exp(-((lam - 2.0 * tau0) ** 2))):
            c0 = first_iterate_bound(prof, params)
            assert bits(c0) == bits(first_iterate_c0_loop(prof, params))

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_certificate_verify_fields(self, sigma_cert, scale):
        field = synthetic_field(sigma_cert, scale)
        got = certificate_verify(sigma_cert, field)
        assert got.first_checked > 0 and got.boost_checked > 0
        assert got.coverage_warning is None
        if scale == 1.0:
            assert not got.first_violations and not got.boost_violations
        else:
            assert got.first_violations and got.boost_violations
        assert_same_report(got, certificate_verify_loop(sigma_cert, field))

    def test_certificate_verify_uncovered(self, sigma_cert):
        field = synthetic_field(sigma_cert)
        short = SpaceTimeField(field.t_grid[:5], field.r_grid,
                               field.values[:5])
        got = certificate_verify(sigma_cert, short)
        assert got.first_checked == got.boost_checked == 0
        assert_same_report(got, certificate_verify_loop(sigma_cert, short))

    def test_certificate_verify_reference_run(self, reference_run):
        cert, field = reference_run
        assert_same_report(certificate_verify(cert, field),
                           certificate_verify_loop(cert, field))


class TestSkipsOnlyDiscardedWork:
    """Bit identity with the formulas that computed everything: the bump
    with its ramps run on every input, lower_bound_I with its integrand
    run past the data's support, c0 with bound_large computed and
    dropped, and passed_points decimated from every passing tuple."""

    @staticmethod
    def bump_inputs(tau0):
        half, top = 0.5 * tau0, 3.5 * tau0
        edges = [x for e in (half, top)
                 for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
        return np.concatenate([np.linspace(-tau0, 4.0 * tau0, 20001), edges,
                               [0.0, -0.0, -1e-300, -5.0 * tau0, -np.inf,
                                np.inf, np.nan]])

    @pytest.mark.parametrize("tau0", [1e-3, 1.0, 100.0])
    def test_bump_array(self, tau0):
        lam = self.bump_inputs(tau0)
        with np.errstate(invalid="ignore"):  # 0/0 at NaN, on both sides
            got = bump_profile(tau0)._func(lam)
            want = bump_everywhere(tau0)(lam)
        assert got.dtype == want.dtype and bits(got) == bits(want)
        assert np.isnan(got[-1]) and got[-3] == got[-2] == 0.0

    @pytest.mark.parametrize("tau0", [1e-3, 1.0, 100.0])
    def test_bump_scalars(self, tau0):
        bump, want = bump_profile(tau0)._func, bump_everywhere(tau0)
        lam = self.bump_inputs(tau0)
        for x in np.concatenate([lam[::251], lam[-13:]]).tolist():
            with np.errstate(invalid="ignore"):
                got, ref = bump(x), want(x)
            assert type(got) is type(ref) is float, x
            assert bits(got) == bits(ref), x

    def test_lower_bound_I_both_outputs(self):
        # wide and narrow points, inside and far past the bump's support
        t = np.array([0.3, 1.7, 2.05, 3.0, 6.0, 12.0, 40.0, 4.2, 0.9])
        r = np.array([0.9, 0.6, 2.0, 1.2, 5.0, 30.0, 0.7, 4.1, 3.3])
        for tau0 in (0.25, 1.0, 3.0):
            bump = bump_profile(tau0)
            gauss = RadialProfile(lambda lam: np.exp(-(lam - 2.0) ** 2))
            for prof in (bump, gauss):
                rr = r * tau0 + 0.5 * tau0
                got = lower_bound_I(prof, t, rr, tau0)
                want = lower_bounds_everywhere(prof, t, rr, tau0)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and bits(g) == bits(w)
                for tk, rk in zip(t, rr):
                    (gl, gs), (wl, ws) = (lower_bound_I(prof, tk, rk, tau0),
                                          lower_bounds_everywhere(prof, tk, rk,
                                                                  tau0))
                    assert type(gl) is type(wl) and bits(gl) == bits(wl)
                    assert (gs is None) == (ws is None)
                    if ws is not None:
                        assert type(gs) is type(ws) and bits(gs) == bits(ws)

    @pytest.mark.parametrize("p, eps, tau0", [
        (2.0, 0.1, 1.0), (2.0, 0.5, 1.0), (1.5, 0.1, 1.0), (2.5, 2.0, 0.2),
        (1.2, 0.05, 3.0), (2.9, 0.5, 100.0), (2.0, 0.5, 1e-3)])
    def test_c0(self, p, eps, tau0):
        params = BlowupParams(p=p, q=2.0, tau0=tau0, epsilon=eps,
                              delta0=0.45)
        for prof in (bump_profile(tau0),
                     lambda lam: np.exp(-((lam - 2.0 * tau0) ** 2))):
            c0, want = (first_iterate_bound(prof, params),
                        first_iterate_both(prof, params))
            assert type(c0) is type(want) and bits(c0) == bits(want)

    @staticmethod
    def passing_field(cert, n_pass):
        """A field on a 0.02 grid that meets the first-iterate bound at
        n_pass points of S spread over it and misses it at the others."""
        t_grid = 0.02 * np.arange(301)
        r_grid = 0.02 * np.arange(201)
        T, R = np.meshgrid(t_grid, r_grid, indexing="ij")
        in_s = np.flatnonzero(_mask_S(R, T, cert.params.tau0))
        assert in_s.size >= 1200
        values = np.zeros(T.size)
        values[in_s[(np.arange(n_pass) * in_s.size) // n_pass]] = 1e3
        return SpaceTimeField(t_grid, r_grid, values.reshape(T.shape)), in_s.size

    @pytest.mark.parametrize("n_pass", [0, 1, 150, 199, 200, 201, 400, 600,
                                        601, 999])
    def test_passed_points(self, reference_run, n_pass):
        cert, _ = reference_run
        field, n_s = self.passing_field(cert, n_pass)
        got = certificate_verify(cert, field)
        assert got.first_checked == n_s
        assert len(got.first_violations) == n_s - n_pass
        every = [pt for pt in first_points_loop(cert, field)
                 if pt[3] >= pt[2]]
        assert len(every) == n_pass
        want = decimated(every)
        assert len(got.passed_points) == len(want) <= 200
        assert bits(got.passed_points) == bits(want)


class TestEscapeDetector:
    def test_linear_solutions_stay_put(self):
        cfg = FDConfig(Grid(10.0, 13.6, 0.04, 0.05))
        report = escape_detector(zero_profile, bump_profile(TAU0), None, cfg, 10.0)
        assert report.t_escape is None
        assert not report.instability
        assert not report.escaped
        assert len(report.t_history) == cfg.n_steps + 1
        assert np.max(report.sup_history) < 10.0

    @pytest.mark.slow
    def test_subcritical_escape(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45,
                                kind="piecewise_generic")
        cfg = FDConfig(Grid(40.0, 43.6, 0.04, 0.05))
        report = escape_detector(zero_profile, bump_profile(TAU0),
                                 nonlinearity(spec), cfg, 10.0)
        assert report.escaped and not report.instability
        assert 0.0 < report.t_escape <= 40.0
        assert report.sup_history[-1] > 10.0
        assert len(report.t_history) < cfg.n_steps + 1

    @pytest.mark.slow
    def test_overflow_is_flagged(self):
        # a threshold at the edge of float range lets the scheme run into
        # the genuine blow-up; the sup roughly squares per step near the
        # singularity, so it jumps over any such threshold straight to inf
        # and the detector must report the non-finite step, flagged
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45,
                                kind="piecewise_generic")
        cfg = FDConfig(Grid(40.0, 43.6, 0.04, 0.05))
        report = escape_detector(zero_profile, bump_profile(TAU0),
                                 nonlinearity(spec), cfg, 1.7e308)
        assert report.escaped and report.instability
        assert np.isnan(report.sup_history[-1])

    @pytest.mark.slow
    def test_supercritical_contrast_stays_small(self):
        eps = 0.075
        env = EnvelopeParams(k=1.0)
        cfg = FDConfig(Grid(8.0, 20.0, 0.04, 0.05))
        report = escape_detector(zero_profile,
                                 lambda lam: eps * theta_k(lam, env),
                                 nonlinearity(NonlinearitySpec(
                                     p=3.5, q=2.0, delta0=0.45)),
                                 cfg, 10.0 * eps)
        assert report.t_escape is None
        assert np.max(report.sup_history) < 10.0 * eps

    @pytest.mark.parametrize("kind", ["none", "piecewise_generic"])
    def test_history_is_fd_solve_row_max(self, kind):
        # the detector and fd_solve step one scheme: every recorded sup is
        # the FD field's row max, bit for bit, up to the escape step
        F = None if kind == "none" else nonlinearity(NonlinearitySpec(
            p=2.0, q=2.0, delta0=0.45, kind=kind))
        cfg = FDConfig(Grid(4.0, 7.6, 0.04, 0.05))
        field = fd_solve(zero_profile, bump_profile(TAU0), F, cfg)
        report = escape_detector(zero_profile, bump_profile(TAU0), F, cfg, 10.0)
        n = len(report.sup_history)
        assert report.escaped == (F is not None)
        assert n == (cfg.n_steps + 1 if F is None else 71)
        np.testing.assert_array_equal(report.sup_history,
                                      field.values[:n].max(axis=1))
        np.testing.assert_array_equal(report.t_history, field.t_grid[:n])

    def test_immediate_escape_at_zero(self):
        cfg = FDConfig(Grid(1.0, 8.0, 0.05, 0.1))
        report = escape_detector(lambda r: np.exp(-np.asarray(r) ** 2),
                                 zero_profile, None, cfg, 0.5)
        assert report.t_escape == 0.0

    def test_support_guard(self):
        cfg = FDConfig(Grid(2.0, 4.0, 0.04, 0.05))
        with pytest.raises(DomainError, match="support radius"):
            escape_detector(zero_profile, bump_profile(TAU0), None, cfg, 10.0)

    def test_threshold_must_be_finite(self):
        cfg = FDConfig(Grid(1.0, 8.0, 0.05, 0.1))
        with pytest.raises(DomainError, match="threshold"):
            escape_detector(zero_profile, zero_profile, None, cfg, math.inf)

    def test_report_validation(self):
        with pytest.raises(DomainError, match="escape time"):
            EscapeReport(t_escape=None, instability=True, threshold=1.0,
                         t_history=np.zeros(2), sup_history=np.zeros(2))
        with pytest.raises(DomainError, match="align"):
            EscapeReport(t_escape=None, instability=False, threshold=1.0,
                         t_history=np.zeros(2), sup_history=np.zeros(3))
