import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hypwave.hypgeo import (
    DomainError,
    EnvelopeParams,
    Grid,
    WeightParams,
    K_factor,
    bracket,
    cg_nodes,
    log_cosh,
    log_sinh,
    log_phi_weight,
    log_theta_k,
    phi_weight,
    theta_k,
    uniform_grid,
)


class TestEnvelope:
    def test_theta_half_is_inverse_cosh(self):
        # k = 1/2 gives exponent k + 1/2 = 1
        p = EnvelopeParams(k=0.5)
        assert_allclose(theta_k(2.0, p), 0.26580222883407967, rtol=1e-14)

    def test_theta_at_origin(self):
        assert theta_k(0.0, EnvelopeParams(k=1.7)) == 1.0

    def test_theta_large_r_stays_finite(self):
        v = theta_k(700.0, EnvelopeParams(k=1.0))
        assert v > 0.0 or v == 0.0  # underflow to 0 acceptable, never NaN
        assert np.isfinite(log_cosh(700.0))

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            theta_k(-0.1, EnvelopeParams(k=1.0))

    @pytest.mark.parametrize("fn", [theta_k, log_theta_k], ids=["theta_k", "log_theta_k"])
    def test_negative_radius_message(self, fn):
        # theta_k leaves the check to log_theta_k: one message for both
        with pytest.raises(DomainError, match=r"^theta_k is defined for r >= 0$"):
            fn(np.array([0.5, -1e-300]), EnvelopeParams(k=1.0))

    @given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
    def test_theta_monotone_in_r(self, r1, r2):
        p = EnvelopeParams(k=1.0)
        lo, hi = min(r1, r2), max(r1, r2)
        assert theta_k(lo, p) >= theta_k(hi, p)

    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.1, 20.0))
    def test_theta_monotone_in_k(self, k1, k2, r):
        lo, hi = min(k1, k2), max(k1, k2)
        assert theta_k(r, EnvelopeParams(k=hi)) <= theta_k(r, EnvelopeParams(k=lo)) + 1e-300

    def test_k_must_be_positive(self):
        with pytest.raises(DomainError):
            EnvelopeParams(k=0.0)


class TestLogHyperbolics:
    @given(st.floats(-20.0, 20.0))
    def test_log_cosh_matches_direct(self, x):
        assert_allclose(log_cosh(x), np.log(np.cosh(x)), atol=1e-12, rtol=1e-12)

    @given(st.floats(-700.0, 700.0))
    def test_cosh_between_half_and_full_exponential(self, t):
        # e^|t|/2 <= cosh t <= e^|t|
        lc = log_cosh(t)
        assert abs(t) - np.log(2.0) - 1e-12 <= lc <= abs(t) + 1e-12

    @given(st.floats(1e-8, 20.0))
    def test_log_sinh_matches_direct(self, x):
        assert_allclose(log_sinh(x), np.log(np.sinh(x)), atol=1e-11, rtol=1e-11)

    def test_log_sinh_huge_argument(self):
        assert_allclose(log_sinh(800.0), 800.0 - np.log(2.0), rtol=1e-15)

    def test_log_sinh_rejects_negative(self):
        with pytest.raises(DomainError):
            log_sinh(-1.0)

    @given(st.floats(-50.0, 50.0))
    def test_bracket_is_japanese_bracket(self, s):
        assert_allclose(bracket(s), np.sqrt(1.0 + s * s), rtol=1e-14)


class TestKFactor:
    def test_k_half_is_bracket(self):
        assert_allclose(K_factor(1.0, 0.5), np.sqrt(2.0), rtol=1e-15)

    def test_k_above_half_is_one(self):
        assert K_factor(37.0, 0.75) == 1.0

    def test_k_below_half_grows(self):
        # (cosh s)^{1/2-k} with k=1/4
        assert_allclose(K_factor(2.0, 0.25), np.cosh(2.0) ** 0.25, rtol=1e-14)

    @given(st.floats(-30.0, 30.0), st.sampled_from([0.25, 0.5, 0.75, 1.5]))
    def test_even_in_s(self, s, k):
        assert_allclose(K_factor(s, k), K_factor(-s, k), rtol=1e-14)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            K_factor(1.0, 0.0)


class TestPhiWeight:
    def test_frozen_value(self):
        # e^{r/2} <t-r>^h at t=2, r=1, h=2: e^{1/2} * 2
        w = WeightParams(h=2.0)
        assert_allclose(phi_weight(2.0, 1.0, w), 3.2974425414002564, rtol=1e-14)

    def test_weight_at_origin(self):
        assert_allclose(phi_weight(0.0, 0.0, WeightParams(h=1.2)), 1.0)

    @given(st.floats(0.0, 40.0), st.floats(0.0, 40.0))
    def test_weight_at_least_one(self, t, r):
        assert phi_weight(t, r, WeightParams(h=1.2)) >= 1.0 - 1e-12

    def test_log_form_consistent(self):
        w = WeightParams(h=1.7)
        t, r = 5.3, 2.1
        assert_allclose(np.exp(log_phi_weight(t, r, w)), phi_weight(t, r, w), rtol=1e-13)

    def test_h_must_be_positive(self):
        with pytest.raises(DomainError):
            WeightParams(h=0.0)

    def test_negative_r_rejected(self):
        with pytest.raises(DomainError):
            phi_weight(1.0, -1.0, WeightParams(h=1.2))


class TestChebyshevGauss:
    def test_unit_weight_integral(self):
        # integral of 1/sqrt((hi-x)(x-lo)) over (lo,hi) is pi
        x, w = cg_nodes(16, -1.0, 1.0)
        assert_allclose(np.sum(w), np.pi, rtol=1e-15)

    def test_node_count_and_range(self):
        x, w = cg_nodes(7, 2.0, 5.0)
        assert len(x) == len(w) == 7
        assert np.all((x > 2.0) & (x < 5.0))

    @given(
        st.integers(4, 12),
        st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        st.floats(-3.0, 1.0),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=50)
    def test_exact_for_low_degree(self, n, coeffs, lo, width):
        # degree-3 smooth factor: exact for any n >= 2, compare two node counts
        hi = lo + width
        poly = np.polynomial.Polynomial(coeffs)
        xa, wa = cg_nodes(n, lo, hi)
        xb, wb = cg_nodes(2 * n + 3, lo, hi)
        assert_allclose(np.dot(wa, poly(xa)), np.dot(wb, poly(xb)), rtol=1e-12, atol=1e-12)

    def test_against_adaptive_quadrature(self):
        from scipy.integrate import quad

        lo, hi = 0.5, 2.5
        f = np.cos
        x, w = cg_nodes(40, lo, hi)
        ref, _ = quad(
            lambda s: f(s) / np.sqrt((hi - s) * (s - lo)), lo, hi,
            epsabs=1e-13, points=[lo, hi], limit=200,
        )
        assert_allclose(np.dot(w, f(x)), ref, rtol=1e-10)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            cg_nodes(8, 1.0, 1.0)

    def test_node_count_validated(self):
        with pytest.raises(DomainError):
            cg_nodes(0, 0.0, 1.0)


class TestUniformGrid:
    @pytest.mark.parametrize("span, step", [
        (1.0, 0.1), (8.0, 0.05), (4.0, 0.04), (43.6, 0.05), (2.0, 2.0),
        (0.9, 0.3)])
    def test_exact_linspace_bytes(self, span, step):
        expected = np.linspace(0.0, span, round(span / step) + 1)
        assert uniform_grid(span, step, "x").tobytes() == expected.tobytes()

    @pytest.mark.parametrize("span, step", [
        (1.0, 0.0), (1.0, -0.1), (-1.0, 0.1), (0.0, 0.1), (np.nan, 0.1),
        (np.inf, 0.1), (1.0, np.inf)])
    def test_nonpositive_or_nonfinite_rejected(self, span, step):
        with pytest.raises(DomainError, match=r"t_max/dt needs positive"):
            uniform_grid(span, step, "t_max/dt")

    def test_noninteger_ratio_rejected(self):
        with pytest.raises(DomainError, match="r_max/dr must be an integer"):
            uniform_grid(1.0, 0.3, "r_max/dr")

    def test_fewer_than_one_step_rejected(self):
        # 1e-12/0.04 is within the 1e-9 integer slack of 0 steps
        with pytest.raises(DomainError, match="t_max/dt must be at least 1"):
            uniform_grid(1e-12, 0.04, "t_max/dt")
        with pytest.raises(DomainError, match="t_max/dt"):
            uniform_grid(0.049, 0.1, "t_max/dt")


class TestGrid:
    def test_axes_are_the_uniform_grids_and_read_only(self):
        grid = Grid(1.0, 2.0, 0.25, 0.5)
        assert grid.t.tobytes() == uniform_grid(1.0, 0.25, "t").tobytes()
        assert grid.r.tobytes() == uniform_grid(2.0, 0.5, "r").tobytes()
        with pytest.raises(ValueError, match="read-only"):
            grid.r[0] = 1.0

    def test_equal_numbers_make_equal_grids(self):
        # the caches of globalsolver key on grids
        assert Grid(1, 2, 0.25, 0.5) == Grid(1.0, 2.0, 0.25, 0.5)
        assert hash(Grid(1, 2, 0.25, 0.5)) == hash(Grid(1.0, 2.0, 0.25, 0.5))
        assert Grid(1.0, 2.0, 0.25, 0.5) != Grid(1.0, 2.0, 0.25, 0.25)

    @pytest.mark.parametrize("numbers, ratio", [
        ((1.0, 1.0, 0.3, 0.1), "t_max/dt"), ((1.0, 1.0, 0.1, 0.3), "r_max/dr")])
    def test_each_axis_names_its_ratio(self, numbers, ratio):
        with pytest.raises(DomainError, match=f"{ratio} must be an integer"):
            Grid(*numbers)
