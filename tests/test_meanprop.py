"""Tests for spherical means, propagators, and the W/R operator family.

Reference values marked "independent oracle" were computed with mpmath
tanh-sinh quadrature at 30 significant digits on the defining integrals,
with no code shared with the implementation under test.
"""

import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hypwave.blowlab import bump_profile
from hypwave import meanprop
from hypwave.hypgeo import DomainError, EnvelopeParams, Grid, cg_nodes, theta_k
from hypwave.meanprop import (
    MonotoneWeight,
    PropagatorTable,
    QuadratureError,
    RadialProfile,
    SpaceTimeField,
    W_evaluator,
    _agm_K,
    _fft_length,
    _lag_matrices,
    _lag_weights,
    _mean_nodes,
    beta_identity_check,
    default_C0,
    dt_r_bound_check,
    kernel_lower_integral,
    leggauss,
    linear_field,
    lower_bound_I,
    r_operator,
    sine_propagator,
    spherical_mean,
    w_majorant,
)
from references import (duhamel, duhamel_per_lag, from_samples, per_lag_table,
                        slice_profile, time_index, time_weights)

EP1 = EnvelopeParams(k=1.0)


def theta1(lam):
    return theta_k(lam, EP1)


def ones(lam):
    return np.ones_like(np.asarray(lam, dtype=float))


# ---------------------------------------------------------------------------
# profiles and fields


class TestRadialProfile:
    def test_closed_form_passthrough(self):
        p = RadialProfile.from_function(np.cosh)
        assert_allclose(p(np.array([0.0, 1.0, 3.0])), np.cosh([0.0, 1.0, 3.0]))

    def test_constant(self):
        p = RadialProfile.constant(2.5)
        assert_allclose(p(np.linspace(0, 9, 7)), 2.5)

    def test_sampled_interpolates_and_vanishes_beyond(self):
        lam = np.linspace(0, 5, 101)
        p = from_samples(lam, np.exp(-lam))
        x = np.array([0.37, 1.91, 4.2])
        assert_allclose(p(x), np.exp(-x), rtol=1e-5)
        assert p(np.array([5.7]))[0] == 0.0

    def test_support_radius_truncates(self):
        p = RadialProfile.from_function(ones, support_radius=2.0)
        out = p(np.array([1.9, 2.1]))
        assert out[0] == 1.0 and out[1] == 0.0

    def test_sampled_records_knots(self):
        lam = np.linspace(0, 3, 16)
        p = from_samples(lam, np.cos(lam))
        assert_allclose(p.knots, lam)

    @pytest.mark.parametrize(
        "lam, values",
        [
            (np.array([0.0]), np.array([1.0])),
            (np.array([0.0, 0.0, 1.0]), np.zeros(3)),
            (np.array([-1.0, 0.0]), np.zeros(2)),
            (np.array([0.0, 1.0]), np.array([1.0, np.nan])),
        ],
    )
    def test_bad_samples_raise(self, lam, values):
        with pytest.raises(DomainError):
            from_samples(lam, values)


class TestSpaceTimeField:
    def test_slice_profile_roundtrip(self):
        tg = np.linspace(0, 1, 5)
        rg = np.linspace(0, 4, 41)
        field = SpaceTimeField(tg, rg, np.outer(1 + tg, np.exp(-rg)))
        prof = slice_profile(field, 2)
        assert_allclose(prof(rg), (1 + tg[2]) * np.exp(-rg), rtol=1e-12)

    def test_time_index(self):
        f = SpaceTimeField(np.linspace(0, 1, 11), np.linspace(0, 2, 3), np.zeros((11, 3)))
        assert time_index(f, 0.3) == 3
        with pytest.raises(DomainError):
            time_index(f, 0.35)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            SpaceTimeField(np.linspace(0, 1, 4), np.linspace(0, 1, 5), np.zeros((5, 4)))

    def test_nonmonotone_grid(self):
        with pytest.raises(DomainError):
            SpaceTimeField(np.array([0.0, 0.5, 0.4]), np.linspace(0, 1, 3), np.zeros((3, 3)))

    def test_nonfinite_values(self):
        with pytest.raises(DomainError):
            SpaceTimeField(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                           np.array([[0.0, 1.0], [np.inf, 0.0]]))


# ---------------------------------------------------------------------------
# weights


class TestMonotoneWeight:
    def test_two_cosh_values(self):
        a = MonotoneWeight.two_cosh()
        assert_allclose(a.a(1.3), 2 * np.cosh(1.3))
        assert_allclose(a.da(1.3), 2 * np.sinh(1.3))
        assert_allclose(a.inv(a.a(1.3)), 1.3, rtol=1e-12)

    def test_s_squared_values(self):
        a = MonotoneWeight.s_squared()
        assert_allclose(a.a(1.7), 1.7**2)
        assert_allclose(a.inv(2.89), 1.7, rtol=1e-12)

    @given(x=st.floats(1e-300, 30.0), frac=st.floats(1e-12, 1.0))
    @example(x=1e-300, frac=1e-12)
    @example(x=1e-300, frac=1.0)
    @example(x=30.0, frac=1e-12)
    @example(x=30.0, frac=1.0)
    @settings(max_examples=200, deadline=None)
    def test_gap_factors_the_difference(self, x, frac):
        # a(x) - a(y) = 4 s((x + y)/2) s((x - y)/2) at p = (x + y)/2 and
        # q = (x - y)/2 = frac x/2, against a 30-digit a(p + q) - a(p - q).
        # The product is taken in mpmath (below 1e-154 it underflows in
        # floats), at a precision that covers the digits the difference
        # cancels: a(x) / (a(x) - a(y)) <= cosh(x) / (p q)
        q = 0.5 * frac * x
        p = x - q
        dps = 30 + max(0, int(np.ceil(np.log10(np.cosh(x)) - np.log10(p) - np.log10(q))))
        for a, a_mp in ((MonotoneWeight.two_cosh(), lambda v: 2 * mp.cosh(v)),
                        (MonotoneWeight.s_squared(), lambda v: v * v)):
            with mp.workdps(dps):
                want = a_mp(mp.mpf(p) + q) - a_mp(mp.mpf(p) - q)
                got = 4 * mp.mpf(float(a.s(p))) * mp.mpf(float(a.s(q)))
                assert abs(got - want) <= 1e-14 * want

    def test_s_writes_into_out(self, weight):
        x, out = np.array([1e-300, 0.5, 3.0]), np.empty(3)
        assert weight.s(x, out=out) is out
        assert np.array_equal(out, np.sinh(x) if weight.name == "2cosh" else x)

    def test_decreasing_weight_rejected(self):
        with pytest.raises(DomainError, match="positive"):
            MonotoneWeight("bad", a=np.cos, da=lambda s: -np.sin(s), inv=np.arccos,
                           s=np.sin)

    def test_oscillating_derivative_rejected(self):
        # a' > 0 everywhere, but the smoothed derivative quotient is not
        # monotone, violating the second structural condition
        a = lambda s: np.square(s) + 0.8 * np.sin(np.square(s))
        da = lambda s: 2 * s + 1.6 * s * np.cos(np.square(s))
        with pytest.raises(DomainError, match="nonincreasing"):
            MonotoneWeight("osc", a=a, da=da, inv=lambda y: y, s=np.positive)


# ---------------------------------------------------------------------------
# spherical mean


class TestSphericalMean:
    def test_frozen_value(self):
        # independent oracle: (1/pi) int th1 sinh / sqrt(...) at t=12, r=11
        got = spherical_mean(theta1, 12.0, 11.0)
        assert_allclose(got, 5.9104419836182307e-06, rtol=1e-9)

    def test_mean_of_one(self):
        for t, r in [(0.3, 0.0), (1.0, 1.0), (7.0, 3.0), (12.0, 12.0)]:
            assert_allclose(spherical_mean(ones, t, r), 1.0, rtol=1e-13)

    @given(t=st.floats(1e-3, 14.0), r=st.floats(0.0, 14.0))
    @settings(max_examples=60, deadline=None)
    def test_mean_of_one_property(self, t, r):
        assert_allclose(spherical_mean(ones, t, r), 1.0, rtol=1e-12)

    def test_symmetry_in_t_and_r(self):
        # the rule depends on (t, r) only through cosh(r-t), cosh(r+t),
        # so the symmetry of the mean is exact
        for t, r in [(2.0, 5.0), (0.7, 9.0), (4.0, 4.5)]:
            assert_allclose(spherical_mean(theta1, t, r),
                            spherical_mean(theta1, r, t), rtol=1e-14)

    def test_t_zero_returns_profile(self):
        assert spherical_mean(theta1, 0.0, 2.0) == theta1(np.array([2.0]))[0]

    def test_degenerate_at_origin(self):
        # r = 0: the sphere around the origin has constant radius t
        got = spherical_mean(theta1, 3.0, 0.0)
        assert_allclose(got, theta1(np.array([3.0]))[0], rtol=1e-10)

    def test_sampled_profile_close_to_closed_form(self):
        rg = np.linspace(0, 14, 281)
        prof = from_samples(rg, theta1(rg))
        got = spherical_mean(prof, 3.0, 2.0)
        want = spherical_mean(theta1, 3.0, 2.0)
        assert_allclose(got, want, rtol=1e-5)

    def test_negative_arguments_raise(self):
        with pytest.raises(DomainError):
            spherical_mean(theta1, -1.0, 2.0)
        with pytest.raises(DomainError):
            spherical_mean(theta1, 1.0, -2.0)

    def test_unresolvable_profile_raises(self):
        chirp = lambda lam: np.sin(40.0 * lam) * np.cos(37.0 * lam * lam)
        with pytest.raises(QuadratureError, match="did not settle"):
            spherical_mean(chirp, 6.0, 6.0)


# ---------------------------------------------------------------------------
# sine propagator


class TestSinePropagator:
    # independent oracle: nested mpmath quadrature of the double integral
    FROZEN = [
        (1.0, 0.5, 6.14643855e-01),
        (2.0, 0.0, 6.24742193e-01),
        (4.0, 2.0, 2.50370800e-01),
        (4.0, 6.0, 9.41819040e-03),
    ]

    @pytest.mark.parametrize("t, r, want", FROZEN)
    def test_frozen_values(self, t, r, want):
        assert_allclose(sine_propagator(theta1, t, r), want, rtol=5e-8)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0, 7.0])
    @pytest.mark.parametrize("r", [0.0, 1.0, 3.0])
    def test_constant_data_identity(self, t, r):
        # data phi = 1 propagates independently of r: I = 2 sinh(t/2)
        got = sine_propagator(ones, t, r)
        assert_allclose(got, 2.0 * np.sinh(t / 2.0), rtol=1e-8)

    def test_zero_time(self):
        assert sine_propagator(theta1, 0.0, 1.0) == 0.0

    def test_linearity(self):
        f = lambda lam: np.exp(-lam)
        g = lambda lam: 1.0 / (1.0 + lam**2)
        combo = lambda lam: 2.0 * f(lam) - 0.5 * g(lam)
        t, r = 2.5, 1.5
        want = 2.0 * sine_propagator(f, t, r) - 0.5 * sine_propagator(g, t, r)
        assert_allclose(sine_propagator(combo, t, r), want, rtol=1e-9)

    def test_negative_arguments_raise(self):
        with pytest.raises(DomainError):
            sine_propagator(theta1, -0.1, 1.0)
        with pytest.raises(DomainError):
            sine_propagator(theta1, 1.0, -0.1)

    def test_unresolvable_profile_raises(self):
        chirp = lambda lam: np.sin(40.0 * lam) * np.cos(37.0 * lam * lam)
        with pytest.raises(QuadratureError, match="did not settle"):
            sine_propagator(chirp, 6.0, 6.0)
        with pytest.raises(QuadratureError, match="did not settle"):
            W_evaluator(6.0, 6.0, chirp, MonotoneWeight.s_squared())


class TestLinearField:
    def test_matches_pointwise(self):
        # the sampled profile jumps to 0 past its last sample and the bump
        # has four knots: linear_field breaks its panels there too
        lam = np.linspace(0.0, 6.0, 25)
        sampled = from_samples(lam, np.cos(lam) ** 2)
        tg = np.linspace(0, 4, 9)
        rg = np.linspace(0, 6, 13)
        for phi in (theta1, sampled, bump_profile(1.0)):
            fld = linear_field(phi, tg, rg)
            for i in (0, 2, 5, 8):
                for j in (0, 4, 9):
                    want = sine_propagator(phi, tg[i], rg[j])
                    assert_allclose(fld.values[i, j], want, rtol=1e-7, atol=1e-14)

    def test_constant_data_identity(self):
        # every pair's weights sum to its outer weight, so phi = 1 gives
        # I = 2 sinh(t/2) to rounding
        g = np.linspace(0.0, 8.0, 41)
        fld = linear_field(1.0, g, g)
        want = np.broadcast_to(2.0 * np.sinh(g / 2.0)[:, None], fld.values.shape)
        assert_allclose(fld.values, want, rtol=1e-12)

    def test_zero_data(self):
        fld = linear_field(lambda lam: np.zeros_like(lam), np.linspace(0, 2, 5),
                           np.linspace(0, 3, 7))
        assert np.all(fld.values == 0.0)


# ---------------------------------------------------------------------------
# Duhamel


class TestDuhamel:
    def test_unit_source_identity(self):
        # F = 1 gives int_0^t 2 sinh((t-tau)/2) dtau = 4 (cosh(t/2) - 1)
        tg = np.linspace(0, 1.0, 21)
        rg = np.linspace(0, 8, 81)
        F = SpaceTimeField(tg, rg, np.ones((21, 81)))
        for t, r in [(0.5, 1.0), (1.0, 1.0), (1.0, 0.0)]:
            want = 4.0 * (np.cosh(t / 2.0) - 1.0)
            assert_allclose(duhamel(F, t, r), want, rtol=1e-7)

    def test_zero_at_t0(self):
        F = SpaceTimeField(np.linspace(0, 1, 5), np.linspace(0, 4, 9), np.zeros((5, 9)))
        assert duhamel(F, 0.0, 1.0) == 0.0

    def test_cone_coverage_enforced(self):
        F = SpaceTimeField(np.linspace(0, 2, 5), np.linspace(0, 3, 7), np.zeros((5, 7)))
        with pytest.raises(DomainError, match="light cone"):
            duhamel(F, 2.0, 2.0)

    def test_off_grid_time_rejected(self):
        F = SpaceTimeField(np.linspace(0, 1, 5), np.linspace(0, 8, 9), np.zeros((5, 9)))
        with pytest.raises(DomainError, match="time grid"):
            duhamel(F, 0.3, 1.0)


def finite_matrices(t_grid, r_grid):
    """The table's matrices A (_lag_matrices), checked to hold only finite
    entries: a kernel node on kappa = 1 would make one inf * 0 = NaN."""
    A = _lag_matrices(t_grid, r_grid)
    assert np.all(np.isfinite(A))
    return A


def table_with_matrices(t_grid, r_grid):
    """PropagatorTable(t_grid, r_grid) and the matrices A of its one
    _lag_matrices call, checked by finite_matrices."""
    built = []

    def recording(*grids):
        built.append(finite_matrices(*grids))
        return built[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(meanprop, "_lag_matrices", recording)
        tab = PropagatorTable(t_grid, r_grid)
    (A,) = built
    return tab, A


def finite_table(t_grid, r_grid):
    """A PropagatorTable whose matrices A are checked by finite_matrices."""
    return table_with_matrices(t_grid, r_grid)[0]


@pytest.fixture(scope="module")
def table_and_A():
    return table_with_matrices(np.linspace(0, 2.0, 41), np.linspace(0, 8.0, 81))


@pytest.fixture(scope="module")
def table(table_and_A):
    return table_and_A[0]


@pytest.fixture(scope="module")
def table_A(table_and_A):
    """The matrices A of the table fixture."""
    return table_and_A[1]


class TestPropagatorTable:
    def test_apply_linear_matches_propagator(self, table):
        data = theta1(table.r_grid)
        lin = table.apply_linear(data)
        for i, j in [(40, 15), (20, 30), (10, 60)]:
            t, r = table.t_grid[i], table.r_grid[j]
            want = sine_propagator(theta1, t, r)
            assert_allclose(lin[i, j], want, rtol=5e-5)

    def test_duhamel_field_matches_pointwise(self, table):
        T, R = np.meshgrid(table.t_grid, table.r_grid, indexing="ij")
        src = np.exp(-0.3 * T) / np.cosh(R)
        out = table.duhamel_field(src)
        F = SpaceTimeField(table.t_grid, table.r_grid, src)
        for i, j in [(40, 15), (20, 30), (40, 55)]:
            t, r = table.t_grid[i], table.r_grid[j]
            want = duhamel(F, t, r)
            assert_allclose(out[i, j], want, rtol=5e-5)

    def test_zero_source(self, table):
        out = table.duhamel_field(np.zeros((41, 81)))
        assert np.all(out == 0.0)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            PropagatorTable(np.array([0.0, 0.1, 0.3]), np.linspace(0, 1, 5))
        with pytest.raises(DomainError):
            PropagatorTable(np.linspace(0, 1, 5), np.linspace(1, 2, 5))

    @pytest.mark.parametrize("t_grid, r_grid, grid, problem", [
        ([0.0, 1e-9, 5e-9], np.linspace(0, 1, 5), "time",
         f"step 1 is {5e-9 - 1e-9!r} against a first step of 1e-09"),
        ([0.0, -0.1, -0.2], np.linspace(0, 1, 5), "time", "its first step is -0.1"),
        (np.linspace(0, 1, 5), [0.0, -0.25, -0.5], "radius", "its first step is -0.25"),
        (np.linspace(0, 1, 5), [0.0, 0.0, 0.5], "radius", "its first step is 0.0"),
        (np.linspace(0, 1, 5), [0.0, 0.5, 1.0, np.nan], "radius",
         "step 2 is nan against a first step of 0.5"),
        (np.linspace(0, 1, 5), [0.5, 1.0, 1.5], "radius", "it starts at 0.5"),
    ], ids=["tiny-time-steps", "decreasing-time", "decreasing-radius", "zero-step",
            "nan-radius", "radius-off-zero"])
    def test_bad_grid_is_named(self, t_grid, r_grid, grid, problem):
        # no absolute slack: steps of 1e-9 and 4e-9 are not uniform, and a
        # non-positive step fails before _kernel_nodes sees a negative r
        with pytest.raises(DomainError) as err:
            PropagatorTable(t_grid, r_grid)
        assert str(err.value) == (f"PropagatorTable requires a uniform {grid} grid "
                                  f"from 0 with a positive step; {problem}")

    def test_shape_checks(self, table):
        with pytest.raises(DomainError):
            table.apply_linear(np.zeros(7))
        with pytest.raises(DomainError):
            table.duhamel_field(np.zeros((3, 81)))

    @pytest.mark.parametrize("shape", [(41, 80), (2, 41, 80), (2, 40, 81),
                                       (81,), (1, 1, 41, 81)])
    def test_wrong_source_shape_rejected(self, table, shape):
        with pytest.raises(DomainError, match="table's grid"):
            table.duhamel_field(np.zeros(shape))


def duhamel_by_prefix(A, dt, F):
    """The former per-row Duhamel: full Simpson/3-8 prefix matrix, every
    lag applied to every source time, then one pass per source time."""
    n_t, n_r = F.shape
    prefix = np.zeros((n_t, n_t))
    for i in range(n_t):
        prefix[i, : i + 1] = time_weights(i) * dt
    P = np.tensordot(A, F, axes=([2], [1]))
    out = np.zeros((n_t, n_r))
    for k in range(n_t):
        rows = np.arange(k, n_t)
        out[rows] += prefix[rows, k][:, None] * P[rows - k, :, k]
    return out


class TestDuhamelConvolution:
    # n_t = 2 is the trapezoid row alone, 3 adds a Simpson row, 4 the
    # 3/8-only row i = 3, 5 and 41 the corrected odd rows i >= 5
    @pytest.mark.parametrize("n_t", [2, 3, 4, 5, 41])
    def test_matches_prefix_formula(self, n_t):
        tab, A = table_with_matrices(np.linspace(0.0, 0.1 * (n_t - 1), n_t),
                                     np.linspace(0.0, 4.0, 21))
        rng = np.random.default_rng(n_t)
        src = rng.standard_normal((n_t, 21))
        want = duhamel_by_prefix(A, tab.dt, src)
        got = tab.duhamel_field(src)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_stack_equals_single_calls(self, table):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((4, 41, 81))
        out = table.duhamel_field(stack)
        assert out.shape == stack.shape
        for src, got in zip(stack, out):
            want = table.duhamel_field(src)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_lag_weights_reproduce_time_weights(self):
        # row k = i multiplies the vanishing lag-0 propagator, so only k < i
        for i in range(201):
            w = _lag_weights(i + 1)
            want = time_weights(i)
            for k in range(i):
                d = i - k
                assert abs(w[d if d < 4 else 0, k] - want[k]) <= 1e-15

    def test_simpson_row_is_the_even_rule(self):
        # claim_bound_check's tau weights: bit for bit the composite
        # Simpson rule on all nodes but the last
        for n in range(8, 200, 2):
            t = 0.37 * n
            assert np.array_equal(t / n * _lag_weights(n)[0],
                                  (t / n * time_weights(n))[:-1])


def assert_rows_close(got, want, rel):
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= rel * scale)


# (n_t, n_r): n_t = 2..5 as in TestDuhamelConvolution, then 41 and 161
# lags; each n_t with n_t < n_r and, from 3 on, n_t > n_r
FFT_GRIDS = [(2, 9), (3, 2), (3, 10), (4, 3), (4, 11), (5, 3), (5, 12),
             (41, 21), (41, 48), (161, 41)]


@pytest.fixture(scope="module", params=FFT_GRIDS, ids=[f"{n}x{k}" for n, k in FFT_GRIDS])
def fft_table(request):
    n_t, n_r = request.param
    return table_with_matrices(np.linspace(0.0, 0.025 * (n_t - 1), n_t),
                               np.linspace(0.0, 0.1 * (n_r - 1), n_r))


def assert_fields_close(got, want, rel):
    """Each field of a stack, shape (..., n_t, n_r), within rel of its
    largest value: the FFT's rounding is spread over the whole field, so
    a time row near t = 0, where the field is small, does not bound it."""
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - want) <= rel * scale)


class TestDuhamelFFT:
    # the FFT convolution against the per-lag loop it replaced: only the
    # rounding moves, within 1e-13 of each field's largest value
    @pytest.mark.parametrize("m", [None, 1, 4], ids=["one", "stack1", "stack4"])
    def test_matches_the_per_lag_loop(self, fft_table, m):
        tab, A = fft_table
        n_t, n_r = A.shape[:2]
        rng = np.random.default_rng(n_t * n_r)
        src = rng.standard_normal((n_t, n_r) if m is None else (m, n_t, n_r))
        got = tab.duhamel_field(src)
        want = duhamel_per_lag(A, src, tab.dt)
        assert got.shape == want.shape
        assert_fields_close(got, want, 1e-13)
        assert np.all(got[..., 0, :] == 0.0)

    def test_apply_linear_is_A_times_f(self, fft_table):
        tab, A = fft_table
        f = np.random.default_rng(A.shape[1]).standard_normal(A.shape[1])
        got = tab.apply_linear(f)
        assert_fields_close(got, A @ f, 1e-13)
        assert np.all(got[0] == 0.0)

    def test_transform_length_is_the_least_5_smooth(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        for n_t in range(2, 401):
            n = _fft_length(n_t)
            assert n >= 2 * n_t - 1 and smooth(n)
            assert not any(smooth(k) for k in range(2 * n_t - 1, n))


def doubled(monkeypatch, t_grid, r_grid):
    """The table's matrices at twice the kernel rule's Gauss nodes per panel."""
    with monkeypatch.context() as m:
        m.setattr(meanprop, "_KERNEL_LEVEL", 2 * meanprop._KERNEL_LEVEL)
        return finite_matrices(t_grid, r_grid)


def assert_self_converges(monkeypatch, t_grid, r_grid):
    """The table's rule and the same rule at twice the nodes per panel
    differ by at most 1e-10 of each row's largest entry."""
    A = finite_matrices(t_grid, r_grid)
    fine = doubled(monkeypatch, t_grid, r_grid)
    assert np.all(A[0] == 0.0)
    for d in range(1, t_grid.size):
        assert np.any(A[d, 0] != 0.0)  # the r = 0 row
        assert_rows_close(A[d], fine[d], 1e-10)


class TestFlatPanelList:
    # t_max > r_max cuts the rule at r_max + 2 dr; n_t = 2 is a single
    # lag; t_max < r_max has dt != dr; every grid has the r = 0 row and
    # rows with t = r
    @pytest.mark.parametrize("t_grid, r_grid", [
        (np.linspace(0.0, 3.0, 13), np.linspace(0.0, 2.0, 11)),
        (np.linspace(0.0, 0.1, 2), np.linspace(0.0, 4.0, 21)),
        (np.linspace(0.0, 1.5, 7), np.linspace(0.0, 3.0, 16)),
    ], ids=["t_max>r_max", "n_t=2", "t_max<r_max"])
    def test_table_self_converges(self, monkeypatch, t_grid, r_grid):
        assert_self_converges(monkeypatch, t_grid, r_grid)

    def test_single_lag_with_many_panels(self, monkeypatch):
        # t = 8 on 161 radii: rows with up to 320 cells; the two-row time
        # grid builds this one lag only
        assert_self_converges(monkeypatch, np.array([0.0, 8.0]),
                              np.linspace(0.0, 8.0, 161))

    def test_constant_data_exact_inside_the_triangle(self):
        # on t + r <= r_max - dr every stencil stays on the grid, where the
        # cubic interpolant of 1 is 1, so I(t, r, 1) = 2 sinh(t/2) up to the
        # kernel rule's error
        tab = finite_table(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 2.0, 41))
        T, R = np.meshgrid(tab.t_grid, tab.r_grid, indexing="ij")
        inside = T + R <= tab.r_grid[-2] + 1e-9
        got = tab.apply_linear(np.ones(41))
        assert_allclose(got[inside], 2.0 * np.sinh(T[inside] / 2.0), rtol=1e-12)

    @pytest.mark.parametrize("t_grid, r_grid", [
        (np.linspace(0.0, 3.0, 7), np.linspace(0.0, 2.0, 9)),
        (np.linspace(0.05, 2.05, 5), np.linspace(0.0, 3.0, 13)),
        (np.array([0.0, 8.0]), np.linspace(0.0, 8.0, 161)),
    ], ids=["t_max>r_max", "off-zero-t", "t=8,161-radii"])
    @pytest.mark.parametrize("phi", [theta1], ids=["theta1"])
    def test_linear_field_matches_pointwise_rule(self, t_grid, r_grid, phi):
        # every radius at once, at the pointwise rule's settled level
        got = linear_field(phi, t_grid, r_grid).values
        want = np.array([[sine_propagator(phi, t, r) for r in r_grid]
                         for t in t_grid])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @given(s=st.floats(1e-3, 14.0), r=st.floats(0.0, 14.0))
    @settings(max_examples=200, deadline=None)
    def test_weights_of_each_pair_sum_to_one(self, s, r):
        # spherical_mean's rule at one pair (s, r): both angular ends are
        # pinned, so it loses no weight at the top breakpoint, however large
        # cosh(r + s) is against its halfwidth
        for knots in (None, np.array([0.5, 3.0, 9.0])):
            nodes = _mean_nodes(s, r, knots)
            if nodes is not None:
                _, w = nodes(16)
                assert abs(w.sum() - 1.0) <= 1e-13

    def test_time_grid_must_start_at_zero(self):
        # row i is the lag i * dt; a grid from t = 1 would put I(0.5) on the
        # t = 1.5 row
        with pytest.raises(DomainError, match="time grid from 0"):
            PropagatorTable([1.0, 1.25, 1.5], np.linspace(0.0, 4.0, 17))


class TestEllipticK:
    def test_agm_matches_mpmath(self):
        # down to 1e-25: the 41 x 81 table's chunks reach m1 = 2.7e-21. One
        # call takes seven steps; a point alone, the steps its m1 needs
        m1 = np.logspace(-25.0, 0.0, 401)
        with mp.workdps(60):  # 1 - m1 keeps m1 to 1e-35 of itself
            want = np.array([float(mp.ellipk(1 - mp.mpf(float(x)))) for x in m1])
        for got in (_agm_K(m1), np.array([_agm_K(x) for x in m1])):
            assert np.max(np.abs(got - want) / want) <= 6e-16

    @pytest.mark.parametrize("bound, steps", meanprop._AGM_STEPS)
    def test_fewer_steps_keep_seven_steps_bits(self, bound, steps):
        # 10^6 m1 in [bound, 1], log-uniform, uniform and, densest, log-
        # uniform on [bound, 2 bound]; the bound itself makes the call take
        # `steps` steps, and a 0 appended makes it take seven
        rng = np.random.default_rng(steps)
        n, lo = 333_333, np.log(bound)
        m1 = np.concatenate([[bound, 1.0], np.exp(rng.uniform(lo, 0.0, n)),
                             rng.uniform(bound, 1.0, n),
                             np.exp(rng.uniform(lo, lo + np.log(2.0), n))])
        np.clip(m1, bound, 1.0, out=m1)  # exp may round past either end
        seven = _agm_K(np.append(m1, 0.0))[:-1]
        assert np.array_equal(_agm_K(m1).view(np.int64), seven.view(np.int64))

    def test_kappa_one_stays_finite(self):
        assert np.isfinite(_agm_K(np.zeros(1))[0])


def reference_panels(t, r, step, knots, lam_max, toward_zero=False):
    """_kernel_nodes' panels, built as it builds them: for panel i its
    side o[i], its centre mid[i] and halfwidth half[i] in u, and its tier
    (close, middle or far); per side H, lam*, r, t, +-1, whether it is the
    right side, and M - c - d there. toward_zero grades every side toward
    u = 0, the rule before a side analytic there was graded toward its
    nearest non-analytic point."""
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(r, dtype=float))
    H = np.stack([2.0 * np.minimum(r, t), np.maximum(t - r, 0.0)], axis=1).ravel()
    side = np.flatnonzero(H > 0.0)
    H, row, right = H[side], side // 2, side % 2 == 0
    tt, rr, sgn = t[row], r[row], np.where(right, 1.0, -1.0)
    st = np.abs(tt - rr)
    near = np.where(right, st, 2.0 * rr)
    depth = meanprop._GRADE_DEPTH * np.where(
        near > 0.0, np.clip(np.sqrt(near / H), 1e-8, 1.0), 1.0)
    # a right side with t < r is graded toward u = i y, y^2 H the distance
    # from lam* to the lam = 0 branch or to the nearest knot, and no deeper
    # than _GRADE_REACH y; y = 0 elsewhere
    reach = np.where(right & (tt < rr) & (not toward_zero), st, 0.0)
    for knot in [] if knots is None else knots:
        reach = np.minimum(reach, np.abs(st - knot))
    y = np.sqrt(reach / H)
    depth = np.maximum(depth, meanprop._GRADE_REACH * y)
    n_grade = np.floor(np.log(2.0 * depth) / np.log(meanprop._GRADE_RATIO)) + 1
    k = np.arange(n_grade.max(initial=0))
    graded = np.where(k < n_grade[:, None], 0.5 * meanprop._GRADE_RATIO ** k, 0.0)
    lam_b = step * np.arange(1.0, np.ceil(min(lam_max, (t + r).max()) / step))
    if knots is not None:
        lam_b = np.concatenate([lam_b, knots])
    u_b = np.sqrt(np.maximum(sgn[:, None] * (np.append(lam_max, lam_b) - st[:, None]),
                             0.0) / H[:, None])
    end = (tt + rr)[:, None]
    u_b[:, 1:][np.abs(lam_b - end) <= 4.0 * np.finfo(float).eps * end] = 1.0
    u_lo = np.where(right, 0.0, np.minimum(u_b[:, 0], 1.0))
    u_hi = np.where(right, np.minimum(u_b[:, 0], 1.0), 1.0)
    u = np.concatenate([u_lo[:, None], u_hi[:, None], graded, u_b[:, 1:]], axis=1)
    u = np.sort(np.clip(u, u_lo[:, None], u_hi[:, None]), axis=1)
    o, p = np.nonzero(u[:, 1:] > u[:, :-1])
    mid, half = 0.5 * (u[o, p + 1] + u[o, p]), 0.5 * (u[o, p + 1] - u[o, p])
    gap_c = np.where(right, 2.0 * np.maximum(rr - tt, 0.0), 0.0)
    xi = np.hypot(mid, y[o]) / half
    close = xi < 4.0
    far = (xi >= 16.0) & (H[o] * 4.0 * mid * half <= 0.25)
    return (H, row, st, rr, tt, sgn, right, gap_c, o, mid, half,
            [(close, 2.0), (~close & ~far, 1.0), (far, 0.75)])


def difference_quotient(a, x, y):
    """(a(x) - a(y)) / (x - y) for the two weights, from their closed forms
    2cosh x - 2cosh y = 4 sinh((x+y)/2) sinh((x-y)/2) and
    x^2 - y^2 = (x + y)(x - y), with sinh(h)/h two Taylor terms below
    h = 1e-4: the direct formula for a(x) - a(y), free of cancellation and
    independent of MonotoneWeight.gap."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if a.name == "s^2":
        return x + y
    h = 0.5 * (x - y)
    tiny = np.abs(h) < 1e-4
    hs = np.where(tiny, 1.0, h)
    sinhc = np.where(tiny, 1.0 + h * h / 6.0, np.sinh(hs) / hs)
    return 2.0 * np.sinh(0.5 * (x + y)) * sinhc


def reference_kernel_nodes(t, r, a, step, knots=None, lam_max=np.inf,
                           majorant=False):
    """meanprop._kernel_nodes with its earlier per-node formula, the
    reference of the factorised one: both sides in one chunk with
    M - b = min(2r + (1 - fr) d, lam* + lam + fr d), a(M) - a(b) and
    a(M) - a(c) as the weight's difference quotient times the gap, and
    seven AGM steps from a = 1. It takes points and yields chunks as
    _kernel_nodes does, lam and w shaped (n, panels), W's kernel only."""
    assert not majorant
    H, row, st, rr, tt, sgn, right, gap_c, o, mid, half, tiers = reference_panels(
        t, r, step, knots, lam_max)
    on_right = right * 1.0

    def agm_K(m1):
        aa, bb = np.ones_like(m1), np.sqrt(m1)
        for _ in range(7):
            aa, bb = 0.5 * (aa + bb), np.sqrt(aa * bb)
        return np.pi / (aa + bb)

    def nodes(n_gl):
        for sel, times in tiers:
            sel = np.flatnonzero(sel)
            n = int(times * n_gl)
            xg, wg = leggauss(n)
            per = max(meanprop._NODE_CHUNK // n, 1)
            for s in range(0, sel.size, per):
                b = sel[s:s + per]
                ob = o[b]
                uu = mid[b] + half[b] * xg[:, None]
                Hb, stb, rb, fr = H[ob], st[ob], rr[ob], on_right[ob]
                d = Hb * uu * uu
                lam = stb + sgn[ob] * d
                Mc = d + gap_c[ob]
                Mb = np.minimum(2.0 * rb + (1.0 - fr) * d, stb + lam + fr * d)
                M = np.maximum(tt[ob], rb + lam)
                amb = difference_quotient(a, M, M - Mb) * Mb
                m1 = np.minimum(difference_quotient(a, M, M - Mc) * Mc / amb, 1.0)
                w = (half[b] * wg[:, None]) * (2.0 * Hb * uu) * (
                    2.0 * agm_K(m1) / np.sqrt(amb))
                yield row[ob], lam, w

    return nodes


def reference_chunks(panels, n_gl):
    """The chunks of _kernel_nodes' nodes(n_gl) over reference_panels'
    panels, in its order: (b, xg, wg, is_right), b the chunk's panels and
    xg, wg the Gauss rule of its tier as columns."""
    o, right, tiers = panels[8], panels[6], panels[11]
    on_right = right[o]
    for tier, times in tiers:
        for is_right in (True, False):
            sel = np.flatnonzero(tier & (on_right == is_right))
            n = int(times * n_gl)
            xg, wg = leggauss(n)
            per = max(meanprop._NODE_CHUNK // n, 1)
            for s in range(0, sel.size, per):
                yield sel[s:s + per], xg[:, None], wg[:, None], is_right


def expression_kernel_nodes(t, r, a, step, knots=None, lam_max=np.inf,
                            majorant=False, toward_zero=False):
    """meanprop._kernel_nodes with the product form written as plain array
    expressions, as it would be without its reused buffers: the buffered
    evaluator must round every node the same way. Its chunks are shaped
    as _kernel_nodes' are, (n, panels); toward_zero as for
    reference_panels."""
    panels = reference_panels(t, r, step, knots, lam_max, toward_zero)
    H, row, st, rr, tt, sgn, right, gap_c, o, mid, half, tiers = panels
    s = a.s

    def nodes(n_gl):
        for b, xg, wg, is_right in reference_chunks(panels, n_gl):
            ob = o[b]
            Hb, stb, rb, tb = H[ob], st[ob], rr[ob], tt[ob]
            uu = mid[b] + half[b] * xg
            dh = 0.5 * Hb * uu * uu  # d/2
            if is_right:
                lam = (dh + dh) + stb
                P, Q = s(dh + np.maximum(tb, rb)), s(dh + np.maximum(rb - tb, 0.0))
                X, Y = s(lam), s(rb)
            else:
                lam = stb - (dh + dh)
                P, Q = s(tb - dh), s(dh)
                X, Y = s(stb - dh), s(rb + dh)
            if majorant:
                K = 0.5 * np.pi / (np.sqrt(P) * np.sqrt(Q))
            else:
                m1 = np.minimum((P / X) * (Q / Y), 1.0)
                K = _agm_K(m1) / (np.sqrt(X) * np.sqrt(Y))
            yield row[ob], lam, (half[b] * wg) * (2.0 * Hb * uu) * K

    return nodes


def reference_gap(a, x, g):
    """The gap factorisation a(x) - a(x - g) = P Q that the kernel rule
    used before the product form: P = 2 sinh(x - g/2), Q = 2 sinh(g/2)
    for 2cosh, P = 2x - g, Q = g for s^2."""
    if a.name == "s^2":
        return 2.0 * x - g, g
    return 2.0 * np.sinh(x - 0.5 * g), 2.0 * np.sinh(0.5 * g)


def gap_kernel_nodes(t, r, a, step, knots=None, lam_max=np.inf, majorant=False):
    """meanprop._kernel_nodes with the gap formula it used before the
    product form, the tolerance reference of the product form:
    1 - kappa = (P_c / P_b) (Q_c / Q_b) at the gaps M - c and M - b, and
    1 / sqrt(a(M) - a(b)) = 1 / (sqrt(P_b) sqrt(Q_b)). W's kernel only."""
    assert not majorant
    panels = reference_panels(t, r, step, knots, lam_max)
    H, row, st, rr, tt, sgn, right, gap_c, o, mid, half, tiers = panels

    def nodes(n_gl):
        for b, xg, wg, is_right in reference_chunks(panels, n_gl):
            ob = o[b]
            uu = mid[b] + half[b] * xg
            Hb, stb, rb, tb = H[ob], st[ob], rr[ob], tt[ob]
            d = Hb * uu * uu
            if is_right:
                lam = stb + d
                Mc, Mb = d + gap_c[ob], 2.0 * np.minimum(rb, lam)
                M = np.maximum(tb, rb + lam)
            else:
                lam = stb - d
                Mc, Mb, M = d, np.minimum(2.0 * rb + d, stb + lam), tb
            Pc, Qc = reference_gap(a, M, Mc)
            Pb, Qb = reference_gap(a, M, Mb)
            m1 = np.minimum((Pc / Pb) * (Qc / Qb), 1.0)
            w = (half[b] * wg) * (2.0 * Hb * uu) * (
                2.0 * _agm_K(m1) / (np.sqrt(Pb) * np.sqrt(Qb)))
            yield row[ob], lam, w

    return nodes


def with_reference_kernel(monkeypatch, fn, *args, kernel=reference_kernel_nodes):
    """fn(*args) with kernel in place of _kernel_nodes; the references
    build every point's panels at once, so they take no group."""
    def whole(*a, group=None, **kw):
        return kernel(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(meanprop, "_kernel_nodes", whole)
        return fn(*args)


def assert_close_to_max(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestKernelReference:
    # the factorised evaluator changes only the rounding of each node: every
    # consumer stays within 1e-14 of its largest value
    POINTS = [(1.0, 0.0), (5.0, 0.0), (2.0, 0.5), (0.8, 1.6), (3.0, 3.0),
              (0.3, 0.3), (1.0, 4.0), (4.0, 6.0), (0.05, 2.0), (2.0, 1e-6),
              (7.0, 7.0), (0.5, 0.25)]

    def test_table(self, monkeypatch, table, table_A):
        ref = with_reference_kernel(monkeypatch, _lag_matrices,
                                    table.t_grid, table.r_grid)
        assert_close_to_max(table_A, ref, 1e-14)

    @pytest.mark.parametrize("phi", [theta1, bump_profile(1.0)],
                             ids=["theta1", "bump"])
    def test_linear_field(self, monkeypatch, phi):
        tg, rg = np.linspace(0.0, 4.0, 21), np.linspace(0.0, 8.0, 81)
        ref = with_reference_kernel(monkeypatch, linear_field, phi, tg, rg)
        assert_close_to_max(linear_field(phi, tg, rg).values, ref.values, 1e-14)

    def test_sine_propagator(self, monkeypatch):
        def values():
            return np.array([sine_propagator(theta1, t, r) for t, r in self.POINTS])

        assert_close_to_max(values(), with_reference_kernel(monkeypatch, values), 1e-14)

    def test_W_evaluator(self, monkeypatch, weight):
        def values():
            return np.array([W_evaluator(t, r, f_decay, weight) for t, r in self.POINTS])

        assert_close_to_max(values(), with_reference_kernel(monkeypatch, values), 1e-14)


class TestGapFormulaReference:
    # the product form against the gap formula on the same panels: only
    # the rounding of each node moves, within 1e-14 of each row's largest
    # value
    def test_table(self, monkeypatch, table, table_A):
        ref = with_reference_kernel(monkeypatch, _lag_matrices,
                                    table.t_grid, table.r_grid, kernel=gap_kernel_nodes)
        assert_rows_close(table_A, ref, 1e-14)

    @pytest.mark.parametrize("phi", [theta1, bump_profile(1.0)],
                             ids=["theta1", "bump"])
    def test_linear_field(self, monkeypatch, phi):
        tg, rg = np.linspace(0.0, 4.0, 21), np.linspace(0.0, 8.0, 81)
        ref = with_reference_kernel(monkeypatch, linear_field, phi, tg, rg,
                                    kernel=gap_kernel_nodes)
        assert_rows_close(linear_field(phi, tg, rg).values, ref.values, 1e-14)

    def test_W_evaluator(self, monkeypatch, weight):
        def values():
            return np.array([W_evaluator(t, r, f_decay, weight)
                             for t, r in TestKernelReference.POINTS])

        ref = with_reference_kernel(monkeypatch, values, kernel=gap_kernel_nodes)
        assert_close_to_max(values(), ref, 1e-14)


WEIGHTS_MP = {"2cosh": lambda v: 2 * mp.cosh(v), "s^2": lambda v: v * v}


def kernel_mp(t, r, d, is_right, a, majorant):
    """The kernel at lam = |t - r| +- d (right or left side), with t, r
    and d taken exactly: 2 K(kappa) / sqrt(a(M) - a(b)) through
    mp.ellipk, or the majorant's pi / sqrt(a(M) - a(c))."""
    t, r, d = mp.mpf(t), mp.mpf(r), mp.mpf(d)
    lam = abs(t - r) + d if is_right else abs(t - r) - d
    b, c, M = abs(r - lam), min(t, r + lam), max(t, r + lam)
    if majorant:
        return mp.pi / mp.sqrt(a(M) - a(c))
    amb = a(M) - a(b)
    return 2 * mp.ellipk((a(c) - a(b)) / amb) / mp.sqrt(amb)


class TestKernelOracle:
    # the kernel the evaluator yields, w over the rule's weight
    # half wg dlam/du, at the first, middle and last node of every panel,
    # against mpmath at the node's own d = H u^2; the working precision
    # covers the digits a(M) - a(b) cancels at these scales
    @pytest.mark.parametrize("t, r", [(1e-300, 1e-300), (1e-50, 1e-300), (0.3, 2.0),
                                      (4.0, 0.5), (2.0, 2.0)])
    @pytest.mark.parametrize("majorant", [False, True], ids=["W", "majorant"])
    def test_kernel_at_nodes_matches_mpmath(self, weight, t, r, majorant):
        t_a, r_a = np.array([t]), np.array([r])
        panels = reference_panels(t_a, r_a, 1.0, None, np.inf)
        H, o, mid, half = panels[0], panels[8], panels[9], panels[10]
        chunks = list(meanprop._kernel_nodes(t_a, r_a, weight, 1.0, majorant=majorant)(8))
        ref = list(reference_chunks(panels, 8))
        assert len(chunks) == len(ref)
        worst = 0.0
        for (_, lam, w), (b, xg, wg, is_right) in zip(chunks, ref):
            uu = mid[b] + half[b] * xg
            d = 2.0 * (0.5 * H[o[b]] * uu * uu)  # as the evaluator forms d/2
            k = w / ((half[b] * wg) * (2.0 * H[o[b]] * uu))
            for i in {0, k.shape[0] // 2, k.shape[0] - 1}:
                for j in range(k.shape[1]):
                    dps = 40 + 2 * int(np.ceil(-np.log10(min(t, r, d[i, j]))))
                    with mp.workdps(dps):
                        want = kernel_mp(t, r, d[i, j], is_right, WEIGHTS_MP[weight.name],
                                         majorant)
                        worst = max(worst, float(abs(k[i, j] - want) / want))
        assert worst <= 1e-13


class TestBufferedEvaluator:
    # the table's lags 1, n_t // 2 and n_t - 1 on their grid cells, and
    # unit steps with the bump's knots as linear_field takes them
    @pytest.mark.parametrize("t_grid, r_grid", [
        (np.linspace(0.0, 2.0, 41), np.linspace(0.0, 4.0, 81)),
        (np.linspace(0.0, 3.0, 13), np.linspace(0.0, 2.0, 21)),
    ], ids=["41x81", "t_max>r_max"])
    def test_nodes_equal_the_expression_evaluator(self, t_grid, r_grid, weight):
        dt, dr, n_r = t_grid[1], r_grid[1], r_grid.size
        for d in (1, t_grid.size // 2, t_grid.size - 1):
            for step, knots, lam_max, majorant in (
                    (dr, None, (n_r + 1) * dr, False),
                    (1.0, bump_profile(1.0).knots, np.inf, False),
                    (1.0, bump_profile(1.0).knots, np.inf, True)):
                args = (d * dt, r_grid, weight, step, knots, lam_max, majorant)
                got = list(meanprop._kernel_nodes(*args)(8))
                want = list(expression_kernel_nodes(*args)(8))
                assert len(got) == len(want)
                for chunk, ref in zip(got, want):
                    for x, y in zip(chunk, ref):
                        assert np.array_equal(x, y)

    def test_table_equals_the_expression_evaluator(self, monkeypatch):
        t_grid, r_grid = np.linspace(0.0, 1.0, 21), np.linspace(0.0, 2.0, 41)
        ref = with_reference_kernel(monkeypatch, _lag_matrices, t_grid, r_grid,
                                    kernel=expression_kernel_nodes)
        assert np.array_equal(_lag_matrices(t_grid, r_grid), ref)


def counting_kernel_nodes(monkeypatch):
    """Wraps meanprop._kernel_nodes: returns the list of calls, each the
    number of (t, r) points it took and the (row, lam, w) shapes of the
    chunks its nodes() yielded."""
    calls, orig = [], meanprop._kernel_nodes

    def counting(t, r, *args, **kwargs):
        shapes = []
        calls.append((np.broadcast(t, r).size, shapes))
        nodes = orig(t, r, *args, **kwargs)

        def counted(n_gl):
            for row, lam, w in nodes(n_gl):
                shapes.append((row.shape, lam.shape, w.shape))
                yield row, lam, w

        return counted

    monkeypatch.setattr(meanprop, "_kernel_nodes", counting)
    return calls


def graded_to_zero(t, r, a, step, knots=None, lam_max=np.inf, majorant=False):
    """_kernel_nodes with every side graded toward u = 0, the rule before
    the grading followed each side's nearest non-analytic point."""
    return expression_kernel_nodes(t, r, a, step, knots, lam_max, majorant,
                                   toward_zero=True)


# sides whose nearest non-analytic point is the lam = 0 branch, at
# (r - t)/H = 1e-6, 1e-2, 1 and 10 (r = 1 or 2.1 on the table's radii);
# sides with t = r and t = r (1 -+ 1e-12), graded toward u = 0 as before;
# and sides of bump_profile(1.0) with a knot 1e-3 below lam*, at lam* and
# 0.01 above it
BRANCH_SIDES = [(1.0 / (1.0 + 2.0 * q), 1.0) for q in (1e-6, 1e-2, 1.0)] + [(0.1, 2.1)]
EQUAL_SIDES = [(2.0, 2.0), (2.0 * (1.0 - 1e-12), 2.0), (2.0 * (1.0 + 1e-12), 2.0)]
KNOT_SIDES = [(1.0, 4.001), (1.0, 4.0), (1.16, 4.15)]
SIDE_IDS = (["branch-1e-6", "branch-1e-2", "branch-1", "branch-10"]
            + ["t=r", "t=r(1-1e-12)", "t=r(1+1e-12)"])


class TestSingularityGrading:
    # a right side with t < r is graded toward its nearest non-analytic
    # point u = i y, not toward u = 0; on the sides where that point is
    # nearest, or where the rule still grades toward u = 0, each consumer
    # errs no more against a level-64 reference than the rule graded
    # toward u = 0 did, or than the 1e-14 of the reference that rounding
    # moves (TestKernelReference)
    @staticmethod
    def assert_within_zero_graded(got, old, want):
        err, old_err = np.max(np.abs(got - want)), np.max(np.abs(old - want))
        assert err <= max(old_err, 1e-14 * np.max(np.abs(want)))

    @pytest.mark.parametrize("phi, t, r", [
        *[(theta1, t, r) for t, r in BRANCH_SIDES + EQUAL_SIDES],
        *[(bump_profile(1.0), t, r) for t, r in BRANCH_SIDES + EQUAL_SIDES + KNOT_SIDES]],
        ids=[f"theta1-{i}" for i in SIDE_IDS]
        + [f"bump-{i}" for i in SIDE_IDS + ["knot-below", "knot-at", "knot-above"]])
    def test_linear_field(self, monkeypatch, phi, t, r):
        prof = meanprop._as_profile(phi)

        def level(n_gl):
            return meanprop._kernel_sums(t, r, meanprop._TWO_COSH, prof.knots,
                                         meanprop._times_sinh(prof))(n_gl)[0] / np.pi

        def field():
            return linear_field(phi, [t], [r]).values[0, 0]

        want = with_reference_kernel(monkeypatch, level, 64, kernel=graded_to_zero)
        old = with_reference_kernel(monkeypatch, field, kernel=graded_to_zero)
        self.assert_within_zero_graded(field(), old, want)

    @pytest.mark.parametrize("t, r", BRANCH_SIDES + EQUAL_SIDES, ids=SIDE_IDS)
    def test_table_row(self, monkeypatch, t, r):
        # the row of (t, r) in the lag block of t, on the radii of the
        # bench's contract grid: at level 8 its panels sit on the grid cells
        r_grid = np.linspace(0.0, 4.0, 81)
        j = int(np.argmin(np.abs(r_grid - r)))
        assert r_grid[j] == r

        def row():
            return meanprop._lag_block(np.array([t]), r_grid, r_grid[1])[0, j]

        with monkeypatch.context() as m:
            m.setattr(meanprop, "_KERNEL_LEVEL", 64)
            want = with_reference_kernel(monkeypatch, row, kernel=graded_to_zero)
        old = with_reference_kernel(monkeypatch, row, kernel=graded_to_zero)
        self.assert_within_zero_graded(row(), old, want)

    @pytest.mark.parametrize("t, r, knots", [
        (2.0, 0.5, None), (2.0, 2.0, None), (2.0 * (1.0 + 1e-12), 2.0, None),
        (1.0, 4.0, bump_profile(1.0).knots), (0.5, 1.5, bump_profile(1.0).knots)],
        ids=["t>r", "t=r", "t=r(1+1e-12)", "knot-at-3", "knot-at-1"])
    def test_sides_singular_at_zero_keep_their_rule(self, t, r, knots):
        # left sides, right sides with t >= r and sides with a knot at lam*
        # get every node and weight of the rule graded toward u = 0
        args = (np.array([t]), np.array([r]), meanprop._TWO_COSH, 1.0, knots)
        got = list(meanprop._kernel_nodes(*args)(8))
        want = list(graded_to_zero(*args)(8))
        assert len(got) == len(want)
        for chunk, ref in zip(got, want):
            for x, y in zip(chunk, ref):
                assert np.array_equal(x, y)

    def test_node_counts(self, monkeypatch):
        # the counter a speed claim on the field and contract workloads
        # rests on: nodes of linear_field on the field bench's propagate
        # grid (level 16) and of the 41 x 81 table (level 8)
        calls = counting_kernel_nodes(monkeypatch)
        linear_field(theta1, np.linspace(0.0, 2.0, 51), np.linspace(0.0, 8.0, 161))
        field = sum(lam[0] * lam[1] for _, shapes in calls for _, lam, _ in shapes)
        calls.clear()
        _lag_matrices(np.linspace(0.0, 2.0, 41), np.linspace(0.0, 4.0, 81))
        table = sum(lam[0] * lam[1] for _, shapes in calls for _, lam, _ in shapes)
        assert field <= 1_000_000 and table <= 900_000


# the bench's contract grid, whose 40 lags end in a partial block of 1;
# t_max > r_max; dt = 0.04 on dr = 0.05, so lam* falls inside cells; a
# single lag; more radii than _POINT_BLOCK, one lag per block; 20 lags in
# blocks of 6
LAG_GRIDS = [(np.linspace(0.0, 2.0, 41), np.linspace(0.0, 4.0, 81)),
             (np.linspace(0.0, 3.0, 13), np.linspace(0.0, 2.0, 21)),
             (np.arange(26) * 0.04, np.linspace(0.0, 2.0, 41)),
             (np.linspace(0.0, 0.1, 2), np.linspace(0.0, 4.0, 21)),
             (np.linspace(0.0, 0.5, 6), np.linspace(0.0, 12.8, 257)),
             (np.linspace(0.0, 1.0, 21), np.linspace(0.0, 2.0, 41))]
LAG_IDS = ["41x81", "t_max>r_max", "dt=0.04,dr=0.05", "n_t=2", "n_r>=block", "21x41"]


class TestLagBlocks:
    # the table builds the lags of a block of whole lags, at most
    # _POINT_BLOCK points, in one _kernel_nodes call; only the order in
    # which each moment sums its nodes moves
    @pytest.mark.parametrize("t_grid, r_grid", LAG_GRIDS, ids=LAG_IDS)
    def test_matches_the_per_lag_loop(self, t_grid, r_grid):
        got = finite_matrices(t_grid, r_grid)
        assert_close_to_max(got, per_lag_table(t_grid, r_grid), 1e-14)

    @pytest.mark.parametrize("t_grid, r_grid", LAG_GRIDS, ids=LAG_IDS)
    def test_one_call_per_block(self, monkeypatch, t_grid, r_grid):
        calls = counting_kernel_nodes(monkeypatch)
        PropagatorTable(t_grid, r_grid)
        n_t, n_r = t_grid.size, r_grid.size
        per = max(meanprop._POINT_BLOCK // n_r, 1)
        sizes = [size for size, _ in calls]
        assert len(sizes) == -(-(n_t - 1) // per)
        assert sum(sizes) == (n_t - 1) * n_r and all(s % n_r == 0 for s in sizes)
        assert max(sizes) <= max(meanprop._POINT_BLOCK, n_r)

    @pytest.mark.parametrize("build", ["table", "linear_field"])
    def test_chunks_hold_at_most_node_chunk_nodes(self, monkeypatch, build):
        t_grid, r_grid = LAG_GRIDS[0]
        calls = counting_kernel_nodes(monkeypatch)
        if build == "table":
            PropagatorTable(t_grid, r_grid)
        else:
            linear_field(theta1, t_grid, r_grid)
        shapes = [shape for _, chunks in calls for shape in chunks]
        assert len(shapes) > len(calls)  # some calls take several chunks
        for (panels,), lam, w in shapes:
            assert lam == w and lam[1] == panels  # (n, panels)
            assert lam[0] * panels <= meanprop._NODE_CHUNK


def per_level_linear_field(phi, t_grid, r_grid):
    """linear_field as it was before the point blocks, its reference: one
    _kernel_nodes call per time level for all radii, each node's
    w sinh(lam) phi(lam) summed to its radius panel by panel, in node
    order within each."""
    prof = meanprop._as_profile(phi)
    out = np.zeros((t_grid.size, r_grid.size))
    for i, t in enumerate(t_grid):
        if t > 0.0:
            nodes = meanprop._kernel_nodes(t, r_grid, meanprop._TWO_COSH, 1.0,
                                           prof.knots)
            for row, lam, w in nodes(2 * meanprop._KERNEL_LEVEL):
                out[i] += np.bincount(np.repeat(row, lam.shape[0]),
                                      weights=(w * np.sinh(lam) * prof(lam)).T.ravel(),
                                      minlength=r_grid.size)
    return out / np.pi


def nodes_by_point(chunks, n_points):
    """The (lam, w) of every panel, the columns of the (n, panels) chunks,
    gathered per point in chunk order."""
    lam_of, w_of = [[] for _ in range(n_points)], [[] for _ in range(n_points)]
    for row, lam, w in chunks:
        for k, lam_k, w_k in zip(row, lam.T, w.T):
            lam_of[k].append(lam_k)
            w_of[k].append(w_k)
    return lam_of, w_of


# t = 0 and its shifts by +-dt/2, as linear_data_field evaluates them;
# and on twice the radii, 671 points, three groups of _POINT_BLOCK
_T = np.linspace(0.0, 2.0, 11)
_DT = _T[1] - _T[0]
GROUP_GRID = (_T, np.linspace(0.0, 6.0, 61))
BLOCK_GRIDS = [(_T, np.linspace(0.0, 6.0, 31)),
               (_T[1:] + 0.5 * _DT, np.linspace(0.0, 6.0, 31)),
               (_T[1:] - 0.5 * _DT, np.linspace(0.0, 6.0, 31)),
               GROUP_GRID]


class TestLinearFieldBlocks:
    # linear_field hands _kernel_nodes all its t-major points, whose
    # panels it builds in groups of _POINT_BLOCK; per point it sums panel
    # sums, so only the rounding of the sums moves
    @pytest.mark.parametrize("grid", BLOCK_GRIDS,
                             ids=["with-t0", "plus-dt/2", "minus-dt/2", "three-groups"])
    @pytest.mark.parametrize("phi", [theta1, 1.0, bump_profile(1.0)],
                             ids=["theta1", "constant", "bump"])
    def test_matches_the_per_level_loop(self, grid, phi):
        t_grid, r_grid = grid
        got = linear_field(phi, t_grid, r_grid).values
        assert_close_to_max(got, per_level_linear_field(phi, t_grid, r_grid), 1e-15)

    @pytest.mark.parametrize("phi", [theta1, bump_profile(1.0)], ids=["theta1", "bump"])
    def test_blocks_are_independent(self, monkeypatch, phi):
        t_grid, r_grid = BLOCK_GRIDS[0]
        want = linear_field(phi, t_grid, r_grid).values
        for block in (1, 7, t_grid.size * r_grid.size):
            monkeypatch.setattr(meanprop, "_POINT_BLOCK", block)
            assert_close_to_max(linear_field(phi, t_grid, r_grid).values, want, 1e-15)

    @pytest.mark.parametrize("step, knots, lam_max", [
        (1.0, bump_profile(1.0).knots, np.inf), (0.25, None, 4.5)],
        ids=["unit-steps-and-knots", "grid-steps-cut"])
    def test_nodes_do_not_depend_on_the_other_points(self, step, knots, lam_max):
        # every point's panels and nodes, bit for bit, as in a call of its
        # own time level; points at t = 0 get none
        t_levels, r_grid = np.array([0.0, 0.3, 1.0, 2.5]), np.linspace(0.0, 4.0, 9)
        T, R = (g.ravel() for g in np.meshgrid(t_levels, r_grid, indexing="ij"))
        for a in (meanprop._TWO_COSH, MonotoneWeight.s_squared()):
            lam_of, w_of = nodes_by_point(
                meanprop._kernel_nodes(T, R, a, step, knots, lam_max)(8), T.size)
            for i, t in enumerate(t_levels):
                own = meanprop._kernel_nodes(t, r_grid, a, step, knots, lam_max)(8)
                lam_own, w_own = nodes_by_point(own, r_grid.size)
                for j in range(r_grid.size):
                    k = i * r_grid.size + j
                    assert len(lam_of[k]) == len(lam_own[j]) and (t > 0.0) == (len(lam_of[k]) > 0)
                    for x, y in zip(lam_of[k] + w_of[k], lam_own[j] + w_own[j]):
                        assert np.array_equal(x, y)


class TestSliverPanels:
    # a unit-step or grid-cell break within a few ulps of a side's end
    # t + r drops out, so no panel has all its nodes on the end, and a
    # point's panels do not depend on the farther points of its call
    @pytest.mark.parametrize("t_grid, r_grid", [
        LAG_GRIDS[0], (np.linspace(0.0, 8.0, 161), np.linspace(0.0, 8.0, 161))],
        ids=["41x81", "161x161"])
    def test_no_table_panel_sits_on_the_end(self, monkeypatch, t_grid, r_grid):
        orig, slivers, panels = meanprop._kernel_nodes, [], []

        def checking(t, r, *args, **kwargs):
            end = np.asarray(t) + np.asarray(r)
            nodes = orig(t, r, *args, **kwargs)

            def checked(n_gl):
                for row, lam, w in nodes(n_gl):
                    e = end[row]
                    slivers.append(np.sum(np.all(np.abs(lam - e) <= 1e-12 * e, axis=0)))
                    panels.append(row.size)
                    yield row, lam, w

            return checked

        monkeypatch.setattr(meanprop, "_kernel_nodes", checking)
        PropagatorTable(t_grid, r_grid)
        assert sum(panels) > 0 and sum(slivers) == 0

    def test_a_point_alone_gets_the_panels_of_its_block(self):
        # the table's first block of 41x81, 3 lags of 81 radii, whose
        # t + r all lie on grid-cell breaks
        t_grid, r_grid = LAG_GRIDS[0]
        dr, n_r = r_grid[1], r_grid.size
        per = meanprop._POINT_BLOCK // n_r
        T, R = np.repeat(t_grid[1:per + 1], n_r), np.tile(r_grid, per)
        args = (meanprop._TWO_COSH, dr, None, (n_r + 1) * dr)
        lam_of, w_of = nodes_by_point(meanprop._kernel_nodes(T, R, *args)(8), T.size)
        for k in range(T.size):
            lam_own, w_own = nodes_by_point(
                meanprop._kernel_nodes(T[k:k + 1], R[k:k + 1], *args)(8), 1)
            assert len(lam_of[k]) == len(lam_own[0]) > 0
            for x, y in zip(lam_of[k] + w_of[k], lam_own[0] + w_own[0]):
                assert np.array_equal(x, y)


class TestFullChunks:
    # one _kernel_nodes call takes all of linear_field's points and builds
    # their panels group by group; a tier's leftover panels wait for the
    # next group's, so only each tier's last chunk is partial
    @pytest.mark.parametrize("grid, nodes, chunks", [
        ({"t_max": 2.0, "r_max": 8.0, "dt": 0.04, "dr": 0.05}, 901_624, 61),
        ({"t_max": 6.0, "r_max": 6.0, "dt": 0.2, "dr": 0.2}, 286_404, 24)],
        ids=["propagate-grid", "decay-grid"])
    def test_counts(self, monkeypatch, grid, nodes, chunks):
        # the field bench's grids: the counters its speed rests on
        calls = counting_kernel_nodes(monkeypatch)
        g = Grid(**grid)
        linear_field(theta1, g.t, g.r)
        (_, shapes), = calls
        assert sum(n * panels for _, (n, panels), _ in shapes) == nodes
        assert len(shapes) <= chunks

    def test_only_the_last_chunk_of_a_tier_is_partial(self, monkeypatch):
        calls = counting_kernel_nodes(monkeypatch)
        linear_field(bump_profile(1.0), *GROUP_GRID)
        (points, shapes), = calls
        assert points > 2 * meanprop._POINT_BLOCK
        partial = {}
        for _, (n, panels), _ in shapes:
            full = max(meanprop._NODE_CHUNK // n, 1)
            assert panels <= full
            partial[n] = partial.get(n, 0) + (panels < full)
        # two tiers, right and left side, per node count
        assert len(partial) == 3 and max(partial.values()) <= 2

    @pytest.mark.parametrize("step, knots, lam_max", [
        (1.0, bump_profile(1.0).knots, np.inf), (0.25, None, 4.5)],
        ids=["unit-steps-and-knots", "grid-steps-cut"])
    def test_nodes_do_not_depend_on_the_groups(self, step, knots, lam_max):
        # every point's panels, bit for bit, as in a one-group call of its
        # own time level; a chunk may hold a point's panels in another
        # order, so each point's are compared sorted by their first node
        t_levels, r_grid = GROUP_GRID
        T, R = (g.ravel() for g in np.meshgrid(t_levels, r_grid, indexing="ij"))
        for a in (meanprop._TWO_COSH, MonotoneWeight.s_squared()):
            nodes = meanprop._kernel_nodes(T, R, a, step, knots, lam_max,
                                           group=meanprop._POINT_BLOCK)
            lam_of, w_of = nodes_by_point(nodes(8), T.size)
            for i, t in enumerate(t_levels):
                own = meanprop._kernel_nodes(t, r_grid, a, step, knots, lam_max)(8)
                lam_own, w_own = nodes_by_point(own, r_grid.size)
                assert (t > 0.0) == any(lam_own)  # points at t = 0 get none
                for j in range(r_grid.size):
                    k = i * r_grid.size + j
                    assert len(lam_of[k]) == len(lam_own[j])
                    got = sorted(zip(lam_of[k], w_of[k]), key=lambda p: p[0][0])
                    want = sorted(zip(lam_own[j], w_own[j]), key=lambda p: p[0][0])
                    for x, y in zip(got, want):
                        assert np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])


class TestKernelSums:
    # _kernel_sums makes one _kernel_nodes call, which builds the panels
    # of a one-group call once and reuses them at every node level
    @pytest.mark.parametrize("t, r", [(0.5, 0.5), (4.0, 2.0), (8.0, 8.0)])
    def test_one_kernel_call_per_pointwise_rule(self, monkeypatch, weight, t, r):
        calls = counting_kernel_nodes(monkeypatch)
        W_evaluator(t, r, f_decay, weight)
        w_majorant(t, r, f_decay, weight)
        sine_propagator(theta1, t, r)
        # each settles over two levels or more, on the panels of one call
        assert [size for size, _ in calls] == [1, 1, 1]

    @pytest.mark.parametrize("t, r", [(0.5, 0.5), (4.0, 2.0), (8.0, 8.0), (2.0, 0.0)])
    def test_one_kernel_call_per_claim(self, monkeypatch, t, r):
        from hypwave.globalsolver import claim_bound_check

        calls = counting_kernel_nodes(monkeypatch)
        claim_bound_check(3.5, 1.2, 1e-4, t, r)
        n_tau = max(8, 2 * int(np.ceil(2.0 * t)))
        assert [size for size, _ in calls] == [n_tau]

    def test_groups_of_a_larger_call(self, monkeypatch):
        # more points than _POINT_BLOCK: one call for all groups and
        # levels, the sums those of one call per point, row naming the
        # point among all
        t, r = np.linspace(0.1, 3.0, 7), np.linspace(0.0, 2.0, 5)[:, None]
        T, R = (x.ravel() for x in np.broadcast_arrays(t, r))

        def weigh_by(t):
            def weigh(w, lam, row):
                w *= f_decay(lam) * (1.0 + np.asarray(t)[row])
            return weigh

        a = meanprop._TWO_COSH
        want = np.concatenate([meanprop._kernel_sums(tk, rk, a, None, weigh_by([tk]))(8)
                               for tk, rk in zip(T, R)])
        monkeypatch.setattr(meanprop, "_POINT_BLOCK", 4)
        calls = counting_kernel_nodes(monkeypatch)
        sums = meanprop._kernel_sums(t, r, a, None, weigh_by(T))
        for n_gl in (8, 16):
            sums(n_gl)
        assert [size for size, _ in calls] == [35]
        assert_close_to_max(sums(8), want, 1e-15)


class TestLeggaussCache:
    @pytest.mark.parametrize("n", [6, 10, 32])
    def test_matches_numpy_and_is_read_only(self, n):
        x, w = leggauss(n)
        x_np, w_np = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, x_np) and np.array_equal(w, w_np)
        assert leggauss(n)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


# ---------------------------------------------------------------------------
# the W operator family


@pytest.fixture(params=["2cosh", "s^2"], ids=["a=2cosh", "a=s2"])
def weight(request):
    if request.param == "2cosh":
        return MonotoneWeight.two_cosh()
    return MonotoneWeight.s_squared()


def f_decay(lam):
    return np.cosh(lam) ** -1.5


class TestWEvaluator:
    # independent oracle: nested mpmath quadrature of the raw double integral
    FROZEN = {
        ("2cosh", 2.0, 0.5): 1.76853354,
        ("s^2", 2.0, 0.5): 2.16968296,
        ("2cosh", 0.8, 1.6): 0.362891317,
        ("s^2", 0.8, 1.6): 0.508908755,
        ("2cosh", 3.0, 3.0): 1.12724479,
        ("s^2", 3.0, 3.0): 2.18829898,
        ("2cosh", 1.0, 4.0): 1.46163939e-03,
        ("s^2", 1.0, 4.0): 8.33987175e-03,
    }

    @pytest.mark.parametrize("t, r", [(2.0, 0.5), (0.8, 1.6), (3.0, 3.0), (1.0, 4.0)])
    def test_frozen_values(self, weight, t, r):
        want = self.FROZEN[(weight.name, t, r)]
        assert_allclose(W_evaluator(t, r, f_decay, weight), want, rtol=5e-8)

    def test_degenerate_zero(self, weight):
        assert W_evaluator(0.0, 1.0, f_decay, weight) == 0.0
        assert W_evaluator(0.0, 0.0, f_decay, weight) == 0.0

    def test_r_zero_is_the_limit(self, weight):
        # at r = 0 the inner integral is pi (a(t) - a(lam))^{-1/2}, so W is
        # the single integral w_majorant takes of |f| (f > 0 here)
        at_zero = W_evaluator(2.0, 0.0, f_decay, weight)
        assert_allclose(at_zero, W_evaluator(2.0, 1e-6, f_decay, weight), rtol=1e-5)
        assert_allclose(at_zero, w_majorant(2.0, 0.0, f_decay, weight), rtol=1e-10)
        if weight.name == "2cosh":
            assert_allclose(at_zero, 1.73990396, rtol=1e-5)

    def test_r_zero_keeps_the_sign(self, weight):
        neg = W_evaluator(2.0, 0.0, lambda lam: -f_decay(lam), weight)
        assert neg == -W_evaluator(2.0, 0.0, f_decay, weight)

    @pytest.mark.parametrize("t, r, lam", [(2.0, 0.5, 1.1), (3.0, 3.0, 2.0), (1.0, 4.0, 3.6)])
    def test_inner_paths_agree(self, weight, t, r, lam):
        # the kernel's closed form 2 K(kappa) / sqrt(a(M) - a(b)) against the
        # inner s-integral on Chebyshev-Gauss nodes in x = s^2
        b, c, M = abs(r - lam), min(t, r + lam), max(t, r + lam)
        x, w = cg_nodes(64, b * b, c * c)
        s = np.sqrt(x)
        # (a(c) - a(s)) / (c^2 - s^2) and (a(s) - a(b)) / (s^2 - b^2)
        upper = difference_quotient(weight, c, s) / (c + s)
        lower = difference_quotient(weight, s, b) / (s + b)
        g = (weight.da(s) / (2.0 * s)) / np.sqrt(upper * lower)
        via_cg = np.dot(w, g / np.sqrt(weight.a(M) - weight.a(s)))
        amb = weight.a(M) - weight.a(b)
        via_ek = 2.0 * _agm_K(np.array([(weight.a(M) - weight.a(c)) / amb]))[0] / np.sqrt(amb)
        assert_allclose(via_cg, via_ek, rtol=1e-11)

    @pytest.mark.parametrize("r", [1e-5, 1e-6, 1e-7, 1e-8, 1e-10])
    def test_small_r_approaches_the_limit(self, r):
        # W(2, r) - W(2, 0) is 6.8e-12 of W at r = 1e-5 (mpmath) and shrinks
        # with r; the kernel's branch at scale 2r next to lam = t - r must
        # neither stall the rule nor break it
        a = MonotoneWeight.two_cosh()
        assert_allclose(W_evaluator(2.0, r, f_decay, a), 1.73990395898505, rtol=1e-10)

    @given(t=st.floats(1e-300, 10.0), r=st.just(0.0) | st.floats(1e-300, 10.0),
           phi=st.sampled_from([RadialProfile(f_decay), bump_profile(1.0)]))
    @settings(max_examples=25, deadline=None)
    def test_sine_propagator_is_W_over_pi(self, t, r, phi):
        # W(t, r, phi sinh, 2cosh) = pi I(t, r, phi); the product keeps
        # phi's knots, which the rule needs for the bump's joins
        phi_sinh = RadialProfile(lambda lam: phi(lam) * np.sinh(lam),
                                 knots=phi.knots)
        w = W_evaluator(t, r, phi_sinh, MonotoneWeight.two_cosh())
        assert_allclose(w, np.pi * sine_propagator(phi, t, r), rtol=1e-10)

    @pytest.mark.parametrize("t, r", [(1e-200, 0.0), (1e-300, 0.0), (1e-50, 1e-300),
                                      (1e-300, 1e-300)])
    def test_tiny_scales_settle(self, t, r):
        # a(M) - a(b) of two lengths this small underflows as a product;
        # the rule never forms it. At t -> 0, I(t, r, phi) ~ t phi(r)
        phi_sinh = RadialProfile(lambda lam: f_decay(lam) * np.sinh(lam))
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = sine_propagator(f_decay, t, r)
            w = W_evaluator(t, r, phi_sinh, MonotoneWeight.two_cosh())
        assert_allclose(got, t * f_decay(r), rtol=1e-12)
        assert_allclose(w, np.pi * got, rtol=1e-10)

    @pytest.mark.parametrize("t, r", [(2.0, 0.5), (0.8, 1.6), (3.0, 3.0), (1.0, 4.0)])
    def test_majorant_dominates(self, weight, t, r):
        val = abs(W_evaluator(t, r, f_decay, weight))
        bound = w_majorant(t, r, f_decay, weight)
        assert val <= bound * (1 + 1e-9)

    def test_negative_arguments_raise(self, weight):
        with pytest.raises(DomainError):
            W_evaluator(-1.0, 1.0, f_decay, weight)

    @pytest.mark.parametrize("t, r", [(-1.0, 1.0), (1.0, -0.5), (-1.0, -1.0)])
    def test_majorant_negative_arguments_raise(self, weight, t, r):
        with pytest.raises(DomainError, match="t >= 0 and r >= 0"):
            w_majorant(t, r, f_decay, weight)

    def test_majorant_zero_time(self, weight):
        assert w_majorant(0.0, 1.0, f_decay, weight) == 0.0
        assert w_majorant(0.0, 0.0, f_decay, weight) == 0.0

    @pytest.mark.parametrize("t", [0.3, 2.0, 5.0])
    def test_majorant_at_r_zero_is_W(self, weight, t):
        # kappa = 0 there, so W's kernel 2 K(0) / sqrt(a(t) - a(lam)) is the
        # majorant's on the same nodes, bit for bit
        for f in (f_decay, bump_profile(1.0)):
            assert w_majorant(t, 0.0, f, weight) == W_evaluator(t, 0.0, f, weight)

    def test_majorant_takes_the_absolute_value(self, weight):
        neg = lambda lam: -f_decay(lam)
        assert w_majorant(2.0, 0.5, neg, weight) == w_majorant(2.0, 0.5, f_decay, weight)

    def test_majorant_failure_names_the_point(self, weight):
        chirp = lambda lam: np.sin(40.0 * lam) * np.cos(37.0 * lam * lam)
        with pytest.raises(QuadratureError, match=r"\(t=6\.0, r=6\.0\)"):
            w_majorant(6.0, 6.0, chirp, weight)


class TestBetaIdentity:
    def test_hundred_random_pairs(self, weight):
        rng = np.random.default_rng(20260819)
        for _ in range(100):
            b = rng.uniform(0.0, 4.9)
            c = rng.uniform(b + 1e-3, 5.0)
            assert abs(beta_identity_check(b, c, weight) - np.pi) < 1e-10

    def test_b_zero(self, weight):
        assert_allclose(beta_identity_check(0.0, 3.0, weight), np.pi, rtol=1e-12)

    @pytest.mark.parametrize("b, c", [(0.5, 0.5 + 1e-9), (3.0, 3.0 + 1e-9),
                                      (0.0, 1e-9), (0.0, 12.0)])
    def test_near_coincident_and_wide_ends(self, weight, b, c):
        # the gap factorisation keeps both quotients accurate when the ends
        # nearly coincide, where a(c) - a(b) itself cancels
        assert_allclose(beta_identity_check(b, c, weight), np.pi, rtol=1e-12)

    def test_invalid_interval(self, weight):
        with pytest.raises(DomainError):
            beta_identity_check(2.0, 1.0, weight)
        with pytest.raises(DomainError):
            beta_identity_check(-1.0, 1.0, weight)


class TestROperator:
    def test_constant_exact(self):
        # R(1)(t) = sqrt(a(t) - a(0)) exactly, for any admissible weight
        a2 = MonotoneWeight.two_cosh()
        assert_allclose(r_operator(lambda s: 1.0, 3.0, a2), 2.0 * np.sinh(1.5), rtol=1e-14)
        asq = MonotoneWeight.s_squared()
        assert_allclose(r_operator(lambda s: 1.0, 3.0, asq), 3.0, rtol=1e-14)

    def test_linear_profile_exact_value(self):
        # a = s^2, v = s: int_0^t s^2 / sqrt(t^2 - s^2) ds = pi t^2 / 4
        asq = MonotoneWeight.s_squared()
        assert_allclose(r_operator(lambda s: s, 2.0, asq), np.pi, rtol=1e-13)

    def test_linear_profile_vs_adaptive_quadrature(self, weight):
        # reference: QUADPACK on the raw singular integrand, endpoint nicked
        t = 2.0
        a_t = float(weight.a(t))
        want, _ = quad(
            lambda s: 0.5 * float(weight.da(s)) * s / np.sqrt(a_t - float(weight.a(s))),
            0.0, t - 1e-10, limit=400)
        assert_allclose(r_operator(lambda s: s, t, weight), want, rtol=1e-8)

    def test_zero_time(self, weight):
        assert r_operator(lambda s: 1.0, 0.0, weight) == 0.0


class TestDtBound:
    def test_equality_for_constant_profile(self):
        # v = 1: both sides reduce to cosh(t/2) for the 2cosh weight
        a2 = MonotoneWeight.two_cosh()
        lhs, rhs = dt_r_bound_check(lambda s: 1.0, lambda s: 0.0, 1.0, a2)
        assert_allclose(lhs, np.cosh(0.5), rtol=1e-5)
        assert_allclose(rhs, np.cosh(0.5), rtol=1e-12)
        assert lhs <= rhs * (1 + 1e-4)

    @pytest.mark.parametrize("t", [0.8, 2.0, 5.0])
    def test_inequality_for_oscillating_profile(self, weight, t):
        v = lambda s: np.cos(2.0 * s)
        dv = lambda s: -2.0 * np.sin(2.0 * s)
        lhs, rhs = dt_r_bound_check(v, dv, t, weight)
        assert lhs <= rhs * (1 + 1e-6)

    def test_tiny_time_raises(self, weight):
        with pytest.raises(DomainError, match="stencil"):
            dt_r_bound_check(lambda s: 1.0, lambda s: 0.0, 1e-9, weight)


# ---------------------------------------------------------------------------
# explicit lower bounds


class TestLowerBounds:
    PROBES = [(5.0, 3.0), (3.0, 1.0), (2.0, 4.0), (8.0, 6.0)]

    def gaussian(self, lam):
        return np.exp(-((lam - 2.0) ** 2))

    @pytest.mark.parametrize("t, r", PROBES)
    def test_kernel_integral_below_propagator(self, t, r):
        val = sine_propagator(self.gaussian, t, r)
        low = kernel_lower_integral(self.gaussian, t, r)
        assert 0.0 <= low <= val * (1 + 1e-9)

    @pytest.mark.parametrize("t, r", PROBES)
    def test_explicit_bounds_below_propagator(self, t, r):
        val = sine_propagator(self.gaussian, t, r)
        large, small = lower_bound_I(self.gaussian, t, r, tau0=1.0)
        assert large <= val * (1 + 1e-9)
        if small is not None:
            assert small <= val * (1 + 1e-9)
            # widening the integration range can only help
            assert small >= large - 1e-15

    def test_small_bound_requires_separation(self):
        # |t - r| <= tau0/8 suppresses the wider bound
        _, small = lower_bound_I(self.gaussian, 3.05, 3.0, tau0=1.0)
        assert small is None
        _, small = lower_bound_I(self.gaussian, 3.5, 3.0, tau0=1.0)
        assert small is not None

    def test_radius_precondition(self):
        with pytest.raises(DomainError, match="tau0/2"):
            lower_bound_I(self.gaussian, 2.0, 0.4, tau0=1.0)

    # where the profile has underflowed to 0, (sinh lam)^{1/2} and the
    # kernel of kernel_lower_integral lie beyond the float range: those
    # nodes give exactly 0, not 0 * inf = NaN, and no exp overflows
    def test_gaussian_far_out_is_zero_not_nan(self):
        with np.errstate(over="raise", invalid="raise"):
            large, small = lower_bound_I(self.gaussian, 800.0, 700.0, tau0=1.0)
        assert (large, small) == (0.0, 0.0)

    def test_theta_far_out_matches_mpmath(self):
        with np.errstate(over="raise", invalid="raise"):
            large, small = lower_bound_I(theta1, 800.0, 700.0, tau0=1.0)
        assert large == 0.0  # theta1 underflows from lam ~ 497 on
        # small: lam from 100, where theta1 (sinh lam)^{1/2} ~ e^{-lam}
        with mp.workdps(30):
            want = float(default_C0(1.0) * mp.sinh(700) ** mp.mpf(-0.5) * mp.quad(
                lambda lam: mp.cosh(lam) ** mp.mpf(-1.5) * mp.sqrt(mp.sinh(lam)),
                mp.linspace(100, 600, 501)))
        assert abs(small - want) <= 1e-10 * want

    def test_kernel_integral_far_out_is_zero_not_nan(self):
        with np.errstate(over="raise", invalid="raise"):
            assert kernel_lower_integral(theta1, 3000.0, 10.0) == 0.0

    # a profile that stays nonzero where (sinh lam)^{1/2} and the kernel
    # leave the float range: the products are formed in log space there,
    # finite and without an overflow warning
    def test_tiny_constant_far_out_matches_mpmath(self):
        tiny = RadialProfile.constant(1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            large, small = lower_bound_I(tiny, 800.0, 700.0, tau0=1.0)
            kernel = kernel_lower_integral(tiny, 1500.0, 10.0)
        def half(lam):
            return 1e-300 * mp.sqrt(mp.sinh(lam))

        with mp.workdps(30):
            pref = default_C0(1.0) / mp.sqrt(mp.sinh(700))
            want_large = float(pref * mp.quad(half, mp.linspace(800, 1500, 71)))
            want_small = float(pref * mp.quad(half, mp.linspace(100, 1500, 141)))
            want_kernel = float(mp.quad(
                lambda lam: 1e-300 * mp.sinh(lam) / mp.sqrt(2 * mp.cosh(10 + lam)),
                mp.linspace(1490, 1510, 21)))
        assert_allclose([large, small, kernel],
                        [want_large, want_small, want_kernel], rtol=1e-12)
        assert_allclose([want_large, want_kernel],
                        [1.25169046654232e-127, 5.25825580617197e+25], rtol=1e-13)

    def test_default_C0(self):
        want = 0.5 * np.sqrt(np.tanh(0.125) * np.tanh(0.5))
        assert_allclose(default_C0(1.0), want, rtol=1e-14)
        assert 0.0 < default_C0(0.1) < default_C0(10.0) < 0.5 == default_C0(1e3)

    def test_bad_C0_rejected(self):
        # C0 is default_C0(tau0), never an argument
        with pytest.raises(TypeError, match="C0"):
            lower_bound_I(self.gaussian, 5.0, 3.0, tau0=1.0, C0=1.5)
        with pytest.raises(DomainError):
            default_C0(0.0)
