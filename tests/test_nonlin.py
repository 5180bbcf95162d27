"""Tests for the logarithmic nonlinearity family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hypwave.hypgeo import DomainError
from hypwave.nonlin import (
    F_canonical,
    F_generic,
    G_envelope,
    NonlinearitySpec,
    _blend_coeffs,
    fit_A,
    lipschitz_diff_bound,
    nonlinearity,
)

GEN = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45, A=2.0, kind="piecewise_generic")
GEN35 = NonlinearitySpec(p=3.5, q=2.5, delta0=0.3, A=2.0, kind="piecewise_generic")


class TestSpec:
    def test_valid(self):
        s = NonlinearitySpec(p=3.5, q=2.0, delta0=0.45, A=2.0)
        assert s.kind == "canonical_sinh_inverse"

    @pytest.mark.parametrize(
        "kw",
        [
            dict(p=1.0, q=2.0, delta0=0.5, A=1.0),
            dict(p=2.0, q=0.9, delta0=0.5, A=1.0),
            dict(p=2.0, q=2.0, delta0=0.0, A=1.0),
            dict(p=2.0, q=2.0, delta0=1.0, A=1.0),
            dict(p=2.0, q=2.0, delta0=0.5, A=0.0),
            dict(p=2.0, q=2.0, delta0=0.5, A=1.0, kind="cubic"),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            NonlinearitySpec(**kw)


class TestFCanonical:
    def test_zero_at_zero(self):
        assert F_canonical(0.0, 2.5) == 0.0

    def test_unit_prefactor_point(self):
        # asinh(1/u) = 1 at u = 1/sinh(1): the prefactor is exactly 1
        u = 1.0 / np.sinh(1.0)
        for p in (2.0, 2.7, 3.5):
            assert_allclose(F_canonical(u, p), u, rtol=1e-15)

    @given(u=st.floats(-50.0, 50.0), p=st.floats(1.1, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_even_and_nonnegative(self, u, p):
        a = F_canonical(u, p)
        b = F_canonical(-u, p)
        assert a == b
        assert a >= 0.0

    def test_definition_identity_exact(self):
        # F(u) (asinh(1/|u|))^{p-1} / |u| = 1 by construction
        rng = np.random.default_rng(7)
        u = rng.uniform(1e-6, 100.0, 200)
        for p in (2.0, 3.5):
            lhs = F_canonical(u, p) * np.arcsinh(1.0 / u) ** (p - 1.0) / u
            assert_allclose(lhs, 1.0, rtol=1e-12)

    def test_vanishing_derivative_at_zero(self):
        # F(u)/u must decrease toward 0 along u = 1e-4, 1e-8, 1e-12
        p = 2.5
        ratios = [F_canonical(u, p) / u for u in (1e-4, 1e-8, 1e-12)]
        assert ratios[0] > ratios[1] > ratios[2] > 0.0

    def test_small_u_asymptotics(self):
        # F(u) ~ (ln 1/u)^{1-p} u from below; the ratio improves as u drops.
        # At u = 1e-8 the true deviation is 8.8 percent, reaching 5 percent
        # only near u = 1e-16.
        p = 3.5
        devs = []
        for u in (1e-4, 1e-8, 1e-12, 1e-16):
            ratio = F_canonical(u, p) / ((np.log(1.0 / u)) ** (1.0 - p) * u)
            devs.append(abs(ratio - 1.0))
        assert devs[0] > devs[1] > devs[2] > devs[3]
        assert devs[1] < 0.10
        assert devs[3] < 0.05

    def test_large_u_power_growth(self):
        # asinh(1/u) ~ 1/u for large u, so F ~ u^p
        p = 3.0
        for u in (1e3, 1e5):
            assert_allclose(F_canonical(u, p), u**p, rtol=1e-5)

    def test_bad_p(self):
        with pytest.raises(DomainError):
            F_canonical(1.0, 1.0)

    def test_array_input(self):
        u = np.array([-1.0, 0.0, 1.0])
        out = F_canonical(u, 2.0)
        assert out.shape == (3,)
        assert out[1] == 0.0 and out[0] == out[2]


class TestFGeneric:
    def test_zero_at_zero(self):
        assert F_generic(0.0, GEN) == 0.0

    def test_small_branch_is_exact_equality(self):
        # published formula: F = delta0 (ln 1/|u|)^{1-p} |u| below delta0
        u = GEN.delta0 / 2.0
        want = GEN.delta0 * np.log(1.0 / u) ** (1.0 - GEN.p) * u
        assert_allclose(F_generic(u, GEN), want, rtol=1e-14)
        assert F_generic(u, GEN) >= want * (1 - 1e-14)

    def test_power_branch_is_exact_equality(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.1, A=2.0,
                                kind="piecewise_generic")
        # |u| = 2/delta0 = 20: F = delta0 u^2 = 40
        assert_allclose(F_generic(20.0, spec), 40.0, rtol=1e-14)
        assert F_generic(20.0, spec) >= spec.delta0 * 20.0**spec.q - 1e-12

    @pytest.mark.parametrize("spec", [GEN, GEN35], ids=["p=q=2", "p3.5-q2.5"])
    def test_lower_bounds_on_both_branches(self, spec):
        rng = np.random.default_rng(11)
        u_small = rng.uniform(1e-12, spec.delta0, 1000)
        got = F_generic(u_small, spec)
        want = spec.delta0 * np.log(1.0 / u_small) ** (1.0 - spec.p) * u_small
        assert np.all(got >= want * (1 - 1e-12))
        u_large = rng.uniform(1.0 / spec.delta0, 50.0, 1000)
        got = F_generic(u_large, spec)
        assert np.all(got >= spec.delta0 * u_large**spec.q * (1 - 1e-12))

    @pytest.mark.parametrize("spec", [GEN, GEN35], ids=["p=q=2", "p3.5-q2.5"])
    def test_c1_at_junctions(self, spec):
        for u0 in (spec.delta0, 1.0 / spec.delta0):
            h = 1e-7 * u0
            left = (F_generic(u0, spec) - F_generic(u0 - h, spec)) / h
            right = (F_generic(u0 + h, spec) - F_generic(u0, spec)) / h
            assert_allclose(left, right, rtol=1e-5)

    @pytest.mark.parametrize("spec", [GEN, GEN35], ids=["p=q=2", "p3.5-q2.5"])
    def test_monotone_in_magnitude(self, spec):
        u = np.geomspace(1e-10, 100.0, 3000)
        vals = F_generic(u, spec)
        assert np.all(np.diff(vals) > 0)

    def test_even(self):
        assert F_generic(-0.2, GEN) == F_generic(0.2, GEN)
        assert F_generic(-7.0, GEN) == F_generic(7.0, GEN)

    def test_wrong_kind_rejected(self):
        canon = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45, A=2.0)
        with pytest.raises(DomainError, match="piecewise_generic"):
            F_generic(0.1, canon)

    def test_nonmonotone_blend_rejected(self):
        # a tiny delta0 with small q makes the blend chord far flatter than
        # the left branch slope, which the Hermite cannot track monotonically
        with pytest.raises(DomainError, match="monotone"):
            NonlinearitySpec(p=30.0, q=1.01, delta0=0.9, A=2.0,
                             kind="piecewise_generic")


def _hermite(x, xl, xr, gl, dgl, gr, dgr):
    """The cubic Hermite interpolant of (gl, dgl) at xl and (gr, dgr) at xr."""
    h = xr - xl
    s = (x - xl) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * gl + h10 * h * dgl + h01 * gr + h11 * h * dgr


def F_generic_all_branches(u, spec):
    """The earlier F_generic, kept as the reference: all three branches on
    every point, then np.select."""
    coeffs = _blend_coeffs(spec.p, spec.q, spec.delta0)
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    safe = np.where(au > 0, au, 0.5)
    x = np.log(safe)
    log_base = np.where(x < 0, -x, 1.0)
    small = spec.delta0 * log_base ** (1.0 - spec.p) * safe
    large = spec.delta0 * safe**spec.q
    blend = np.exp(_hermite(x, *coeffs))
    out = np.select(
        [au == 0.0, au <= spec.delta0, au >= 1.0 / spec.delta0],
        [0.0, small, large],
        default=blend,
    )
    if out.ndim == 0:
        return float(out)
    return out


def generic(p, q=2.0, delta0=0.45):
    return NonlinearitySpec(p=p, q=q, delta0=delta0, A=2.0,
                            kind="piecewise_generic")


# the ids of the first three are their p
BRANCH_SPECS = [generic(1.5), generic(2.0), generic(2.5), generic(2.0, q=3.0),
                generic(3.5, q=2.5, delta0=0.3)]
BRANCH_IDS = ["1.5", "2.0", "2.5", "q=3", "delta0=0.3"]


def evaluators(spec):
    """F_generic and the per-spec callable that nonlinearity returns."""
    return [lambda u: F_generic(u, spec), nonlinearity(spec)]


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


class TestFGenericBranchOnly:
    """F_generic evaluates each branch only where it applies; every finite
    or infinite input keeps its bits, through F_generic and through
    nonlinearity(spec) alike."""

    @pytest.mark.parametrize("spec", BRANCH_SPECS, ids=BRANCH_IDS)
    def test_bitwise_equal_to_all_branches(self, spec):
        mag = np.geomspace(1e-300, 1e300, 60001)
        d = spec.delta0
        special = [0.0, d, 1.0 / d, np.nextafter(d, 1.0),
                   np.nextafter(1.0 / d, 0.0), 5e-324, np.inf]
        u = np.concatenate([mag, -mag, special, np.negative(special)])
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want = F_generic_all_branches(u, spec)
        for F in evaluators(spec):
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                got = F(u)
                strided = F(u[::-3])
            assert bits(got) == bits(want)
            assert bits(strided) == bits(want[::-3])
            for v in special + [-x for x in special]:
                with np.errstate(over="ignore", under="ignore",
                                 invalid="ignore"):
                    ref = F_generic_all_branches(v, spec)
                    one = F(v)
                    zero_d = F(np.array(v))
                assert type(one) is float and type(zero_d) is float
                assert bits(one) == bits(zero_d) == bits(ref)

    @pytest.mark.parametrize("spec", BRANCH_SPECS, ids=BRANCH_IDS)
    def test_nan_maps_to_nan(self, spec):
        # the reference sends NaN to F(0.5) (its placeholder for u = 0 is
        # picked by np.where(au > 0, ...)); the branch-only rule keeps NaN
        for F in evaluators(spec):
            assert np.isnan(F(np.nan))
            out = F(np.array([np.nan, 0.3, -np.nan]))
            assert np.isnan(out[0]) and np.isnan(out[2])
            assert out[1] == F_generic_all_branches(0.3, spec)

    def test_specs_interleaved(self):
        # each spec's callable keeps its own constants, however calls to
        # different specs alternate
        u = np.linspace(-4.0, 4.0, 4001)
        a, b = BRANCH_SPECS[0], BRANCH_SPECS[-1]
        want = {a: bits(F_generic_all_branches(u, a)),
                b: bits(F_generic_all_branches(u, b))}
        assert want[a] != want[b]
        for _ in range(3):
            for spec in (a, b):
                assert bits(nonlinearity(spec)(u)) == want[spec]
                assert bits(F_generic(u, spec)) == want[spec]
        assert nonlinearity(a) is nonlinearity(generic(1.5))
        assert nonlinearity(a) is not nonlinearity(b)


class TestGEnvelope:
    def test_example_values(self):
        assert_allclose(G_envelope(np.exp(-10.0), 3.5, 2.0), 2.0 * 10.0**-2.5,
                        rtol=1e-14)
        assert_allclose(G_envelope(np.exp(-1.0), 2.0, 1.0), 1.0, rtol=1e-14)

    def test_monotone(self):
        assert G_envelope(np.exp(-10.0), 3.0, 2.0) < G_envelope(np.exp(-5.0), 3.0, 2.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            G_envelope(0.0, 2.0, 2.0)
        with pytest.raises(DomainError):
            G_envelope(0.6, 2.0, 2.0)  # above 1/A


class TestFitA:
    @pytest.mark.parametrize("kind", ["canonical_sinh_inverse", "piecewise_generic"])
    @pytest.mark.parametrize("p", [2.0, 3.5])
    def test_envelope_dominates_derivative(self, kind, p):
        spec = NonlinearitySpec(p=p, q=2.0, delta0=0.45, A=2.0, kind=kind)
        A = fit_A(spec)
        assert A >= 2.0
        spec = NonlinearitySpec(p=p, q=2.0, delta0=0.45, A=A, kind=kind)
        F = nonlinearity(spec)
        u = np.geomspace(1e-12, 1.0 / A, 2001)
        h = 1e-6 * u
        dF = np.abs(F(u + h) - F(u - h)) / (2.0 * h)
        assert np.all(dF <= G_envelope(u, p, A) * (1 + 1e-4))

    def test_floor_respected(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45, A=1.0)
        assert fit_A(spec, floor=17.0) >= 17.0


class TestLipschitzBound:
    @pytest.mark.parametrize("kind", ["canonical_sinh_inverse", "piecewise_generic"])
    @pytest.mark.parametrize("p", [2.0, 3.5])
    def test_ten_thousand_random_pairs(self, kind, p):
        spec = NonlinearitySpec(p=p, q=2.0, delta0=0.45, A=2.0, kind=kind)
        A = fit_A(spec)
        spec = NonlinearitySpec(p=p, q=2.0, delta0=0.45, A=A, kind=kind)
        rng = np.random.default_rng(20260819)
        u = rng.uniform(-1.0 / A, 1.0 / A, 10000)
        v = rng.uniform(-1.0 / A, 1.0 / A, 10000)
        for ui, vi in zip(u, v):
            diff, bound = lipschitz_diff_bound(ui, vi, spec)
            assert diff <= bound * (1 + 1e-9) + 1e-300

    def test_equal_arguments(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45, A=4.0)
        assert lipschitz_diff_bound(0.1, 0.1, spec) == (0.0, 0.0)
        assert lipschitz_diff_bound(0.0, 0.0, spec) == (0.0, 0.0)

    def test_against_zero(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45, A=4.0)
        diff, bound = lipschitz_diff_bound(1e-8, 0.0, spec)
        assert_allclose(diff, F_canonical(1e-8, 2.0), rtol=1e-14)
        assert diff <= bound

    def test_domain_enforced(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45, A=4.0)
        with pytest.raises(DomainError, match="1/A"):
            lipschitz_diff_bound(0.3, 0.1, spec)


class TestNonlinearityDispatch:
    def test_canonical(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45, A=2.0)
        F = nonlinearity(spec)
        assert F(0.25) == F_canonical(0.25, 2.0)

    def test_generic(self):
        F = nonlinearity(GEN)
        assert F(0.25) == F_generic(0.25, GEN)
