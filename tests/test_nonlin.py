"""Tests for the logarithmic nonlinearity family."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hypwave.globalsolver import clear_caches
from hypwave.hypgeo import DomainError
from hypwave.nonlin import (
    G_envelope,
    NonlinearitySpec,
    _blend_coeffs,
    _canonical,
    fit_A,
    lipschitz_diff_bound,
    nonlinearity,
)

GEN = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45, kind="piecewise_generic")
GEN35 = NonlinearitySpec(p=3.5, q=2.5, delta0=0.3, kind="piecewise_generic")


def canonical(p):
    """The canonical F of p, through the one public entry to F."""
    return nonlinearity(NonlinearitySpec(p=p, q=2.0, delta0=0.45))


class TestSpec:
    def test_valid(self):
        s = NonlinearitySpec(p=3.5, q=2.0, delta0=0.45)
        assert s.kind == "canonical_sinh_inverse"

    @pytest.mark.parametrize(
        "kw",
        [
            dict(p=1.0, q=2.0, delta0=0.5),
            dict(p=2.0, q=0.9, delta0=0.5),
            dict(p=2.0, q=2.0, delta0=0.0),
            dict(p=2.0, q=2.0, delta0=1.0),
            # a blend that is not monotone
            dict(p=4.0, q=2.0, delta0=0.45, kind="piecewise_generic"),
            dict(p=2.0, q=2.0, delta0=0.5, kind="cubic"),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            NonlinearitySpec(**kw)

    @pytest.mark.parametrize("name", ["p", "q"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_exponent_rejected(self, name, value):
        # q = inf would pass the blend's monotone check, whose comparisons
        # with NaN are all false
        kw = dict(p=2.0, q=2.0, delta0=0.45, kind="piecewise_generic")
        with pytest.raises(DomainError, match=(
                f"^{name} must exceed 1 and be finite, got {value}$")):
            NonlinearitySpec(**{**kw, name: value})


class TestFCanonical:
    def test_zero_at_zero(self):
        assert canonical(2.5)(0.0) == 0.0

    def test_unit_prefactor_point(self):
        # asinh(1/u) = 1 at u = 1/sinh(1): the prefactor is exactly 1
        u = 1.0 / np.sinh(1.0)
        for p in (2.0, 2.7, 3.5):
            assert_allclose(canonical(p)(u), u, rtol=1e-15)

    @given(u=st.floats(-50.0, 50.0), p=st.floats(1.1, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_even_and_nonnegative(self, u, p):
        a = canonical(p)(u)
        b = canonical(p)(-u)
        assert a == b
        assert a >= 0.0

    def test_definition_identity_exact(self):
        # F(u) (asinh(1/|u|))^{p-1} / |u| = 1 by construction
        rng = np.random.default_rng(7)
        u = rng.uniform(1e-6, 100.0, 200)
        for p in (2.0, 3.5):
            lhs = canonical(p)(u) * np.arcsinh(1.0 / u) ** (p - 1.0) / u
            assert_allclose(lhs, 1.0, rtol=1e-12)

    def test_vanishing_derivative_at_zero(self):
        # F(u)/u must decrease toward 0 along u = 1e-4, 1e-8, 1e-12
        p = 2.5
        ratios = [canonical(p)(u) / u for u in (1e-4, 1e-8, 1e-12)]
        assert ratios[0] > ratios[1] > ratios[2] > 0.0

    def test_small_u_asymptotics(self):
        # F(u) ~ (ln 1/u)^{1-p} u from below; the ratio improves as u drops.
        # At u = 1e-8 the true deviation is 8.8 percent, reaching 5 percent
        # only near u = 1e-16.
        p = 3.5
        devs = []
        for u in (1e-4, 1e-8, 1e-12, 1e-16):
            ratio = canonical(p)(u) / ((np.log(1.0 / u)) ** (1.0 - p) * u)
            devs.append(abs(ratio - 1.0))
        assert devs[0] > devs[1] > devs[2] > devs[3]
        assert devs[1] < 0.10
        assert devs[3] < 0.05

    def test_large_u_power_growth(self):
        # asinh(1/u) ~ 1/u for large u, so F ~ u^p
        p = 3.0
        for u in (1e3, 1e5):
            assert_allclose(canonical(p)(u), u**p, rtol=1e-5)

    def test_bad_p(self):
        with pytest.raises(DomainError, match="p must exceed 1"):
            canonical(1.0)

    def test_array_input(self):
        u = np.array([-1.0, 0.0, 1.0])
        out = canonical(2.0)(u)
        assert out.shape == (3,)
        assert out[1] == 0.0 and out[0] == out[2]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.5, 5.0])
    def test_bitwise_equal_to_the_guarded_form(self, p):
        # every number keeps the bits of the form that guarded u = 0; a
        # scalar or 0-d u gives its array element's bits
        mag = np.geomspace(1e-300, 1e300, 60001)
        u = np.concatenate([mag, -mag, [0.0, -0.0, 5e-324, np.inf, -np.inf]])
        with np.errstate(over="ignore", divide="ignore"):
            want = F_canonical_guarded(u, p)
        F = canonical(p)
        assert bits(F(u)) == bits(want)
        assert bits(F(u[::-3])) == bits(want[::-3])
        for i in range(0, u.size, 997):
            one, zero_d = F(u[i]), F(np.array(u[i]))
            assert type(one) is float and type(zero_d) is float
            assert bits(one) == bits(zero_d) == bits(want[i])

    def test_nan_maps_to_nan(self):
        # as the piecewise F does: a NaN iterate is not a zero source
        F = canonical(3.5)
        assert np.isnan(F(np.nan))
        out = F(np.array([np.nan, 0.0, -np.nan, 0.3]))
        assert np.isnan(out[0]) and np.isnan(out[2])
        assert out[1] == 0.0 and out[3] == F(0.3)

    def test_infinity_without_warning(self):
        # the limits at 0, +-inf, a subnormal u and |u|^p past the largest
        # double raise no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert canonical(3.5)(np.inf) == canonical(2.0)(-np.inf) == np.inf
            out = canonical(1.5)(np.array([np.inf, -np.inf, 0.0, 5e-324, 1e300]))
        assert out.tolist() == [np.inf, np.inf, 0.0, 0.0, np.inf]

    def test_one_cached_callable_per_p(self):
        spec = NonlinearitySpec(p=3.5, q=2.0, delta0=0.45)
        clear_caches()
        assert _canonical.cache_info().currsize == 0
        F = nonlinearity(spec)
        assert F is nonlinearity(spec)
        assert F is nonlinearity(NonlinearitySpec(p=3.5, q=3.0, delta0=0.3))
        assert F is not nonlinearity(NonlinearitySpec(p=4.0, q=2.0, delta0=0.45))
        assert _canonical.cache_info().hits == 2
        clear_caches()
        assert _canonical.cache_info().currsize == 0
        assert nonlinearity(spec) is not F


class TestFGeneric:
    def test_zero_at_zero(self):
        assert nonlinearity(GEN)(0.0) == 0.0

    def test_small_branch_is_exact_equality(self):
        # published formula: F = delta0 (ln 1/|u|)^{1-p} |u| below delta0
        u = GEN.delta0 / 2.0
        want = GEN.delta0 * np.log(1.0 / u) ** (1.0 - GEN.p) * u
        F = nonlinearity(GEN)
        assert_allclose(F(u), want, rtol=1e-14)
        assert F(u) >= want * (1 - 1e-14)

    def test_power_branch_is_exact_equality(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.1,
                                kind="piecewise_generic")
        # |u| = 2/delta0 = 20: F = delta0 u^2 = 40
        F = nonlinearity(spec)
        assert_allclose(F(20.0), 40.0, rtol=1e-14)
        assert F(20.0) >= spec.delta0 * 20.0**spec.q - 1e-12

    @pytest.mark.parametrize("spec", [GEN, GEN35], ids=["p=q=2", "p3.5-q2.5"])
    def test_lower_bounds_on_both_branches(self, spec):
        F = nonlinearity(spec)
        rng = np.random.default_rng(11)
        u_small = rng.uniform(1e-12, spec.delta0, 1000)
        got = F(u_small)
        want = spec.delta0 * np.log(1.0 / u_small) ** (1.0 - spec.p) * u_small
        assert np.all(got >= want * (1 - 1e-12))
        u_large = rng.uniform(1.0 / spec.delta0, 50.0, 1000)
        got = F(u_large)
        assert np.all(got >= spec.delta0 * u_large**spec.q * (1 - 1e-12))

    @pytest.mark.parametrize("spec", [GEN, GEN35], ids=["p=q=2", "p3.5-q2.5"])
    def test_c1_at_junctions(self, spec):
        F = nonlinearity(spec)
        for u0 in (spec.delta0, 1.0 / spec.delta0):
            h = 1e-7 * u0
            left = (F(u0) - F(u0 - h)) / h
            right = (F(u0 + h) - F(u0)) / h
            assert_allclose(left, right, rtol=1e-5)

    @pytest.mark.parametrize("spec", [GEN, GEN35], ids=["p=q=2", "p3.5-q2.5"])
    def test_monotone_in_magnitude(self, spec):
        u = np.geomspace(1e-10, 100.0, 3000)
        vals = nonlinearity(spec)(u)
        assert np.all(np.diff(vals) > 0)

    def test_even(self):
        F = nonlinearity(GEN)
        assert F(-0.2) == F(0.2)
        assert F(-7.0) == F(7.0)

    def test_nonmonotone_blend_rejected(self):
        # a tiny delta0 with small q makes the blend chord far flatter than
        # the left branch slope, which the Hermite cannot track monotonically
        with pytest.raises(DomainError, match="monotone"):
            NonlinearitySpec(p=30.0, q=1.01, delta0=0.9,
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


def F_canonical_guarded(u, p):
    """The canonical F's earlier form, kept as the reference: u = 0 guarded by
    np.where on both 1/|u| and the result (so a NaN gave 0)."""
    au = np.abs(np.asarray(u, dtype=float))
    safe = np.where(au > 0, au, 1.0)
    return np.where(au > 0, np.arcsinh(1.0 / safe) ** (1.0 - p) * au, 0.0)


def F_generic_all_branches(u, spec):
    """The piecewise F's earlier form, kept as the reference: all three branches on
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
    return NonlinearitySpec(p=p, q=q, delta0=delta0,
                            kind="piecewise_generic")


# the ids of the first three are their p
BRANCH_SPECS = [generic(1.5), generic(2.0), generic(2.5), generic(2.0, q=3.0),
                generic(3.5, q=2.5, delta0=0.3)]
BRANCH_IDS = ["1.5", "2.0", "2.5", "q=3", "delta0=0.3"]


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


class TestFGenericBranchOnly:
    """The piecewise F evaluates each branch only where it applies; every
    finite or infinite input keeps its bits."""

    @pytest.mark.parametrize("spec", BRANCH_SPECS, ids=BRANCH_IDS)
    def test_bitwise_equal_to_all_branches(self, spec):
        mag = np.geomspace(1e-300, 1e300, 60001)
        d = spec.delta0
        special = [0.0, d, 1.0 / d, np.nextafter(d, 1.0),
                   np.nextafter(1.0 / d, 0.0), 5e-324, np.inf]
        u = np.concatenate([mag, -mag, special, np.negative(special)])
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want = F_generic_all_branches(u, spec)
        F = nonlinearity(spec)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = F(u)
            strided = F(u[::-3])
        assert bits(got) == bits(want)
        assert bits(strided) == bits(want[::-3])
        for v in special + [-x for x in special]:
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                ref = F_generic_all_branches(v, spec)
                one = F(v)
                zero_d = F(np.array(v))
            assert type(one) is float and type(zero_d) is float
            assert bits(one) == bits(zero_d) == bits(ref)

    @pytest.mark.parametrize("spec", BRANCH_SPECS, ids=BRANCH_IDS)
    def test_nan_maps_to_nan(self, spec):
        # the reference sends NaN to F(0.5) (its placeholder for u = 0 is
        # picked by np.where(au > 0, ...)); the branch-only rule keeps NaN
        F = nonlinearity(spec)
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


# the spec on which A = 2 breaks the difference bound
P4Q3 = NonlinearitySpec(p=4.0, q=3.0, delta0=0.45, kind="piecewise_generic")


class TestFitA:
    @pytest.mark.parametrize("kind", ["canonical_sinh_inverse", "piecewise_generic"])
    @pytest.mark.parametrize("p", [2.0, 3.5])
    def test_envelope_dominates_derivative(self, kind, p):
        spec = NonlinearitySpec(p=p, q=2.0, delta0=0.45, kind=kind)
        A = spec.A
        assert A >= 2.0
        F = nonlinearity(spec)
        u = np.geomspace(1e-12, 1.0 / A, 2001)
        h = 1e-6 * u
        dF = np.abs(F(u + h) - F(u - h)) / (2.0 * h)
        assert np.all(dF <= G_envelope(u, p, A) * (1 + 1e-4))

    @pytest.mark.parametrize("spec", [
        NonlinearitySpec(p=p, q=2.0, delta0=0.45, kind=kind)
        for kind in ("canonical_sinh_inverse", "piecewise_generic")
        for p in (2.0, 3.1, 3.25, 3.5)] + [
        NonlinearitySpec(p=4.0, q=2.0, delta0=0.45),
        NonlinearitySpec(p=5.0, q=2.0, delta0=0.45), GEN35, P4Q3])
    def test_spec_A_is_fit_A(self, spec):
        # 2.0 exactly wherever the configs of the bench and the tests run
        want = 2.2408563610957946 if spec is P4Q3 else 2.0
        assert bits(spec.A) == bits(fit_A(spec)) == bits(want)

    def test_A_is_computed_once_on_first_read(self, monkeypatch):
        import hypwave.nonlin as nonlin

        calls = []
        monkeypatch.setattr(nonlin, "fit_A", lambda spec: calls.append(spec) or 3.0)
        spec = NonlinearitySpec(p=2.5, q=2.0, delta0=0.45)
        nonlinearity(spec)(0.1)
        assert calls == []
        assert spec.A == spec.A == 3.0
        assert calls == [spec]

    def test_A_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="A"):
            NonlinearitySpec(p=2.0, q=2.0, delta0=0.45, A=2.0)


class TestLipschitzBound:
    @pytest.mark.parametrize("kind", ["canonical_sinh_inverse", "piecewise_generic"])
    @pytest.mark.parametrize("p", [2.0, 3.5])
    def test_ten_thousand_random_pairs(self, kind, p):
        spec = NonlinearitySpec(p=p, q=2.0, delta0=0.45, kind=kind)
        assert_pairs_bounded(spec)

    def test_ten_thousand_random_pairs_where_A_2_breaks(self):
        # with A = 2 this pair's difference exceeds G(max) |u - v|
        u, v = 0.4503, 0.4494
        F = nonlinearity(P4Q3)
        diff = abs(F(u) - F(v))
        assert_allclose(diff, 3.777e-3, rtol=1e-3)
        assert diff > G_envelope(u, 4.0, 2.0) * (u - v)
        assert_pairs_bounded(P4Q3)

    def test_equal_arguments(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45)
        assert lipschitz_diff_bound(0.1, 0.1, spec) == (0.0, 0.0)
        assert lipschitz_diff_bound(0.0, 0.0, spec) == (0.0, 0.0)

    def test_against_zero(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45)
        diff, bound = lipschitz_diff_bound(1e-8, 0.0, spec)
        assert_allclose(diff, nonlinearity(spec)(1e-8), rtol=1e-14)
        assert diff <= bound

    def test_domain_enforced(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45)  # 1/A = 0.5
        with pytest.raises(DomainError, match="1/A"):
            lipschitz_diff_bound(0.6, 0.1, spec)


def assert_pairs_bounded(spec):
    """lipschitz_diff_bound holds on 10,000 random pairs in [-1/A, 1/A]."""
    A = spec.A
    rng = np.random.default_rng(20260819)
    u = rng.uniform(-1.0 / A, 1.0 / A, 10000)
    v = rng.uniform(-1.0 / A, 1.0 / A, 10000)
    for ui, vi in zip(u, v):
        diff, bound = lipschitz_diff_bound(ui, vi, spec)
        assert diff <= bound * (1 + 1e-9) + 1e-300


class TestNonlinearityDispatch:
    def test_canonical(self):
        spec = NonlinearitySpec(p=2.0, q=2.0, delta0=0.45)
        F = nonlinearity(spec)
        assert bits(F(0.25)) == bits(F_canonical_guarded(0.25, 2.0))

    def test_generic(self):
        F = nonlinearity(GEN)
        assert bits(F(0.25)) == bits(F_generic_all_branches(0.25, GEN))
