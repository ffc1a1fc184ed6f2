"""Tests for extended scalar fields and their gradients."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from normalshift.errors import EvaluationFailure
from normalshift.extended_fields import (
    ExtendedScalar,
    IsotropicScalar,
    fiber_hessian,
    isotropic_second_speed_derivative,
    isotropic_speed_derivative,
    lift_isotropic,
    spatial_gradient,
    spatial_gradient_isotropic,
    velocity_gradient,
    velocity_hessian,
)
from normalshift.tensor_core import FD_STEP, unit_direction

from helpers import (
    conformal_metric,
    diagonal_metric,
    euclidean_metric,
    random_point,
    random_velocity,
    wavy_conformal_metric,
)

BOX = np.array([[0.5, 1.5], [0.5, 1.5], [0.5, 1.5]])

CURVED_METRICS = [wavy_conformal_metric(), diagonal_metric(), conformal_metric()]


def lifted_speed_field():
    """|v| as an isotropic field: eval just returns the speed slot."""
    return IsotropicScalar(
        eval=lambda x, s: s,
        dx=lambda x, s: np.zeros(3),
        dspeed=lambda x, s: 1.0,
    )


class TestVelocityGradient:
    def test_quadratic_speed(self):
        phi = ExtendedScalar(eval=lambda x, v: float(v @ v))
        got = velocity_gradient(phi, np.zeros(3), np.array([1.0, 2.0, 0.0]))
        assert np.allclose(got, [2.0, 4.0, 0.0], atol=1e-9)

    def test_linear_field_returns_coefficients(self):
        b = np.array([0.3, -1.2, 0.7])
        phi = ExtendedScalar(eval=lambda x, v: float(b @ v))
        got = velocity_gradient(phi, np.ones(3), np.array([2.0, 1.0, -1.0]))
        assert np.allclose(got, b, atol=1e-10)

    @pytest.mark.parametrize("analytic", [True, False])
    def test_speed_gradient_is_unit_covector(self, analytic):
        # the fiber gradient of |v| is the covariant unit direction N_m
        m = wavy_conformal_metric()
        w = lifted_speed_field()
        if not analytic:
            w = IsotropicScalar(eval=w.eval)
        phi = lift_isotropic(w, m)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            got = velocity_gradient(phi, x, v)
            want = unit_direction(m, x, v).N_down
            tol = 1e-12 if analytic else 1e-7
            assert np.max(np.abs(got - want)) < tol

    def test_non_finite_rejected(self):
        phi = ExtendedScalar(eval=lambda x, v: float("nan"))
        with pytest.raises(EvaluationFailure, match="velocity gradient evaluated to a non-finite"):
            velocity_gradient(phi, np.zeros(3), np.ones(3))


class TestSpatialGradient:
    def test_constant_field(self):
        m = wavy_conformal_metric()
        phi = ExtendedScalar(eval=lambda x, v: 4.2)
        got = spatial_gradient(phi, m, np.array([0.7, 1.0, 0.9]), np.ones(3))
        assert np.max(np.abs(got)) < 1e-10

    def test_coordinate_function_flat(self):
        m = euclidean_metric()
        phi = ExtendedScalar(eval=lambda x, v: float(x[0]))
        got = spatial_gradient(phi, m, np.array([0.2, 0.4, 0.6]), np.ones(3))
        assert np.allclose(got, [1.0, 0.0, 0.0], atol=1e-10)

    @pytest.mark.parametrize("metric_idx", range(len(CURVED_METRICS)))
    def test_speed_has_zero_spatial_gradient(self, metric_idx):
        # the modulus of velocity is covariantly constant in x on any metric
        m = CURVED_METRICS[metric_idx]
        phi = lift_isotropic(IsotropicScalar(eval=lambda x, s: s), m)
        rng = np.random.default_rng(11 + metric_idx)
        for _ in range(10):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            got = spatial_gradient(phi, m, x, v)
            assert np.max(np.abs(got)) < 1e-6


class TestIsotropicGradient:
    def test_no_x_dependence(self):
        w = IsotropicScalar(eval=lambda x, s: s)
        got = spatial_gradient_isotropic(w, np.ones(3), 1.3)
        assert np.max(np.abs(got)) < 1e-10

    def test_exponential_generator(self):
        # W = v exp(-x^1): dW/dx = (-v exp(-x^1), 0, 0)
        w = IsotropicScalar(eval=lambda x, s: s * np.exp(-x[0]))
        x = np.array([0.4, 2.0, -1.0])
        got = spatial_gradient_isotropic(w, x, 1.7)
        want = np.array([-1.7 * np.exp(-0.4), 0.0, 0.0])
        assert np.allclose(got, want, atol=1e-8)

    def test_additive_coordinate(self):
        w = IsotropicScalar(eval=lambda x, s: x[0] + s)
        got = spatial_gradient_isotropic(w, np.zeros(3), 0.9)
        assert np.allclose(got, [1.0, 0.0, 0.0], atol=1e-9)

    def test_positive_speed_required(self):
        w = IsotropicScalar(eval=lambda x, s: s)
        with pytest.raises(EvaluationFailure):
            spatial_gradient_isotropic(w, np.zeros(3), 0.0)


def wavy_isotropic():
    """W = s^2 exp(-f) + sin(x^2) s, with analytic partials."""

    def eval_(x, s):
        return s**2 * np.exp(-x[0]) + np.sin(x[1]) * s

    def dx(x, s):
        return np.array([-(s**2) * np.exp(-x[0]), np.cos(x[1]) * s, 0.0])

    def dspeed(x, s):
        return 2.0 * s * np.exp(-x[0]) + np.sin(x[1])

    return IsotropicScalar(eval=eval_, dx=dx, dspeed=dspeed)


class TestCancellation:
    """The transport term cancels for modulus-only fields on curved metrics."""

    @pytest.mark.parametrize("metric_idx", range(len(CURVED_METRICS)))
    @pytest.mark.parametrize("analytic_lift", [True, False])
    def test_lifted_matches_isotropic(self, metric_idx, analytic_lift):
        m = CURVED_METRICS[metric_idx]
        w = wavy_isotropic()
        if not analytic_lift:
            w = IsotropicScalar(eval=w.eval)
        phi = lift_isotropic(w, m)
        rng = np.random.default_rng(23 + metric_idx)
        for _ in range(100):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            speed = unit_direction(m, x, v).speed
            long_route = spatial_gradient(phi, m, x, v)
            short_route = spatial_gradient_isotropic(wavy_isotropic(), x, speed)
            assert np.max(np.abs(long_route - short_route)) < 1e-6


class TestAnalyticVsFiniteDifference:
    @seed(29)
    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.6, 1.8), st.floats(0.6, 1.8))
    def test_gradients_agree(self, a, b):
        m = wavy_conformal_metric()
        x = np.array([a, b, 1.0])
        v = np.array([0.8, -0.5, 0.4])
        w = wavy_isotropic()
        analytic = lift_isotropic(w, m)
        fd = ExtendedScalar(eval=analytic.eval)
        for op in (velocity_gradient, lambda phi, x, v: spatial_gradient(phi, m, x, v)):
            ga = op(analytic, x, v)
            gf = op(fd, x, v)
            assert np.max(np.abs(ga - gf)) < 1e-6

    def test_speed_derivatives_agree(self):
        w = wavy_isotropic()
        w_fd = IsotropicScalar(eval=w.eval)
        x = np.array([0.9, 1.2, 0.3])
        for s in (0.5, 1.0, 1.9):
            assert isotropic_speed_derivative(w, x, s) == pytest.approx(
                isotropic_speed_derivative(w_fd, x, s), abs=1e-8
            )
            assert isotropic_second_speed_derivative(w, x, s) == pytest.approx(
                isotropic_second_speed_derivative(w_fd, x, s), abs=1e-4
            )


class TestVelocityHessian:
    def test_quadratic_exact(self):
        q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 4.0]])
        phi = ExtendedScalar(eval=lambda x, v: float(v @ q @ v))
        got = velocity_hessian(phi, np.zeros(3), np.array([0.3, 0.8, -0.4]))
        assert np.allclose(got, 2.0 * q, atol=1e-6)

    def test_mixed_partials_commute(self):
        # a scalar with no dv takes second differences of itself, each mixed
        # partial filling both (r, s) and (s, r); one with an analytic dv and
        # no dv2 differences that gradient, whose mixed partials agree only
        # to within the differencing error
        m = wavy_conformal_metric()
        bare = lift_isotropic(IsotropicScalar(eval=wavy_isotropic().eval), m)
        with_dv = lift_isotropic(wavy_isotropic(), m)
        assert bare.dv is None and with_dv.dv is not None and with_dv.dv2 is None
        rng = np.random.default_rng(31)
        asymmetry = []
        for _ in range(5):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            raw = velocity_hessian(bare, x, v)
            assert np.array_equal(raw, raw.T)
            raw = velocity_hessian(with_dv, x, v)
            asymmetry.append(np.max(np.abs(raw - raw.T)))
            assert np.allclose(raw, velocity_hessian(bare, x, v), rtol=0, atol=1e-6)
        assert 0.0 < max(asymmetry) < 1e-6

    def test_route_calls(self):
        # no dv: eval at the 37 offsets of the direct stencil; an analytic
        # dv: that gradient at the 12 offsets of one Richardson difference
        calls = {"eval": 0, "dv": 0}

        def counted(name, fn):
            def inner(x, v):
                calls[name] += 1
                return fn(x, v)

            return inner

        q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 4.0]])
        value = counted("eval", lambda x, v: float(v @ q @ v))
        gradient = counted("dv", lambda x, v: 2.0 * q @ v)
        x, v = np.zeros(3), np.array([0.3, 0.8, -0.4])
        velocity_hessian(ExtendedScalar(eval=value), x, v)
        assert calls == {"eval": 37, "dv": 0}
        velocity_hessian(ExtendedScalar(eval=value, dv=gradient), x, v)
        assert calls == {"eval": 37, "dv": 12}

    def test_analytic_closure_used(self):
        marker = np.full((3, 3), 7.0)
        phi = ExtendedScalar(
            eval=lambda x, v: 0.0, dv2=lambda x, v: marker.copy()
        )
        got = velocity_hessian(phi, np.zeros(3), np.ones(3))
        assert np.array_equal(got, marker)


class TestFiberHessian:
    @pytest.mark.parametrize("n,values", [(3, 37), (4, 65)])
    def test_stack_is_one_call_with_hessian_axes_last(self, n, values):
        calls = []
        q = np.random.default_rng(32).normal(size=(n, n))

        def fn(u):
            calls.append(u.shape)
            return np.einsum("...i,ij,...j->...", u, q, u)

        v = np.random.default_rng(33).uniform(-1.0, 1.0, size=(4, n))
        got = fiber_hessian(fn, v)
        assert calls == [(4, values, n)]
        assert got.shape == (4, n, n)
        assert np.allclose(got, q + q.T, rtol=0, atol=1e-8)
        assert np.array_equal(got[1], fiber_hessian(fn, v[1]))

    @pytest.mark.parametrize("stack", [False, True], ids=["point", "stack"])
    def test_nan_at_one_offset_raises(self, stack):
        v0 = np.array([0.3, 0.8, -0.4])
        # the one offset at the coarse step along the second axis; the step
        # is sqrt(FD_STEP) here, since no entry of v0 exceeds 1
        spot = v0 + np.array([0.0, np.sqrt(FD_STEP), 0.0])

        def fn(u):
            value = np.sum(u**2, axis=-1)
            return np.where(np.all(u == spot, axis=-1), np.nan, value)

        with pytest.raises(EvaluationFailure, match="^fiber Hessian evaluated to a non-finite value$"):
            fiber_hessian(fn, np.stack([v0, -v0]) if stack else v0)
