"""Tests for extended scalar fields and their gradients."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from normalshift.errors import EvaluationFailure
from normalshift.extended_fields import (
    ExtendedScalar,
    IsotropicScalar,
    isotropic_second_speed_derivative,
    isotropic_speed_derivative,
    lift_isotropic,
    spatial_gradient,
    spatial_gradient_isotropic,
    velocity_gradient,
    velocity_hessian,
)
from normalshift.tensor_core import unit_direction

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
        m = wavy_conformal_metric()
        phi = lift_isotropic(IsotropicScalar(eval=wavy_isotropic().eval), m)
        rng = np.random.default_rng(31)
        for _ in range(5):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            raw = velocity_hessian(phi, x, v)
            assert np.max(np.abs(raw - raw.T)) < 1e-6

    def test_analytic_closure_used(self):
        marker = np.full((3, 3), 7.0)
        phi = ExtendedScalar(
            eval=lambda x, v: 0.0, dv2=lambda x, v: marker.copy()
        )
        got = velocity_hessian(phi, np.zeros(3), np.ones(3))
        assert np.array_equal(got, marker)
