import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from normalshift import force_builder
from normalshift.cli import _single_variable_fn
from normalshift.errors import (
    DegenerateWv,
    EvaluationFailure,
    NonMonotoneGauge,
    QuadratureFailure,
    ZeroVelocity,
)
from normalshift.extended_fields import (
    ExtendedScalar,
    IsotropicScalar,
    fiber_hessian,
    lift_isotropic,
    velocity_gradient,
    velocity_hessian,
)
from normalshift.expressions import parse_expression
from normalshift.force_builder import (
    QUADRATURE_ANCHORS,
    AnsatzField,
    GaugeMap,
    GeneratingScalar,
    ansatz_A,
    ansatz_fiber_hessian,
    ansatz_force_field,
    ansatz_from_generator,
    ansatz_scalar,
    ansatz_value,
    as_force_field,
    builtin_geodesic,
    builtin_metrizable,
    builtin_nonmetrizable,
    coefficient_gradient,
    coefficient_pack,
    coefficient_speed_derivative,
    coefficients,
    compute_a,
    compute_b,
    coordinate_scalar,
    force_from_A,
    force_from_W,
    gauge_transform,
    h_values,
    takes_arrays,
)
from normalshift.normality_verifier import SampleSpec, residual_reduced, sample_states
from normalshift.tensor_core import (
    christoffel_at,
    direction_from,
    metric_at,
    speed_at,
    unit_direction,
)

from helpers import (
    conformal_metric,
    euclidean_metric,
    quad_anchor_table,
    random_point,
    random_velocity,
    wavy_conformal_metric,
)

BOX = [[0.25, 1.25], [0.25, 1.25], [0.25, 1.25]]
BOX_COORD = st.floats(0.25, 1.25)


def speed_scalar():
    return IsotropicScalar(
        eval=lambda x, s: s,
        dx=lambda x, s: np.zeros(3),
        dspeed=lambda x, s: 1.0,
    )


def zero_scalar():
    return IsotropicScalar(
        eval=lambda x, s: 0.0,
        dx=lambda x, s: np.zeros(3),
        dspeed=lambda x, s: 0.0,
    )


def bumpy_position_scalar():
    """f(x) = 0.3 sin(x1) + 0.1 x2 x3, position-only, with exact gradient."""

    def ev(x, s):
        return 0.3 * math.sin(x[0]) + 0.1 * x[1] * x[2]

    def dx(x, s):
        return np.array([0.3 * math.cos(x[0]), 0.1 * x[2], 0.1 * x[1]])

    return IsotropicScalar(eval=ev, dx=dx, dspeed=lambda x, s: 0.0)


def generic_generator():
    """W = |v| e^{-f} + 0.2 |v|^2 with h(w) = w/2: speed-dependent b and a."""
    f = bumpy_position_scalar()

    def ev(x, s):
        return s * math.exp(-f.eval(x, s)) + 0.2 * s * s

    def dx(x, s):
        return -s * math.exp(-f.eval(x, s)) * f.dx(x, s)

    def dspeed(x, s):
        return math.exp(-f.eval(x, s)) + 0.4 * s

    w = IsotropicScalar(eval=ev, dx=dx, dspeed=dspeed)
    return GeneratingScalar(W=w, h=lambda w_: 0.5 * w_)


def strip_closures(gs):
    """Keep only the raw evaluator so every derivative falls back to differencing."""
    return GeneratingScalar(
        W=IsotropicScalar(eval=gs.W.eval),
        h=gs.h,
    )


class TestComputeB:
    def test_speed_only_generator_has_zero_b(self):
        gs = builtin_geodesic()
        b = compute_b(gs, np.array([0.7, -0.2, 1.1]), 1.3)
        assert np.array_equal(b, np.zeros(3))

    def test_conformal_speed_generator(self):
        gs = builtin_metrizable(coordinate_scalar(0), H=lambda w: 0.0)
        for s in (0.5, 1.0, 1.7):
            b = compute_b(gs, np.array([0.4, 0.9, -0.3]), s)
            assert np.allclose(b, [s, 0.0, 0.0], atol=1e-12)

    def test_conformal_speed_generator_by_differencing(self):
        full = builtin_metrizable(coordinate_scalar(0), H=lambda w: 0.0)
        bare = strip_closures(full)
        b = compute_b(bare, np.array([0.4, 0.9, -0.3]), 1.7)
        assert np.allclose(b, [1.7, 0.0, 0.0], atol=1e-7)

    def test_linear_generator(self):
        w = IsotropicScalar(
            eval=lambda x, s: x[0] + s,
            dx=lambda x, s: np.array([1.0, 0.0, 0.0]),
            dspeed=lambda x, s: 1.0,
        )
        gs = GeneratingScalar(W=w, h=lambda w_: 0.0)
        b = compute_b(gs, np.array([0.3, 0.1, 0.2]), 0.9)
        assert np.allclose(b, [-1.0, 0.0, 0.0], atol=1e-14)

    def test_degenerate_speed_derivative_rejected(self):
        w = IsotropicScalar(
            eval=lambda x, s: x[0],
            dx=lambda x, s: np.array([1.0, 0.0, 0.0]),
            dspeed=lambda x, s: 0.0,
        )
        gs = GeneratingScalar(W=w, h=lambda w_: 0.0)
        with pytest.raises(DegenerateWv):
            compute_b(gs, np.array([0.3, 0.1, 0.2]), 0.9)


class TestComputeA:
    def test_zero_h_gives_zero_a(self):
        gs = builtin_metrizable(bumpy_position_scalar(), H=lambda w: 0.0)
        assert compute_a(gs, np.array([0.5, 0.8, 0.2]), 1.4) == 0.0

    def test_identity_h_on_speed_generator(self):
        w = speed_scalar()
        gs = GeneratingScalar(W=w, h=lambda w_: w_)
        assert compute_a(gs, np.array([0.1, 0.2, 0.3]), 1.25) == pytest.approx(
            1.25, abs=1e-14
        )

    def test_conformal_speed_generator_scales_h(self):
        H = lambda w: w * w
        gs = builtin_metrizable(coordinate_scalar(0), H=H)
        x = np.array([0.4, -0.2, 0.7])
        for s in (0.6, 1.3):
            expected = H(s * math.exp(-x[0])) * math.exp(x[0])
            assert compute_a(gs, x, s) == pytest.approx(expected, abs=1e-12)


class TestAnsatzA:
    def test_zero_fields(self):
        m = euclidean_metric()
        af = AnsatzField(a=zero_scalar(), b=(zero_scalar(),) * 3)
        assert ansatz_A(af, m, np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.0

    def test_pure_a_gives_speed(self):
        m = euclidean_metric()
        af = AnsatzField(a=speed_scalar(), b=(zero_scalar(),) * 3)
        v = np.array([1.0, 2.0, 2.0])
        assert ansatz_A(af, m, np.zeros(3), v) == pytest.approx(3.0, abs=1e-14)

    def test_single_b_component(self):
        m = euclidean_metric()
        af = AnsatzField(a=zero_scalar(), b=(speed_scalar(), zero_scalar(), zero_scalar()))
        v = np.array([1.0, 2.0, 0.0])
        assert ansatz_A(af, m, np.zeros(3), v) == pytest.approx(math.sqrt(5.0), abs=1e-14)

    def test_zero_velocity_rejected(self):
        m = euclidean_metric()
        af = AnsatzField(a=speed_scalar(), b=(zero_scalar(),) * 3)
        with pytest.raises(ZeroVelocity):
            ansatz_A(af, m, np.zeros(3), np.zeros(3))


class TestForceFromA:
    def test_zero_scalar_gives_zero_force(self):
        m = euclidean_metric()
        A = ExtendedScalar(eval=lambda x, v: 0.0, dv=lambda x, v: np.zeros(3))
        F = force_from_A(A, m, np.zeros(3), np.array([0.7, 0.1, -0.4]))
        assert np.allclose(F, 0.0, atol=1e-15)

    @pytest.mark.parametrize("metric_fn", [euclidean_metric, wavy_conformal_metric])
    def test_speed_scalar_gives_covariant_velocity(self, metric_fn):
        m = metric_fn()
        A = lift_isotropic(speed_scalar(), m)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            F = force_from_A(A, m, x, v)
            assert np.allclose(F, np.einsum("ij,j->i", metric_at(m, x), v), atol=1e-12)


class TestForceFromW:
    def test_geodesic_force_is_exactly_zero(self):
        gs = builtin_geodesic()
        for metric_fn in (euclidean_metric, wavy_conformal_metric):
            m = metric_fn()
            F = force_from_W(gs, m, np.array([0.3, 0.9, 0.5]), np.array([0.7, -0.2, 0.4]))
            assert np.array_equal(F, np.zeros(3))

    def test_conformal_speed_generator_frozen_point(self):
        # H(w) = w^2, f = x1, Euclidean metric; reference values computed
        # independently from the closed form of the generated field
        m = euclidean_metric()
        gs = builtin_metrizable(coordinate_scalar(0), H=lambda w: w * w)
        x = np.array([0.4, -0.2, 0.7])
        v = np.array([0.6, -0.3, 1.1])
        expected = np.array(
            [-0.4218118209024335, -0.6190940895487833, 2.270011661678872]
        )
        assert np.allclose(force_from_W(gs, m, x, v), expected, atol=1e-12)

    def test_conformal_speed_generator_closed_form(self):
        m = euclidean_metric()
        f = bumpy_position_scalar()
        H = lambda w: math.sin(w)
        gs = builtin_metrizable(f, H=H)
        rng = np.random.default_rng(23)
        for _ in range(40):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            s = float(np.linalg.norm(v))
            grad = f.dx(x, 0.0)
            fval = f.eval(x, 0.0)
            expected = (
                H(s * math.exp(-fval)) * math.exp(fval) * v / s
                - s * s * grad
                + 2.0 * float(grad @ v) * v
            )
            assert np.allclose(force_from_W(gs, m, x, v), expected, atol=1e-10)

    def test_degenerate_speed_derivative_rejected(self):
        m = euclidean_metric()
        w = IsotropicScalar(
            eval=lambda x, s: x[0],
            dx=lambda x, s: np.array([1.0, 0.0, 0.0]),
            dspeed=lambda x, s: 0.0,
        )
        gs = GeneratingScalar(W=w, h=lambda w_: 0.0)
        with pytest.raises(DegenerateWv):
            force_from_W(gs, m, np.array([0.3, 0.1, 0.2]), np.array([0.9, 0.0, 0.0]))

    def test_zero_velocity_rejected(self):
        gs = builtin_geodesic()
        with pytest.raises(ZeroVelocity):
            force_from_W(gs, euclidean_metric(), np.zeros(3), np.zeros(3))

    def test_stack_matches_points(self):
        # a (2, 5, n) stack of states gives the point-wise forces; the W
        # closures are called once per state, and h, which takes arrays,
        # once on the stack after its probe (one call per probe value and
        # one on all of them)
        m = wavy_conformal_metric()
        base = generic_generator()
        calls = {"W": 0, "h": 0}

        def count(key, fn):
            def counted(*args):
                calls[key] += 1
                return fn(*args)

            return counted

        gs = GeneratingScalar(
            W=IsotropicScalar(eval=count("W", base.W.eval), dx=base.W.dx, dspeed=base.W.dspeed),
            h=count("h", base.h),
        )
        rng = np.random.default_rng(31)
        x = np.array([[random_point(rng, BOX) for _ in range(5)] for _ in range(2)])
        v = np.array([[random_velocity(rng, m, xi) for xi in row] for row in x])
        stacked = force_from_W(gs, m, x, v)
        assert stacked.shape == (2, 5, 3)
        assert calls == {"W": 10, "h": len(force_builder.GAUGE_PROBES) + 2}
        for idx in np.ndindex(2, 5):
            assert np.allclose(stacked[idx], force_from_W(gs, m, x[idx], v[idx]), rtol=0, atol=1e-13)

    def test_degenerate_speed_derivative_in_stack_rejected(self):
        w = IsotropicScalar(
            eval=lambda x, s: s * x[0],
            dx=lambda x, s: np.array([s, 0.0, 0.0]),
            dspeed=lambda x, s: x[0],
        )
        gs = GeneratingScalar(W=w, h=lambda w_: 0.0)
        x = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(DegenerateWv):
            force_from_W(gs, euclidean_metric(), x, v)


class TestArrayProbe:
    POINTS = np.linspace(0.25, 4.0, 13)

    @pytest.mark.parametrize(
        "fn,arrays",
        [
            (lambda w: 0.5 * w, True),
            (lambda w: 0.0, True),  # a constant: one value for all
            (lambda w: w**3 + 1.0, True),
            (lambda w: math.sin(w), False),  # takes one float only
            (lambda w: w if np.ndim(w) == 0 else 2.0 * w, False),  # wrong on arrays
            (lambda w: 1.0 if w > 1.0 else -1.0, False),  # ambiguous truth value
        ],
        ids=["linear", "constant", "cubic", "float-only", "misleading", "branching"],
    )
    def test_takes_arrays(self, fn, arrays):
        values = np.array([float(fn(w)) for w in self.POINTS])
        assert takes_arrays(fn, self.POINTS, values) is arrays
        gs = GeneratingScalar(W=builtin_geodesic().W, h=fn)
        w = np.array([[0.3, 1.7], [2.5, 0.9]])
        expected = np.array([[float(fn(wi)) for wi in row] for row in w])
        assert np.array_equal(h_values(gs, w), expected)

    @pytest.mark.parametrize(
        "h", [lambda w: 0.0, lambda w: np.float64(2.5), lambda w: np.array(-1.5)],
        ids=["float", "numpy-scalar", "0-d-array"],
    )
    def test_constant_is_filled_into_a_writable_array(self, h):
        # a 0-d value is filled, not broadcast: the same floats, in an
        # array of their own that the caller may write
        gs = GeneratingScalar(W=builtin_geodesic().W, h=h)
        w = np.array([[0.3, 1.7, 2.2], [2.5, 0.9, 1.1]])
        values = h_values(gs, w)
        broadcast = np.broadcast_to(np.asarray(h(w), dtype=float), w.shape)
        assert values.dtype == np.float64 and values.shape == w.shape
        assert values.tobytes() == np.ascontiguousarray(broadcast).tobytes()
        assert values.flags.writeable and values.flags.c_contiguous
        values[0, 0] = 7.0
        assert np.array_equal(h_values(gs, w), broadcast)

    def test_h_that_raises_on_a_probe_is_called_once_per_value(self):
        calls = []

        def h(w):
            calls.append(w)
            return math.log(w - 0.5)  # a math domain error at the probe 0.25

        gs = GeneratingScalar(W=builtin_geodesic().W, h=h)
        assert gs._h_arrays is False
        calls.clear()
        w = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(h_values(gs, w), [math.log(0.5), math.log(1.5), math.log(2.5)])
        assert calls == [1.0, 2.0, 3.0]

    def test_array_capable_h_is_called_once_per_stack(self):
        calls = []

        def h(w):
            calls.append(np.ndim(w))
            return 0.5 * w

        gs = builtin_metrizable(coordinate_scalar(0), H=h)
        m = conformal_metric()
        rng = np.random.default_rng(8)
        x = rng.uniform(0.3, 1.2, size=(4, 5, 3))
        v = rng.uniform(-1.0, 1.0, size=(4, 5, 3))
        first = force_from_W(gs, m, x, v)
        # the probe: 13 point values and one array, then one call per stack
        assert calls == [0] * 13 + [1, 2]
        assert np.array_equal(force_from_W(gs, m, x, v), first)
        assert calls[15:] == [2]
        # a float-only h with the same values gives the same force
        scalar = builtin_metrizable(coordinate_scalar(0), H=lambda w: float(w) / 2.0)
        assert np.array_equal(force_from_W(scalar, m, x, v), first)


class TestRoundtrip:
    """The two construction routes must produce the same covector field."""

    def roundtrip_gap(self, gs, m, samples, seed, analytic=True):
        rng = np.random.default_rng(seed)
        af = ansatz_from_generator(gs)
        if analytic:
            A = ansatz_scalar(af, m)
        else:
            A = ExtendedScalar(eval=lambda x, v: ansatz_A(af, m, x, v))
        worst = 0.0
        for _ in range(samples):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            gap = np.max(
                np.abs(force_from_W(gs, m, x, v) - force_from_A(A, m, x, v))
            )
            worst = max(worst, float(gap))
        return worst

    @pytest.mark.parametrize("metric_fn", [euclidean_metric, wavy_conformal_metric])
    def test_analytic_routes_agree(self, metric_fn):
        m = metric_fn()
        generators = [
            builtin_metrizable(bumpy_position_scalar(), H=lambda w: w * w),
            builtin_nonmetrizable(bumpy_position_scalar(), lambda s: 1.0 + s * s),
            generic_generator(),
        ]
        for seed, gs in enumerate(generators, start=100):
            assert self.roundtrip_gap(gs, m, 200, seed) < 1e-8

    def test_differenced_routes_agree(self):
        m = wavy_conformal_metric()
        gs = strip_closures(generic_generator())
        assert self.roundtrip_gap(gs, m, 200, 7, analytic=False) < 1e-5


class TestAnsatzScalar:
    def test_fiber_gradient_matches_differencing(self):
        m = wavy_conformal_metric()
        af = ansatz_from_generator(generic_generator())
        A = ansatz_scalar(af, m)
        bare = ExtendedScalar(eval=A.eval)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            assert np.allclose(
                velocity_gradient(A, x, v),
                velocity_gradient(bare, x, v),
                atol=1e-6,
            )

    def test_fiber_hessian_matches_differencing(self):
        m = euclidean_metric()
        af = ansatz_from_generator(generic_generator())
        A = ansatz_scalar(af, m)
        bare = ExtendedScalar(eval=A.eval)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            assert np.allclose(
                velocity_hessian(A, x, v),
                velocity_hessian(bare, x, v),
                atol=1e-5,
            )

    @pytest.mark.parametrize("metric", [euclidean_metric, wavy_conformal_metric])
    @pytest.mark.parametrize(
        "make",
        [lambda: builtin_metrizable(coordinate_scalar(0), H=lambda w: w),
         lambda: builtin_nonmetrizable(coordinate_scalar(0), lambda s: s**3)],
        ids=["metrizable", "nonmetrizable"],
    )
    def test_differenced_hessian_is_near_the_analytic_one(self, make, metric):
        # the certified generators' A differenced on a stack, as verify's
        # finite-difference mode does, against the coefficient pack's
        # Hessian: at most 1.0e-9 apart over these 200 states, measured
        # (2.0e-8 to 5.0e-8 when the Hessian differenced a differenced gradient)
        m = metric()
        af = ansatz_from_generator(make())
        states = sample_states(SampleSpec(box=BOX, count=200, seed=21), m)
        x, v = states[:, 0], states[:, 1]
        gmat = metric_at(m, x)
        pr = direction_from(gmat, x, v)
        c_p = coefficient_speed_derivative(af, x, pr.speed)
        c_pp = coefficient_speed_derivative(af, x, pr.speed, order=2)
        want = ansatz_fiber_hessian(pr, gmat, v, c_p, c_pp)

        def A(u):
            at = np.broadcast_to(x[:, None], u.shape)
            g = np.broadcast_to(gmat[:, None], u.shape + (3,))
            return ansatz_value(coefficients(af, at, direction_from(g, at, u).speed), u)

        assert np.max(np.abs(fiber_hessian(A, v) - want)) < 3e-9


class TestGauge:
    def identity_map(self):
        return GaugeMap(fn=lambda w: w, inverse=lambda w: w, derivative=lambda w: 1.0)

    def test_identity_map_preserves_values(self):
        gs = generic_generator()
        out = gauge_transform(gs, self.identity_map())
        x = np.array([0.5, 0.7, 0.9])
        assert out.W.eval(x, 1.2) == pytest.approx(gs.W.eval(x, 1.2), abs=1e-15)
        assert out.h(0.8) == pytest.approx(gs.h(0.8), abs=1e-15)

    def test_linear_rescaling_leaves_force_unchanged(self):
        m = euclidean_metric()
        gs = builtin_metrizable(bumpy_position_scalar(), H=lambda w: 0.0)
        out = gauge_transform(
            gs, GaugeMap(fn=lambda w: 2.0 * w, inverse=lambda w: 0.5 * w, derivative=lambda w: 2.0)
        )
        rng = np.random.default_rng(31)
        for _ in range(30):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            assert np.allclose(
                force_from_W(gs, m, x, v), force_from_W(out, m, x, v), atol=1e-12
            )

    def test_exponential_map_on_speed_generator(self):
        m = euclidean_metric()
        gs = GeneratingScalar(W=speed_scalar(), h=lambda w: 1.0)
        out = gauge_transform(
            gs, GaugeMap(fn=math.exp, inverse=math.log, derivative=math.exp)
        )
        rng = np.random.default_rng(37)
        for _ in range(30):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            assert np.allclose(
                force_from_W(gs, m, x, v), force_from_W(out, m, x, v), atol=1e-9
            )

    def test_exponential_map_on_generic_generator(self):
        m = wavy_conformal_metric()
        gs = generic_generator()
        out = gauge_transform(
            gs, GaugeMap(fn=math.exp, inverse=math.log, derivative=math.exp)
        )
        rng = np.random.default_rng(41)
        for _ in range(30):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            assert np.allclose(
                force_from_W(gs, m, x, v), force_from_W(out, m, x, v), atol=1e-8
            )

    @seed(47)
    @settings(max_examples=40, deadline=None)
    @given(
        gauge=st.one_of(
            st.builds(
                lambda size, sign, beta: GaugeMap(
                    fn=lambda w: sign * size * w + beta,
                    inverse=lambda w: (w - beta) / (sign * size),
                    derivative=lambda w: sign * size,
                ),
                st.floats(0.2, 3.0),
                st.sampled_from([1.0, -1.0]),
                st.floats(-2.0, 2.0),
            ),
            st.just(GaugeMap(fn=math.exp, inverse=math.log, derivative=math.exp)),
        ),
        point=st.tuples(BOX_COORD, BOX_COORD, BOX_COORD),
        direction=st.tuples(*(st.floats(-1.0, 1.0),) * 3).filter(
            lambda d: max(abs(c) for c in d) > 0.1
        ),
        speed=st.floats(0.5, 2.0),
    )
    def test_monotone_gauges_leave_force_unchanged(self, gauge, point, direction, speed):
        m = wavy_conformal_metric()
        gs = generic_generator()
        x = np.array(point)
        raw = np.array(direction)
        v = raw * (speed / speed_at(m, x, raw))
        np.testing.assert_allclose(
            force_from_W(gauge_transform(gs, gauge), m, x, v),
            force_from_W(gs, m, x, v),
            rtol=0.0,
            atol=1e-9,
        )

    def test_sign_changing_derivative_rejected(self):
        gs = generic_generator()
        bad = GaugeMap(fn=math.sin, inverse=math.asin, derivative=math.cos)
        with pytest.raises(NonMonotoneGauge):
            gauge_transform(gs, bad)

    def test_vanishing_derivative_rejected(self):
        gs = generic_generator()
        bad = GaugeMap(fn=lambda w: 1.0, inverse=lambda w: 1.0, derivative=lambda w: 0.0)
        with pytest.raises(NonMonotoneGauge):
            gauge_transform(gs, bad)

    def test_gauge_map_failing_on_a_probe_rejected(self):
        gs = generic_generator()
        # the derivative fails at the first probe, 0.25
        bad = GaugeMap(fn=lambda t: t, inverse=lambda w: w, derivative=lambda t: math.log(t - 0.3))
        message = "^gauge map failed to evaluate on the probed range$"
        with pytest.raises(NonMonotoneGauge, match=message) as info:
            gauge_transform(gs, bad)
        assert isinstance(info.value.__cause__, ValueError)

    def test_wrong_inverse_rejected(self):
        gs = generic_generator()
        bad = GaugeMap(fn=lambda w: 2.0 * w, inverse=lambda w: w, derivative=lambda w: 2.0)
        with pytest.raises(NonMonotoneGauge):
            gauge_transform(gs, bad)


class TestBuiltins:
    @pytest.mark.parametrize("rows", [7, 1])
    def test_metrizable_terms_equal_the_three_closures(self, rows):
        def f_eval(x, s):
            return 0.3 * np.sin(x[..., 0] + 2.0 * x[..., 1]) + 0.1 * x[..., 2]

        def f_dx(x, s):
            c = 0.3 * np.cos(x[..., 0] + 2.0 * x[..., 1])
            return np.stack([c, 2.0 * c, np.full_like(c, 0.1)], axis=-1)

        f = IsotropicScalar(eval=f_eval, dx=f_dx, dspeed=lambda x, s: np.zeros(x.shape[:-1]),
                            stacked=True)
        W = builtin_metrizable(f, H=lambda w: w).W
        rng = np.random.default_rng(16)
        x, s = rng.uniform(-1.0, 1.0, (rows, 3)), rng.uniform(0.5, 2.0, rows)
        w, wv, grad = W.terms(x, s)
        assert np.array_equal(w, W.eval(x, s))
        assert np.array_equal(wv, W.dspeed(x, s))
        assert np.array_equal(grad, W.dx(x, s))
        assert grad.shape == (rows, 3)
        pointwise = IsotropicScalar(eval=lambda x, s: float(x[0]), dx=lambda x, s: np.eye(3)[0])
        assert builtin_metrizable(pointwise, H=lambda w: w).W.terms is None

    def test_flat_conformal_factor_degenerates_to_geodesic(self):
        m = euclidean_metric()
        gs = builtin_metrizable(zero_scalar(), H=lambda w: 0.0)
        F = force_from_W(gs, m, np.array([0.1, 0.5, 0.9]), np.array([1.0, -0.5, 0.25]))
        assert np.array_equal(F, np.zeros(3))

    def test_quadratic_speed_profile_degenerates_to_conformal_speed(self):
        # integral of s ds / s^2 from 1 is log s, so W = |v| e^{-f} exactly
        m = euclidean_metric()
        f = coordinate_scalar(0)
        non = builtin_nonmetrizable(f, lambda s: s * s)
        met = builtin_metrizable(f, H=lambda w: 0.0)
        rng = np.random.default_rng(53)
        for _ in range(40):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            assert np.allclose(
                force_from_W(non, m, x, v), force_from_W(met, m, x, v), atol=1e-9
            )

    def test_nonmetrizable_frozen_point(self):
        # A(s) = 1 + s^2, f = 0.3 x1; the quadrature cancels from the force
        m = euclidean_metric()
        f = coordinate_scalar(0, coefficient=0.3)
        gs = builtin_nonmetrizable(f, lambda s: 1.0 + s * s)
        x = np.array([0.4, -0.2, 0.7])
        v = np.array([0.6, -0.3, 1.1])
        expected = np.array(
            [-0.45187951807228915, -0.17306024096385542, 0.6345542168674698]
        )
        assert np.allclose(force_from_W(gs, m, x, v), expected, atol=1e-10)

    def test_vanishing_speed_profile_rejected(self):
        with pytest.raises(QuadratureFailure):
            builtin_nonmetrizable(coordinate_scalar(0), lambda s: s - 1.0)

    @pytest.mark.parametrize("arrays", [True, False], ids=["array-profile", "float-profile"])
    def test_profile_probe_calls(self, arrays, monkeypatch):
        # the calls of A before the quadrature: an A that takes arrays is
        # probed on every PROFILE_PROBE_STRIDE-th speed and then called once
        # on all of them; a float-only A is called once per probe speed,
        # after one failed array call
        calls = {"point": 0, "array": 0}
        before_quadrature = {}

        def A(s):
            calls["array" if np.ndim(s) else "point"] += 1
            return s**3 + 0.5 if arrays else math.pow(s, 3) + 0.5

        integrals = force_builder._segment_integrals

        def segment_integrals(*args):
            before_quadrature.update(calls)
            return integrals(*args)

        monkeypatch.setattr(force_builder, "_segment_integrals", segment_integrals)
        builtin_nonmetrizable(coordinate_scalar(0), A)
        probe = 8 * QUADRATURE_ANCHORS
        if arrays:
            subset = len(range(0, probe, force_builder.PROFILE_PROBE_STRIDE))
            assert before_quadrature == {"point": subset, "array": 2}
        else:
            assert before_quadrature == {"point": probe, "array": 1}

    def test_speed_range_must_contain_reference(self):
        with pytest.raises(QuadratureFailure):
            builtin_nonmetrizable(
                coordinate_scalar(0), lambda s: 1.0 + s, speed_range=(2.0, 5.0)
            )

    def test_nonmetrizable_w_and_speed_derivative_are_consistent(self):
        gs = builtin_nonmetrizable(bumpy_position_scalar(), lambda s: 1.0 + s * s)
        bare = IsotropicScalar(eval=gs.W.eval)
        x = np.array([0.6, 0.4, 0.8])
        from normalshift.extended_fields import isotropic_speed_derivative

        for s in (0.5, 1.0, 1.9):
            assert gs.W.dspeed(x, s) == pytest.approx(
                isotropic_speed_derivative(bare, x, s), rel=1e-7
            )


SPEED_PROFILES = {
    "cube": lambda v: v**3,
    "one-plus-square": lambda s: 1 + s * s,
    "square": lambda s: s * s,
    "cli": _single_variable_fn(parse_expression("v^3 + v")),
    "float-only": lambda s: math.pow(s, 3) + 0.5,
    "kinked": lambda s: 1 + abs(s - 1.3),
}


def built_table(monkeypatch, A, calls=()):
    """``builtin_nonmetrizable``'s anchor table for the profile A, the
    segments its Gauss-Kronrod pass sent to ``quad``, and the length of
    ``calls`` before and after that pass."""
    tables, sent, marks = [], [], []
    integrals, quad = force_builder._segment_integrals, force_builder.quad

    def spy_integrals(*args):
        marks.append(len(calls))
        segments = integrals(*args)
        marks.append(len(calls))
        tables.append(np.concatenate([[0.0], np.cumsum(segments)]))
        return segments

    def spy_quad(fn, a, b):
        sent.append((a, b))
        return quad(fn, a, b)

    monkeypatch.setattr(force_builder, "_segment_integrals", spy_integrals)
    monkeypatch.setattr(force_builder, "quad", spy_quad)
    builtin_nonmetrizable(coordinate_scalar(1), A)
    return tables[0], sent, marks


class TestSpeedQuadrature:
    @pytest.mark.parametrize("name", sorted(SPEED_PROFILES))
    def test_table_matches_per_segment_quad(self, monkeypatch, name):
        table, sent, _ = built_table(monkeypatch, SPEED_PROFILES[name])
        np.testing.assert_allclose(
            table, quad_anchor_table(SPEED_PROFILES[name]), rtol=1e-14, atol=0.0
        )
        # only the segment holding the kink fails the Gauss-Kronrod pass
        assert (sent and all(a < 1.3 < b for a, b in sent)) if name == "kinked" else not sent

    def test_float_only_profile_costs_the_probe_and_one_pass(self, monkeypatch):
        calls = []

        def profile(s):
            value = math.pow(s, 3) + 0.5  # the array probe fails here, uncounted
            calls.append(s)
            return value

        _, sent, (before, after) = built_table(monkeypatch, profile, calls)
        segments = QUADRATURE_ANCHORS - 1
        assert sent == []
        assert after - before == 21 * segments
        # the 2,056-point probe, the Gauss-Kronrod pass, and the ten-node
        # tail of the reference speed's offset
        assert len(calls) == 8 * QUADRATURE_ANCHORS + 21 * segments + 10

    def test_profile_vanishing_between_probe_points_fails_in_quad(self):
        fine = np.linspace(0.05, 5.0, 8 * QUADRATURE_ANCHORS)
        kink = 0.5 * (fine[800] + fine[801])
        with pytest.raises(QuadratureFailure, match="adaptive quadrature"):
            builtin_nonmetrizable(coordinate_scalar(0), lambda s: abs(s - kink))

    def test_nan_speed_raises(self):
        W = builtin_nonmetrizable(coordinate_scalar(1), lambda s: s**3).W
        message = "^speed quadrature non-finite at speed nan$"
        with pytest.raises(QuadratureFailure, match=message):
            W.eval(np.array([0.5, 0.5, 0.5]), math.nan)
        with pytest.raises(QuadratureFailure, match=message):
            W.eval(np.full((2, 3), 0.5), np.array([1.0, math.nan]))

    @pytest.mark.parametrize("speed", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_speed_raises_through_the_anchor_bounds(self, speed):
        # the anchor index is bounded by np.minimum(np.maximum(...)), which
        # keeps a nan, and an infinite speed gives a non-finite tail: each
        # names its speed, from every closure that takes the quadrature
        W = builtin_nonmetrizable(coordinate_scalar(1), lambda s: s**3).W
        message = f"^speed quadrature non-finite at speed {speed}$"
        x, s = np.full((2, 3), 0.5), np.array([1.0, speed])
        for fn in (W.eval, W.dspeed, W.terms):
            with np.errstate(all="ignore"), pytest.raises(QuadratureFailure, match=message):
                fn(x, s)

    def test_speed_derivative_at_speed_0_raises(self):
        # s / A(s) is 0 / 0 there; W itself stays finite
        W = builtin_nonmetrizable(coordinate_scalar(1), lambda s: s**3).W
        message = "^speed derivative non-finite at speed 0$"
        assert np.isfinite(W.eval(np.full(3, 0.5), 0.0))
        with pytest.raises(QuadratureFailure, match=message):
            W.dspeed(np.full(3, 0.5), 0.0)
        with pytest.raises(QuadratureFailure, match=message):
            W.dspeed(np.full((2, 3), 0.5), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("name", ["cube", "cli", "float-only"])
    def test_point_is_the_one_row_stack(self, name):
        W = builtin_nonmetrizable(coordinate_scalar(1), SPEED_PROFILES[name]).W
        rng = np.random.default_rng(29)
        # a twentieth of the speeds or so round s**3 differently in float and
        # array arithmetic, so 200 of them tell the paths apart
        for x, s in zip(rng.uniform(0.3, 1.2, (200, 3)), rng.uniform(0.06, 4.9, 200)):
            for fn in (W.eval, W.dspeed, W.dx):
                point = np.asarray(fn(x, s), dtype=float)
                row = np.asarray(fn(x[None], np.array([s])), dtype=float)[0]
                assert point.tobytes() == row.tobytes()


    @pytest.mark.parametrize("name", ["cube", "cli", "float-only"])
    def test_terms_calls_the_profile_once_on_nodes_then_speeds(self, name):
        # W.terms takes W_v from the same call of A as the quadrature's tail
        # nodes, so A sees the nodes of W.eval and then the speeds, as the
        # two calls of W.dspeed once showed it; a float-only A sees them one
        # by one, in that order
        calls = []

        def profile(s):
            calls.append(np.ravel(np.array(s, dtype=float)))
            return SPEED_PROFILES[name](s)

        W = builtin_nonmetrizable(coordinate_scalar(1), profile).W
        rng = np.random.default_rng(31)
        x, s = rng.uniform(0.3, 1.2, (7, 3)), rng.uniform(0.06, 4.9, 7)
        calls.clear()
        W.eval(x, s)
        nodes = np.concatenate(calls)
        calls.clear()
        value, speed, partials = W.terms(x, s)
        assert np.array_equal(np.concatenate(calls), np.concatenate([nodes, s]))
        assert len(calls) == (nodes.size + s.size if name == "float-only" else 1)
        for got, want in ((value, W.eval(x, s)), (speed, W.dspeed(x, s)), (partials, W.dx(x, s))):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("arrays", [True, False], ids=["array", "float-only"])
    def test_profile_non_finite_at_one_speed_names_it(self, arrays):
        s0 = 1.2345

        def profile(s):
            if arrays:
                return np.where(s == s0, np.nan, s**3)
            return math.nan if s == s0 else math.pow(s, 3)

        gs = builtin_nonmetrizable(coordinate_scalar(0), profile)
        x = np.array([[0.5, 0.1, 0.2], [0.6, 0.3, 0.4], [0.7, 0.5, 0.6]])
        v = np.diag([0.8, s0, 1.5])  # speeds 0.8, s0 and 1.5
        message = f"speed derivative evaluated to a non-finite value at speed {s0:.4g}, x={x[1]}"
        with pytest.raises(EvaluationFailure, match=re.escape(message)):
            force_from_W(gs, euclidean_metric(), x, v)


class TestForceFieldObjects:
    def test_generated_field_matches_direct_construction(self):
        m = wavy_conformal_metric()
        gs = generic_generator()
        ff = as_force_field(gs)
        rng = np.random.default_rng(61)
        for _ in range(20):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            assert np.allclose(ff.eval(m, x, v), force_from_W(gs, m, x, v), atol=1e-14)

    def test_structural_decomposition(self):
        # F_k = a N_k + |v| sum_i b_i (2 N^i N_k - delta^i_k) with a, b from
        # the reduced-field constructors
        m = wavy_conformal_metric()
        gs = generic_generator()
        ff = ansatz_force_field(ansatz_from_generator(gs))
        rng = np.random.default_rng(67)
        for _ in range(30):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            pr = unit_direction(m, x, v)
            a = compute_a(gs, x, pr.speed)
            b = compute_b(gs, x, pr.speed)
            reflect = 2.0 * np.outer(pr.N_up, pr.N_down) - np.eye(3)
            expected = a * pr.N_down + pr.speed * b @ reflect
            assert np.allclose(ff.eval(m, x, v), expected, atol=1e-12)
            assert np.allclose(force_from_W(gs, m, x, v), expected, atol=1e-10)

    def fd_dv(self, ff, m, x, v, h=1e-6):
        out = np.empty((3, 3))
        for r in range(3):
            e = np.zeros(3)
            e[r] = h
            out[r] = (ff.eval(m, x, v + e) - ff.eval(m, x, v - e)) / (2.0 * h)
        return out

    def fd_nabla(self, ff, m, x, v, h=1e-6):
        raw = np.empty((3, 3))
        for r in range(3):
            e = np.zeros(3)
            e[r] = h
            raw[r] = (ff.eval(m, x + e, v) - ff.eval(m, x - e, v)) / (2.0 * h)
        gamma = christoffel_at(m, x)
        dvmat = self.fd_dv(ff, m, x, v)
        transport = np.einsum("jri,i,jk->rk", gamma, v, dvmat)
        twist = np.einsum("crk,c->rk", gamma, ff.eval(m, x, v))
        return raw - transport - twist

    @pytest.mark.parametrize("metric_fn", [euclidean_metric, wavy_conformal_metric])
    def test_fiber_derivative_closure(self, metric_fn):
        m = metric_fn()
        ff = as_force_field(generic_generator())
        rng = np.random.default_rng(71)
        for _ in range(10):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            assert np.allclose(ff.dv(m, x, v), self.fd_dv(ff, m, x, v), atol=1e-6)

    @pytest.mark.parametrize("metric_fn", [euclidean_metric, wavy_conformal_metric])
    def test_spatial_derivative_closure(self, metric_fn):
        m = metric_fn()
        ff = as_force_field(generic_generator())
        rng = np.random.default_rng(73)
        for _ in range(10):
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            assert np.allclose(ff.nabla(m, x, v), self.fd_nabla(ff, m, x, v), atol=1e-6)


def component_ansatz(gs, m):
    """The ansatz as one isotropic scalar per coefficient, each wrapping
    compute_a or compute_b: the form the coefficient pack replaces."""
    a = IsotropicScalar(eval=lambda x, s: compute_a(gs, x, s))
    b = tuple(
        IsotropicScalar(
            eval=(lambda k: lambda x, s: float(compute_b(gs, x, s)[k]))(i),
        )
        for i in range(m.dim)
    )
    return AnsatzField(a=a, b=b)


PACK_GENERATORS = {
    "metrizable": builtin_metrizable(coordinate_scalar(0), H=lambda w: w),
    "nonmetrizable": builtin_nonmetrizable(coordinate_scalar(0), lambda s: s**3),
}


class TestCoefficientPack:
    def test_zero_speed_rejected(self):
        gs = builtin_metrizable(coordinate_scalar(0), H=lambda w: w)
        message = re.escape(
            "isotropic gradient needs a positive speed, not at speed 0, x=[0.1 0.2 0.3]"
        )
        with pytest.raises(EvaluationFailure, match=f"^{message}$"):
            coefficient_pack(gs, np.array([0.1, 0.2, 0.3]), 0.0)

    def test_pack_entries_are_a_and_b(self):
        gs = generic_generator()
        x = np.array([0.6, 0.9, 0.4])
        pack = coefficient_pack(gs, x, 1.3)
        assert pack.shape == (4,)
        assert pack[0] == compute_a(gs, x, 1.3)
        assert np.array_equal(pack[1:], compute_b(gs, x, 1.3))

    @seed(29)
    @settings(max_examples=30, deadline=None)
    @given(
        which=st.sampled_from(sorted(PACK_GENERATORS)),
        point=st.tuples(BOX_COORD, BOX_COORD, BOX_COORD),
        direction=st.tuples(*(st.floats(-1.0, 1.0),) * 3).filter(
            lambda d: max(abs(c) for c in d) > 0.1
        ),
        speed=st.floats(0.5, 2.0),
    )
    def test_pack_matches_component_fields(self, which, point, direction, speed):
        m = conformal_metric()
        gs = PACK_GENERATORS[which]
        x = np.array(point)
        raw = np.array(direction)
        v = raw * (speed / speed_at(m, x, raw))
        s = speed_at(m, x, v)
        packed = ansatz_from_generator(gs)
        parts = component_ansatz(gs, m)
        assert packed.pack is not None and parts.pack is None

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

        # a, b and their speed and fixed-speed spatial derivatives
        close(coefficients(packed, x, s), coefficients(parts, x, s))
        for order in (1, 2):
            close(
                coefficient_speed_derivative(packed, x, s, order),
                coefficient_speed_derivative(parts, x, s, order),
            )
        close(coefficient_gradient(packed, x, s), coefficient_gradient(parts, x, s))
        # every consumer of the coefficients
        A_packed, A_parts = ansatz_scalar(packed, m), ansatz_scalar(parts, m)
        close(A_packed.eval(x, v), A_parts.eval(x, v))
        close(A_packed.dv(x, v), A_parts.dv(x, v))
        close(A_packed.dv2(x, v), A_parts.dv2(x, v))
        F_packed, F_parts = ansatz_force_field(packed), ansatz_force_field(parts)
        close(F_packed.eval(m, x, v), F_parts.eval(m, x, v))
        close(F_packed.dv(m, x, v), F_parts.dv(m, x, v))
        close(F_packed.nabla(m, x, v), F_parts.nabla(m, x, v))
        for got, want in zip(residual_reduced(packed, m, x, s), residual_reduced(parts, m, x, s)):
            close(got, want)

    def test_ansatz_field_takes_components_or_pack(self):
        c, b = zero_scalar(), (zero_scalar(),) * 3
        assert AnsatzField(a=c, b=b).pack is None
        assert AnsatzField(pack=c).a is None
        for given in ({}, {"a": c}, {"b": b}, {"a": c, "pack": c}, {"b": b, "pack": c},
                      {"a": c, "b": b, "pack": c}):
            with pytest.raises(
                ValueError, match="^AnsatzField takes either the components a and b or the pack$"
            ):
                AnsatzField(**given)

    def test_component_partials_still_used(self):
        # a component-built field keeps its analytic partials: a marker dx
        # and dspeed come through unchanged
        def marked(k):
            return IsotropicScalar(
                eval=lambda x, s: 0.0,
                dx=lambda x, s: np.full(3, float(k)),
                dspeed=lambda x, s: 10.0 + k,
            )

        af = AnsatzField(a=marked(0), b=tuple(marked(k) for k in (1, 2, 3)))
        grad = coefficient_gradient(af, np.ones(3), 1.0)
        assert np.array_equal(grad, np.tile([0.0, 1.0, 2.0, 3.0], (3, 1)))
        assert np.array_equal(
            coefficient_speed_derivative(af, np.ones(3), 1.0), [10.0, 11.0, 12.0, 13.0]
        )

    def test_generated_derivatives_build_one_ansatz(self, monkeypatch):
        import normalshift.force_builder as fb

        built = []
        real = fb.ansatz_from_generator
        monkeypatch.setattr(fb, "ansatz_from_generator", lambda gs: built.append(gs) or real(gs))
        gs = generic_generator()
        ff = as_force_field(gs)
        x = np.array([0.6, 0.9, 0.4])
        v = np.array([0.3, -0.8, 0.5])
        reference = ansatz_force_field(real(gs))
        for _ in range(2):
            for m in (euclidean_metric(), wavy_conformal_metric()):
                assert np.array_equal(ff.dv(m, x, v), reference.dv(m, x, v))
                assert np.array_equal(ff.nabla(m, x, v), reference.nabla(m, x, v))
        assert built == [gs]
