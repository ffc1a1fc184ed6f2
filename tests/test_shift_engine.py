import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from normalshift.errors import (
    DegenerateTangents,
    EvaluationFailure,
    GridTooCoarse,
    NonFinite,
    NotPositiveDefinite,
    RootNotBracketed,
    TrajectoryEscaped,
    ZeroVelocity,
)
from normalshift.extended_fields import IsotropicScalar
from normalshift.force_builder import (
    ForceField,
    GeneratingScalar,
    as_force_field,
    builtin_geodesic,
    builtin_metrizable,
    coordinate_scalar,
    force_from_W,
    generated_force,
)
from normalshift import force_builder, shift_engine, tensor_core
from normalshift.cli import build_generator, build_metric
from normalshift.shift_engine import (
    GridSpec,
    Hypersurface,
    PhaseState,
    ShiftRecord,
    graph_surface,
    max_normalized_deviation,
    plane_surface,
    run_shift,
    solve_nu,
    speed_law_residual,
    sphere_surface,
    step_trajectory,
    surface_constancy_residual,
    surface_normal,
    surface_tangents,
    w_dynamics_residual,
)
from normalshift.tensor_core import (
    MetricField,
    christoffel_at,
    inverse_metric_at,
    mat_vec,
    metric_at,
    speed_at,
)

from helpers import (
    CLI_METRICS,
    cli_metric,
    cli_scenario,
    conformal_metric,
    diagonal_metric,
    euclidean_metric,
    full_matrices,
    hermite_curve_gap,
    pointwise_initial_state,
    wavy_conformal_metric,
)


def metrizable_h0():
    return builtin_metrizable(coordinate_scalar(0), H=lambda w: 0.0)


def metrizable_hw():
    return builtin_metrizable(coordinate_scalar(0), H=lambda w: w)


def pointwise_tangent(rec, i, j, k):
    """tau_k at grid point i and recorded time j by the fourth-order stencil."""
    xs, d = rec.x[:, j], int(np.prod(rec.grid_shape[k + 1 :]))
    spacing = rec.u_axes[k][1] - rec.u_axes[k][0]
    return (-xs[i + 2 * d] + 8.0 * xs[i + d] - 8.0 * xs[i - d] + xs[i - 2 * d]) / (12.0 * spacing)


def small_grid(lo=-0.1, hi=0.1, count=5):
    return GridSpec(ranges=((lo, hi, count), (lo, hi, count)))


def quick_run(gs, m, surface, **kw):
    kw.setdefault("t_end", 0.2)
    kw.setdefault("dt", 1e-3)
    kw.setdefault("sample_stride", 10)
    return run_shift(gs, m, surface, small_grid(), **kw)


@pytest.fixture(scope="module")
def plane_h0_record():
    return quick_run(metrizable_h0(), euclidean_metric(3), plane_surface())


@pytest.fixture(scope="module")
def plane_hw_record():
    return quick_run(metrizable_hw(), euclidean_metric(3), plane_surface())


@pytest.fixture(scope="module")
def plane_geodesic_record():
    return quick_run(builtin_geodesic(), euclidean_metric(3), plane_surface())


class TestSurfaceTypes:
    def test_zero_nu0_rejected(self):
        with pytest.raises(ValueError):
            plane_surface(nu0=0.0)

    def test_bad_orientation_rejected(self):
        with pytest.raises(ValueError):
            plane_surface(orientation=0.5)

    def test_base_u_length_checked(self):
        with pytest.raises(ValueError):
            Hypersurface(dim_u=2, chart_map=lambda u: np.zeros(3), base_u=(0.0,))

    def test_no_parameter_rejected(self):
        with pytest.raises(ValueError, match="^dim_u must be at least 1$"):
            Hypersurface(dim_u=0, chart_map=lambda u: np.zeros(3))

    @pytest.mark.parametrize("count", [5.7, 5.0, "5", True])
    def test_grid_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match=f"^point count must be an integer, got {count!r}$"):
            GridSpec(ranges=((0.0, 1.0, count), (0.0, 1.0, 5)))
        assert GridSpec(ranges=((0.0, 1.0, np.int64(5)), (0.0, 1.0, 5))).axes()[0].size == 5

    @pytest.mark.parametrize(
        "lo,hi", [(math.nan, 0.1), (-0.1, math.inf), (-math.inf, 0.1)]
    )
    def test_grid_range_ends_must_be_finite(self, lo, hi):
        def chart_map(u):
            raise AssertionError("the surface was reached")

        surface = dataclasses.replace(plane_surface(), chart_map=chart_map)
        with pytest.raises(ValueError, match=rf"^range \[{lo}, {hi}\] must have finite ends$"):
            run_shift(builtin_geodesic(), euclidean_metric(3), surface,
                      GridSpec(ranges=((lo, hi, 5), (-0.1, 0.1, 5))), t_end=0.01, dt=1e-3,
                      sample_stride=1)

    @pytest.mark.parametrize(
        "axis,x",
        [(0, [0.7, 0.2, -0.3]), (1, [0.2, 0.7, -0.3]), (2, [0.2, -0.3, 0.7])],
    )
    def test_plane_chart_on_each_axis(self, axis, x):
        s = plane_surface(axis=axis, offset=0.7)
        u = np.array([0.2, -0.3])
        assert np.array_equal(s.chart_map(u), x)
        assert np.array_equal(surface_tangents(s, u), np.delete(np.eye(3), axis, axis=0))

    @pytest.mark.parametrize("axis", [-2, -1, 3, 2.0, True])
    def test_plane_axis_outside_0_1_2_rejected(self, axis):
        with pytest.raises(ValueError, match=f"^axis must be 0, 1 or 2, got {axis!r}$"):
            plane_surface(axis=axis)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
    def test_sphere_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match=f"^radius must be positive and finite, got {radius!r}$"):
            sphere_surface(radius=radius)

    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.0, 0.0, 0.0, 1.0), ((0.0, 0.0, 0.0),)])
    def test_sphere_center_must_have_three_components(self, center):
        message = re.escape(f"center must have three components, got {center!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            sphere_surface(center=center)

    # each non-finite input is rejected at construction, naming the argument
    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: plane_surface(nu0=math.nan), "nu0 must be finite, got nan"),
            (lambda: plane_surface(nu0=-math.inf), "nu0 must be finite, got -inf"),
            (lambda: plane_surface(base_u=(math.nan, 0.0)), "base_u must be finite, got (nan, 0.0)"),
            (lambda: Hypersurface(dim_u=1, chart_map=lambda u: np.zeros(3), base_u=(math.inf,)),
             "base_u must be finite, got (inf,)"),
            (lambda: plane_surface(offset=math.inf), "offset must be finite, got inf"),
            (lambda: sphere_surface(center=(math.nan, 0.0, 0.0)),
             "center must be finite, got (nan, 0.0, 0.0)"),
        ],
        ids=["nu0-nan", "nu0-inf", "plane-base-u", "hypersurface-base-u", "offset", "center"],
    )
    def test_non_finite_surface_input_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_grid_axes(self):
        grid = GridSpec(ranges=((0.0, 1.0, 5), (-1.0, 1.0, 9)))
        ax0, ax1 = grid.axes()
        assert np.allclose(ax0, np.linspace(0.0, 1.0, 5))
        assert np.allclose(ax1, np.linspace(-1.0, 1.0, 9))

    def test_plane_chart_and_tangents(self):
        s = plane_surface(axis=0, offset=0.7)
        x = s.chart_map(np.array([0.2, -0.3]))
        assert np.allclose(x, [0.7, 0.2, -0.3])
        T = surface_tangents(s, np.array([0.2, -0.3]))
        assert np.array_equal(T, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_graph_tangents_from_exact_partials(self):
        def height(u):
            return 0.2 * math.sin(u[0]) + 0.1 * u[0] * u[1]

        def height_du(u):
            return [0.2 * math.cos(u[0]) + 0.1 * u[1], 0.1 * u[0]]

        exact = graph_surface(height=height, height_du=height_du)
        differenced = graph_surface(height=height)
        u = np.array([[0.3, -0.4], [-0.5, 0.2]])
        T = surface_tangents(exact, u)
        for Ti, ui in zip(T, u):
            assert np.array_equal(Ti, [[1.0, 0.0, height_du(ui)[0]], [0.0, 1.0, height_du(ui)[1]]])
        assert np.allclose(T, surface_tangents(differenced, u), rtol=0, atol=1e-9)

    def test_sphere_analytic_tangents_match_differenced(self):
        s = sphere_surface(radius=1.3, center=(0.2, 0.0, -0.1))
        stripped = Hypersurface(
            dim_u=2, chart_map=s.chart_map, base_u=s.base_u, nu0=s.nu0
        )
        u = np.array([1.3, 0.4])
        assert np.allclose(
            surface_tangents(s, u), surface_tangents(stripped, u), atol=1e-9
        )

    def test_record_shape_validation(self, plane_geodesic_record):
        rec = plane_geodesic_record
        with pytest.raises(ValueError):
            ShiftRecord(
                u_grid=rec.u_grid,
                grid_shape=rec.grid_shape,
                u_axes=rec.u_axes,
                times=rec.times,
                x=rec.x[:, :-1],
                v=rec.v,
                phi=rec.phi,
                W_vals=rec.W_vals,
                speed_vals=rec.speed_vals,
                nu_vals=rec.nu_vals,
                dt=rec.dt,
                sample_stride=rec.sample_stride,
            )

    def test_record_times_and_grid_checked(self, plane_geodesic_record):
        rec = plane_geodesic_record
        stalled = rec.times.copy()
        stalled[2] = stalled[1]
        with pytest.raises(ValueError, match="^times must increase strictly from 0$"):
            dataclasses.replace(rec, times=stalled)
        with pytest.raises(ValueError, match="^grid_shape inconsistent with u_grid$"):
            dataclasses.replace(rec, grid_shape=(5, 4))

    def test_state_accessor(self, plane_geodesic_record):
        rec = plane_geodesic_record
        st = rec.state_at(0, 0)
        assert isinstance(st, PhaseState)
        assert st.t == 0.0
        assert np.array_equal(st.x, rec.x[0, 0])


class TestSurfaceNormal:
    def test_plane_euclidean(self):
        m = euclidean_metric(3)
        for u in ([0.0, 0.0], [0.4, -0.7]):
            n = surface_normal(m, plane_surface(), np.array(u))
            assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-12)
        n = surface_normal(m, plane_surface(orientation=-1.0), np.array([0.1, 0.2]))
        assert np.allclose(n, [0.0, 0.0, -1.0], atol=1e-12)

    def test_sphere_radial(self):
        m = euclidean_metric(3)
        s = sphere_surface()
        for u in ([0.5 * math.pi, 0.0], [1.2, 0.4], [1.9, -0.6]):
            u = np.array(u)
            n = surface_normal(m, s, u)
            assert np.allclose(n, s.chart_map(u), atol=1e-10)

    def test_conformal_plane_rescales(self):
        # g = exp(-2 x^1) I, so the g-unit normal to x^3 = 0 is exp(x^1) e_3
        m = conformal_metric()
        u = np.array([0.3, -0.2])
        n = surface_normal(m, plane_surface(), u)
        assert np.allclose(n, [0.0, 0.0, math.exp(0.3)], atol=1e-12)

    def test_unit_norm_and_orthogonality(self):
        m = wavy_conformal_metric()
        s = graph_surface(height=lambda u: 0.2 * math.sin(u[0]) + 0.1 * u[0] * u[1])
        for u in ([0.0, 0.0], [0.3, -0.4], [-0.5, 0.2]):
            u = np.array(u)
            n = surface_normal(m, s, u)
            g = metric_at(m, s.chart_map(u))
            assert abs(float(n @ g @ n) - 1.0) < 1e-10
            T = surface_tangents(s, u)
            assert np.max(np.abs(T @ g @ n)) < 1e-10

    def test_orientation_flip(self):
        m = euclidean_metric(3)
        s_in = sphere_surface(orientation=-1.0)
        u = np.array([1.4, 0.3])
        assert np.allclose(
            surface_normal(m, s_in, u), -surface_normal(m, sphere_surface(), u)
        )

    def test_degenerate_tangents_raise(self):
        m = euclidean_metric(3)
        # at the sphere pole the azimuthal tangent collapses to zero
        with pytest.raises(DegenerateTangents):
            surface_normal(m, sphere_surface(), np.array([0.0, 0.3]))
        collapsed = Hypersurface(
            dim_u=2,
            chart_map=lambda u: np.array([u[0] + u[1], u[0] + u[1], 0.0]),
            base_u=(0.0, 0.0),
        )
        with pytest.raises(DegenerateTangents):
            surface_normal(m, collapsed, np.array([0.1, 0.2]))


class TestSolveNu:
    def test_geodesic_generator_returns_nu0(self):
        m = euclidean_metric(3)
        s = plane_surface(nu0=1.7)
        for u in ([0.0, 0.0], [0.4, -0.3]):
            assert abs(solve_nu(builtin_geodesic(), m, s, np.array(u)) - 1.7) < 1e-12

    def test_conformal_factor_oracle(self):
        # W = v exp(-x^1) from base x^1 = 0 with nu0 = 1 forces nu = exp(x^1)
        m = euclidean_metric(3)
        gs = metrizable_h0()
        s = plane_surface()
        for u in ([0.0, 0.0], [0.35, 0.1], [-0.6, 0.8]):
            nu = solve_nu(gs, m, s, np.array(u))
            assert abs(nu - math.exp(u[0])) < 1e-12

    def test_sign_preserved(self):
        m = euclidean_metric(3)
        gs = metrizable_h0()
        s = plane_surface(nu0=-1.0)
        nu = solve_nu(gs, m, s, np.array([0.4, 0.0]))
        assert abs(nu + math.exp(0.4)) < 1e-12

    def test_position_shifted_generator_on_matching_plane(self):
        # W = x^1 + v is constant in u on a plane x^1 = c, so nu stays nu0
        w = IsotropicScalar(
            eval=lambda x, s: x[0] + s,
            dx=lambda x, s: np.array([1.0, 0.0, 0.0]),
            dspeed=lambda x, s: 1.0,
        )
        gs = GeneratingScalar(W=w, h=lambda v: 0.0)
        m = euclidean_metric(3)
        s = plane_surface(axis=0, offset=0.9, nu0=0.6)
        for u in ([0.0, 0.0], [0.5, -0.2]):
            assert abs(solve_nu(gs, m, s, np.array(u)) - 0.6) < 1e-12

    def test_matches_surface_value_to_tolerance(self):
        m = euclidean_metric(3)
        gs = metrizable_hw()
        s = plane_surface(nu0=1.3)
        u = np.array([0.45, -0.25])
        nu = solve_nu(gs, m, s, u)
        x_base = s.chart_map(np.asarray(s.base_u, dtype=float))
        w0 = gs.W.eval(x_base, 1.3)
        assert abs(gs.W.eval(s.chart_map(u), abs(nu)) - w0) < 1e-12 * (1.0 + abs(w0))

    def test_nearest_bracket_preferred(self):
        # two speeds carry the surface value; the one nearer nu0 wins
        w = IsotropicScalar(
            eval=lambda x, s: (s - 1.0) ** 2,
            dx=lambda x, s: np.zeros(3),
            dspeed=lambda x, s: 2.0 * (s - 1.0),
        )
        gs = GeneratingScalar(W=w, h=lambda v: 0.0)
        m = euclidean_metric(3)
        nu = solve_nu(gs, m, plane_surface(nu0=0.5), np.array([0.2, 0.1]))
        assert abs(nu - 0.5) < 1e-10

    def test_out_of_bracket_raises(self):
        # nu = exp(2.5) exceeds the eightfold search window around nu0 = 1
        m = euclidean_metric(3)
        s = plane_surface()
        with pytest.raises(RootNotBracketed):
            solve_nu(metrizable_h0(), m, s, np.array([2.5, 0.0]))


def stacked_conformal_metric():
    """g = exp(-2 x^1) I with closures that take stacks."""

    def g(x):
        return np.exp(-2.0 * x[..., 0])[..., None, None] * np.eye(3)

    def dg(x):
        d = np.zeros(np.shape(x)[:-1] + (3, 3, 3))
        d[..., 0, :, :] = -2.0 * g(x)
        return d

    return MetricField(dim=3, g=g, dg=dg, stacked=True)


def cubic_generator():
    """W = v exp(-x^1) + 0.3 v^3 (1 + (x^2)^2), h = 0, closures of one point."""
    w = IsotropicScalar(
        eval=lambda x, s: s * math.exp(-x[0]) + 0.3 * s**3 * (1.0 + x[1] ** 2),
        dx=lambda x, s: np.array([-s * math.exp(-x[0]), 0.6 * s**3 * x[1], 0.0]),
        dspeed=lambda x, s: math.exp(-x[0]) + 0.9 * s**2 * (1.0 + x[1] ** 2),
    )
    return GeneratingScalar(W=w, h=lambda v: 0.0)


FAMILY_METRICS = {
    "conformal": conformal_metric,
    "wavy": wavy_conformal_metric,
    "stacked-conformal": stacked_conformal_metric,
}
FAMILY_GENERATORS = {
    "metrizable": metrizable_h0,
    "metrizable-pointwise": lambda: dataclasses.replace(
        metrizable_h0(), W=dataclasses.replace(metrizable_h0().W, stacked=False)
    ),
    "cubic-pointwise": cubic_generator,
}


def family_surface(kind, base, level, nu0, orientation):
    if kind == "plane":
        return plane_surface(offset=level, base_u=base, nu0=nu0, orientation=orientation)
    if kind == "sphere":
        base = (0.5 * math.pi + base[0], base[1])
        return sphere_surface(base_u=base, nu0=nu0, orientation=-1.0)
    return graph_surface(
        height=lambda u: level + 0.2 * math.sin(u[0]) + 0.1 * u[0] * u[1],
        base_u=base,
        nu0=nu0,
        orientation=orientation,
    )


class TestFamilyInitialState:
    @seed(53)
    @settings(max_examples=30, deadline=None)
    @given(
        surface=st.sampled_from(["plane", "sphere", "graph"]),
        metric=st.sampled_from(sorted(FAMILY_METRICS)),
        generator=st.sampled_from(sorted(FAMILY_GENERATORS)),
        base=st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
        level=st.floats(-0.2, 0.2),
        nu0=st.sampled_from([-1.6, -0.7, 0.7, 1.0, 1.6]),
        orientation=st.sampled_from([1.0, -1.0]),
        k=st.integers(0, 24),
    )
    def test_family_matches_the_per_point_loop(
        self, surface, metric, generator, base, level, nu0, orientation, k
    ):
        # the family's speeds and normals are those of the per-point loop
        # they replace, bit for bit, and a point alone solves alike
        m = FAMILY_METRICS[metric]()
        gs = FAMILY_GENERATORS[generator]()
        s = family_surface(surface, base, level, nu0, orientation)
        grid = GridSpec(ranges=tuple((c - 0.1, c + 0.1, 5) for c in s.base_u))
        rec = run_shift(gs, m, s, grid, t_end=1e-3, dt=1e-3, sample_stride=1)
        nu, normals = pointwise_initial_state(gs, m, s, rec.u_grid)
        assert np.array_equal(rec.nu_vals, nu)
        assert np.array_equal(rec.v[:, 0], nu[:, None] * normals)
        u = rec.u_grid[k]
        assert solve_nu(gs, m, s, u) == nu[k]
        assert np.array_equal(surface_normal(m, s, u), normals[k])

    def test_unbracketed_far_corner_is_named(self):
        # W = v exp(-x^1 - x^2) needs nu = exp(u^1 + u^2), beyond 8 nu0 only
        # at the far corner u = (1.1, 1.1) of the grid
        def weight(x):
            return np.exp(-x[..., 0] - x[..., 1])

        w = IsotropicScalar(
            eval=lambda x, s: s * weight(x),
            dx=lambda x, s: -(s * weight(x))[..., None] * np.array([1.0, 1.0, 0.0]),
            dspeed=lambda x, s: weight(x),
            stacked=True,
        )
        m = euclidean_metric(3)
        grid = GridSpec(ranges=((0.0, 1.1, 5), (0.0, 1.1, 5)))
        for W in (w, dataclasses.replace(w, stacked=False)):
            gs = GeneratingScalar(W=W, h=lambda v: 0.0)
            with pytest.raises(RootNotBracketed, match=r"at u = \[1\.1, 1\.1\]$"):
                run_shift(gs, m, plane_surface(), grid, t_end=0.01, dt=1e-3, sample_stride=1)

    def test_collapsed_chart_names_the_first_point(self):
        collapsed = Hypersurface(
            dim_u=2,
            chart_map=lambda u: np.array([u[0] + u[1], u[0] + u[1], 0.0]),
            base_u=(0.0, 0.0),
        )
        with pytest.raises(DegenerateTangents, match=r"at u = \[-0\.1, -0\.1\]$"):
            quick_run(builtin_geodesic(), euclidean_metric(3), collapsed)


class TestStepTrajectory:
    def test_euclidean_geodesic_is_exact_line(self):
        m = euclidean_metric(3)
        ff = as_force_field(builtin_geodesic())
        st = PhaseState(x=np.array([0.1, 0.2, 0.3]), v=np.array([0.5, -0.4, 1.0]), t=0.0)
        for _ in range(50):
            st = step_trajectory(ff, m, st, 0.01)
        assert np.allclose(st.x, [0.1, 0.2, 0.3] + 0.5 * np.array([0.5, -0.4, 1.0]), atol=1e-13)
        assert np.allclose(st.v, [0.5, -0.4, 1.0], atol=1e-14)
        assert abs(st.t - 0.5) < 1e-12

    def test_curved_geodesic_conserves_speed(self):
        m = diagonal_metric()
        ff = as_force_field(builtin_geodesic())
        st = PhaseState(x=np.array([0.8, 0.5, -0.3]), v=np.array([0.4, 0.7, -0.2]), t=0.0)
        s0 = speed_at(m, st.x, st.v)
        for _ in range(100):
            st = step_trajectory(ff, m, st, 0.005)
        assert abs(speed_at(m, st.x, st.v) - s0) < 1e-10

    def test_fourth_order_self_convergence(self):
        m = diagonal_metric()
        ff = as_force_field(builtin_geodesic())
        x0 = np.array([0.8, 0.5, -0.3])
        v0 = np.array([0.4, 0.7, -0.2])

        def endpoint(dt):
            st = PhaseState(x=x0, v=v0, t=0.0)
            for _ in range(int(round(0.4 / dt))):
                st = step_trajectory(ff, m, st, dt)
            return np.concatenate([st.x, st.v])

        e_coarse = np.max(np.abs(endpoint(0.02) - endpoint(0.01)))
        e_fine = np.max(np.abs(endpoint(0.01) - endpoint(0.005)))
        assert 12.0 < e_coarse / e_fine < 20.0

    def test_zero_velocity_raises(self):
        m = euclidean_metric(3)
        ff = as_force_field(builtin_geodesic())
        st = PhaseState(x=np.zeros(3), v=np.full(3, 1e-13), t=0.0)
        with pytest.raises(ZeroVelocity):
            step_trajectory(ff, m, st, 0.01)

    def test_overflow_raises(self):
        m = euclidean_metric(3)
        huge = ForceField(eval=lambda m_, x, v: np.full(3, 1e308))
        st = PhaseState(x=np.zeros(3), v=np.array([1.0, 0.0, 0.0]), t=0.0)
        with pytest.raises(NonFinite):
            step_trajectory(huge, m, st, 1.0)

    def test_speed_collapse_raises(self):
        # a constant force of -v/dt stops the flat flow's state in one step
        m = euclidean_metric(3)
        brake = ForceField(eval=lambda m_, x, v: np.array([-2.0, 0.0, 0.0]))
        st = PhaseState(x=np.zeros(3), v=np.array([1.0, 0.0, 0.0]), t=0.25)
        with pytest.raises(ZeroVelocity, match="^speed collapsed below floor near t = 0.25$"):
            step_trajectory(brake, m, st, 0.5)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_dt_not_positive_and_finite_rejected(self, dt):
        m = euclidean_metric(3)
        ff = as_force_field(builtin_geodesic())
        st = PhaseState(x=np.zeros(3), v=np.ones(3), t=0.0)
        with pytest.raises(ValueError, match="^dt must be positive and finite$"):
            step_trajectory(ff, m, st, dt)


class TestRunShift:
    def test_record_layout(self, plane_h0_record):
        rec = plane_h0_record
        assert rec.u_grid.shape == (25, 2)
        assert rec.grid_shape == (5, 5)
        assert rec.times[0] == 0.0
        assert abs(rec.times[-1] - 0.2) < 1e-12
        assert rec.x.shape == (25, 21, 3)
        assert rec.phi.shape == (25, 21, 2)
        # the two-deep boundary margin carries NaN, the interior is finite
        phi_grid = rec.phi[:, 0, 0].reshape(5, 5)
        assert np.all(np.isnan(phi_grid[:2]))
        assert np.all(np.isfinite(phi_grid[2, 2]))

    def test_initial_slice_orthogonal(self, plane_h0_record):
        assert np.nanmax(np.abs(plane_h0_record.phi[:, 0, :])) < 1e-12

    def test_plane_family_of_straight_lines_has_zero_deviation(
        self, plane_geodesic_record
    ):
        # geodesics leave a flat start orthogonally and stay orthogonal
        assert np.nanmax(np.abs(plane_geodesic_record.phi)) < 1e-14
        assert np.allclose(plane_geodesic_record.nu_vals, 1.0)

    def test_sphere_radial_geodesics(self):
        th0 = 0.5 * math.pi
        grid = GridSpec(ranges=((th0 - 0.1, th0 + 0.1, 5), (-0.1, 0.1, 5)))
        rec = run_shift(
            builtin_geodesic(),
            euclidean_metric(3),
            sphere_surface(),
            grid,
            t_end=0.2,
            dt=1e-3,
            sample_stride=10,
        )
        assert max_normalized_deviation(rec, euclidean_metric(3)) < 1e-10

    def test_certified_generator_small_deviation(self, plane_h0_record):
        assert max_normalized_deviation(plane_h0_record, euclidean_metric(3)) < 1e-6

    def test_forced_constant_nu_breaks_orthogonality(self):
        m = euclidean_metric(3)
        rec = quick_run(metrizable_h0(), m, plane_surface(), force_constant_nu=True)
        assert max_normalized_deviation(rec, m) > 1e-3
        assert np.allclose(rec.nu_vals, 1.0)

    def test_grid_too_coarse(self):
        # four points leave no interior stencil; a zero-width range has
        # spacing 0, so its tangents and deviations would be NaN
        for ranges in (((-0.1, 0.1, 4), (-0.1, 0.1, 5)), ((0.1, 0.1, 5), (-0.1, 0.1, 5))):
            with pytest.raises(GridTooCoarse):
                run_shift(
                    builtin_geodesic(),
                    euclidean_metric(3),
                    plane_surface(),
                    GridSpec(ranges=ranges),
                    t_end=0.1,
                    dt=1e-3,
                )

    def test_trajectory_escape(self):
        box = [[-1.0, 1.0], [-1.0, 1.0], [-0.05, 0.05]]
        with pytest.raises(TrajectoryEscaped):
            quick_run(
                metrizable_h0(),
                euclidean_metric(3),
                plane_surface(),
                chart_box=box,
            )

    @pytest.mark.parametrize(
        "name,value",
        [("sample_stride", 0), ("sample_stride", -1), ("sample_stride", 2.5),
         ("dt", 0.0), ("dt", -1e-3), ("dt", math.nan),
         ("t_end", math.inf), ("t_end", math.nan), ("t_end", -0.05)],
    )
    def test_bad_time_arguments_rejected_before_any_work(self, name, value):
        def chart_map(u):
            raise AssertionError("the surface was reached")

        surface = dataclasses.replace(plane_surface(), chart_map=chart_map)
        kw = dict({"t_end": 0.05, "dt": 1e-3, "sample_stride": 5}, **{name: value})
        if name == "sample_stride":
            message = "sample_stride must be a positive integer"
        else:
            message = f"{name} must be positive and finite"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_shift(builtin_geodesic(), euclidean_metric(3), surface, small_grid(), **kw)

    def test_a_bool_is_not_a_sample_stride(self):
        with pytest.raises(ValueError, match="^sample_stride must be a positive integer$"):
            run_shift(builtin_geodesic(), euclidean_metric(3), plane_surface(), small_grid(),
                      t_end=0.05, dt=1e-3, sample_stride=True)

    def test_grid_of_another_dimension_rejected(self):
        grid = GridSpec(ranges=((-0.1, 0.1, 5),))
        with pytest.raises(ValueError, match="^grid dimensionality does not match the surface$"):
            run_shift(builtin_geodesic(), euclidean_metric(3), plane_surface(), grid,
                      t_end=0.05, dt=1e-3, sample_stride=5)

    @pytest.mark.parametrize(
        "box",
        [
            [[-1.0, 1.0], [-1.0, 1.0], [0.05, -0.05]],
            [[-1.0, 1.0], [-1.0, 1.0], [0.05, 0.05]],
            [[-1.0, 1.0], [-1.0, 1.0]],
            [[-1.0, 1.0], [-1.0, 1.0], [-1.0, math.inf]],
            [[-1.0, 1.0], [math.nan, 1.0], [-1.0, 1.0]],
        ],
        ids=["lo-above-hi", "lo-equals-hi", "two-rows", "infinite", "nan"],
    )
    def test_bad_chart_box_rejected_before_any_work(self, box):
        def chart_map(u):
            raise AssertionError("the surface was reached")

        surface = dataclasses.replace(plane_surface(), chart_map=chart_map)
        message = re.escape("chart_box must hold 3 finite [lo, hi] pairs with lo < hi")
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_shift(builtin_geodesic(), euclidean_metric(3), surface, small_grid(),
                      t_end=0.05, dt=1e-3, sample_stride=5, chart_box=box)

    def test_time_grid_validation(self):
        m = euclidean_metric(3)
        with pytest.raises(ValueError):
            run_shift(
                builtin_geodesic(), m, plane_surface(), small_grid(), t_end=0.0505, dt=1e-3
            )
        with pytest.raises(ValueError):
            run_shift(
                builtin_geodesic(),
                m,
                plane_surface(),
                small_grid(),
                t_end=0.05,
                dt=1e-3,
                sample_stride=7,
            )

    def test_deterministic(self, plane_h0_record):
        again = quick_run(metrizable_h0(), euclidean_metric(3), plane_surface())
        assert np.array_equal(again.x, plane_h0_record.x)
        assert np.array_equal(again.v, plane_h0_record.v)
        assert np.array_equal(again.nu_vals, plane_h0_record.nu_vals)


def tilted_metric(stacked):
    """A curved metric with off-diagonal entries and analytic derivatives,
    written once for a point (3,) and a stack (k, 3)."""

    def g(x):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        out = np.zeros(x.shape[:-1] + (3, 3))
        out[..., 0, 0] = 2.0 + np.sin(x1 * x2)
        out[..., 1, 1] = 1.5 + x3**2
        out[..., 2, 2] = 1.0 + np.exp(0.3 * x1)
        out[..., 0, 1] = out[..., 1, 0] = 0.4 * np.cos(x2 + x3)
        out[..., 1, 2] = out[..., 2, 1] = 0.2 * x1 * x2
        return out

    def dg(x):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        d = np.zeros(x.shape[:-1] + (3, 3, 3))
        d[..., 0, 0, 0] = x2 * np.cos(x1 * x2)
        d[..., 0, 2, 2] = 0.3 * np.exp(0.3 * x1)
        d[..., 0, 1, 2] = d[..., 0, 2, 1] = 0.2 * x2
        d[..., 1, 0, 0] = x1 * np.cos(x1 * x2)
        d[..., 1, 0, 1] = d[..., 1, 1, 0] = -0.4 * np.sin(x2 + x3)
        d[..., 1, 1, 2] = d[..., 1, 2, 1] = 0.2 * x1
        d[..., 2, 1, 1] = 2.0 * x3
        d[..., 2, 0, 1] = d[..., 2, 1, 0] = -0.4 * np.sin(x2 + x3)
        return d

    return MetricField(dim=3, g=g, dg=dg, stacked=stacked)


class TestRaisedOnceStage:
    """A stage raises g^-1 (F - c) once, where the textbook stage raises F
    and subtracts gamma(v, v)."""

    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "pointwise"])
    @pytest.mark.parametrize("rows", [None, 6], ids=["state", "stack"])
    def test_matches_the_textbook_stage(self, stacked, rows):
        m = tilted_metric(stacked)
        gs = metrizable_hw()
        rng = np.random.default_rng(16)
        shape = (3,) if rows is None else (rows, 3)
        x = rng.uniform(-0.8, 0.8, shape)
        v = rng.normal(size=shape)
        force = generated_force(gs, m)
        dx, dv = shift_engine._flow_rhs(force, m, x, v, metric_at(m, x))
        f_up = mat_vec(inverse_metric_at(m, x), force_from_W(gs, m, x, v))
        gamma_vv = np.einsum("...kij,...i,...j->...k", christoffel_at(m, x), v, v)
        assert dx is v and dv.shape == shape
        assert np.abs(gamma_vv).min() > 1e-3  # the connection term is not negligible
        scale = np.abs(f_up) + np.abs(gamma_vv)
        assert np.all(np.abs(dv - (f_up - gamma_vv)) <= 1e-13 * scale)

    def test_forms_no_christoffel_tensor_and_no_projector(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("not needed by a stage")

        for module in (tensor_core, shift_engine, force_builder):
            for name in ("christoffel_from", "outer"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        m = tilted_metric(True)
        state = PhaseState(x=np.array([0.1, 0.2, 0.3]), v=np.array([0.5, -0.2, 0.4]), t=0.0)
        step_trajectory(as_force_field(metrizable_hw()), m, state, 1e-3)
        run_shift(metrizable_hw(), m, plane_surface(), small_grid(), t_end=0.01, dt=1e-3,
                  sample_stride=1)



class TestDiagonalStage:
    """A stage on a metric marked ``diagonal`` inverts by reciprocals and forms
    the connection term from the n x n derivatives; the same closures as
    full matrices take the general stage."""

    @pytest.mark.parametrize("kind", CLI_METRICS)
    def test_stage_matches_the_full_matrices(self, tmp_path, kind):
        m = cli_metric(CLI_METRICS[kind], tmp_path)
        full = full_matrices(m)
        rng = np.random.default_rng(16)
        x, v = rng.uniform(-0.8, 0.8, (200, 3)), rng.normal(size=(200, 3))
        gmat = metric_at(m, x)
        assert np.array_equal(gmat, metric_at(full, x))
        got = shift_engine._flow_rhs(generated_force(metrizable_hw(), m), m, x, v, gmat)[1]
        want = shift_engine._flow_rhs(generated_force(metrizable_hw(), full), full, x, v, gmat)[1]
        if kind == "euclidean":  # g^-1 = 1 and c = 0 exactly on either path
            assert np.array_equal(got, want)
        else:
            # measured: at most 5.1e-16 of a state's largest component
            assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want).max(axis=-1, keepdims=True))

    @pytest.mark.parametrize("kind", CLI_METRICS)
    def test_family_matches_the_full_matrices(self, tmp_path, kind):
        m = cli_metric(CLI_METRICS[kind], tmp_path)
        got = quick_run(metrizable_hw(), m, plane_surface())
        want = quick_run(metrizable_hw(), full_matrices(m), plane_surface())
        for name in ("x", "v", "phi", "W_vals", "speed_vals"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(np.isnan(a), np.isnan(b))
            if kind == "euclidean":
                assert np.array_equal(a, b, equal_nan=True), name
            elif name == "phi":
                # a cancellation residual of O(1) terms; measured at most 6.0e-17
                assert np.nanmax(np.abs(a - b)) <= 5e-16
            else:
                # measured: at most 1.7e-16 of the array's largest entry
                assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b)), name

    def test_stage_takes_no_inverse_matrix_and_no_derivative_cube(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("not needed by a diagonal stage")

        for name in ("inverse_metric_from", "metric_derivatives_at", "raised_acceleration"):
            monkeypatch.setattr(shift_engine, name, forbidden)
        m = cli_metric(CLI_METRICS["conformal"], tmp_path)
        quick_run(metrizable_hw(), m, plane_surface(), t_end=0.01)
        # without analytic derivatives the general stage serves
        differenced = MetricField(dim=3, g=m.g, stacked=True, diagonal=True)
        with pytest.raises(AssertionError, match="not needed by a diagonal stage"):
            quick_run(metrizable_hw(), differenced, plane_surface(), t_end=0.01)

    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "pointwise"])
    @pytest.mark.parametrize(
        "level,at",
        [(0.02025, "[ 0.1    -0.1     0.0205]"), (0.0207, "[ 0.1   -0.1    0.021]")],
        ids=["stage-2", "stage-4"],
    )
    @pytest.mark.parametrize(
        "bad,reason",
        [
            (0.0, "metric not positive-definite"),
            (-1.0, "metric not positive-definite"),
            (np.nan, "metric not positive-definite"),
            (np.inf, "metric not positive-definite"),
            (1e-309, "metric too ill-conditioned to invert: residual inf"),
        ],
        ids=["zero", "negative", "nan", "inf", "reciprocal-overflows"],
    )
    def test_entry_failing_at_an_intermediate_stage_is_named(self, level, at, bad, reason, stacked):
        # as in TestFamilyStep's intermediate-stage test: past
        # x^3 = 0.02025 the second stage's positions fail, past 0.0207 only
        # the fourth stage's do
        def entries(x):
            failing = (x[..., 0] > 0.075) & (x[..., 2] > level)
            return np.where(failing[..., None], [1.0, 1.0, bad], 1.0)

        m = MetricField(
            dim=3, g=entries, dg=lambda x: np.zeros(x.shape[:-1] + (3, 3)), stacked=stacked,
            diagonal=True,
        )
        with pytest.raises(NotPositiveDefinite) as info:
            run_shift(builtin_geodesic(), m, plane_surface(), small_grid(), t_end=0.05, dt=1e-3)
        assert str(info.value) == (
            f"trajectory from u = [0.1, -0.1] near t = 0.02: {reason} at x={at}"
        )


class TestConformalRoute:
    """The paper's route between the two kinds of field: trajectories of
    W = |v| e^(-f) with h = H on g are geodesics of e^(-2f) g, reparametrized
    through H.  Here g is the CLI's Euclidean metric and e^(-2f) g its
    conformal one, f = 0.3 x^1, both on the diagonal stage."""

    GRID = GridSpec(ranges=((-0.1, 0.1, 5), (-0.1, 0.1, 5)))

    @pytest.fixture(scope="class")
    def geodesics(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("route")
        m = build_metric(cli_scenario(directory, metric={"kind": "conformal", "f": "0.3*x1"}))
        assert m.diagonal
        return run_shift(builtin_geodesic(), m, plane_surface(), self.GRID, t_end=0.8, dt=1e-3,
                         sample_stride=1)

    @pytest.mark.parametrize("H,tol", [("v", 1e-13), ("v^2", 1e-12)], ids=["h=w", "h=w^2"])
    def test_metrizable_trajectories_are_conformal_geodesics(self, tmp_path, geodesics, H, tol):
        # At dt = 1e-3 the integrator's own error, the gap in x to the same
        # run at dt = 5e-4, is 2.7e-15 for the geodesics and 1.1e-14 (h = w)
        # and 1.6e-13 (h = w^2) for the metrizable families, whose speeds
        # grow; the curve gaps measured 1.5e-14 and 2.3e-13, and each
        # family's own Hermite reproduces its half-step run to 1e-14
        sc = cli_scenario(tmp_path, metric={"kind": "euclidean"},
                          generator={"kind": "metrizable", "f": "0.3*x1", "H": H})
        m = build_metric(sc)
        assert m.diagonal
        shifted = run_shift(build_generator(sc), m, plane_surface(), self.GRID, t_end=0.5,
                            dt=1e-3, sample_stride=1)
        assert np.abs(shifted.x[:, -1, 0] - shifted.x[:, 0, 0]).min() > 0.05  # the curves bend
        for a, b in ((shifted, geodesics), (geodesics, shifted)):
            worst, compared = hermite_curve_gap(a, b)
            assert compared > 0.5 * a.x.shape[0] * a.x.shape[1]
            assert worst <= tol


class TestFusedStage:
    """Stages 2-4 of a step take g and dg from one ``terms`` call of a
    stacked metric, which gives the values of ``g`` and ``dg`` called one
    by one, and a run fails where and how it fails with them."""

    # metrizable W = |v| e^(x^3) with h = 1.5 W on the Euclidean metric:
    # every trajectory rises alike and decelerates, so a step's end lies
    # above its stage-4 position (by 2.1e-11 in the step from t = 0.019)
    GENERATOR = builtin_metrizable(coordinate_scalar(2, -1.0), H=lambda w: 1.5 * w)

    @staticmethod
    def failing_metric(level, entry=1.0):
        """The Euclidean metric in diagonal form whose ``dg`` fails, naming an
        expression, at the rows past x^1 = 0.075 once x^3 passes ``level``,
        where the entry g_33 is ``entry``."""

        def failing(x):
            return (x[..., 0] > 0.075) & (x[..., 2] > level)

        def g(x):
            out = np.ones(x.shape[:-1] + (3,))
            out[failing(x), 2] = entry
            return out

        def dg(x):
            if failing(x).any():
                raise EvaluationFailure("expression 'df' failed to evaluate: non-finite result")
            return np.zeros(x.shape[:-1] + (3, 3))

        return MetricField(
            dim=3, g=g, dg=dg, stacked=True, diagonal=True, terms=lambda x: (g(x), dg(x))
        )

    @pytest.mark.parametrize(
        "level,entry,error,reason",
        [
            # the step from t = 0.02 starts at x^3 = 0.020099664192, and its
            # second stage is the first position past the level
            (0.0203, 1.0, EvaluationFailure,
             "expression 'df' failed to evaluate: non-finite result"),
            # the step from t = 0.019 ends at x^3 = 0.020099664192 and its
            # stages stay below 0.020099664171: dg fails in the next step's
            # first stage, which the last step's end hands its g
            (0.020099664181, 1.0, EvaluationFailure,
             "expression 'df' failed to evaluate: non-finite result"),
            # g's own check comes first, as when g and dg are called apart
            (0.0203, 0.0, NotPositiveDefinite,
             "metric not positive-definite at x=[ 0.1        -0.1         0.02060464]"),
        ],
        ids=["stage-2", "step-end", "entry-first"],
    )
    def test_failure_is_the_one_g_and_dg_name(self, level, entry, error, reason):
        m = self.failing_metric(level, entry)
        messages = []
        for metric in (m, dataclasses.replace(m, terms=None)):
            with pytest.raises(error) as info:
                run_shift(self.GENERATOR, metric, plane_surface(), small_grid(), t_end=0.05,
                          dt=1e-3)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"trajectory from u = [0.1, -0.1] near t = 0.02: {reason}"

    @pytest.mark.parametrize("general", [False, True], ids=["diagonal", "full-matrices"])
    @pytest.mark.parametrize("kind", sorted(CLI_METRICS))
    def test_run_equals_the_run_without_terms(self, tmp_path, kind, general):
        m = cli_metric(CLI_METRICS[kind], tmp_path)
        if general:
            full = full_matrices(m)
            m = dataclasses.replace(full, terms=lambda x: (full.g(x), full.dg(x)))
        gs = build_generator(cli_scenario(
            tmp_path, metric=CLI_METRICS[kind],
            generator={"kind": "nonmetrizable", "f": "x1*x2", "A": "v^3 + v"},
        ))
        fused, apart = (
            run_shift(gs, metric, plane_surface(offset=0.2), small_grid(), t_end=0.02, dt=1e-3,
                      sample_stride=4)
            for metric in (m, dataclasses.replace(m, terms=None))
        )
        for name in ("x", "v", "phi", "W_vals", "speed_vals"):
            assert np.array_equal(getattr(fused, name), getattr(apart, name), equal_nan=True)


class TestFamilyStep:
    """run_shift steps the whole family as one stack of states."""

    def test_family_matches_stepping_each_trajectory_alone(self):
        m = wavy_conformal_metric()
        gs = metrizable_hw()
        rec = run_shift(
            gs, m, plane_surface(offset=0.2), small_grid(), t_end=0.05, dt=1e-3, sample_stride=10
        )
        ff = as_force_field(gs)
        gap = 0.0
        for i in range(rec.u_grid.shape[0]):
            st = rec.state_at(i, 0)
            for step in range(1, 51):
                st = step_trajectory(ff, m, st, 1e-3)
                if step % 10 == 0:
                    j = step // 10
                    gap = max(gap, np.max(np.abs(st.x - rec.x[i, j])), np.max(np.abs(st.v - rec.v[i, j])))
        assert np.max(np.abs(rec.v[:, -1] - rec.v[:, 0])) > 1e-3  # the force acts
        # the family step and step_trajectory are one path
        assert gap == 0.0

    def test_tangents_match_the_pointwise_stencil(self):
        m = wavy_conformal_metric()
        rec = run_shift(
            metrizable_hw(), m, sphere_surface(), GridSpec(ranges=((1.3, 1.7, 6), (-0.2, 0.2, 5))),
            t_end=0.02, dt=1e-3, sample_stride=10,
        )
        tangents = shift_engine._grid_tangents(rec.x, rec.grid_shape, rec.u_axes)
        for i, idx in enumerate(np.ndindex(*rec.grid_shape)):
            for j in range(rec.times.shape[0]):
                for k in range(2):
                    if not 2 <= idx[k] <= rec.grid_shape[k] - 3:
                        assert np.all(np.isnan(tangents[i, j, k])) and np.isnan(rec.phi[i, j, k])
                        continue
                    tau = pointwise_tangent(rec, i, j, k)
                    phi = tau @ metric_at(m, rec.x[i, j]) @ rec.v[i, j]
                    assert np.allclose(tangents[i, j, k], tau, rtol=1e-12, atol=0)
                    assert rec.phi[i, j, k] == pytest.approx(phi, rel=1e-9, abs=1e-15)

    def test_max_normalized_deviation_matches_the_point_loop(self):
        m = wavy_conformal_metric()
        rec = run_shift(
            metrizable_hw(), m, sphere_surface(), GridSpec(ranges=((1.3, 1.7, 6), (-0.2, 0.2, 5))),
            t_end=0.04, dt=1e-3, sample_stride=10, force_constant_nu=True,
        )
        worst = 0.0
        n_u, n_t, dim_u = rec.phi.shape
        for i in range(n_u):
            for j in range(n_t):
                if not np.isfinite(rec.phi[i, j, 0]):
                    continue
                g = metric_at(m, rec.x[i, j])
                for k in range(dim_u):
                    tau = pointwise_tangent(rec, i, j, k)
                    norm = math.sqrt(float(tau @ g @ tau))
                    worst = max(worst, abs(float(rec.phi[i, j, k])) / (rec.speed_vals[i, j] * norm))
        assert worst > 1e-3  # the constant-nu family deviates
        assert max_normalized_deviation(rec, m) == pytest.approx(worst, rel=1e-12, abs=0)

    def test_numerical_failure_names_first_trajectory_and_time(self):
        # the metric turns indefinite once x^3 passes 0.02025 above the
        # line x^1 = 0.1, where the last five grid rows start; straight
        # unit-speed geodesics reach it in the step from t = 0.02
        def g(x):
            if x[0] > 0.075 and x[2] > 0.02025:
                return np.diag([1.0, 1.0, -1.0])
            return np.eye(3)

        m = MetricField(dim=3, g=g, dg=lambda x: np.zeros((3, 3, 3)))
        with pytest.raises(NotPositiveDefinite) as info:
            run_shift(builtin_geodesic(), m, plane_surface(), small_grid(), t_end=0.05, dt=1e-3)
        message = str(info.value)
        assert message.startswith("trajectory from u = [0.1, -0.1] near t = 0.02:")
        assert "not positive-definite" in message

    @pytest.mark.parametrize(
        "level,at",
        [(0.02025, "[ 0.1    -0.1     0.0205]"), (0.0207, "[ 0.1   -0.1    0.021]")],
        ids=["stage-2", "stage-4"],
    )
    @pytest.mark.parametrize(
        "bad,reason",
        [
            (np.diag([1.0, 1.0, -1.0]), "metric not positive-definite"),
            (
                np.array([[1.0, 1.0 - 1e-8, 0.0], [1.0 - 1e-8, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                "metric too ill-conditioned to invert: residual 2.776e-09",
            ),
        ],
        ids=["indefinite", "ill-conditioned"],
    )
    def test_metric_failing_at_an_intermediate_stage_is_named(self, level, at, bad, reason):
        # straight unit-speed lines from the plane, in the step from t = 0.02:
        # past x^3 = 0.02025 the second stage's positions (x^3 = 0.0205) fail,
        # past 0.0207 only the fourth stage's (x^3 = 0.021) do
        def g(x):
            if x[0] > 0.075 and x[2] > level:
                return bad.copy()
            return np.eye(3)

        m = MetricField(dim=3, g=g, dg=lambda x: np.zeros((3, 3, 3)))
        with pytest.raises(NotPositiveDefinite) as info:
            run_shift(builtin_geodesic(), m, plane_surface(), small_grid(), t_end=0.05, dt=1e-3)
        assert str(info.value) == (
            f"trajectory from u = [0.1, -0.1] near t = 0.02: {reason} at x={at}"
        )

    @pytest.mark.parametrize(
        "level,at",
        [(0.02025, "[ 0.1    -0.1     0.0205]"), (0.0207, "[ 0.1   -0.1    0.021]")],
        ids=["stage-2", "stage-4"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("where", [(2, 2), (0, 2)], ids=["diagonal", "off-diagonal"])
    def test_non_finite_metric_at_an_intermediate_stage_is_named(self, level, at, bad, where):
        # as above; a non-finite entry is not positive-definite, where it
        # once surfaced only at the inverse, as a residual of nan
        def g(x):
            out = np.eye(3)
            if x[0] > 0.075 and x[2] > level:
                out[where] = out[where[::-1]] = bad
            return out

        m = MetricField(dim=3, g=g, dg=lambda x: np.zeros((3, 3, 3)))
        with pytest.raises(NotPositiveDefinite) as info:
            run_shift(builtin_geodesic(), m, plane_surface(), small_grid(), t_end=0.05, dt=1e-3)
        assert str(info.value) == (
            f"trajectory from u = [0.1, -0.1] near t = 0.02: metric not positive-definite at x={at}"
        )

    def test_escape_names_first_trajectory_and_time(self):
        # nu = exp(x^1) here, so the x^1 = 0.1 rows rise fastest and leave
        # the box together; the lowest of them is reported
        m = euclidean_metric(3)
        free = quick_run(metrizable_h0(), m, plane_surface(), t_end=0.06, sample_stride=1)
        first = int(np.argmax(free.x[:, :, 2] > 0.05, axis=1).min())
        assert np.flatnonzero(free.x[:, first, 2] > 0.05).tolist() == [20, 21, 22, 23, 24]
        box = [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 0.05]]
        with pytest.raises(TrajectoryEscaped) as info:
            quick_run(metrizable_h0(), m, plane_surface(), t_end=0.06, chart_box=box)
        assert str(info.value) == (
            f"trajectory from u = [0.1, -0.1] left the chart box at t = {free.times[first]:.6g}"
        )


class TestRecordedLaws:
    def test_conserved_generator_statics(self, plane_h0_record):
        rec = plane_h0_record
        assert w_dynamics_residual(rec, metrizable_h0()) < 1e-10
        assert np.max(np.abs(rec.W_vals - rec.W_vals[:, :1])) < 1e-10
        spread = surface_constancy_residual(rec)
        assert spread.shape == rec.times.shape
        assert np.max(spread) < 1e-12

    def test_linear_law_grows_exponentially(self, plane_hw_record):
        rec = plane_hw_record
        assert w_dynamics_residual(rec, metrizable_hw()) < 1e-8
        expected = rec.W_vals[:, :1] * np.exp(rec.times)[None, :]
        assert np.max(np.abs(rec.W_vals - expected)) < 1e-10

    @pytest.mark.parametrize(
        "h", [lambda w: w, lambda w: math.sin(w)], ids=["array-capable", "float-only"]
    )
    def test_w_law_matches_the_per_trajectory_loop(self, plane_hw_record, h):
        # all trajectories step together, and give the per-trajectory
        # loop's residual bit for bit
        rec = plane_hw_record
        worst = 0.0
        for i in range(rec.W_vals.shape[0]):
            w = float(rec.W_vals[i, 0])
            for j in range(1, rec.times.shape[0]):
                step = float(rec.times[j] - rec.times[j - 1])
                k1 = float(h(w))
                k2 = float(h(w + 0.5 * step * k1))
                k3 = float(h(w + 0.5 * step * k2))
                k4 = float(h(w + step * k3))
                w = w + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                worst = max(worst, abs(float(rec.W_vals[i, j]) - w))
        gs = GeneratingScalar(W=metrizable_hw().W, h=h)
        assert w_dynamics_residual(rec, gs) == worst

    def test_speed_law_along_family(self, plane_h0_record):
        m = euclidean_metric(3)
        res = speed_law_residual(plane_h0_record, as_force_field(metrizable_h0()), m)
        assert res < 1e-6

    def test_speed_law_needs_stencil_width(self):
        m = euclidean_metric(3)
        rec = run_shift(
            builtin_geodesic(),
            m,
            plane_surface(),
            small_grid(),
            t_end=0.02,
            dt=1e-3,
            sample_stride=10,
        )
        with pytest.raises(ValueError):
            speed_law_residual(rec, as_force_field(builtin_geodesic()), m)

    def test_deviation_reduction_is_nan_aware(self, plane_h0_record):
        assert math.isfinite(
            max_normalized_deviation(plane_h0_record, euclidean_metric(3))
        )


class TestDiscretizationOrders:
    def test_stencil_order_at_least_three(self):
        # nested grids share trajectories at common points, so differencing
        # phi across refinements isolates the tangent stencil error
        m = euclidean_metric(3)
        gs = metrizable_h0()
        surf = graph_surface(
            height=lambda u: 0.3 * math.sin(2.0 * u[0]) + 0.1 * u[1] ** 2
        )

        def control(count):
            grid = GridSpec(ranges=((-0.15, 0.15, count), (-0.1, 0.1, 5)))
            return run_shift(
                gs,
                m,
                surf,
                grid,
                t_end=0.05,
                dt=1e-3,
                sample_stride=10,
                force_constant_nu=True,
            )

        def phi_common(rec, step):
            phi = rec.phi[:, :, 0].reshape(rec.grid_shape + (-1,))
            return phi[::step]

        base = phi_common(control(7), 1)
        mid = phi_common(control(13), 2)
        fine = phi_common(control(25), 4)
        e_coarse = np.nanmax(np.abs(base - mid))
        e_fine = np.nanmax(np.abs(mid - fine))
        order = math.log2(e_coarse / e_fine)
        assert 3.5 < order < 4.5
