"""Stacked closures against their one-row stacks, and the closure calls of a shift.

A ``stacked`` metric or isotropic scalar takes a whole stack of points in
one call, and the library hands it a single point as a one-row stack; it
calls unmarked closures once per point.  These tests hold every closure
the library marks ``stacked`` to its values on each row alone, check that
the public point API never calls one on a single point, check that a
shift gives the same record with the closures wrapped as point closures,
and count the closure calls one shift makes.
"""

import dataclasses
import json
import math
import tempfile
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from hypothesis.extra.numpy import arrays

from normalshift import cli
from normalshift.cli import (
    _isotropic,
    build_generator,
    build_metric,
    load_scenario,
)
from normalshift.errors import DegenerateWv, EvaluationFailure
from normalshift.expressions import parse_expression
from normalshift.extended_fields import IsotropicScalar, lift_isotropic
from normalshift.force_builder import (
    GaugeMap,
    GeneratingScalar,
    ansatz_force_field,
    ansatz_from_generator,
    as_force_field,
    builtin_geodesic,
    builtin_metrizable,
    builtin_nonmetrizable,
    coefficient_pack,
    compute_a,
    compute_b,
    coordinate_scalar,
    force_from_W,
    gauge_transform,
    perturbed_field,
)
from normalshift.normality_verifier import (
    SampleSpec,
    residual_additional1,
    residual_additional2,
    residual_weak1,
    residual_weak2,
    verify,
)
from normalshift.shift_engine import (
    GridSpec,
    PhaseState,
    run_shift,
    solve_nu,
    speed_law_residual,
    sphere_surface,
    step_trajectory,
    surface_normal,
)
from normalshift.tensor_core import MetricField, christoffel_at, metric_at, speed_at

from helpers import euclidean_metric

WAVY = "0.3*sin(x1 + 2*x2) + 0.1*x3"

CLI_METRICS = {
    "euclidean": {"kind": "euclidean"},
    "conformal": {"kind": "conformal", "f": WAVY},
    "diagonal": {"kind": "diagonal", "entries": ["1 + x1^2", "exp(x2)", "2 + sin(x3)"]},
}


def scenario(metric=None, generator=None):
    """A scenario with these sections, read as the CLI reads its file."""
    data = {
        "name": "stacked",
        "metric": metric or CLI_METRICS["euclidean"],
        "generator": generator or {"kind": "geodesic"},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        return load_scenario(path)


def misleading_profile(v):
    # right on one float, wrong on arrays: must not be used on arrays
    return v**3 if np.ndim(v) == 0 else v**2


SCALAR_BUILDERS = {
    "coordinate": lambda: coordinate_scalar(2, coefficient=-1.5),
    "cli-position-expression": lambda: _isotropic(
        parse_expression(WAVY), 3
    ),
    "geodesic": lambda: builtin_geodesic().W,
    "metrizable": lambda: builtin_metrizable(coordinate_scalar(0), H=lambda w: w).W,
    "nonmetrizable": lambda: builtin_nonmetrizable(coordinate_scalar(1), lambda v: v**3).W,
    "nonmetrizable-float-profile": lambda: builtin_nonmetrizable(
        coordinate_scalar(1), lambda v: math.pow(v, 3) + 0.5
    ).W,
    "nonmetrizable-misleading-profile": lambda: builtin_nonmetrizable(
        coordinate_scalar(1), misleading_profile
    ).W,
    "cli-metrizable": lambda: build_generator(
        scenario(generator={"kind": "metrizable", "f": WAVY, "H": "v"})
    ).W,
    "cli-nonmetrizable": lambda: build_generator(
        scenario(generator={"kind": "nonmetrizable", "f": "x1*x2", "A": "v^3 + v"})
    ).W,
    "cli-custom": lambda: build_generator(
        scenario(generator={"kind": "custom", "W": "v*exp(-x1) + v^3*x2^2", "h": "0"})
    ).W,
}


# the W's in the table that carry ``terms``: the nonmetrizable ones
TERMS_WS = (
    "nonmetrizable",
    "nonmetrizable-float-profile",
    "nonmetrizable-misleading-profile",
    "cli-nonmetrizable",
)


@lru_cache(maxsize=None)
def stacked_scalar(name: str) -> IsotropicScalar:
    return SCALAR_BUILDERS[name]()


POSITIONS = arrays(np.float64, (2, 3, 3), elements=st.floats(0.3, 1.2))
SPEEDS = arrays(np.float64, (2, 3), elements=st.floats(0.5, 2.0))


def point_values(fn, *stacks):
    """``fn`` at each point of the stacks, assembled with the stacks' leading axes."""
    lead = stacks[0].shape[:-1]
    values = [
        np.asarray(fn(*(s[idx] if s.ndim > len(lead) else float(s[idx]) for s in stacks)))
        for idx in np.ndindex(lead)
    ]
    return np.array(values).reshape(lead + values[0].shape)


def row_values(fn, *stacks):
    """``fn`` on each row of the stacks as a one-row stack, assembled with the
    stacks' leading axes: how the library hands a stacked closure one point."""
    lead = stacks[0].shape[:-1]
    values = [np.asarray(fn(*(s[idx][None] for s in stacks)))[0] for idx in np.ndindex(lead)]
    return np.array(values).reshape(lead + values[0].shape)


def assert_matches(stack, points):
    stack = np.asarray(stack, dtype=float)
    assert stack.shape == points.shape
    np.testing.assert_allclose(stack, points, rtol=1e-12, atol=0.0)


class TestStackedClosuresMatchPoints:
    @seed(41)
    @settings(max_examples=40, deadline=None)
    @given(which=st.sampled_from(sorted(SCALAR_BUILDERS)), x=POSITIONS, speed=SPEEDS)
    def test_isotropic_scalars(self, which, x, speed):
        w = stacked_scalar(which)
        assert w.stacked
        for fn in (w.eval, w.dspeed, w.dx):
            assert_matches(fn(x, speed), row_values(fn, x, speed))

    def test_nonmetrizable_ws_carry_terms(self):
        assert all(stacked_scalar(name).terms is not None for name in TERMS_WS)

    @seed(53)
    @settings(max_examples=40, deadline=None)
    @given(which=st.sampled_from(TERMS_WS), x=POSITIONS, speed=SPEEDS)
    def test_terms_equal_the_three_closures(self, which, x, speed):
        w = stacked_scalar(which)
        closures = (w.eval(x, speed), w.dspeed(x, speed), w.dx(x, speed))
        for got, want in zip(w.terms(x, speed), closures):
            got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @seed(43)
    @settings(max_examples=20, deadline=None)
    @given(which=st.sampled_from(sorted(CLI_METRICS)), x=POSITIONS)
    def test_cli_metrics(self, which, x):
        m = build_metric(scenario(metric=CLI_METRICS[which]))
        assert m.stacked
        assert_matches(m.g(x), row_values(m.g, x))
        assert_matches(m.dg(x), row_values(m.dg, x))

    @seed(47)
    @settings(max_examples=30, deadline=None)
    @given(
        text=st.sampled_from(
            [WAVY, "x1^2 - x2/x3", "sqrt(v) * log(1 + x1)", "exp(-x2) * cos(v^-2)", "2.5", "-x3"]
        ),
        x=POSITIONS,
        speed=SPEEDS,
    )
    def test_expressions_on_arrays(self, text, x, speed):
        expr = parse_expression(text)

        def on_point(xi, si):
            return expr.eval({"x1": xi[0], "x2": xi[1], "x3": xi[2], "v": si})

        stack = expr.eval({"x1": x[..., 0], "x2": x[..., 1], "x3": x[..., 2], "v": speed})
        assert_matches(stack, point_values(on_point, x, speed))

    def test_array_failure_is_an_evaluation_failure(self):
        expr = parse_expression("sqrt(x1)")
        with pytest.raises(EvaluationFailure, match=r"'sqrt\(x1\)' failed to evaluate"):
            expr.eval({"x1": np.array([0.5, -0.5])})


class TestStackedForce:
    def test_stacked_generator_gives_point_forces(self):
        m = build_metric(scenario(metric=CLI_METRICS["conformal"]))
        gs = builtin_metrizable(coordinate_scalar(0), H=lambda w: w)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 1.2, size=(2, 4, 3))
        v = rng.uniform(-1.0, 1.0, size=(2, 4, 3))
        stacked = force_from_W(gs, m, x, v)
        for idx in np.ndindex(2, 4):
            np.testing.assert_allclose(
                stacked[idx], force_from_W(gs, m, x[idx], v[idx]), rtol=1e-12, atol=1e-15
            )

    @pytest.mark.parametrize("metric", ["euclidean", "conformal"])
    def test_generated_field_closures_take_stacks(self, metric):
        # as_force_field is stacked: eval, dv and nabla on a stack give each
        # state's point-wise value; for a stacked W bit for bit, since a
        # single state is evaluated as a one-row stack
        m = build_metric(scenario(metric=CLI_METRICS[metric]))
        ff = as_force_field(builtin_nonmetrizable(coordinate_scalar(0), lambda s: s**3))
        assert ff.stacked
        rng = np.random.default_rng(11)
        x = rng.uniform(0.3, 1.2, size=(3, 2, 3))
        v = rng.uniform(-1.0, 1.0, size=(3, 2, 3))
        for closure in (ff.eval, ff.dv, ff.nabla):
            stacked = closure(m, x, v)
            for idx in np.ndindex(3, 2):
                np.testing.assert_allclose(
                    stacked[idx], closure(m, x[idx], v[idx]), rtol=1e-12, atol=1e-15
                )

    @pytest.mark.parametrize("which", TERMS_WS)
    def test_terms_give_the_forces_of_the_three_closures(self, which):
        m = build_metric(scenario(metric=CLI_METRICS["conformal"]))
        gs = GeneratingScalar(W=stacked_scalar(which), h=lambda w: 0.5 * w)
        without = GeneratingScalar(W=dataclasses.replace(gs.W, terms=None), h=gs.h)
        rng = np.random.default_rng(17)
        x = rng.uniform(0.3, 1.2, size=(4, 5, 3))
        v = rng.uniform(-1.0, 1.0, size=(4, 5, 3))
        with_ff, without_ff = as_force_field(gs), as_force_field(without)
        for name in ("eval", "dv", "nabla"):
            got = getattr(with_ff, name)(m, x, v)
            assert got.tobytes() == getattr(without_ff, name)(m, x, v).tobytes()

    def test_checks_name_the_first_offending_state(self):
        def stacked_w(dspeed):
            return IsotropicScalar(
                eval=lambda x, s: s * x[..., 0],
                dx=lambda x, s: np.zeros(np.shape(x)),
                dspeed=dspeed,
                stacked=True,
            )

        x = np.array([[0.5, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
        v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        m = euclidean_metric()
        degenerate = GeneratingScalar(W=stacked_w(lambda x, s: x[..., 0]), h=lambda w: 0.0)
        with pytest.raises(DegenerateWv, match=r"below floor .* x=\[0\.\s+2\."):
            force_from_W(degenerate, m, x, v)
        with np.errstate(divide="ignore"):
            infinite = GeneratingScalar(W=stacked_w(lambda x, s: 1.0 / x[..., 0]), h=lambda w: 0.0)
            with pytest.raises(EvaluationFailure, match=r"non-finite .* x=\[0\.\s+2\."):
                force_from_W(infinite, m, x, v)

    def test_pointwise_w_failures_name_the_state(self):
        # an unmarked W goes through the same masked checks as a stacked one
        x = np.array([[0.5, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
        v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        m = euclidean_metric()
        degenerate = IsotropicScalar(
            eval=lambda x, s: s * x[0],
            dx=lambda x, s: np.array([s, 0.0, 0.0]),
            dspeed=lambda x, s: x[0],
        )
        with pytest.raises(DegenerateWv, match=r"below floor .* at speed 1, x=\[0\.\s+2\."):
            force_from_W(GeneratingScalar(W=degenerate, h=lambda w: 0.0), m, x, v)
        infinite = IsotropicScalar(
            eval=lambda x, s: s * (1.0 + x[0]),
            dx=lambda x, s: np.array([s, np.inf if x[1] == 2.0 else 0.0, 0.0]),
            dspeed=lambda x, s: 1.0 + x[0],
        )
        with pytest.raises(EvaluationFailure, match=r"x-partials .* at speed 1, x=\[0\.\s+2\."):
            force_from_W(GeneratingScalar(W=infinite, h=lambda w: 0.0), m, x, v)


class TestStackOnlyContract:
    """A stacked closure is only ever called with a stack.

    Every stacked closure of the library builtins and of the CLI builders,
    and of the stacked ForceFields, is wrapped to record a call with fewer
    than two axes.  The public point API, a verify and a shift then run
    through them, and each point result must equal row 0 of the same call
    on the one-row stack, bit for bit.
    """

    GENERATORS = {
        "geodesic": None,
        "metrizable": None,
        "nonmetrizable": None,
        "cli-metrizable": {"kind": "metrizable", "f": WAVY, "H": "v"},
        "cli-nonmetrizable": {"kind": "nonmetrizable", "f": "x1*x2", "A": "v^3 + v"},
        "cli-custom": {"kind": "custom", "W": "v*exp(-x1) + v^3*x2^2", "h": "0.5*v"},
    }

    @pytest.fixture
    def recorder(self):
        calls = []

        def stack_only(name, fn):
            def checked(x, *rest):
                if np.ndim(x) < 2:
                    calls.append(name)
                return fn(x, *rest)

            return checked

        def scalar(w, name):
            return dataclasses.replace(
                w,
                eval=stack_only(f"{name}.eval", w.eval),
                dx=w.dx and stack_only(f"{name}.dx", w.dx),
                dspeed=w.dspeed and stack_only(f"{name}.dspeed", w.dspeed),
                terms=w.terms and stack_only(f"{name}.terms", w.terms),
            )

        return calls, stack_only, scalar

    def build(self, recorder, metric, generator, monkeypatch):
        _, stack_only, scalar = recorder
        m = build_metric(scenario(metric=CLI_METRICS[metric]))
        m = dataclasses.replace(
            m, g=stack_only("g", m.g), dg=stack_only("dg", m.dg), terms=stack_only("terms", m.terms)
        )
        spec = self.GENERATORS[generator]
        if spec is None:
            f = scalar(coordinate_scalar(0, coefficient=0.7), "f")
            gs = {
                "geodesic": builtin_geodesic,
                "metrizable": lambda: builtin_metrizable(f, H=lambda w: w),
                "nonmetrizable": lambda: builtin_nonmetrizable(f, lambda s: s**3),
            }[generator]()
        else:
            for name in ("_isotropic", "_position_scalar"):
                monkeypatch.setattr(
                    cli, name, lambda *args, build=getattr(cli, name): scalar(build(*args), "f")
                )
            gs = build_generator(scenario(generator=spec))
        assert m.stacked and gs.W.stacked
        return m, dataclasses.replace(gs, W=scalar(gs.W, "W"))

    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    @pytest.mark.parametrize("metric", sorted(CLI_METRICS))
    def test_point_api_hands_stacked_closures_one_row_stacks(
        self, recorder, metric, generator, monkeypatch
    ):
        m, gs = self.build(recorder, metric, generator, monkeypatch)
        rho = GaugeMap(fn=lambda t: 2.0 * t + 1.0, inverse=lambda w: 0.5 * (w - 1.0),
                       derivative=lambda t: 2.0)
        gauged = gauge_transform(gs, rho)
        af = ansatz_from_generator(gs)
        ff = ansatz_force_field(af)
        lifted = lift_isotropic(gs.W, m)
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = rng.uniform(0.4, 1.1, 3)
            v = rng.uniform(0.3, 1.0, 3)
            s = float(rng.uniform(0.6, 1.8))
            xs, vs, ss = x[None], v[None], np.array([s])
            pairs = [
                (metric_at(m, x), metric_at(m, xs)),
                (christoffel_at(m, x), christoffel_at(m, xs)),
                (force_from_W(gs, m, x, v), force_from_W(gs, m, xs, vs)),
                (force_from_W(gauged, m, x, v), force_from_W(gauged, m, xs, vs)),
                (compute_a(gs, x, s), coefficient_pack(gs, xs, ss)[:, 0]),
                (compute_b(gs, x, s), coefficient_pack(gs, xs, ss)[:, 1:]),
                (lifted.eval(x, v), lifted.eval(xs, vs)),
                (ff.dv(m, x, v), ff.dv(m, xs, vs)),
            ]
            for point, stack in pairs:
                point, stack = np.asarray(point, dtype=float), np.asarray(stack, dtype=float)
                assert stack.shape == (1,) + point.shape
                assert point.tobytes() == stack[0].tobytes()
            if lifted.dx is not None:
                lifted.dx(x, v)
                lifted.dv(x, v)
        surface = sphere_surface(orientation=-1.0, base_u=(1.6, 0.02))
        solve_nu(gs, m, surface, np.array([1.62, 0.0]))
        surface_normal(m, surface, np.array([1.62, 0.0]))
        verify(gs, m, SampleSpec(box=[[0.4, 1.1]] * 3, count=3, seed=1, speed_range=(0.6, 1.8)))
        run_shift(
            gs, m, surface, GridSpec(ranges=((1.55, 1.65, 5), (-0.03, 0.07, 5))),
            t_end=1e-3, dt=1e-3, sample_stride=1,
        )
        calls = recorder[0]
        assert not calls, f"stacked closures called on a single point: {sorted(set(calls))}"

    FIELDS = ("as_force_field", "ansatz_force_field", "perturbed_field")

    @staticmethod
    def force_field(gs, m, which, wrap):
        """The stacked ForceField ``which`` of (gs, m), each of its closures (and
        a perturbed field's base's) passed through ``wrap(name, closure)``."""

        def wrapped(ff, name):
            return dataclasses.replace(
                ff,
                eval=wrap(f"{name}.eval", ff.eval),
                dv=ff.dv and wrap(f"{name}.dv", ff.dv),
                nabla=ff.nabla and wrap(f"{name}.nabla", ff.nabla),
            )

        if which == "perturbed_field":
            base = wrapped(as_force_field(gs), "base")
            ff = perturbed_field(base, 0, lambda m_, x, v: speed_at(m_, x, v) * x[1])
        elif which == "as_force_field":
            ff = as_force_field(gs)
        else:
            ff = ansatz_force_field(ansatz_from_generator(gs))
        return wrapped(ff, which)

    @pytest.mark.parametrize("which", FIELDS)
    @pytest.mark.parametrize("metric", sorted(CLI_METRICS))
    def test_stacked_force_fields_see_only_stacks(
        self, recorder, metric, which, monkeypatch
    ):
        m, gs = self.build(recorder, metric, "cli-nonmetrizable", monkeypatch)
        calls = recorder[0]

        def field_stack_only(name, fn):
            def checked(m_, x, v):
                if np.ndim(x) < 2:
                    calls.append(name)
                return fn(m_, x, v)

            return checked

        ff = self.force_field(gs, m, which, field_stack_only)
        assert ff.stacked
        # the same field unmarked: field_call hands its closures single states
        alone = dataclasses.replace(
            self.force_field(gs, m, which, lambda name, fn: fn), stacked=False
        )
        rng = np.random.default_rng(7)
        x = rng.uniform(0.4, 1.1, 3)
        v = rng.uniform(0.3, 1.0, 3)
        st = PhaseState(x=x, v=v, t=0.0)
        stepped, stepped_alone = (step_trajectory(f, m, st, 1e-3) for f in (ff, alone))
        pairs = [(stepped.x, stepped_alone.x), (stepped.v, stepped_alone.v)]
        for mode in ("analytic", "finite-diff"):
            for residual in (residual_weak1, residual_weak2, residual_additional1,
                             residual_additional2):
                pairs.append(
                    (residual(ff, m, x, v, mode=mode), residual(alone, m, x, v, mode=mode))
                )
        verify(ff, m, SampleSpec(box=[[0.4, 1.1]] * 3, count=3, seed=1, speed_range=(0.6, 1.8)))
        rec = run_shift(
            gs, m, sphere_surface(orientation=-1.0, base_u=(1.6, 0.02)),
            GridSpec(ranges=((1.55, 1.65, 5), (-0.03, 0.07, 5))),
            t_end=4e-3, dt=1e-3, sample_stride=1,
        )
        pairs.append((speed_law_residual(rec, ff, m), speed_law_residual(rec, alone, m)))
        assert not calls, f"stacked closures called on a single point: {sorted(set(calls))}"
        for stack, point in pairs:
            stack, point = np.asarray(stack, dtype=float), np.asarray(point, dtype=float)
            assert stack.shape == point.shape
            assert stack.tobytes() == point.tobytes()


def cli_case():
    """Conformal expression metric and nonmetrizable generator, as the CLI builds them."""
    sc = scenario(
        metric=CLI_METRICS["conformal"],
        generator={"kind": "nonmetrizable", "f": "x1", "A": "v^3"},
    )
    return build_metric(sc), build_generator(sc)


def shift(gs, m, steps=6):
    return run_shift(
        gs,
        m,
        sphere_surface(orientation=-1.0, base_u=(1.6, 0.02)),
        GridSpec(ranges=((1.5, 1.7, 5), (-0.08, 0.12, 5))),
        t_end=steps * 1e-3,
        dt=1e-3,
        sample_stride=2,
    )


def pointwise(obj):
    """``obj`` unmarked, each of its closures a point closure that calls the
    stacked one on a one-row stack."""

    def at_point(fn):
        return lambda x, *rest: np.asarray(fn(x[None], *(np.array([r]) for r in rest)))[0]

    if isinstance(obj, MetricField):
        return dataclasses.replace(obj, g=at_point(obj.g), dg=at_point(obj.dg), stacked=False)
    return dataclasses.replace(
        obj,
        eval=at_point(obj.eval),
        dx=at_point(obj.dx),
        dspeed=at_point(obj.dspeed),
        terms=None,
        stacked=False,
    )


class TestShiftWithStackedClosures:
    @pytest.mark.parametrize("unstack", ["W", "metric", "both"])
    def test_record_matches_pointwise_closures(self, unstack):
        m, gs = cli_case()
        reference = shift(gs, m, steps=20)
        if unstack in ("W", "both"):
            gs = dataclasses.replace(gs, W=pointwise(gs.W))
        if unstack in ("metric", "both"):
            m = pointwise(m)
        rec = shift(gs, m, steps=20)
        for name in ("x", "v", "W_vals", "speed_vals"):
            np.testing.assert_allclose(
                getattr(rec, name), getattr(reference, name), rtol=1e-12, atol=0.0
            )
        # phi is a cancellation of O(1) terms; compare it on their scale
        np.testing.assert_allclose(rec.phi, reference.phi, rtol=0.0, atol=1e-12)

    @staticmethod
    def counted(m, gs):
        """Copies of (m, gs) whose closures count their stack and point calls."""
        calls = Counter()

        def count(name, fn):
            def counting(x, *rest):
                calls[name, "stack" if np.ndim(x) > 1 else "point"] += 1
                return fn(x, *rest)

            return counting

        w = gs.W
        counted_w = dataclasses.replace(
            w,
            eval=count("W.eval", w.eval),
            dspeed=count("W.dspeed", w.dspeed),
            dx=count("W.dx", w.dx),
            terms=w.terms and count("W.terms", w.terms),
        )
        counted_m = dataclasses.replace(
            m, g=count("g", m.g), dg=count("dg", m.dg), terms=m.terms and count("terms", m.terms)
        )
        return counted_m, dataclasses.replace(gs, W=counted_w), calls

    def test_each_stage_calls_each_stacked_closure_once(self):
        m, gs, calls = self.counted(*cli_case())
        steps = 6
        stages = 4 * steps
        shift(gs, m, steps=steps)
        # the first stage of a step reads the g that the previous step's
        # speed-floor check took at its end, and calls dg; stages 2-4 take
        # both from one terms call.  Beyond that, g on the surface normals,
        # whose metric serves the first step's start, and on the record.
        # A stage takes W, W_v and dW/dx from one W.terms call; W.eval runs
        # on the record and, for the initial speeds, at the marked point, on
        # the family's 25-speed scan and once per Newton iteration (four
        # here), and W.dspeed in each Newton iteration but the last
        assert calls["g", "stack"] == steps + 2
        assert calls["dg", "stack"] == steps
        assert calls["terms", "stack"] == 3 * steps
        assert calls["W.terms", "stack"] == stages
        assert calls["W.eval", "stack"] == 1 + 2 + 4
        assert calls["W.dspeed", "stack"] == 3
        assert calls["W.dx", "stack"] == 0
        # the initial state is solved on stacks too
        assert not [key for key in calls if key[1] == "point"]

    def test_pointwise_metric_is_called_once_per_point_per_stage(self):
        m, gs = cli_case()
        m, gs, calls = self.counted(pointwise(m), gs)
        steps = 6
        shift(gs, m, steps=steps)
        n_u, n_t = 25, steps // 2 + 1
        # every stage, the surface normals (which serve the first step's
        # start) and the n_t recorded states
        assert calls["g", "point"] == n_u * (4 * steps + 1 + n_t)
        assert calls["dg", "point"] == n_u * 4 * steps
        assert calls["g", "stack"] == calls["dg", "stack"] == 0
