"""Acceptance battery: the library's core guarantees at desk scale.

Each test below is one numbered acceptance criterion, checked end to end
on three-dimensional charts in double precision.  The criteria pin four
kinds of behavior:

* algebraic identities of the construction (geodesic recovery, ansatz
  roundtrip, gauge invariance) hold to near machine precision;
* certified generators satisfy the normality systems at stated
  tolerances, while perturbed fields and structurally wrong scalars are
  flagged well above them;
* simulated shifts of a plane and a sphere stay normal to the moving
  surface, conserve or evolve W as the speed-parameter law dictates, and
  obey the speed evolution law along every trajectory;
* the integrator and the deviation stencil converge at their design
  orders.

Wall-clock budgets come with the criteria; they are asserted directly,
so a slow machine fails loudly instead of silently degrading coverage.
conftest.py prints a one-line PASS/FAIL verdict per criterion after the
run.
"""

import math
import time

import numpy as np
import pytest

from normalshift.extended_fields import ExtendedScalar, IsotropicScalar
from normalshift.force_builder import (
    AnsatzField,
    GaugeMap,
    ansatz_from_generator,
    ansatz_scalar,
    as_force_field,
    builtin_geodesic,
    builtin_metrizable,
    builtin_nonmetrizable,
    coordinate_scalar,
    force_from_A,
    force_from_W,
    gauge_transform,
)
from normalshift.normality_verifier import (
    SampleSpec,
    residual_eq124,
    sample_states,
    verify,
)
from normalshift.shift_engine import (
    GridSpec,
    PhaseState,
    graph_surface,
    max_normalized_deviation,
    run_shift,
    speed_law_residual,
    step_trajectory,
    surface_constancy_residual,
    w_dynamics_residual,
)

from helpers import (
    SHIFT_RUN,
    VERIFY_RUN,
    conformal_metric,
    diagonal_metric,
    euclidean_metric,
    shift_cases,
    verify_cases,
)

BOX = [[0.25, 1.25]] * 3

EQUATION_FAMILIES = ("r_weak1", "r_weak2", "r_add1", "r_add2")


def metrizable(H):
    return builtin_metrizable(coordinate_scalar(0), H=H)


def nonmetrizable_cubic():
    return builtin_nonmetrizable(coordinate_scalar(0), lambda v: v**3)


def equation_residuals(report):
    return {k: v for k, v in report.residuals().items() if k in EQUATION_FAMILIES}


@pytest.fixture(scope="module")
def shift_runs():
    """The four reference shift runs shared by criteria 7-10.

    Runs shift the surface through t in [0, 1] at dt = 1e-3 with chart
    spacing 0.05.  The sphere moves inward: the outward family under this
    generator steepens into a finite-time blowup just past t = 1, while
    the inward family stays smooth over the whole window.
    """
    m = euclidean_metric()
    runs = {}
    for name, (gs, surface, grid, forced) in shift_cases().items():
        started = time.perf_counter()
        record = run_shift(gs, m, surface, grid, force_constant_nu=forced, **SHIFT_RUN)
        runs[name] = {
            "record": record,
            "generator": gs,
            "metric": m,
            "elapsed": time.perf_counter() - started,
        }
    return runs


def test_criterion_01_geodesic_force_vanishes():
    # W = |v| with h = 0 must produce the zero force and zero residuals
    # identically, not merely small ones
    gs = builtin_geodesic()
    ff = as_force_field(gs)
    started = time.perf_counter()
    for m in (euclidean_metric(), conformal_metric(), diagonal_metric()):
        states = sample_states(SampleSpec(box=BOX, count=1000, seed=11), m)
        assert all(
            np.all(np.asarray(ff.eval(m, x, v), dtype=float) == 0.0)
            for x, v in states
        )
        report = verify(gs, m, SampleSpec(box=BOX, count=200, seed=11))
        assert all(value == 0.0 for value in report.residuals().values())
        assert report.passed
    assert time.perf_counter() - started < 1.0


def test_criterion_02_certified_generators_satisfy_equations():
    m = euclidean_metric()
    tolerance = {"analytic": 1e-8, "finite-diff": 1e-5}
    started = time.perf_counter()
    for name, (gs, mode) in verify_cases().items():
        if name == "perturbed":
            continue
        report = verify(gs, m, SampleSpec(**VERIFY_RUN, mode=mode))
        worst = max(equation_residuals(report).values())
        assert worst < tolerance[mode]
        assert report.passed
    assert time.perf_counter() - started < 10.0


def test_criterion_03_perturbed_field_violates_equations():
    m = euclidean_metric()
    bad, mode = verify_cases()["perturbed"]
    report = verify(bad, m, SampleSpec(**VERIFY_RUN, mode=mode))
    assert max(equation_residuals(report).values()) > 1e-3
    assert not report.passed


def test_criterion_04_ansatz_roundtrip():
    # the force assembled directly from (W, h) and the force assembled
    # from the recovered ansatz scalar must be the same field
    for m in (euclidean_metric(), conformal_metric()):
        for gs in (metrizable(lambda w: w), nonmetrizable_cubic()):
            af = ansatz_from_generator(gs)
            A = ansatz_scalar(af, m)
            states = sample_states(SampleSpec(box=BOX, count=200, seed=13), m)
            gap = max(
                float(
                    np.max(
                        np.abs(
                            force_from_W(gs, m, x, v) - force_from_A(A, m, x, v)
                        )
                    )
                )
                for x, v in states
            )
            assert gap < 1e-8


def test_criterion_05_gauge_invariance():
    m = euclidean_metric()
    gs = metrizable(lambda w: w)
    states = sample_states(SampleSpec(box=BOX, count=200, seed=17), m)
    gauges = (
        GaugeMap(fn=math.exp, inverse=math.log, derivative=math.exp),
        GaugeMap(
            fn=lambda w: 2.0 * w + 1.0,
            inverse=lambda w: 0.5 * (w - 1.0),
            derivative=lambda w: 2.0,
        ),
    )
    for rho in gauges:
        regauged = gauge_transform(gs, rho)
        gap = max(
            float(
                np.max(
                    np.abs(
                        force_from_W(gs, m, x, v) - force_from_W(regauged, m, x, v)
                    )
                )
            )
            for x, v in states
        )
        assert gap < 1e-8


def test_criterion_06_projected_hessian_residual():
    # scalars affine in velocity direction with isotropic coefficients
    # satisfy the projected fiber-Hessian equation; a quadratic scalar
    # that favors one direction does not
    m = euclidean_metric()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for trial in range(20):
        coeff = rng.uniform(-1.0, 1.0, size=(4, 4))
        waves = rng.uniform(0.5, 1.5, size=(4, 3))

        def isotropic(i):
            c0, c1, c2, c3 = coeff[i]
            k = waves[i]
            return IsotropicScalar(
                eval=lambda x, s, c0=c0, c1=c1, c2=c2, c3=c3, k=k: c0
                + c1 * math.sin(k @ x)
                + c2 * s
                + c3 * s * s,
                dx=lambda x, s, c1=c1, k=k: c1 * math.cos(k @ x) * k,
                dspeed=lambda x, s, c2=c2, c3=c3: c2 + 2.0 * c3 * s,
            )

        af = AnsatzField(a=isotropic(0), b=tuple(isotropic(i) for i in (1, 2, 3)))
        A = ansatz_scalar(af, m)
        for x, v in sample_states(
            SampleSpec(box=BOX, count=10, seed=100 + trial), m
        ):
            matrix, _ = residual_eq124(A, m, x, v)
            worst = max(worst, float(np.max(np.abs(matrix))))
    assert worst < 1e-5

    quadratic = ExtendedScalar(eval=lambda x, v: float(v[0]) ** 2)
    violations = [
        float(np.max(np.abs(residual_eq124(quadratic, m, x, v)[0])))
        for x, v in sample_states(SampleSpec(box=BOX, count=10, seed=321), m)
    ]
    assert min(violations) > 1e-3


def test_criterion_07_normal_shift_deviation(shift_runs):
    for name in ("plane_h0", "sphere_h0"):
        run = shift_runs[name]
        assert max_normalized_deviation(run["record"], run["metric"]) < 1e-6
    control = shift_runs["control"]
    assert max_normalized_deviation(control["record"], control["metric"]) > 1e-3
    budget = sum(shift_runs[k]["elapsed"] for k in ("plane_h0", "sphere_h0", "control"))
    assert budget < 60.0


def test_criterion_08_w_dynamics_along_runs(shift_runs):
    # with h = 0 the generator value is a first integral, pointwise and
    # across the whole shifted family; with h(w) = w it grows as e^t
    for name in ("plane_h0", "sphere_h0"):
        record = shift_runs[name]["record"]
        drift = float(np.max(np.abs(record.W_vals - record.W_vals[:, :1])))
        assert drift < 1e-8
        assert float(np.max(surface_constancy_residual(record))) < 1e-7
    run = shift_runs["plane_hw"]
    record = run["record"]
    expected = record.W_vals[:, :1] * np.exp(record.times)[None, :]
    assert float(np.max(np.abs(record.W_vals - expected))) < 1e-6
    assert w_dynamics_residual(record, run["generator"]) < 1e-6


def test_criterion_09_speed_law_along_runs(shift_runs):
    # the time derivative of |v| must track the normal component of the
    # force on every recorded trajectory, the wrong-nu control included
    for run in shift_runs.values():
        ff = as_force_field(run["generator"])
        assert speed_law_residual(run["record"], ff, run["metric"]) < 1e-5


def test_criterion_10_discretization_orders():
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

    # nested chart grids share trajectories at common points, so the phi
    # difference across refinements isolates the tangent stencil error
    gs = metrizable(lambda w: 0.0)
    surface = graph_surface(
        height=lambda u: 0.3 * math.sin(2.0 * u[0]) + 0.1 * u[1] ** 2
    )

    def control(count):
        grid = GridSpec(ranges=((-0.15, 0.15, count), (-0.1, 0.1, 5)))
        return run_shift(
            gs,
            euclidean_metric(),
            surface,
            grid,
            t_end=0.05,
            dt=1e-3,
            sample_stride=10,
            force_constant_nu=True,
        )

    def phi_common(record, step):
        phi = record.phi[:, :, 0].reshape(record.grid_shape + (-1,))
        return phi[::step]

    base = phi_common(control(7), 1)
    mid = phi_common(control(13), 2)
    fine = phi_common(control(25), 4)
    e_coarse = np.nanmax(np.abs(base - mid))
    e_fine = np.nanmax(np.abs(mid - fine))
    order = math.log2(e_coarse / e_fine)
    assert order >= 3.0
    assert order < 5.0
