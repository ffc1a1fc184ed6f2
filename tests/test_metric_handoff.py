"""Metric values travel with their states, and no further.

The library hands the checked metric at a stack of states to a force
field's closures for the length of one call (``field_call``, through
``tensor_core.handing``); nothing else keeps metric values.  These tests
pin both halves: a point-wise metric whose closure reads a parameter that
changes is seen afresh after every kind of call, and the evaluators that
need the metric at their states take it once per state.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from normalshift.cli import build_subject, load_scenario
from normalshift.extended_fields import (
    ExtendedScalar,
    lift_isotropic,
    velocity_gradient,
    velocity_hessian,
)
from normalshift.force_builder import (
    ForceField,
    ansatz_force_field,
    ansatz_from_generator,
    ansatz_scalar,
    builtin_metrizable,
    coordinate_scalar,
    field_call,
    force_from_A,
    perturbed_field,
)
from normalshift.normality_verifier import (
    SampleSpec,
    _eq124,
    residual_eq124,
    sample_states,
    verify,
)
from normalshift.shift_engine import (
    GridSpec,
    PhaseState,
    plane_surface,
    run_shift,
    step_trajectory,
)
from normalshift.tensor_core import (
    MetricField,
    direction_from,
    handing,
    inverse_metric_from,
    metric_at,
    speed_at,
    unit_direction,
)

from helpers import wavy_conformal_metric

BOX = [[0.25, 1.25], [0.25, 1.25], [0.25, 1.25]]


def counted_metric(calls):
    """The wavy conformal metric, point-wise, with every g call appended to ``calls``."""
    base = wavy_conformal_metric()
    return MetricField(dim=3, g=lambda x: calls.append(1) or base.g(x), dg=base.dg)


def metrizable():
    return builtin_metrizable(coordinate_scalar(0), H=lambda w: w)


class TestNothingOutlivesACall:
    """A point-wise metric that reads a mutable parameter gives its new value
    at a row of the stack that the last call evaluated it on."""

    @staticmethod
    def after_metric_at(m):
        x = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        metric_at(m, x)
        return x

    @staticmethod
    def after_verify(m):
        spec = SampleSpec(box=BOX, count=4, seed=2)
        verify(metrizable(), m, spec)
        return sample_states(spec, m)[:, 0]

    @staticmethod
    def after_run_shift(m):
        grid = GridSpec(ranges=((-0.1, 0.1, 5), (-0.1, 0.1, 5)))
        rec = run_shift(metrizable(), m, plane_surface(), grid, t_end=2e-3, dt=1e-3,
                        sample_stride=1)
        return rec.x.reshape(-1, 3)

    @staticmethod
    def after_step_trajectory(m):
        ff = perturbed_field(ansatz_force_field(ansatz_from_generator(metrizable())), 1,
                             lambda m_, x, v: speed_at(m_, x, v) * x[1])
        st = step_trajectory(ff, m, PhaseState(x=np.array([0.3, 0.2, 0.1]),
                                               v=np.array([0.5, -0.2, 0.4]), t=0.0), 1e-3)
        return st.x[None]

    @staticmethod
    def after_raising_field_call(m):
        class Boom(Exception):
            pass

        def raising(m_, x, v):
            metric_at(m_, x[0])
            raise Boom("field failed")

        x = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        with pytest.raises(Boom):
            field_call(ForceField(eval=raising, stacked=True), raising, m)(
                x, np.ones((2, 3)), metric_at(m, x)
            )
        return x

    @pytest.mark.parametrize(
        "call",
        ["after_metric_at", "after_verify", "after_run_shift", "after_step_trajectory",
         "after_raising_field_call"],
    )
    def test_changed_parameter_is_seen(self, call):
        scale = [1.0]
        m = MetricField(dim=3, g=lambda x: scale[0] * np.eye(3),
                        dg=lambda x: np.zeros((3, 3, 3)))
        rows = getattr(self, call)(m)
        scale[0] = 2.0
        for row in (rows[0], rows[-1]):
            assert np.array_equal(metric_at(m, row), 2.0 * np.eye(3))
        assert (metric_at(m, rows) == 2.0 * np.eye(3)).all()


class TestHandoff:
    def test_only_inside_the_call(self):
        calls = []
        m = counted_metric(calls)
        x = np.array([[0.3, 0.4, 0.5], [0.6, 0.7, 0.8]])
        gmat = metric_at(m, x)
        calls.clear()
        with handing(m, x, gmat):
            assert metric_at(m, x) is not gmat
            assert np.array_equal(metric_at(m, x), gmat)
            assert np.array_equal(metric_at(m, x[1]), gmat[1])
            assert not calls
            metric_at(m, x + 1.0)  # not handed: evaluated
            assert len(calls) == 2
        metric_at(m, x[1])
        assert len(calls) == 3

    def test_inner_handoff_gives_way_to_the_outer_on_exit(self):
        calls = []
        m = counted_metric(calls)
        x, y = np.array([[0.3, 0.4, 0.5]]), np.array([[0.6, 0.7, 0.8]])
        gx, gy = metric_at(m, x), metric_at(m, y)
        calls.clear()
        with handing(m, x, gx):
            with pytest.raises(ValueError, match="inner"):
                with handing(m, y, gy):
                    assert np.array_equal(metric_at(m, y[0]), gy[0]) and not calls
                    raise ValueError("inner")
            assert np.array_equal(metric_at(m, x[0]), gx[0]) and not calls
            metric_at(m, y[0])
            assert len(calls) == 1

    def test_pointwise_field_reading_speed_costs_no_g_call_beyond_the_stages(self):
        # a user field of one state, stepped as a one-row stack: the four
        # stages and the speed-floor check take g once each, and the
        # field's speed_at and metric_at read what its stage handed it
        calls = []
        m = counted_metric(calls)

        def user(m_, x, v):
            return 0.1 * speed_at(m_, x, v) * (metric_at(m_, x) @ v)

        st = PhaseState(x=np.array([0.3, 0.2, 0.1]), v=np.array([0.5, -0.2, 0.4]), t=0.0)
        step_trajectory(ForceField(eval=user), m, st, 1e-3)
        assert len(calls) == 5


def perturbed_subject():
    data = {
        "name": "handoff",
        "metric": {"kind": "euclidean"},
        "generator": {"kind": "metrizable", "f": "x1", "H": "v",
                      "perturb": {"component": 1, "expression": "v * x2"}},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        return build_subject(load_scenario(path))


def _metric_free_scalar():
    """A = x . v with analytic fiber derivatives, which read no metric."""
    return ExtendedScalar(
        eval=lambda x, v: float(x @ v),
        dv=lambda x, v: np.array(x, dtype=float),
        dv2=lambda x, v: np.zeros((3, 3)),
    )


def _ansatz_force_field():
    return ansatz_force_field(ansatz_from_generator(metrizable()))


# Each evaluator at its states (x, v), with the rows it takes: None for one
# state, a count for a stack of states.
EVALUATORS = [
    ("ansatz_scalar.dv2", None,
     lambda m, x, v: ansatz_scalar(ansatz_from_generator(metrizable()), m).dv2(x, v)),
    ("ansatz_force_field.dv", None, lambda m, x, v: _ansatz_force_field().dv(m, x, v)),
    ("ansatz_force_field.dv", 4, lambda m, x, v: _ansatz_force_field().dv(m, x, v)),
    ("ansatz_force_field.nabla", None, lambda m, x, v: _ansatz_force_field().nabla(m, x, v)),
    ("ansatz_force_field.nabla", 4, lambda m, x, v: _ansatz_force_field().nabla(m, x, v)),
    ("force_from_A", None, lambda m, x, v: force_from_A(_metric_free_scalar(), m, x, v)),
    ("lift_isotropic.dx", None, lambda m, x, v: lift_isotropic(metrizable().W, m).dx(x, v)),
    ("lift_isotropic.dv", None, lambda m, x, v: lift_isotropic(metrizable().W, m).dv(x, v)),
    ("residual_eq124", None, lambda m, x, v: residual_eq124(_metric_free_scalar(), m, x, v)),
    ("cli.build_subject", 4, lambda m, x, v: perturbed_subject().eval(m, x, v)),
]


def _ansatz_scalar(m):
    return ansatz_scalar(ansatz_from_generator(metrizable()), m)


def _lifted(m):
    return lift_isotropic(metrizable().W, m)


# The scalars whose closures take the metric afresh on every call, under the
# evaluators that hand it to them: their own count at one state.
SCALARS = {"ansatz_scalar": _ansatz_scalar, "lift_isotropic": _lifted}
SCALAR_EVALUATORS = {
    "force_from_A": force_from_A,
    "residual_eq124-analytic": lambda A, m, x, v: residual_eq124(A, m, x, v),
    "residual_eq124-finite-diff":
        lambda A, m, x, v: residual_eq124(A, m, x, v, mode="finite-diff"),
}
EVALUATORS += [
    (f"{evaluator}({scalar})", None,
     lambda m, x, v, make=make, evaluate=evaluate: evaluate(make(m), m, x, v))
    for scalar, make in SCALARS.items()
    for evaluator, evaluate in SCALAR_EVALUATORS.items()
]


@pytest.mark.parametrize(
    "rows, evaluate",
    [case[1:] for case in EVALUATORS],
    ids=[f"{name}-{'state' if rows is None else 'stack'}" for name, rows, _ in EVALUATORS],
)
def test_evaluator_takes_the_metric_once_per_state(rows, evaluate):
    # a point-wise metric is called once per state it is taken at, so the
    # count is the number of times each state's metric is taken
    calls = []
    m = counted_metric(calls)
    rng = np.random.default_rng(11)
    shape = (3,) if rows is None else (rows, 3)
    x, v = rng.uniform(0.3, 1.2, shape), rng.uniform(0.3, 1.0, shape)
    evaluate(m, x, v)
    assert len(calls) == (1 if rows is None else rows)


def _unhanded_force_from_A(A, m, x, v):
    """``force_from_A`` as written before the handoff: every closure of A
    takes the metric for itself."""
    pr = unit_direction(m, x, v)
    grad = velocity_gradient(A, x, v)
    return float(A.eval(x, v)) * pr.N_down - pr.speed * (grad @ pr.P)


def _unhanded_residual_eq124(A, m, x, v, mode):
    H = velocity_hessian(A if mode == "analytic" else ExtendedScalar(eval=A.eval), x, v)
    gmat = metric_at(m, x)
    res, lam = _eq124(H, direction_from(gmat, x, v), inverse_metric_from(gmat, x))
    return res, float(lam)


@pytest.mark.parametrize("scalar", sorted(SCALARS))
def test_handed_scalar_evaluators_match_the_unhanded_ones_bit_for_bit(scalar):
    # the handed metric is the one each closure would take for itself, so
    # handing it over changes the number of g calls and nothing else
    m = wavy_conformal_metric()
    rng = np.random.default_rng(12)
    for _ in range(4):
        x, v = rng.uniform(0.3, 1.2, 3), rng.uniform(-1.0, 1.0, 3)
        A = SCALARS[scalar](m)
        assert np.array_equal(force_from_A(A, m, x, v), _unhanded_force_from_A(A, m, x, v))
        for mode in ("analytic", "finite-diff"):
            res, lam = residual_eq124(A, m, x, v, mode=mode)
            ref_res, ref_lam = _unhanded_residual_eq124(A, m, x, v, mode)
            assert np.array_equal(res, ref_res) and lam == ref_lam
