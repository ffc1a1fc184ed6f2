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
from contextlib import contextmanager
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
from normalshift import tensor_core
from normalshift.force_builder import (
    ForceField,
    ansatz_force_field,
    ansatz_from_generator,
    ansatz_scalar,
    as_force_field,
    builtin_metrizable,
    coordinate_scalar,
    field_call,
    force_from_A,
    perturbed_field,
)
from normalshift.normality_verifier import (
    SampleSpec,
    _eq124,
    _over,
    _residual_rows,
    _sampled,
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
    by_rows,
    direction_from,
    handing,
    inverse_metric_from,
    metric_at,
    speed_at,
    unit_direction,
)

from helpers import euclidean_metric, wavy_conformal_metric

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
        with handing(m, x, gmat) as (handed, velocities):
            assert velocities is None
            assert handed is not x and np.array_equal(handed, x) and not handed.flags.writeable
            assert metric_at(m, handed) is not gmat
            assert np.array_equal(metric_at(m, handed), gmat)
            assert not calls
            # any other object is evaluated afresh, to the same bits: a
            # point of the copy, and the caller's equal array
            assert np.array_equal(metric_at(m, handed[1]), gmat[1])
            assert len(calls) == 1
            assert np.array_equal(metric_at(m, x), gmat)
            assert len(calls) == 3
        metric_at(m, handed)
        assert len(calls) == 5

    def test_inner_handoff_gives_way_to_the_outer_on_exit(self):
        calls = []
        m = counted_metric(calls)
        x, y = np.array([[0.3, 0.4, 0.5]]), np.array([[0.6, 0.7, 0.8]])
        gx, gy = metric_at(m, x), metric_at(m, y)
        calls.clear()
        with handing(m, x, gx) as (hx, _):
            with pytest.raises(ValueError, match="inner"):
                with handing(m, y, gy) as (hy, _):
                    assert np.array_equal(metric_at(m, hy), gy) and not calls
                    metric_at(m, hx)  # the outer copy is not handed here
                    assert len(calls) == 1
                    raise ValueError("inner")
            assert np.array_equal(metric_at(m, hx), gx) and len(calls) == 1
            metric_at(m, hy)
            assert len(calls) == 2

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


def offset_stack(m, count=50, offsets=(12, 6)):
    """A velocity-offset stack (count, *offsets, 3), with random positions
    and their metric broadcast over it, as ``_residual_rows`` builds the
    fiber Hessian's states."""
    rng = np.random.default_rng(25)
    x = rng.uniform(0.3, 1.2, (count, 3))
    u = rng.uniform(-1.0, 1.0, (count,) + offsets + (3,))
    gmat = metric_at(m, x)
    return u, _over(x, u), _over(gmat, u, 2)


@contextmanager
def counted_speed_from():
    """``tensor_core.speed_from`` with the velocity shape of each call
    appended to the list yielded."""
    taken, original = [], tensor_core.speed_from

    def counted(gmat, v):
        taken.append(v.shape)
        return original(gmat, v)

    tensor_core.speed_from = counted
    try:
        yield taken
    finally:
        tensor_core.speed_from = original


class TestRowHandoff:
    """A point closure that ``by_rows`` calls on the handed states reads its
    own row's metric by index; any other point of the stack is evaluated
    afresh, to the same bits, and nothing is left behind."""

    @staticmethod
    def no_handoff():
        return all(entry is None for entry in tensor_core._handed)

    @pytest.mark.parametrize("base_stacked", [True, False])
    def test_bump_over_an_offset_stack_reads_its_rows_by_index(self, base_stacked):
        calls = []
        m = counted_metric(calls)
        u, at, g = offset_stack(m)
        rows = []

        def bump(m_, xi, vi):
            rows.append(tensor_core._handed[5])
            assert xi is tensor_core._handed[4] and vi is tensor_core._handed[6]
            return speed_at(m_, xi, vi) * xi[1]

        base = (as_force_field(metrizable()) if base_stacked
                else ForceField(eval=lambda m_, xi, vi: metric_at(m_, xi) @ vi))
        field = perturbed_field(base, 0, bump)
        calls.clear()
        with counted_speed_from() as speeds_taken:
            out = field_call(field, field.eval, m)(at, u, g)
        # the handed speeds, once, beside whatever the base takes on its own
        assert not calls and speeds_taken.count((3600, 3)) == 1
        assert rows == list(range(3600))
        assert self.no_handoff()
        # at a copy of its row, the bump's metric is evaluated afresh, to the same bits
        copied = perturbed_field(base, 0, lambda m_, xi, vi: speed_at(m_, xi.copy(), vi) * xi[1])
        assert np.array_equal(out, field_call(copied, copied.eval, m)(at, u, g))
        assert len(calls) == 3600

    def test_a_copy_of_the_row_is_evaluated_afresh_to_the_same_bits(self):
        calls = []
        m = counted_metric(calls)
        u, at, g = offset_stack(m)
        calls.clear()
        seen = []

        def user(m_, xi, vi):
            seen.append(metric_at(m_, xi.copy()))
            return np.zeros(3)

        field_call(ForceField(eval=user), user, m)(at, u, g)
        assert len(calls) == 3600 and len(seen) == 3600
        assert np.array_equal(np.array(seen), g.reshape(-1, 3, 3))
        assert self.no_handoff()

    def test_another_rows_position_is_evaluated_afresh_to_that_rows_bits(self):
        calls = []
        m = counted_metric(calls)
        u, at, g = offset_stack(m, count=4, offsets=(3,))
        k = 12
        calls.clear()
        seen = []

        def user(m_, xi, vi):
            j = len(seen)
            other = tensor_core._handed[1].reshape(-1, 3)[k - 1 - j]  # a view of the handed copy
            seen.append((metric_at(m_, xi), metric_at(m_, other)))
            return np.zeros(3)

        field_call(ForceField(eval=user), user, m)(at, u, g)
        assert len(calls) == k
        values = g.reshape(-1, 3, 3)
        for j, (own, other) in enumerate(seen):
            assert np.array_equal(own, values[j]) and np.array_equal(other, values[k - 1 - j])

    def test_writing_into_a_handed_row_raises_and_leaves_the_caller_unchanged(self):
        m = wavy_conformal_metric()
        x = np.array([[0.3, 0.4, 0.5], [0.6, 0.7, 0.8]])
        before = x.copy()

        def user(m_, xi, vi):
            xi[0] = 9.0
            return np.zeros(3)

        with pytest.raises(ValueError):
            field_call(ForceField(eval=user), user, m)(x, np.ones((2, 3)), metric_at(m, x))
        assert np.array_equal(x, before)
        assert self.no_handoff()

    def test_nested_handoff_gives_the_outer_row_back(self):
        calls = []
        m = counted_metric(calls)
        u, at, g = offset_stack(m, count=3, offsets=(2,))
        # A reads the metric at the outer row's object inside the inner handoff
        A = ExtendedScalar(eval=lambda xi, vi: float(vi @ metric_at(m, xi) @ vi),
                           dv=lambda xi, vi: 2.0 * metric_at(m, xi) @ vi)
        calls.clear()
        seen = []

        def user(m_, xi, vi):
            force = force_from_A(A, m_, xi, vi)
            assert tensor_core._handed[4] is xi and tensor_core._handed[6] is vi
            seen.append(metric_at(m_, xi))
            return force + speed_at(m_, xi, vi)

        out = field_call(ForceField(eval=user), user, m)(at, u, g)
        assert not calls
        assert np.array_equal(np.array(seen), g.reshape(-1, 3, 3))
        # the same sums with the metric taken afresh at each state
        expected = [force_from_A(A, m, xi, vi) + speed_at(m, xi, vi)
                    for xi, vi in zip(at.reshape(-1, 3), u.reshape(-1, 3))]
        assert np.array_equal(out.reshape(-1, 3), np.array(expected))
        assert self.no_handoff()

    def test_an_equal_stack_that_is_not_the_handed_one_is_passed_as_it_is(self):
        m = wavy_conformal_metric()
        x = np.array([[0.0, 0.4, 0.5], [0.6, 0.7, 0.8]])
        y = x.copy()
        y[0, 0] = -0.0
        seen = []
        with handing(m, x, metric_at(m, x)):
            by_rows(lambda xi: seen.append(xi) or 0.0, y)
        assert all(np.shares_memory(xi, y) for xi in seen)
        assert np.signbit(seen[0][0])

    def test_a_raise_at_row_k_leaves_no_current_row(self):
        calls = []
        m = counted_metric(calls)
        x, v = np.random.default_rng(3).uniform(0.3, 1.2, (2, 6, 3))
        gmat = metric_at(m, x)
        calls.clear()

        def user(xi, vi):
            if speed_at(m, xi, vi) > 0.0 and tensor_core._handed[5] == 3:
                raise ArithmeticError("row 3")
            return 0.0

        with handing(m, x, gmat, v) as (x, v):
            with pytest.raises(ArithmeticError, match="row 3"):
                by_rows(user, x, v)
            assert tensor_core._handed[4:7] == [None, None, None]
            assert not calls
            # with no current row, row 3 is evaluated afresh, to the same bits
            assert np.array_equal(metric_at(m, x[3]), gmat[3])
            assert len(calls) == 1
            assert speed_at(m, x[3], v[3]) == speed_at(m, x[3].copy(), v[3].copy())
        assert len(calls) == 3 and self.no_handoff()


@pytest.mark.parametrize("target", ["x", "v"])
def test_a_stacked_field_that_writes_into_its_states_raises_and_changes_nothing(target):
    # a stacked closure gets read-only copies of its states, as a point
    # closure gets read-only rows
    m = wavy_conformal_metric()

    def writing(m_, x, v):
        (x if target == "x" else v)[..., 0] += 100.0
        return np.zeros(x.shape)

    field = ForceField(eval=writing, stacked=True)
    st = PhaseState(x=np.array([0.3, 0.2, 0.1]), v=np.array([0.5, -0.2, 0.4]), t=0.0)
    with pytest.raises(ValueError, match="read-only"):
        step_trajectory(field, m, st, 1e-3)
    assert st.x.tolist() == [0.3, 0.2, 0.1] and st.v.tolist() == [0.5, -0.2, 0.4]
    x = np.array([[0.3, 0.4, 0.5], [0.6, 0.7, 0.8]])
    v = np.array([[0.5, -0.2, 0.4], [0.1, 0.9, -0.3]])
    before = x.copy(), v.copy()
    with pytest.raises(ValueError, match="read-only"):
        field_call(field, field.eval, m)(x, v, metric_at(m, x))
    assert np.array_equal(x, before[0]) and np.array_equal(v, before[1])


def full_metric(n):
    """A point-wise metric on R^n with every entry varying: M(x) M(x)^T + I,
    with M(x) a fixed random matrix plus sin(x) along its diagonal."""
    base = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))

    def g(x):
        a = base + np.diag(np.sin(x))
        return a @ a.T + np.eye(n)

    return MetricField(dim=n, g=g)


def speed_field():
    """A point field whose first component is its speed, with every speed it
    read appended to the list it returns beside."""
    seen = []

    def user(m_, xi, vi):
        seen.append(speed_at(m_, xi, vi))
        out = np.zeros(m_.dim)
        out[0] = seen[-1]
        return out

    return ForceField(eval=user), seen


class TestSpeedHandoff:
    """A point closure that ``by_rows`` calls on the handed states and their
    handed velocities reads its own row's speed by index, from speeds taken
    once for the whole stack; any other call takes its own product."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_handed_speed_equals_the_unhanded_one_bit_for_bit(self, n):
        m = full_metric(n)
        rng = np.random.default_rng(26 + n)
        x, v = rng.uniform(-2.0, 2.0, (400, n)), rng.uniform(-2.0, 2.0, (400, n))
        field, seen = speed_field()
        with counted_speed_from() as speeds_taken:
            field_call(field, field.eval, m)(x, v, metric_at(m, x))
        assert speeds_taken == [(400, n)]
        unhanded = [speed_at(m, xi, vi) for xi, vi in zip(x, v)]
        assert all(type(s) is float for s in seen)
        assert seen == unhanded

    def test_a_copy_of_either_row_takes_its_own_product(self):
        m = full_metric(3)
        rng = np.random.default_rng(7)
        x, v = rng.uniform(-2.0, 2.0, (2, 20, 3))
        pairs = []

        def user(m_, xi, vi):
            pairs.append((speed_at(m_, xi, vi.copy()), speed_at(m_, xi.copy(), vi)))
            assert tensor_core._handed[7] is None
            return np.zeros(3)

        with counted_speed_from() as speeds_taken:
            field_call(ForceField(eval=user), user, m)(x, v, metric_at(m, x))
        assert speeds_taken == []
        expected = [speed_at(m, xi, vi) for xi, vi in zip(x, v)]
        assert pairs == [(s, s) for s in expected]

    def test_writing_into_a_velocity_row_raises_and_leaves_the_caller_unchanged(self):
        m = wavy_conformal_metric()
        x = np.array([[0.3, 0.4, 0.5], [0.6, 0.7, 0.8]])
        v = np.array([[0.5, -0.2, 0.4], [0.1, 0.9, -0.3]])
        before = v.copy()

        def user(m_, xi, vi):
            vi *= 2.0
            return np.zeros(3)

        with pytest.raises(ValueError):
            field_call(ForceField(eval=user), user, m)(x, v, metric_at(m, x))
        assert np.array_equal(v, before)
        assert all(entry is None for entry in tensor_core._handed)

    def test_an_equal_velocity_stack_that_is_not_the_handed_one_is_passed_as_it_is(self):
        m = wavy_conformal_metric()
        x = np.array([[0.3, 0.4, 0.5], [0.6, 0.7, 0.8]])
        v = np.array([[0.0, -0.2, 0.4], [0.1, 0.9, -0.3]])
        w = v.copy()
        w[0, 0] = -0.0
        seen = []

        def user(xi, wi):
            seen.append((wi, tensor_core._handed[6]))
            return speed_at(m, xi, wi)

        with handing(m, x, metric_at(m, x), v) as (x, _):
            speeds = by_rows(user, x, w)
            assert tensor_core._handed[7] is None
        assert all(np.shares_memory(wi, w) and row is None for wi, row in seen)
        assert np.signbit(seen[0][0][0])
        assert np.array_equal(speeds, [speed_at(m, xi, vi) for xi, vi in zip(x, v)])

    def test_speeds_are_taken_only_when_a_closure_asks(self):
        # the velocities are copied with the positions, eagerly; their
        # speeds are taken only for a closure that asks
        m = wavy_conformal_metric()
        u, at, g = offset_stack(m, count=4, offsets=(3,))
        handed = []

        def silent(m_, xi, vi):
            handed.append(tensor_core._handed[7])
            return np.zeros(3)

        def stacked(m_, x, v):
            assert v is tensor_core._handed[3] and not v.flags.writeable
            handed.append(tensor_core._handed[7])
            return np.zeros(x.shape)

        asking, seen = speed_field()
        with counted_speed_from() as speeds_taken:
            field_call(ForceField(eval=silent), silent, m)(at, u, g)
            field_call(ForceField(eval=stacked, stacked=True), stacked, m)(at, u, g)
            assert speeds_taken == [] and len(handed) == 13
            assert all(speeds is None for speeds in handed)
            for _ in range(2):
                field_call(asking, asking.eval, m)(at, u, g)
        assert speeds_taken == [(12, 3)] * 2 and len(seen) == 24
        assert all(entry is None for entry in tensor_core._handed)


@pytest.mark.parametrize("metric", [euclidean_metric, wavy_conformal_metric],
                         ids=["euclidean", "wavy-conformal"])
@pytest.mark.parametrize("mode", ["analytic", "finite-diff"])
def test_perturbed_control_is_bit_identical_on_the_row_and_the_fresh_path(metric, mode):
    # the row path reads the handed values, and the fresh path takes the
    # same values again, so the control's residual table and lambda samples
    # agree bit for bit
    m = metric()
    states, gmat = _sampled(SampleSpec(box=BOX, count=20, seed=5, mode=mode), m)
    base = as_force_field(metrizable())
    tables = [
        _residual_rows(perturbed_field(base, 0, bump), m, mode, states, gmat)
        for bump in (lambda m_, x, v: speed_at(m_, x, v) * x[1],
                     lambda m_, x, v: speed_at(m_, x.copy(), v) * x[1])
    ]
    (rows, lam), (fresh_rows, fresh_lam) = tables
    assert np.array_equal(rows, fresh_rows) and np.array_equal(lam, fresh_lam)
    assert rows[:, 0].max() > 1e-3  # the bump violates the equations
