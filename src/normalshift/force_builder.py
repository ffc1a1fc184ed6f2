"""Constructors for force fields of systems admitting the normal shift.

The whole family is parametrized by a generating pair (W, h): an isotropic
scalar W(x, |v|) whose speed derivative W_v never vanishes, plus a free
one-variable function h.  Writing N for the unit velocity direction and P
for the projector orthogonal to it, the force covector is

    F_k = h(W) N_k / W_v - |v| sum_i (dW/dx^i / W_v) (2 N^i N_k - delta^i_k).

The same field factors through the scalar ansatz

    F_k = A N_k - |v| sum_i (dA/dv^i) P^i_k,
    A   = a + sum_i b_i v^i,   a = h(W)/W_v,   b_k = -(dW/dx^k)/W_v,

and the pair of routes is kept deliberately independent so tests can play
them against each other.  A reparametrization W -> rho(W) with strictly
monotone rho, compensated in h, leaves the force unchanged; that gauge
freedom is exposed for the same reason.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateWv,
    EvaluationFailure,
    NonMonotoneGauge,
    NormalShiftError,
    QuadratureFailure,
)
from .extended_fields import (
    ExtendedScalar,
    IsotropicScalar,
    isotropic_call,
    isotropic_second_speed_derivative,
    isotropic_speed_derivative,
    spatial_gradient_isotropic,
    speed_derivative_values,
    velocity_gradient,
    x_partial_values,
)
from .tensor_core import (
    MetricField,
    Projector,
    by_rows,
    christoffel_from,
    direction_from,
    dot,
    every,
    handing,
    identity,
    inverse_metric_from,
    mat_vec,
    metric_at,
    metric_derivatives_at,
    outer,
    per_state,
    unit_direction,
    vec_mat,
)

Array = np.ndarray

# The hypothesis W_v != 0, made operational: the least |dW/dspeed| accepted.
WV_FLOOR = 1e-8
# Anchors of the speed quadrature behind builtin_nonmetrizable.
QUADRATURE_ANCHORS = 257
# builtin_nonmetrizable probes A for arrays on every this-many-th probe speed.
PROFILE_PROBE_STRIDE = 64
# W values on which gauge_transform probes a gauge map, and on which h is
# probed for arrays.
GAUGE_PROBES = np.linspace(0.25, 4.0, 13)


def takes_arrays(fn: Callable[[float], float], points: Array, values: Array) -> bool:
    """Whether the scalar callback ``fn`` takes an array of arguments.

    It does when ``fn(points)`` reproduces its point values ``values`` to a
    relative 1e-12, as an array of the points' shape or as one value for
    all (a constant).  An array call that raises one of the errors scalar
    code raises on an array means it does not.
    """
    try:
        with np.errstate(all="ignore"):
            value = np.asarray(fn(points), dtype=float)
        return value.shape in ((), points.shape) and bool(
            np.allclose(value, values, rtol=1e-12, atol=0.0)
        )
    except (TypeError, ValueError, ArithmeticError, NormalShiftError):
        return False


def _on_array(fn: Callable[[float], float], arrays: bool, s: Array) -> Array:
    """``fn`` at every entry of ``s``: one call when it takes ``arrays``
    (see :func:`takes_arrays`), else one call per entry.  A constant's one
    value is filled into a new array of ``s``'s shape."""
    if arrays:
        value = np.asarray(fn(s), dtype=float)
        return value if value.shape == s.shape else np.full(s.shape, value)
    return np.array([float(fn(si)) for si in s.ravel()]).reshape(s.shape)


@dataclass(frozen=True)
class GeneratingScalar:
    """The pair (W, h) generating a force field.

    Every evaluation needs |dW/dspeed| of at least ``WV_FLOOR``.
    """

    W: IsotropicScalar
    h: Callable[[float], float]

    @cached_property
    def _h_arrays(self) -> bool:
        try:
            values = np.array([float(self.h(w)) for w in GAUGE_PROBES])
        except (TypeError, ValueError, ArithmeticError, NormalShiftError):
            return False
        return takes_arrays(self.h, GAUGE_PROBES, values)


def h_values(gs: GeneratingScalar, w: Array) -> Array:
    """h at an array of W values.

    Whether h takes arrays is probed on ``GAUGE_PROBES`` at the first such
    call; one that does is then called once per array, any other once per
    value.
    """
    return _on_array(gs.h, gs._h_arrays, w)


@dataclass(frozen=True)
class AnsatzField:
    """Isotropic coefficient fields (a, b_1 .. b_n) of the scalar ansatz.

    It takes exactly one of two forms.  The components ``a`` and ``b`` are
    evaluated one by one, with their analytic partials where they carry
    them.  A ``pack`` is one vector-valued isotropic field whose value is
    the whole coefficient pack (a, b_1, ..., b_n), which consumers
    evaluate and difference as one vector.
    """

    a: Optional[IsotropicScalar] = None
    b: Optional[Tuple[IsotropicScalar, ...]] = None
    pack: Optional[IsotropicScalar] = None

    def __post_init__(self):
        given = (self.a is not None, self.b is not None, self.pack is not None)
        if given not in ((True, True, False), (False, False, True)):
            raise ValueError("AnsatzField takes either the components a and b or the pack")


@dataclass(frozen=True)
class ForceField:
    """Evaluatable force covector F_k(x, v).

    ``dv`` and ``nabla`` optionally supply analytic derivative matrices

        dv(m, x, v)[r, k]    = d F_k / d v^r
        nabla(m, x, v)[r, k] = covariant spatial derivative of F_k along x^r

    which the residual evaluator uses instead of finite differences when
    present.

    ``stacked`` declares that the closures take stacks of states (..., n)
    and return values with those leading axes: (..., n) from ``eval``,
    (..., n, n) from ``dv`` and ``nabla``.  The library calls them only
    through :func:`field_call`, and only on stacks: a single state, as
    :func:`~normalshift.shift_engine.step_trajectory` and the point
    residuals take it, reaches them as a one-row stack (1, n).  Unmarked
    closures are called once per state, on a single state.
    """

    eval: Callable[[MetricField, Array, Array], Array]
    dv: Optional[Callable[[MetricField, Array, Array], Array]] = None
    nabla: Optional[Callable[[MetricField, Array, Array], Array]] = None
    stacked: bool = False


def field_call(ff: ForceField, fn: Callable, m: MetricField) -> Callable:
    """``ff``'s closure ``fn`` as ``call(x, v, gmat)`` on a stack of states,
    once per stack when ``ff`` is ``stacked``, else once per state, handed
    ``gmat``, the metric at ``x``, and the velocities ``v``
    (:func:`~normalshift.tensor_core.handing`).  ``fn`` gets read-only
    copies of ``x`` and ``v``, so writing into them raises ``ValueError``,
    and its metric there reads ``gmat``.  Called once per state, through
    :func:`~normalshift.tensor_core.by_rows`, it gets their rows, and its
    metric and its speed at its own rows are read by index; so is a nested
    point closure's, such as the bump of :func:`perturbed_field`, that
    ``by_rows`` calls on the ``x`` and ``v`` that a ``stacked`` ``fn`` was
    given."""

    def call(x, v, gmat):
        with handing(m, x, gmat, v) as (x, v):
            return fn(m, x, v) if ff.stacked else by_rows(lambda xi, vi: fn(m, xi, vi), x, v)

    return call


@dataclass(frozen=True)
class GaugeMap:
    """Strictly monotone reparametrization rho with inverse and derivative."""

    fn: Callable[[float], float]
    inverse: Callable[[float], float]
    derivative: Callable[[float], float]


def coefficient_pack(gs: GeneratingScalar, x: Array, v_speed) -> Array:
    """The coefficient pack (a, b_1, ..., b_n) at fixed speed, as one vector.

    a = h(W) / W_v and b_k = -(dW/dx^k) / W_v share one W_v (checked
    against ``WV_FLOOR``), one h(W) and one spatial gradient.  Takes one
    state or a stack of positions with their speeds; the pack is the last
    axis.
    """
    wv, hw, grad = _terms(gs, np.asarray(x, dtype=float), v_speed)
    wv = np.asarray(wv)[..., None]
    return np.concatenate((np.asarray(hw)[..., None] / wv, -grad / wv), axis=-1)


def compute_b(gs: GeneratingScalar, x: Array, v_speed: float) -> Array:
    """Covector b_k = -(dW/dx^k) / (dW/dspeed) at fixed speed."""
    return coefficient_pack(gs, x, v_speed)[1:]


def compute_a(gs: GeneratingScalar, x: Array, v_speed: float) -> float:
    """Scalar a = h(W) / (dW/dspeed)."""
    return float(coefficient_pack(gs, x, v_speed)[0])


# The coefficient helpers take one state or a stack of positions with their
# speeds; the coefficient index is the last axis of what they return.


def coefficients(af: AnsatzField, x: Array, speed) -> Array:
    """(a, b_1, ..., b_n) at (x, speed)."""
    x = np.asarray(x, dtype=float)
    if af.pack is not None:
        return np.asarray(isotropic_call(af.pack, af.pack.eval, x, speed), dtype=float)
    return np.stack(
        [np.asarray(isotropic_call(c, c.eval, x, speed), dtype=float) for c in (af.a,) + af.b],
        axis=-1,
    )


def coefficient_speed_derivative(af: AnsatzField, x: Array, speed, order: int = 1) -> Array:
    """First (``order=1``) or second speed derivative of every coefficient."""
    derivative = (
        isotropic_speed_derivative if order == 1 else isotropic_second_speed_derivative
    )
    if af.pack is not None:
        return derivative(af.pack, x, speed)
    return np.stack([derivative(c, x, speed) for c in (af.a,) + af.b], axis=-1)


def coefficient_gradient(af: AnsatzField, x: Array, speed) -> Array:
    """Fixed-speed x-derivatives, ``out[..., r, c] = d coefficient_c / d x^r``."""
    if af.pack is not None:
        return spatial_gradient_isotropic(af.pack, x, speed)
    return np.stack([spatial_gradient_isotropic(c, x, speed) for c in (af.a,) + af.b], axis=-1)


def ansatz_value(c: Array, v: Array):
    """A = a + sum_i b_i v^i from the coefficient pack ``c``, summed in index order."""
    total = c[..., 0]
    for i in range(v.shape[-1]):
        total = total + c[..., i + 1] * v[..., i]
    return float(total) if v.ndim == 1 else total


def ansatz_A(af: AnsatzField, m: MetricField, x: Array, v: Array):
    """A = a(x, |v|) + sum_i b_i(x, |v|) v^i, at one state or a stack."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return ansatz_value(coefficients(af, x, unit_direction(m, x, v).speed), v)


def force_from_A(A: ExtendedScalar, m: MetricField, x: Array, v: Array) -> Array:
    """Scalar-ansatz force: F_k = A N_k - |v| sum_i (dA/dv^i) P^i_k.

    The metric is taken once at ``x`` and handed to A's closures
    (:func:`~normalshift.tensor_core.handing`), which are called on its
    read-only copy of ``x``, so a scalar that reads the metric there, as
    :func:`ansatz_scalar` and ``lift_isotropic`` do, costs no more.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    gmat = metric_at(m, x)
    pr = direction_from(gmat, x, v)
    with handing(m, x, gmat) as (x, _):
        grad = velocity_gradient(A, x, v)
        value = float(A.eval(x, v))
    return value * pr.N_down - pr.speed * (grad @ pr.P)


def _first_state(mask: Array, x: Array, speed: Array) -> Tuple[int, str]:
    """Flat index of the first state of a stack where ``mask`` holds, and its location."""
    i = int(np.argmax(np.ravel(mask)))
    return i, f"at speed {float(np.ravel(speed)[i]):.4g}, x={np.reshape(x, (-1, x.shape[-1]))[i]}"


def _terms(gs: GeneratingScalar, x: Array, speed):
    """W_v, h(W) and dW/dx at one state or a stack of states.

    A single state is a one-row stack, so it rounds alike alone and in a
    stack.  A ``stacked`` W with ``terms`` gives all three in one call; any
    other W goes through :func:`~normalshift.extended_fields.isotropic_call`,
    with central differences for a closure it lacks.  The checks run as
    masks over the stack in the order W_v, h(W), dW/dx, and each names the
    first state that fails it.  h is called once on the stack when it
    takes arrays, else once per state.
    """
    if x.ndim == 1:
        wv, hw, grad = _terms(gs, x[None], np.array([speed], dtype=float))
        return wv[0], hw[0], grad[0]
    speed = np.asarray(speed, dtype=float)
    W = gs.W
    terms = W.terms(x, speed) if W.stacked and W.terms is not None else None
    wv = np.asarray(speed_derivative_values(W, x, speed) if terms is None else terms[1], dtype=float)
    size = np.abs(wv)
    if not every((size >= WV_FLOOR) & (size < np.inf)):
        bad = ~np.isfinite(wv)
        if bad.any():
            _, where = _first_state(bad, x, speed)
            raise EvaluationFailure(f"speed derivative evaluated to a non-finite value {where}")
        i, where = _first_state(size < WV_FLOOR, x, speed)
        raise DegenerateWv(
            f"dW/dspeed = {np.ravel(wv)[i]:.3e} below floor {WV_FLOOR:.1e} {where}"
        )
    w = np.asarray(isotropic_call(W, W.eval, x, speed) if terms is None else terms[0], dtype=float)
    hw = h_values(gs, w)
    if not every(speed > 0.0):
        _, where = _first_state(~(speed > 0.0), x, speed)
        raise EvaluationFailure(f"isotropic gradient needs a positive speed, not {where}")
    grad = x_partial_values(W, x, speed) if terms is None else np.asarray(terms[2], dtype=float)
    if not every(np.isfinite(grad)):
        _, where = _first_state(~np.isfinite(grad).all(axis=-1), x, speed)
        raise EvaluationFailure(f"isotropic x-partials evaluated to a non-finite value {where}")
    return wv, hw, grad


def force_from_W(
    gs: GeneratingScalar, m: MetricField, x: Array, v: Array, gmat: Optional[Array] = None
) -> Array:
    """Force covector built directly from the generating pair.

    Takes one state (x, v) of shape (n,) or stacks of shape (..., n); a
    single state is a one-row stack.  ``gmat``, the metric values at ``x``,
    serves the unit direction when given
    (:func:`~normalshift.tensor_core.direction_from`), whose projector is
    never read here.  A ``stacked`` W is called once per stack, any other W
    once per state, and h once per stack when it takes arrays, else once
    per state.
    """
    x = np.asarray(x, dtype=float)
    pr = direction_from(metric_at(m, x) if gmat is None else gmat, x, v)
    wv, hw, grad = _terms(gs, x, pr.speed)
    # with b = grad / W_v, the term b_i (2 N^i N_k - delta^i_k) is expanded
    # so that stacks need no reflection matrices
    speed = pr.speed[..., None]
    b = grad / np.asarray(wv)[..., None]
    b_n = np.add.reduce(b * pr.N_up, axis=-1, keepdims=True)
    return (np.asarray(hw / wv)[..., None] - 2.0 * speed * b_n) * pr.N_down + speed * b


def generated_force(gs: GeneratingScalar, m: MetricField) -> Callable:
    """:func:`force_from_W` of the pair as ``force(x, v, gmat)``: the one
    generated-force closure, which the shift's stages and ``verify`` call."""
    return lambda x, v, gmat: force_from_W(gs, m, x, v, gmat)


def ansatz_from_generator(gs: GeneratingScalar) -> AnsatzField:
    """a = h(W)/W_v and b_k = -W_k/W_v as one isotropic field, the
    coefficient pack (see :func:`coefficient_pack`)."""
    pack = IsotropicScalar(eval=lambda x, s: coefficient_pack(gs, x, s), stacked=True)
    return AnsatzField(pack=pack)


# Assembly of the ansatz derivatives from the coefficient pack.  ``c``,
# ``c_p`` and ``c_pp`` hold (a, b_1..b_n) and their first and second speed
# derivatives, ``grad[..., r, c]`` their fixed-speed x-derivatives, ``pr``
# the unit direction of (x, v).  Each takes one state or a stack, with the
# products of one state written as stack matmuls.  The public closures
# below and ``verify`` both go through these, so one evaluation of the
# pack per state serves them all.


def ansatz_fiber_hessian(
    pr: Projector, gmat: Array, v: Array, c_p: Array, c_pp: Array
) -> Array:
    """d2A/dv^r dv^s = (a'' + sum b''_i v^i) N_r N_s + b'_s N_r + b'_r N_s
    + (a'/|v| + sum b'_i N^i) P_rs."""
    a_p, b_p = c_p[..., 0], c_p[..., 1:]
    a_pp, b_pp = c_pp[..., 0], c_pp[..., 1:]
    nn = outer(pr.N_down, pr.N_down)
    p_down = gmat - nn
    return (
        per_state(a_pp + dot(b_pp, v), 2) * nn
        + outer(pr.N_down, b_p)
        + outer(b_p, pr.N_down)
        + per_state(a_p / pr.speed + dot(b_p, pr.N_up), 2) * p_down
    )


def ansatz_force_dv(pr: Projector, gmat: Array, v: Array, c: Array, c_p: Array) -> Array:
    """Fiber derivative ``out[..., r, k] = d F_k / d v^r`` of the ansatz force."""
    a, b = c[..., 0], c[..., 1:]
    a_p, b_p = c_p[..., 0], c_p[..., 1:]
    s = pr.speed
    n_col = pr.N_down[..., :, None]
    n_row = pr.N_down[..., None, :]
    p_down = gmat - outer(pr.N_down, pr.N_down)
    return (
        per_state(a_p + 2.0 * dot(b_p, v), 2) * n_col * n_row
        + 2.0 * b[..., :, None] * n_row
        + per_state(a + 2.0 * dot(b, v), 2) * p_down.swapaxes(-1, -2) / per_state(s, 2)
        - n_col * b[..., None, :]
        - (per_state(s, 1) * b_p)[..., None, :] * n_col
    )


def ansatz_force_nabla(
    pr: Projector, gamma: Array, v: Array, c: Array, grad: Array
) -> Array:
    """Covariant spatial derivative ``out[..., r, k]`` of the ansatz force along x^r."""
    da = grad[..., :, 0]
    # db[r, k] = covariant x^r-derivative of the covector b_k at fixed speed
    db = grad[..., :, 1:] - np.einsum("...crk,...c->...rk", gamma, c[..., 1:])
    n_row = pr.N_down[..., None, :]
    return (
        da[..., :, None] * n_row
        + 2.0 * mat_vec(db, v)[..., :, None] * n_row
        - per_state(pr.speed, 2) * db
    )


def ansatz_scalar(af: AnsatzField, m: MetricField) -> ExtendedScalar:
    """Package A = a + sum b_i v^i as an extended scalar.

    Fiber derivatives come from the isotropic structure instead of raw
    differencing: with a' = da/dspeed etc. and the covariant projector
    P_rs = g_rs - N_r N_s,

        dA/dv^s       = (a' + sum b'_i v^i) N_s + b_s
        d2A/dv^r dv^s = (a'' + sum b''_i v^i) N_r N_s + b'_s N_r + b'_r N_s
                        + (a'/|v| + sum b'_i N^i) P_rs.
    """

    def eval_(x, v):
        return ansatz_A(af, m, x, v)

    def dv(x, v):
        pr = unit_direction(m, x, v)
        c_p = coefficient_speed_derivative(af, x, pr.speed)
        return (c_p[0] + c_p[1:] @ v) * pr.N_down + coefficients(af, x, pr.speed)[1:]

    def dv2(x, v):
        gmat = metric_at(m, x)
        pr = direction_from(gmat, x, v)
        c_p = coefficient_speed_derivative(af, x, pr.speed)
        c_pp = coefficient_speed_derivative(af, x, pr.speed, order=2)
        return ansatz_fiber_hessian(pr, gmat, v, c_p, c_pp)

    return ExtendedScalar(eval=eval_, dv=dv, dv2=dv2)


def ansatz_force_field(af: AnsatzField) -> ForceField:
    """Force field F_k = a N_k + |v| sum_i b_i (2 N^i N_k - delta^i_k).

    Carries analytic derivative closures assembled from the isotropic
    calculus: the fiber derivative of the unit direction is P/|v|, the
    spatial covariant derivatives of N and |v| vanish, and the isotropic
    coefficients differentiate through their (x, speed) arguments alone.
    The field is ``stacked``: its closures take one state or a stack.
    """

    def eval_(m, x, v):
        pr = unit_direction(m, x, v)
        c = coefficients(af, x, pr.speed)
        reflect = 2.0 * outer(pr.N_up, pr.N_down) - identity(m.dim)
        return c[..., :1] * pr.N_down + vec_mat(per_state(pr.speed, 1) * c[..., 1:], reflect)

    def dv(m, x, v):
        gmat = metric_at(m, x)
        pr = direction_from(gmat, x, v)
        c, c_p = coefficients(af, x, pr.speed), coefficient_speed_derivative(af, x, pr.speed)
        return ansatz_force_dv(pr, gmat, v, c, c_p)

    def nabla(m, x, v):
        x = np.asarray(x, dtype=float)
        gmat = metric_at(m, x)
        pr = direction_from(gmat, x, v)
        gamma = christoffel_from(inverse_metric_from(gmat, x), metric_derivatives_at(m, x))
        c, grad = coefficients(af, x, pr.speed), coefficient_gradient(af, x, pr.speed)
        return ansatz_force_nabla(pr, gamma, v, c, grad)

    return ForceField(eval=eval_, dv=dv, nabla=nabla, stacked=True)


def as_force_field(gs: GeneratingScalar) -> ForceField:
    """Evaluatable force field for a generating pair, with derivatives.

    Its ``eval`` is :func:`force_from_W`; ``dv`` and ``nabla`` are those of
    the ansatz force field of the pair's coefficient pack, built once here.
    All three take stacks of states, so the field is ``stacked``.
    """
    ansatz = ansatz_force_field(ansatz_from_generator(gs))

    def eval_(m, x, v):
        return force_from_W(gs, m, x, v)

    return ForceField(eval=eval_, dv=ansatz.dv, nabla=ansatz.nabla, stacked=True)


def gauge_transform(gs: GeneratingScalar, rho: GaugeMap) -> GeneratingScalar:
    """Reparametrize (W, h) by a strictly monotone rho, preserving the force.

    The new pair is W~ = rho(W) and h~(w) = h(rho^-1(w)) rho'(rho^-1(w)).
    Monotonicity and invertibility of rho are probed on ``GAUGE_PROBES``,
    which should cover the values W takes in the intended working region.
    """
    probes = GAUGE_PROBES
    try:
        derivs = np.array([float(rho.derivative(t)) for t in probes])
        round_trip = np.array([float(rho.inverse(rho.fn(t))) for t in probes])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise NonMonotoneGauge("gauge map failed to evaluate on the probed range") from exc
    if not np.all(np.isfinite(derivs)) or np.min(np.abs(derivs)) < 1e-12:
        raise NonMonotoneGauge("gauge derivative vanishes on the probed range")
    if np.max(derivs) * np.min(derivs) < 0.0:
        raise NonMonotoneGauge("gauge derivative changes sign on the probed range")
    if np.max(np.abs(round_trip - probes)) > 1e-8 * (1.0 + np.max(np.abs(probes))):
        raise NonMonotoneGauge("gauge inverse does not invert fn on the probed range")

    w_old = gs.W

    def call_old(fn, x, s):
        return isotropic_call(w_old, fn, x, s)

    def eval_(x, s):
        return float(rho.fn(call_old(w_old.eval, x, s)))

    dx = None
    dspeed = None
    if w_old.dx is not None:

        def dx(x, s):
            return float(rho.derivative(call_old(w_old.eval, x, s))) * np.asarray(
                call_old(w_old.dx, x, s), dtype=float
            )

    if w_old.dspeed is not None:

        def dspeed(x, s):
            slope = float(rho.derivative(call_old(w_old.eval, x, s)))
            return slope * float(call_old(w_old.dspeed, x, s))

    def h_new(w):
        t = float(rho.inverse(w))
        return float(gs.h(t)) * float(rho.derivative(t))

    new_w = IsotropicScalar(eval=eval_, dx=dx, dspeed=dspeed)
    return GeneratingScalar(W=new_w, h=h_new)


def builtin_geodesic() -> GeneratingScalar:
    """W = |v|, h = 0: the geodesic flow, force identically zero."""
    w = IsotropicScalar(
        eval=lambda x, s: s,
        dx=lambda x, s: np.zeros(x.shape),
        dspeed=lambda x, s: np.ones(x.shape[:-1]),
        stacked=True,
    )
    return GeneratingScalar(W=w, h=lambda w_: 0.0)


def _f_and_partials(f: IsotropicScalar, x: Array, s: Array) -> Tuple[Array, Array]:
    """A stacked position scalar f and its x-partials on a stack: from one
    ``f.terms`` call when f has it, else from ``f.eval`` and ``f.dx``, in
    that order."""
    if f.terms is not None:
        value, _, partials = f.terms(x, s)
        return value, partials
    return f.eval(x, s), f.dx(x, s)


def builtin_metrizable(f: IsotropicScalar, H: Callable[[float], float]) -> GeneratingScalar:
    """W = |v| exp(-f(x)), h = H.

    ``f`` must depend on position only (its speed slot is ignored by
    convention).  W is ``stacked`` when ``f`` is, and then carries
    ``terms``, which evaluates f and exp(-f) once for all three values,
    with f and its partials from one ``f.terms`` call when f has it.
    The resulting force is the one whose trajectories are geodesics of the
    conformally scaled metric exp(-2f) g, reparametrized through H.
    """

    # f.eval gives a float at a point of an unmarked f and an array on a
    # stack, and one formula serves both
    def eval_(x, s):
        return s * np.exp(-f.eval(x, s))

    def dspeed(x, s):
        return np.exp(-f.eval(x, s))

    dx = terms = None
    if f.dx is not None:

        def dx(x, s):
            return -eval_(x, s)[..., None] * np.asarray(f.dx(x, s), dtype=float)

        if f.stacked:

            def terms(x, s):
                f_value, f_partials = _f_and_partials(f, x, s)
                e = np.exp(-f_value)
                w = s * e
                return w, e, -w[..., None] * np.asarray(f_partials, dtype=float)

    w = IsotropicScalar(eval=eval_, dx=dx, dspeed=dspeed, stacked=f.stacked, terms=terms)
    return GeneratingScalar(W=w, h=H)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# QUADPACK's 21-point Gauss-Kronrod rule, the first pass of scipy's ``quad``
# (float64 values of scipy.integrate._quad_vec._quadrature_gk21): the Gauss
# nodes, then the Kronrod nodes -k, +k and 0; weight tuples run outermost first
_K = (0.9956571630258081, 0.9301574913557082, 0.7808177265864169, 0.5627571346686047,
      0.2943928627014602)
_W_GAUSS = (0.032558162307964725, 0.07503967481091996, 0.10938715880229764,
            0.13470921731147334, 0.14773910490133849)
_W_K = (0.011694638867371874, 0.054755896574351995, 0.0931254545836976,
        0.12349197626206584, 0.14277593857706009)
_GK21_NODES = np.concatenate((_GL_NODES, np.negative(_K), _K, [0.0]))
_GK21_WEIGHTS = np.array(_W_GAUSS + _W_GAUSS[::-1] + 2 * _W_K + (0.1494455540029169,))
QUAD_TOLERANCE = 1.49e-8  # quad's default absolute and relative tolerance


def quad(fn: Callable, a: float, b: float):
    """scipy's ``quad`` of ``fn`` over [a, b], with scipy imported on the first call.

    A module-level name, so a test can wrap it to see which segments reach it.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(fn, a, b)


def _segment_integrals(A: Callable, profile: Callable, anchors: Array) -> Array:
    """The integral of s / A(s) over each segment between consecutive ``anchors``.

    Every segment's Gauss-Kronrod sum and error estimate come from one call
    of ``profile``, A on an array.  A segment that fails ``quad``'s
    first-pass test goes to ``quad`` on point calls of A, whose warnings raise.
    Only such a segment imports ``scipy.integrate``; when every segment
    passes, scipy is never loaded.
    """
    a, b = anchors[:-1], anchors[1:]
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    with np.errstate(all="ignore"):
        nodes = center[:, None] + half[:, None] * _GK21_NODES
        values = nodes / profile(nodes)
        kronrod = (values * _GK21_WEIGHTS).sum(axis=-1)
        # dqk21's error estimate (its names), then dqagse's first-pass test
        err = np.abs((kronrod - (values[:, :10] * _GL_WEIGHTS).sum(axis=-1)) * half)
        resabs = half * (np.abs(values) * _GK21_WEIGHTS).sum(axis=-1)
        resasc = half * (np.abs(values - 0.5 * kronrod[:, None]) * _GK21_WEIGHTS).sum(axis=-1)
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        rounding = 50.0 * np.finfo(float).eps * resabs
        err = np.where(rounding > np.finfo(float).tiny, np.maximum(rounding, err), err)
        segments = kronrod * half
        bound = np.maximum(QUAD_TOLERANCE, QUAD_TOLERANCE * np.abs(segments))
        accepted = ((err <= bound) & (err != resasc)) | (err == 0.0)
    failed = np.flatnonzero(~accepted)
    if failed.size:
        from scipy.integrate import IntegrationWarning

        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            for j in failed:
                segments[j], _ = quad(lambda s: s / A(s), a[j], b[j])
    return segments


def builtin_nonmetrizable(
    f: IsotropicScalar,
    A_of_speed: Callable[[float], float],
    speed_range: Tuple[float, float] = (0.05, 5.0),
) -> GeneratingScalar:
    """W = exp(quadrature(|v|) - f(x)), h = 0, for a speed profile A.

    The speed dependence comes from the quadrature of s / A(s) taken from
    the fixed reference speed 1.0; shifting the reference multiplies W by a
    constant, which the gauge freedom absorbs.  Anchor values of the
    quadrature are precomputed once on ``QUADRATURE_ANCHORS`` uniform
    points over ``speed_range``: ``quad``'s 21-point Gauss-Kronrod pass on
    all segments in one call of A, with ``quad`` itself only on a segment
    that fails its first-pass test; only such a segment imports scipy, so a
    smooth profile builds without it.  Evaluations add a short fixed-order
    Gauss-Legendre tail from the nearest anchor, on all speeds and nodes at
    once (a single speed is a one-row array), so lookups after construction
    are read-only.  W is ``stacked`` when ``f`` is.  Its ``terms`` calls A
    once, on the tail nodes followed by the speeds, and takes f and its
    partials from one ``f.terms`` call when f has it.  ``A_of_speed`` is
    called on arrays only when that reproduces its point-wise values on
    every ``PROFILE_PROBE_STRIDE``-th speed of the vanishing probe; the
    probe is then one call of A, and otherwise one call per speed.
    ``W.dspeed`` raises :class:`QuadratureFailure` naming the speed where
    its value is not finite, as at speed 0 when A vanishes there.

    The generated force is A(|v|) sum_i (df/dx^i)(2 N^i N_k - delta^i_k).
    """
    lo, hi = speed_range
    if not (lo > 0.0 and lo < 1.0 < hi):
        raise QuadratureFailure(
            f"speed_range {speed_range} must be positive and contain the reference speed 1.0"
        )

    last = QUADRATURE_ANCHORS - 1
    anchors = np.linspace(lo, hi, QUADRATURE_ANCHORS)
    fine = np.linspace(lo, hi, 8 * QUADRATURE_ANCHORS)
    # the vanishing check reads every probe speed, with one call of A when
    # it takes arrays and one per speed when not
    step = PROFILE_PROBE_STRIDE
    coarse = np.array([A_of_speed(s) for s in fine[::step]])
    profile_arrays = takes_arrays(A_of_speed, fine[::step], coarse)
    probe = _on_array(A_of_speed, True, fine) if profile_arrays else np.array(
        [coarse[i // step] if i % step == 0 else A_of_speed(s) for i, s in enumerate(fine)]
    )
    if (
        not np.all(np.isfinite(probe))
        or np.min(np.abs(probe)) < 1e-12
        or np.min(probe) * np.max(probe) < 0.0
    ):
        worst = fine[int(np.argmin(np.abs(probe)))]
        raise QuadratureFailure(f"speed profile vanishes near speed {worst:.4g}")

    def profile(s: Array) -> Array:
        """A at an array of speeds; a point's 0-d speed reaches A as a one-row stack."""
        return _on_array(A_of_speed, profile_arrays, np.atleast_1d(s)).reshape(np.shape(s))

    try:
        segments = _segment_integrals(A_of_speed, profile, anchors)
    except Exception as exc:
        raise QuadratureFailure("adaptive quadrature of the speed profile failed") from exc
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    if not np.all(np.isfinite(cumulative)):
        raise QuadratureFailure("speed quadrature produced non-finite values")

    def antiderivatives(s: Array, at_speeds: bool = False):
        """The quadrature at an array of speeds, anchors and tails at once.
        With ``at_speeds``, also A(s), from the same call of A as the tail
        nodes, whose values come first: a point-wise A is called on the
        nodes and then on the speeds, in the order of two calls."""
        # np.clip's bounds, without its Python-level wrapper; nan stays nan
        j = np.minimum(np.maximum((s - lo) / (hi - lo) * last, 0.0), last)
        bad = ~np.isfinite(j)
        if not np.count_nonzero(bad):
            j = j.astype(np.intp)
            base = anchors[j]
            half = 0.5 * (s - base)
            # the tail nodes, written where A's argument is built, the speeds
            # after them, with no temporary kept past its use; each sum and
            # product has the operands of mid + half * node and w * (node / A)
            size = s.size * len(_GL_NODES)
            argument = np.empty(size + s.size if at_speeds else size)
            nodes = argument[:size].reshape(s.shape + _GL_NODES.shape)
            np.multiply(half[..., None], _GL_NODES, out=nodes)
            nodes += (0.5 * (s + base))[..., None]
            if at_speeds:
                argument[size:] = s.ravel()
                both = profile(argument)
                at_nodes, at_s = both[:size].reshape(nodes.shape), both[size:].reshape(s.shape)
            else:
                at_nodes = profile(nodes)
            weighted = nodes / at_nodes
            weighted *= _GL_WEIGHTS
            value = cumulative[j] + half * np.add.reduce(weighted, axis=-1)
            bad = ~np.isfinite(value)
        if np.count_nonzero(bad):
            worst = float(np.ravel(s)[np.argmax(np.ravel(bad))])
            raise QuadratureFailure(f"speed quadrature non-finite at speed {worst:.4g}")
        return (value, at_s) if at_speeds else value

    offset = float(antiderivatives(np.asarray(1.0)))

    # a point's speed is a 0-d array, so one formula serves points and stacks
    def eval_(x, s):
        quadrature = antiderivatives(np.asarray(s, dtype=float))
        return np.exp(quadrature - offset - np.asarray(f.eval(x, s), dtype=float))

    def dspeed(x, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = eval_(x, s) * s / profile(s)
        bad = ~np.isfinite(value)
        if np.count_nonzero(bad):
            worst = float(np.ravel(s)[np.argmax(np.ravel(bad))])
            raise QuadratureFailure(f"speed derivative non-finite at speed {worst:.4g}")
        return value

    dx = terms = None
    if f.dx is not None:

        def dx(x, s):
            return -eval_(x, s)[..., None] * np.asarray(f.dx(x, s), dtype=float)

        def terms(x, s):
            s = np.asarray(s, dtype=float)
            quadrature, a_s = antiderivatives(s, at_speeds=True)
            f_value, f_partials = _f_and_partials(f, x, s)
            w = np.exp(quadrature - offset - np.asarray(f_value, dtype=float))
            return w, w * s / a_s, -w[..., None] * np.asarray(f_partials, dtype=float)

    w = IsotropicScalar(eval=eval_, dx=dx, dspeed=dspeed, stacked=f.stacked, terms=terms)
    return GeneratingScalar(W=w, h=lambda w_: 0.0)


def perturbed_field(
    base: ForceField,
    component: int,
    bump: Callable[[MetricField, Array, Array], float],
) -> ForceField:
    """Copy of ``base`` with ``bump`` added to one covector component.

    The result is a plain user field with no derivative closures; it serves
    as a negative control, since generic perturbations leave the family of
    fields admitting the normal shift.  It is ``stacked`` when ``base`` is;
    ``bump`` takes one state and is called once per state of a stack,
    through :func:`~normalshift.tensor_core.by_rows`, on read-only rows of
    the states that :func:`field_call` hands.  Its metric at its own row
    reads the handed values by index, and its ``speed_at`` at its own two
    rows the handed states' speeds; at a copy of either row, both are
    evaluated afresh, to the same bits.
    """

    def eval_(m, x, v):
        out = np.array(base.eval(m, x, v), dtype=float)
        out[..., component] += by_rows(lambda xi, vi: float(bump(m, xi, vi)), x, v)
        return out

    return ForceField(eval=eval_, stacked=base.stacked)


def coordinate_scalar(index: int, coefficient: float = 1.0) -> IsotropicScalar:
    """The position field coefficient * x^index (0-based), with derivatives,
    on a chart of any dimension: ``dx`` has the shape of its positions."""

    def eval_(x, s):
        return coefficient * x[..., index]

    def dx(x, s):
        out = np.zeros(x.shape)
        out[..., index] = coefficient
        return out

    def dspeed(x, s):
        return np.zeros(x.shape[:-1])

    return IsotropicScalar(eval=eval_, dx=dx, dspeed=dspeed, stacked=True)
