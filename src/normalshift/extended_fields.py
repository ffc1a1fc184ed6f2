"""Extended scalar fields on the tangent bundle and their two gradients.

An extended scalar is a function of position and velocity together.  It has
two covariant gradients: the velocity gradient, which is just the array of
partial derivatives along the fiber coordinates, and the spatial gradient,
which corrects the coordinate x-derivative with a connection transport term

    grad_m phi = d phi / d x^m - sum_{j,k} Gamma^k_mj v^j d phi / d v^k.

For fields that depend on the velocity only through its modulus the
transport term cancels against the metric dependence of the modulus, and
the spatial gradient collapses to the plain x-derivative taken at a fixed
speed.  That cancellation is what :func:`spatial_gradient_isotropic`
implements directly, and what the test suite checks against the long route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import EvaluationFailure
from .tensor_core import (
    FD_STEP,
    MetricField,
    by_rows,
    central_hessian,
    central_partials,
    christoffel_at,
    every,
    metric_derivatives_at,
    per_state,
    scaled_step,
    speed_at,
    unit_direction,
)

Array = np.ndarray


@dataclass(frozen=True)
class ExtendedScalar:
    """Scalar field phi(x, v) on the tangent bundle.

    ``dx`` and ``dv`` are optional analytic partial-derivative closures with
    the same (x, v) signature, returning arrays of length n.  ``dx`` means
    the literal partial derivative holding the velocity components fixed.
    ``dv2`` optionally supplies the full fiber Hessian (n x n).  Whatever is
    absent falls back to central differences with step ``FD_STEP``.
    """

    eval: Callable[[Array, Array], float]
    dx: Optional[Callable[[Array, Array], Array]] = None
    dv: Optional[Callable[[Array, Array], Array]] = None
    dv2: Optional[Callable[[Array, Array], Array]] = None


@dataclass(frozen=True)
class IsotropicScalar:
    """Scalar field W(x, speed) depending on velocity only through |v|.

    Taking the speed as a plain scalar argument makes "depends only on the
    modulus" a fact of the signature instead of a runtime property.

    ``eval`` may also return a vector of k components, a pack of isotropic
    fields that share one evaluation; the isotropic derivative helpers
    then difference the whole vector with the steps a single component
    would use.

    ``stacked`` declares that the closures take a stack of positions
    (..., n) with speeds (...) instead, and return values with those
    leading axes: ``eval`` and ``dspeed`` of shape (...), ``dx`` of shape
    (..., n).  They are then only called on stacks, a single state as a
    one-row stack (see :func:`isotropic_call`), so each is written once,
    for stacks.  Unmarked closures are called once per state.

    ``terms``, optional beside ``dx`` and ``dspeed`` and read only when the
    field is ``stacked``, gives (``eval``, ``dspeed``, ``dx``) on a stack in
    one call that does their shared work once.  It must agree with them bit
    for bit, so a ``dataclasses.replace`` that swaps one of them must set
    ``terms=None``.
    """

    eval: Callable[[Array, float], float]
    dx: Optional[Callable[[Array, float], Array]] = None
    dspeed: Optional[Callable[[Array, float], float]] = None
    stacked: bool = False
    terms: Optional[Callable[[Array, Array], Tuple[Array, Array, Array]]] = None


def check_finite(value, what: str) -> Union[float, Array]:
    """``value`` as a float when 0-d, else as a float array, once checked finite.

    A non-finite entry raises :class:`EvaluationFailure` naming ``what``.
    """
    arr = np.asarray(value, dtype=float)
    if not every(np.isfinite(arr)):
        raise EvaluationFailure(f"{what} evaluated to a non-finite value")
    return float(arr) if arr.ndim == 0 else arr


def fiber_gradient(fn: Callable[[Array], Array], v: Array) -> Array:
    """Central-difference gradient ``out[..., k] = d fn / d v^k`` of a scalar of velocity.

    The step is FD_STEP times each velocity's size.  ``fn`` is called once
    on the stack of offsets when ``v`` is a stack (..., n), and once per
    offset at a single velocity.
    """
    grad = np.moveaxis(central_partials(fn, v, scaled_step(v)), 0, -1)
    return check_finite(grad, "velocity gradient")


def fiber_hessian(fn: Callable[[Array], Array], v: Array) -> Array:
    """Hessian ``out[..., r, s] = d^2 fn / d v^r d v^s`` of a scalar of velocity,
    by second central differences of ``fn`` itself, exactly symmetric.

    The step is FD_STEP^(1/2) times each velocity's size, with one
    Richardson level (:func:`~normalshift.tensor_core.central_hessian`):
    ``fn`` is called once on the stack of all 1 + 4n^2 offsets when ``v``
    is a stack (..., n), and once per offset at a single velocity.
    """
    H = central_hessian(fn, v, scaled_step(v, np.sqrt(FD_STEP)))
    return check_finite(np.moveaxis(H, (0, 1), (v.ndim - 1, v.ndim)), "fiber Hessian")


def velocity_gradient(phi: ExtendedScalar, x: Array, v: Array) -> Array:
    """Fiber gradient: the covector of partial derivatives d phi / d v^m."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if phi.dv is not None:
        return check_finite(phi.dv(x, v), "velocity gradient")
    return fiber_gradient(lambda u: phi.eval(x, u), v)


def _x_partials(phi: ExtendedScalar, x: Array, v: Array) -> Array:
    if phi.dx is not None:
        return check_finite(phi.dx(x, v), "x-partials")
    partials = central_partials(lambda y: phi.eval(y, v), x, scaled_step(x))
    return check_finite(partials, "x-partials")


def spatial_gradient(phi: ExtendedScalar, m: MetricField, x: Array, v: Array) -> Array:
    """Spatial covariant gradient of an extended scalar.

    Combines the raw coordinate derivative with the velocity transport
    correction -Gamma^k_mj v^j d phi/d v^k.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    raw = _x_partials(phi, x, v)
    gamma = christoffel_at(m, x)
    vgrad = velocity_gradient(phi, x, v)
    transport = np.einsum("kmj,j,k->m", gamma, v, vgrad)
    return raw - transport


def isotropic_call(w: IsotropicScalar, fn: Callable, x: Array, speed) -> Array:
    """One of ``w``'s closures at one state or a stack of states.

    A ``stacked`` field's closure is called once per stack, and a single
    state reaches it as a one-row stack; any other is called once per
    state, through :func:`~normalshift.tensor_core.by_rows`.
    """
    if not w.stacked:
        return fn(x, speed) if x.ndim == 1 else by_rows(fn, x, speed)
    if x.ndim == 1:
        return np.asarray(fn(x[None], np.array([speed], dtype=float)))[0]
    return fn(x, speed)


def _speed_offsets(w: IsotropicScalar, fn: Callable, x: Array, speed, shifts: tuple) -> Array:
    """``fn`` at (x, speed + shift) for each shift, in one call: values with
    the shift axis first."""
    speeds = np.stack([speed + shift for shift in shifts], axis=-1)
    at = np.broadcast_to(x[..., None, :], speeds.shape + x.shape[-1:])
    values = np.asarray(isotropic_call(w, fn, at, speeds), dtype=float)
    return np.moveaxis(values, x.ndim - 1, 0)


def x_partial_values(w: IsotropicScalar, x: Array, speed) -> Array:
    """d W / d x^m at fixed speed on a stack (..., n), positive speeds assumed,
    before any finiteness check: from ``dx`` when supplied, else by central
    differences with one call of ``eval`` on all offsets."""
    if w.dx is not None:
        return np.asarray(isotropic_call(w, w.dx, x, speed), dtype=float)
    h = scaled_step(x)
    speeds = np.asarray(speed)[..., None]

    def at_offsets(y):
        return isotropic_call(w, w.eval, y, np.broadcast_to(speeds, y.shape[:-1]))

    return np.moveaxis(central_partials(at_offsets, x, h), 0, x.ndim - 1)


def spatial_gradient_isotropic(w: IsotropicScalar, x: Array, speed) -> Array:
    """Spatial gradient of a modulus-only field: d W / d x^m at fixed speed.

    For this class of fields the connection terms of the full rule cancel,
    so no Christoffel evaluation is needed.  For a vector-valued field of
    k components the result is (n, k), ``out[r, c] = d W_c / d x^r``.
    Takes one state, as a one-row stack, or a stack, with the partial axis
    after the stack's.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.asarray(speed) <= 0.0):
        raise EvaluationFailure("isotropic gradient needs a positive speed")
    if x.ndim == 1:
        return spatial_gradient_isotropic(w, x[None], np.array([speed], dtype=float))[0]
    return check_finite(x_partial_values(w, x, speed), "isotropic x-partials")


def speed_derivative_values(w: IsotropicScalar, x: Array, speed) -> Array:
    """d W / d speed before any finiteness check: from ``dspeed`` when
    supplied, else by a central difference with one call of ``eval`` on
    both speed offsets of every state."""
    if w.dspeed is not None:
        return isotropic_call(w, w.dspeed, x, speed)
    h = scaled_step(np.asarray(speed)[..., None])
    plus, minus = _speed_offsets(w, w.eval, x, speed, (h, -h))
    return (plus - minus) / (2.0 * per_state(h, plus.ndim - h.ndim))


def isotropic_speed_derivative(w: IsotropicScalar, x: Array, speed) -> Union[float, Array]:
    """d W / d speed, analytic when supplied; per component for a vector field.

    Takes one state or a stack; the difference of a stack is one call of
    ``w.eval`` on both speed offsets of every state.
    """
    return check_finite(
        speed_derivative_values(w, np.asarray(x, dtype=float), speed), "speed derivative"
    )


def isotropic_second_speed_derivative(w: IsotropicScalar, x: Array, speed) -> Union[float, Array]:
    """d^2 W / d speed^2 by differencing the first derivative.

    The outer step is FD_STEP^(1/2) scaled by the speed, which balances
    truncation against the noise of the inner derivative.  A vector field
    is differenced component-wise with the same steps, and a stack with
    one call of the differenced closure.
    """
    x = np.asarray(x, dtype=float)
    if w.dspeed is not None:
        h = scaled_step(np.asarray(speed)[..., None])
        plus, minus = _speed_offsets(w, w.dspeed, x, speed, (h, -h))
        value = (plus - minus) / (2.0 * per_state(h, plus.ndim - h.ndim))
    else:
        h = scaled_step(np.asarray(speed)[..., None], np.sqrt(FD_STEP))
        plus, mid, minus = _speed_offsets(w, w.eval, x, speed, (h, 0.0, -h))
        value = (plus - 2.0 * mid + minus) / per_state(h, plus.ndim - h.ndim) ** 2
    return check_finite(value, "second speed derivative")


def velocity_hessian(phi: ExtendedScalar, x: Array, v: Array) -> Array:
    """Fiber Hessian d^2 phi / d v^r d v^s, as evaluated: its symmetric part is not taken.

    Uses the analytic ``dv2`` closure when present.  Otherwise, with an
    analytic ``dv``, differences that gradient once more, with the outer
    step FD_STEP^(1/2) times the velocity's size and one Richardson level,
    so its mixed partials agree only to within the differencing error.
    With neither, takes second differences of ``eval`` itself
    (:func:`fiber_hessian`), which are symmetric by construction.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if phi.dv2 is not None:
        return check_finite(phi.dv2(x, v), "fiber Hessian")
    if phi.dv is None:
        return fiber_hessian(lambda u: phi.eval(x, u), v)
    h = scaled_step(v, np.sqrt(FD_STEP))
    H = central_partials(lambda u: velocity_gradient(phi, x, u), v, h, richardson=True)
    return np.moveaxis(H, 0, v.ndim - 1)


def lift_isotropic(w: IsotropicScalar, m: MetricField) -> ExtendedScalar:
    """Reinterpret a modulus-only field as a full extended scalar.

    The lifted eval plugs |v| computed from the metric into the speed slot.
    When the isotropic field carries analytic partials, the lift carries
    them too: the raw x-partials pick up the metric dependence of the
    modulus through d|v|/dx^m = (d_m g_ij) v^i v^j / (2 |v|).
    """

    def lifted(x, v):
        x = np.asarray(x, dtype=float)
        return isotropic_call(w, w.eval, x, speed_at(m, x, v))

    dx = None
    dv = None
    if w.dx is not None and w.dspeed is not None:

        def dx(x, v):
            x = np.asarray(x, dtype=float)
            v = np.asarray(v, dtype=float)
            s = speed_at(m, x, v)
            dgd = metric_derivatives_at(m, x)
            ds_dx = np.einsum("mij,i,j->m", dgd, v, v) / (2.0 * s)
            wx = np.asarray(isotropic_call(w, w.dx, x, s), dtype=float)
            return wx + float(isotropic_call(w, w.dspeed, x, s)) * ds_dx

        def dv(x, v):
            x = np.asarray(x, dtype=float)
            pr = unit_direction(m, x, v)
            return float(isotropic_call(w, w.dspeed, x, pr.speed)) * pr.N_down

    return ExtendedScalar(eval=lifted, dx=dx, dv=dv)
