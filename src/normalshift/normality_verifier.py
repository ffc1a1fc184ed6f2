"""Residual evaluation of the normality equation systems.

A force field belongs to the normal-shift family exactly when four tensor
equations hold: two weak equations tying F to its fiber gradient, and two
additional conditions that require n >= 3.  At the ansatz level the same
content reduces to a projected-Hessian equation for the scalar A, and for
isotropic coefficient fields (a, b) it collapses further to first-order
equations expressed through the operators L_i = d/dx^i + b_i d/dspeed.

Every function here returns raw residuals at a single phase-space point;
``verify`` samples a region quasi-randomly, normalizes by the local size
of F and its derivatives so tolerances are scale-free, and aggregates
sup-norms into a report.

Index conventions for derivative matrices: Dv[r, k] = dF_k/dv^r and
Dx[r, k] = covariant x^r-derivative of F_k, which subtracts both the
fiber transport term Gamma^j_{ri} v^i dF_k/dv^j and the lower-index
correction Gamma^c_{rk} F_c from the raw partial.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .errors import NormalShiftError
from .extended_fields import ExtendedScalar, check_finite, velocity_hessian
from .force_builder import (
    AnsatzField,
    ForceField,
    GeneratingScalar,
    ansatz_A,
    ansatz_fiber_hessian,
    ansatz_force_dv,
    ansatz_force_nabla,
    ansatz_from_generator,
    as_force_field,
    coefficient_gradient,
    coefficient_speed_derivative,
    coefficients,
    force_from_W,
)
from .tensor_core import (
    FD_STEP,
    MetricField,
    central_partials,
    christoffel_from,
    inverse_metric_at,
    metric_at,
    metric_derivatives_at,
    unit_direction,
)

Array = np.ndarray

MODES = ("analytic", "finite-diff")


@dataclass(frozen=True)
class SampleSpec:
    """Quasi-random sampling plan for residual verification.

    Points are drawn from a Halton sequence over the coordinate ``box``
    crossed with unit directions and speeds in ``speed_range``, so reports
    are deterministic for a fixed seed.  ``mode`` selects between analytic
    derivative closures (where available) and pure finite differencing of
    the field evaluators; the default tolerance is 1e-8 for the former and
    1e-5 for the latter.
    """

    box: Sequence[Sequence[float]]
    count: int = 200
    speed_range: Tuple[float, float] = (0.5, 2.0)
    seed: int = 0
    mode: str = "analytic"
    tolerance: Optional[float] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.count < 1:
            raise ValueError("sample count must be at least 1")
        lo, hi = self.speed_range
        if not (0.0 < lo <= hi):
            raise ValueError("speed_range must be positive and ordered")

    def resolved_tolerance(self) -> float:
        if self.tolerance is not None:
            return float(self.tolerance)
        return 1e-8 if self.mode == "analytic" else 1e-5


@dataclass(frozen=True)
class NormalityReport:
    """Sup-norm residuals of every normality system over a sample set."""

    r_weak1: float
    r_weak2: float
    r_add1: float
    r_add2: float
    r_eq124: float
    r_reduced_b: float
    r_reduced_a: float
    lambda_samples: Array
    sample_count: int
    tolerance_used: float
    passed: bool

    def __post_init__(self):
        if not all(np.isfinite(r) and r >= 0.0 for r in self.residuals().values()):
            raise ValueError("residual sup-norms must be finite and nonnegative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")

    def residuals(self) -> dict:
        """The seven sup-norms, the ``r_`` fields, by name in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name.startswith("r_")}


def _derivative_pack(
    ff: ForceField, m: MetricField, x: Array, v: Array, mode: str, ginv: Array
) -> Tuple[Array, Array, Array]:
    """F with its fiber and covariant spatial derivatives; ``ginv`` is g^-1 at ``x``."""
    F = check_finite(ff.eval(m, x, v), "force field")
    analytic = mode == "analytic"
    if analytic and ff.dv is not None:
        Dv = check_finite(ff.dv(m, x, v), "force fiber derivative")
    else:
        h = FD_STEP * max(1.0, float(np.max(np.abs(v))))
        Dv = check_finite(
            central_partials(lambda u: ff.eval(m, x, u), v, h), "force fiber difference"
        )
    if analytic and ff.nabla is not None:
        Dx = check_finite(ff.nabla(m, x, v), "force spatial derivative")
    else:
        h = FD_STEP * max(1.0, float(np.max(np.abs(x))))
        raw = central_partials(lambda y: ff.eval(m, y, v), x, h)
        gamma = christoffel_from(ginv, metric_derivatives_at(m, x))
        transport = np.einsum("jri,i,jk->rk", gamma, v, Dv)
        twist = np.einsum("crk,c->rk", gamma, F)
        Dx = check_finite(raw - transport - twist, "force spatial difference")
    return F, Dv, Dx


# The four equation kernels share one signature, the state's F, Dv, Dx,
# unit direction and inverse metric, so the point residuals and ``verify``
# can apply them alike.


def _weak1(F: Array, Dv: Array, Dx: Array, pr, ginv: Array) -> Array:
    grad_a = (pr.P.T @ F) / pr.speed + Dv @ pr.N_up
    return (F / pr.speed + grad_a) @ pr.P


def _weak2(F: Array, Dv: Array, Dx: Array, pr, ginv: Array) -> Array:
    f_up = ginv @ F
    sym = Dx @ pr.N_up + Dx.T @ pr.N_up - 2.0 * F * float(F @ pr.N_up) / pr.speed**2
    drift = (f_up @ Dv - float(pr.N_up @ Dv @ pr.N_up) * F) / pr.speed
    return (sym + drift) @ pr.P


def _additional1(F: Array, Dv: Array, Dx: Array, pr, ginv: Array) -> Array:
    along = pr.N_up @ Dv
    K = np.outer(F, along) / pr.speed - Dx
    G = pr.P.T @ K @ pr.P
    return G - G.T


def _additional2(F: Array, Dv: Array, Dx: Array, pr, ginv: Array) -> Array:
    dv_up = Dv @ ginv
    M = pr.P.T @ dv_up @ pr.P.T
    return M.T - (np.trace(M) / (ginv.shape[0] - 1)) * pr.P


_EQUATIONS = (_weak1, _weak2, _additional1, _additional2)


def _point_pack(ff: ForceField, m: MetricField, x: Array, v: Array, mode: str) -> tuple:
    """The arguments of an equation kernel at one state: F, Dv, Dx, the unit
    direction and g^-1."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    ginv = inverse_metric_at(m, x)
    return (*_derivative_pack(ff, m, x, v, mode, ginv), unit_direction(m, x, v), ginv)


def residual_weak1(
    F: ForceField, m: MetricField, x: Array, v: Array, *, mode: str = "analytic"
) -> Array:
    """First weak equation: sum_i (F_i/|v| + d(N^j F_j)/dv^i) P^i_k."""
    return _weak1(*_point_pack(F, m, x, v, mode))


def residual_weak2(
    F: ForceField, m: MetricField, x: Array, v: Array, *, mode: str = "analytic"
) -> Array:
    """Second weak equation, mixing covariant spatial and fiber gradients."""
    return _weak2(*_point_pack(F, m, x, v, mode))


def residual_additional1(
    F: ForceField, m: MetricField, x: Array, v: Array, *, mode: str = "analytic"
) -> Array:
    """First additional condition, antisymmetrized over the two projections."""
    return _additional1(*_point_pack(F, m, x, v, mode))


def residual_additional2(
    F: ForceField, m: MetricField, x: Array, v: Array, *, mode: str = "analytic"
) -> Array:
    """Second additional condition: the projected fiber gradient of F^i must
    be a multiple of the projector; returns the trace-free part."""
    return _additional2(*_point_pack(F, m, x, v, mode))


def _eq124(H: Array, pr, ginv: Array) -> Tuple[Array, float]:
    p_up = ginv - np.outer(pr.N_up, pr.N_up)
    lam = float(np.einsum("rs,rs->", p_up, H)) / (ginv.shape[0] - 1)
    return pr.P.T @ H @ p_up - lam * pr.P.T, lam


def residual_eq124(
    A: ExtendedScalar, m: MetricField, x: Array, v: Array, *, mode: str = "analytic"
) -> Tuple[Array, float]:
    """Projected-Hessian equation for the ansatz scalar.

    Returns the matrix sum_rs P^r_sigma (d2A/dv^r dv^s) P^{s eps}
    - lambda P^eps_sigma together with lambda itself, the projected trace
    divided by n - 1.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if mode == "analytic":
        H = velocity_hessian(A, x, v)
    else:
        H = velocity_hessian(ExtendedScalar(eval=A.eval), x, v)
    H = check_finite(H, "ansatz scalar fiber Hessian")
    return _eq124(H, unit_direction(m, x, v), inverse_metric_at(m, x))


def _reduced(c: Array, c_p: Array, grad: Array) -> Tuple[Array, Array]:
    a_val, b_val = c[0], c[1:]
    a_p, b_p = c_p[0], c_p[1:]
    da, db = grad[:, 0], grad[:, 1:]  # db[s, r] = d b_r / d x^s at fixed speed
    L_b = db + np.outer(b_val, b_p)
    b_residual = L_b.T - L_b
    a_residual = da + b_val * a_p - a_val * b_p
    check_finite(b_residual, "reduced b residual")
    check_finite(a_residual, "reduced a residual")
    return b_residual, a_residual


def residual_reduced(
    af: AnsatzField, m: MetricField, x: Array, v_speed: float
) -> Tuple[Array, Array]:
    """First-order residuals of the isotropic coefficient fields.

    With L_s = d/dx^s + b_s d/dspeed acting on scalars of (x, speed):
    b_residual[r, s] = L_s b_r - L_r b_s (exactly antisymmetric) and
    a_residual[s] = L_s a - a db_s/dspeed.
    """
    x = np.asarray(x, dtype=float)
    return _reduced(
        coefficients(af, x, v_speed),
        coefficient_speed_derivative(af, x, v_speed),
        coefficient_gradient(af, m, x, v_speed),
    )


def sample_states(spec: SampleSpec, m: MetricField) -> list:
    """Deterministic quasi-random (x, v) pairs inside the sampling region."""
    dim = m.dim
    box = np.asarray(spec.box, dtype=float)
    if box.shape != (dim, 2):
        raise ValueError(f"box must have shape ({dim}, 2), got {box.shape}")
    engine = qmc.Halton(d=2 * dim + 1, scramble=True, seed=spec.seed)
    u = engine.random(spec.count)
    xs = box[:, 0] + u[:, :dim] * (box[:, 1] - box[:, 0])
    z = ndtri(np.clip(u[:, dim : 2 * dim], 1e-12, 1.0 - 1e-12))
    # a direction too short to normalize is replaced by (1, ..., 1)
    z = np.where(np.max(np.abs(z), axis=1, keepdims=True) < 1e-12, 1.0, z)
    lo, hi = spec.speed_range
    speeds = lo + (hi - lo) * u[:, -1]
    current = unit_direction(m, xs, z).speed
    return list(zip(xs, z * (speeds / current)[:, None]))


def _pack_derivatives(
    gs: GeneratingScalar, af: AnsatzField, m: MetricField, x: Array, v: Array, pr,
    ginv: Array, c: Array, c_p: Array, grad: Array,
) -> Tuple[Array, Array, Array, Array]:
    """F, Dv, Dx and the fiber Hessian of A at one state, analytically.

    The derivatives are those of ``as_force_field(gs)`` and
    ``ansatz_scalar``, assembled from one coefficient pack (``c``, ``c_p``,
    ``grad`` and the second speed derivative); F comes from the
    independent (W, h) route.  ``ginv`` is the inverse metric at ``x``.
    """
    gmat = metric_at(m, x)
    F = check_finite(force_from_W(gs, m, x, v), "force field")
    Dv = check_finite(ansatz_force_dv(pr, gmat, v, c, c_p), "force fiber derivative")
    Dx = check_finite(
        ansatz_force_nabla(pr, christoffel_from(ginv, metric_derivatives_at(m, x)), v, c, grad),
        "force spatial derivative",
    )
    c_pp = coefficient_speed_derivative(af, x, pr.speed, order=2)
    H = check_finite(ansatz_fiber_hessian(pr, gmat, v, c_p, c_pp), "ansatz scalar fiber Hessian")
    return F, Dv, Dx, 0.5 * (H + H.T)


def verify(
    subject: Union[GeneratingScalar, ForceField],
    m: MetricField,
    sampler: SampleSpec,
) -> NormalityReport:
    """Aggregate all residual families over a quasi-random sample set.

    Accepts either a generating pair, for which the ansatz-level and
    reduced systems are evaluated from the structured coefficients, or a
    bare force field, for which the ansatz scalar is recovered as
    A = sum_i N^i F_i and the reduced systems are skipped (reported as 0).
    For a generating pair each sample evaluates the coefficient pack once,
    and the analytic derivatives and reduced residuals all read it.
    Each sample adds one row to a table of the seven residual families,
    in the field order of :class:`NormalityReport`: the sup-norm of each
    raw residual divided by 1 + max|F| + max of the derivative magnitudes,
    making the tolerances scale-free.  The report's sup-norms are the
    column maxima of that table.  A package error at a sample keeps its
    type and names the sample's index and state.
    """
    mode = sampler.mode
    if isinstance(subject, GeneratingScalar):
        ff = as_force_field(subject)
        af = ansatz_from_generator(subject, m)
        A = ExtendedScalar(eval=lambda x, v: ansatz_A(af, m, x, v))
    else:
        ff = subject
        af = None

        def a_eval(x, v):
            pr = unit_direction(m, x, v)
            return float(pr.N_up @ np.asarray(ff.eval(m, x, v), dtype=float))

        A = ExtendedScalar(eval=a_eval)

    rows = []
    lambdas = []
    for i, (x, v) in enumerate(sample_states(sampler, m)):
        try:
            pr = unit_direction(m, x, v)
            ginv = inverse_metric_at(m, x)
            if af is not None:
                c = coefficients(af, x, pr.speed)
                c_p = coefficient_speed_derivative(af, x, pr.speed)
                grad = coefficient_gradient(af, m, x, pr.speed)
            if af is not None and mode == "analytic":
                F, Dv, Dx, H = _pack_derivatives(subject, af, m, x, v, pr, ginv, c, c_p, grad)
            else:
                F, Dv, Dx = _derivative_pack(ff, m, x, v, mode, ginv)
                H = check_finite(velocity_hessian(A, x, v), "ansatz scalar fiber Hessian")
            scale = 1.0 + float(np.max(np.abs(F))) + max(
                float(np.max(np.abs(Dv))), float(np.max(np.abs(Dx)))
            )
            eq_res, lam = _eq124(H, pr, ginv)
            reduced = _reduced(c, c_p, grad) if af is not None else (0.0, 0.0)
            raw = [kernel(F, Dv, Dx, pr, ginv) for kernel in _EQUATIONS] + [eq_res, *reduced]
            rows.append([float(np.max(np.abs(r))) / scale for r in raw])
            lambdas.append(lam)
        except NormalShiftError as exc:
            raise type(exc)(f"sample {i} at x = {x.tolist()}, v = {v.tolist()}: {exc}") from exc

    worst = np.max(rows, axis=0)
    tol = sampler.resolved_tolerance()
    return NormalityReport(
        *worst.tolist(),
        lambda_samples=np.array(lambdas),
        sample_count=sampler.count,
        tolerance_used=tol,
        passed=bool(np.all(worst <= tol)),
    )
