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
sup-norms into a report.  The samples come from a scrambled Halton
sequence built here in numpy, every base in one pass (:func:`halton`,
scipy's ``qmc.Halton`` bit for bit); only their normal directions load
scipy (``scipy.special``'s ``ndtri``), on the first call, so importing
this module does not, and it builds no Halton plan either.

Index conventions for derivative matrices: Dv[r, k] = dF_k/dv^r and
Dx[r, k] = covariant x^r-derivative of F_k, which subtracts both the
fiber transport term Gamma^j_{ri} v^i dF_k/dv^j and the lower-index
correction Gamma^c_{rk} F_c from the raw partial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NormalShiftError
from .extended_fields import (
    ExtendedScalar,
    check_finite,
    fiber_hessian,
    velocity_hessian,
)
from .force_builder import (
    AnsatzField,
    ForceField,
    GeneratingScalar,
    ansatz_fiber_hessian,
    ansatz_force_dv,
    ansatz_force_nabla,
    ansatz_from_generator,
    ansatz_value,
    coefficient_gradient,
    coefficient_speed_derivative,
    coefficients,
    field_call,
    generated_force,
)
from .tensor_core import (
    MetricField,
    central_partials,
    christoffel_from,
    direction_from,
    dot,
    handing,
    inverse_metric_from,
    mat_vec,
    metric_at,
    metric_derivatives_at,
    outer,
    per_state,
    scaled_step,
    speed_from,
    vec_mat,
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
    1e-5 for the latter; a given ``tolerance`` must be positive and finite.
    ``count`` must be a positive integer and ``seed`` a nonnegative one
    (not a bool), and ``box`` a list of finite [lo, hi] pairs with lo < hi,
    one per coordinate, which :func:`verify` checks against the metric;
    ``speed_range`` is a finite (lo, hi) with 0 < lo <= hi.
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
        for name, value, least in (("count", self.count, 1), ("seed", self.seed, 0)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                bound = "positive" if least else "nonnegative"
                raise ValueError(f"{name} must be a {bound} integer, got {value!r}")
        try:
            box = np.asarray(self.box, dtype=float)
        except (TypeError, ValueError):
            box = np.empty(0)
        if box.ndim != 2 or box.shape[1] != 2 or not np.isfinite(box).all():
            raise ValueError(f"box must be a list of finite [lo, hi] pairs, got {self.box!r}")
        if not (box[:, 0] < box[:, 1]).all():
            raise ValueError(f"box must have lo < hi in every pair, got {self.box!r}")
        lo, hi = self.speed_range
        if not (0.0 < lo <= hi < math.inf):
            raise ValueError(
                f"speed_range must be finite, positive and ordered, got {self.speed_range!r}"
            )
        tol = self.tolerance
        if tol is not None and not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tolerance must be positive and finite, got {tol!r}")

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


def _over(a: Array, u: Array, core: int = 1) -> Array:
    """``a``, of shape (states..., core axes), broadcast over the offset axes
    of ``u``, of shape (states..., offsets..., n)."""
    lead = a.shape[: a.ndim - core]
    extra = (1,) * (u.ndim - 1 - len(lead))
    return np.broadcast_to(
        a.reshape(lead + extra + a.shape[len(lead):]), u.shape[:-1] + a.shape[len(lead):]
    )


def _partials(fn, at: Array, h) -> Array:
    """:func:`central_partials` with the partial axis after the states' axes."""
    return np.moveaxis(central_partials(fn, at, h), 0, at.ndim - 1)


def _force_derivatives(
    force, m: MetricField, x: Array, v: Array, gmat: Array, ginv: Array, dv=None, nabla=None
) -> Tuple[Array, Array, Array]:
    """F with its fiber and covariant spatial derivatives at states (x, v).

    ``force(y, u, g)`` evaluates F at stacks of states, ``g`` being the
    metric at ``y``: velocity offsets keep the position, so they reuse
    ``gmat``, the metric at ``x``.  ``dv`` and ``nabla``, with the same
    signature, are used when given; otherwise each derivative is one call
    of ``force`` on the stack of all its offsets.  ``ginv`` is g^-1 at ``x``.
    """
    F = check_finite(force(x, v, gmat), "force field")
    if dv is not None:
        Dv = check_finite(dv(x, v, gmat), "force fiber derivative")
    else:
        Dv = _partials(lambda u: force(_over(x, u), u, _over(gmat, u, 2)), v, scaled_step(v))
        Dv = check_finite(Dv, "force fiber difference")
    if nabla is not None:
        Dx = check_finite(nabla(x, v, gmat), "force spatial derivative")
    else:
        raw = _partials(lambda y: force(y, _over(v, y), metric_at(m, y)), x, scaled_step(x))
        gamma = christoffel_from(ginv, metric_derivatives_at(m, x))
        transport = np.einsum("...jri,...i,...jk->...rk", gamma, v, Dv)
        twist = np.einsum("...crk,...c->...rk", gamma, F)
        Dx = check_finite(raw - transport - twist, "force spatial difference")
    return F, Dv, Dx


# The four equation kernels share one signature, the states' F, Dv, Dx,
# unit direction and inverse metric, so the point residuals and ``verify``
# can apply them alike.  They take one state or a stack; the products of
# one state are written as stack matmuls, which round alike.


def _T(a: Array) -> Array:
    return a.swapaxes(-1, -2)


def _weak1(F: Array, Dv: Array, Dx: Array, pr, ginv: Array) -> Array:
    speed = per_state(pr.speed)
    grad_a = mat_vec(_T(pr.P), F) / speed + mat_vec(Dv, pr.N_up)
    return vec_mat(F / speed + grad_a, pr.P)


def _weak2(F: Array, Dv: Array, Dx: Array, pr, ginv: Array) -> Array:
    speed = per_state(pr.speed)
    f_up = mat_vec(ginv, F)
    sym = (
        mat_vec(Dx, pr.N_up) + mat_vec(_T(Dx), pr.N_up)
        - 2.0 * F * per_state(dot(F, pr.N_up)) / speed**2
    )
    drift = (vec_mat(f_up, Dv) - per_state(dot(vec_mat(pr.N_up, Dv), pr.N_up)) * F) / speed
    return vec_mat(sym + drift, pr.P)


def _additional1(F: Array, Dv: Array, Dx: Array, pr, ginv: Array) -> Array:
    along = vec_mat(pr.N_up, Dv)
    K = outer(F, along) / per_state(pr.speed, 2) - Dx
    G = _T(pr.P) @ K @ pr.P
    return G - _T(G)


def _additional2(F: Array, Dv: Array, Dx: Array, pr, ginv: Array) -> Array:
    dv_up = Dv @ ginv
    M = _T(pr.P) @ dv_up @ _T(pr.P)
    trace = np.trace(M, axis1=-2, axis2=-1) / (ginv.shape[-1] - 1)
    return _T(M) - per_state(trace, 2) * pr.P


_EQUATIONS = (_weak1, _weak2, _additional1, _additional2)


def _derivative_pack(
    ff: ForceField, m: MetricField, x: Array, v: Array, mode: str, ginv: Array, gmat: Array
) -> Tuple[Array, Array, Array]:
    """F with its fiber and covariant spatial derivatives; ``ginv`` is g^-1 at
    ``x`` and ``gmat`` the metric there.

    The analytic ``dv`` and ``nabla`` of ``ff`` serve in analytic mode when
    it has them.  Every closure is called through :func:`field_call`.
    """
    closures = {
        name: field_call(ff, getattr(ff, name), m)
        for name in ("dv", "nabla")
        if mode == "analytic" and getattr(ff, name) is not None
    }
    return _force_derivatives(field_call(ff, ff.eval, m), m, x, v, gmat, ginv, **closures)


def _point_residual(kernel, ff: ForceField, m: MetricField, x: Array, v: Array, mode: str):
    """An equation kernel at one state, evaluated on the one-row stack (1, n),
    so that a ``stacked`` field sees only that stack."""
    x = np.asarray(x, dtype=float)[None]
    v = np.asarray(v, dtype=float)[None]
    gmat = metric_at(m, x)
    ginv = inverse_metric_from(gmat, x)
    pack = _derivative_pack(ff, m, x, v, mode, ginv, gmat)
    return kernel(*pack, direction_from(gmat, x, v), ginv)[0]


def residual_weak1(
    F: ForceField, m: MetricField, x: Array, v: Array, *, mode: str = "analytic"
) -> Array:
    """First weak equation: sum_i (F_i/|v| + d(N^j F_j)/dv^i) P^i_k."""
    return _point_residual(_weak1, F, m, x, v, mode)


def residual_weak2(
    F: ForceField, m: MetricField, x: Array, v: Array, *, mode: str = "analytic"
) -> Array:
    """Second weak equation, mixing covariant spatial and fiber gradients."""
    return _point_residual(_weak2, F, m, x, v, mode)


def residual_additional1(
    F: ForceField, m: MetricField, x: Array, v: Array, *, mode: str = "analytic"
) -> Array:
    """First additional condition: the antisymmetric part over the two projections."""
    return _point_residual(_additional1, F, m, x, v, mode)


def residual_additional2(
    F: ForceField, m: MetricField, x: Array, v: Array, *, mode: str = "analytic"
) -> Array:
    """Second additional condition: the projected fiber gradient of F^i must
    be a multiple of the projector; returns the trace-free part."""
    return _point_residual(_additional2, F, m, x, v, mode)


def _eq124(H: Array, pr, ginv: Array) -> Tuple[Array, Array]:
    """The projected-Hessian residual and lambda from ``H``, the fiber Hessian
    of the ansatz scalar as evaluated; every caller's ``H`` is replaced by
    its symmetric part and checked finite here.  That part is ``H`` itself
    for a Hessian differenced from the scalar
    (:func:`~normalshift.extended_fields.fiber_hessian`), and differs from
    it by the differencing error where an analytic gradient is differenced
    once more or an analytic Hessian rounds asymmetrically.  It is laid out
    in C order, whatever the layout of ``H``: the products below round a
    stack's states as they round a single one only in that order."""
    H = check_finite(0.5 * np.add(H, _T(H), order="C"), "ansatz scalar fiber Hessian")
    p_up = ginv - outer(pr.N_up, pr.N_up)
    lam = np.einsum("...rs,...rs->...", p_up, H) / (ginv.shape[-1] - 1)
    return _T(pr.P) @ H @ p_up - per_state(lam, 2) * _T(pr.P), lam


def residual_eq124(
    A: ExtendedScalar, m: MetricField, x: Array, v: Array, *, mode: str = "analytic"
) -> Tuple[Array, float]:
    """Projected-Hessian equation for the ansatz scalar.

    Returns the matrix sum_rs P^r_sigma (d2A/dv^r dv^s) P^{s eps}
    - lambda P^eps_sigma together with lambda itself, the projected trace
    divided by n - 1.  The metric is taken once at ``x`` and handed to
    A's closures (:func:`~normalshift.tensor_core.handing`), which are
    called on its read-only copy of ``x``, at every velocity offset of the
    finite-difference Hessian.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    gmat = metric_at(m, x)
    with handing(m, x, gmat) as (x, _):
        if mode == "analytic":
            H = velocity_hessian(A, x, v)
        else:
            H = velocity_hessian(ExtendedScalar(eval=A.eval), x, v)
    res, lam = _eq124(H, direction_from(gmat, x, v), inverse_metric_from(gmat, x))
    return res, float(lam)


def _reduced(c: Array, c_p: Array, grad: Array) -> Tuple[Array, Array]:
    a_val, b_val = c[..., 0], c[..., 1:]
    a_p, b_p = c_p[..., 0], c_p[..., 1:]
    da, db = grad[..., :, 0], grad[..., :, 1:]  # db[s, r] = d b_r / d x^s at fixed speed
    L_b = db + outer(b_val, b_p)
    b_residual = _T(L_b) - L_b
    a_residual = da + b_val * per_state(a_p) - per_state(a_val) * b_p
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
        coefficient_gradient(af, x, v_speed),
    )


def ndtri(p: Array) -> Array:
    """scipy's inverse of the standard normal CDF, with scipy imported on the first call.

    A module-level name, so a test can substitute the sampled directions.
    """
    from scipy.special import ndtri as scipy_ndtri

    return scipy_ndtri(p)


def _first_primes(d: int) -> list:
    primes: list = []
    candidate = 2
    while len(primes) < d:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


@cache
def _digit_tables(d: int) -> tuple:
    """The plan of :func:`halton` in ``d`` dimensions, built once per ``d``,
    on first use; its tables are read-only.  Digit j of column k is in
    base b, the k-th prime:

    * ``blocks``: the (start, digits, b) of each column's block in one flat
      table of permutations, which holds a row range(b) per digit and
      ends in a padding slot;
    * ``unshuffled`` and ``scale``: the flat table before the permutations
      are drawn, and b^-(j+1) at the slots of digit j, 0 at the padding;
    * ``tail``, (depth, d): the slot of value 0 of digit j of column k, and
      the padding slot past a base's digits;
    * ``places``: the place value b^j of every digit, ascending, and in
      that order ``bases``, its base, and ``rows``, its row j * d + k in a
      (depth * d, n) table.

    Base b has ceil(54 / log2 b) - 1 digits, and the depth, 53, is that of
    base 2.  Each scale divides the one before it by b, as scipy forms
    them, so that every term rounds as scipy's does.
    """
    primes = _first_primes(d)
    counts = [math.ceil(54 / math.log2(b)) - 1 for b in primes]
    size = sum(c * b for b, c in zip(primes, counts))
    unshuffled, scale = np.zeros(size + 1), np.zeros(size + 1)
    tail = np.full((counts[0], d), size)
    blocks, digits = [], []
    start = 0
    for k, (b, c) in enumerate(zip(primes, counts)):
        blocks.append((start, c, b))
        scales = np.empty(c)
        scales[0] = 1.0 / b
        for j in range(1, c):
            scales[j] = scales[j - 1] / b
        unshuffled[start : start + c * b] = np.tile(np.arange(b), c)
        scale[start : start + c * b] = np.repeat(scales, b)
        tail[:c, k] = start + b * np.arange(c)
        digits += [(b**j, b, j * d + k) for j in range(c)]
        start += c * b
    tables = (unshuffled, scale, tail, *(np.array(column) for column in zip(*sorted(digits))))
    for table in tables:
        table.setflags(write=False)
    return (tuple(blocks), *tables)


def halton(d: int, n: int, seed: int) -> Array:
    """The first ``n`` points (n, d) of scipy's scrambled Halton sequence,
    ``qmc.Halton(d, scramble=True, seed=seed).random(n)``, bit for bit, as
    a C-ordered array.

    Column j is the van der Corput sequence in the j-th prime base b,
    scrambled as Owen's algorithm does: each of its ceil(54 / log2 b) - 1
    digits passes through its own permutation of range(b), drawn in turn
    from ``np.random.default_rng(seed)``, and the scaled digits are summed
    in scipy's order, least significant first.

    All bases go through one pass over the plan of :func:`_digit_tables`.
    The permutations are drawn into one flat table and scaled there.  A
    (depth, d, n) table of terms takes every digit's term at value 0 for
    all points; the digits whose place value is below n, a prefix of the
    plan's sorted digits, then take each point's own value in one gather.
    A digit whose place value is at least n is 0 at every point, and a
    padding row adds +0.0, which leaves a nonnegative sum as it is.
    ``np.add.reduce`` over the table's outer axis adds its rows one by
    one into the (d, n) sum, least significant first; the test against
    ``qmc.Halton`` guards that order.
    """
    blocks, unshuffled, scale, tail, places, bases, rows = _digit_tables(d)
    rng = np.random.default_rng(seed)
    flat = unshuffled.copy()
    for start, count, b in blocks:
        block = flat[start : start + count * b].reshape(count, b)
        rng.permuted(block, axis=1, out=block)
    flat *= scale
    terms = np.empty(tail.shape + (n,))
    terms[...] = flat[tail][..., None]
    varying = places.searchsorted(n)
    value = np.arange(n) // places[:varying, None] % bases[:varying, None]
    rows = rows[:varying]
    terms.reshape(tail.size, n)[rows] = flat[tail.reshape(-1)[rows, None] + value]
    return np.add.reduce(terms, axis=0).T.copy()


def _sampled(spec: SampleSpec, m: MetricField) -> Tuple[Array, Array]:
    """The sample states (count, 2, n) and the metric at their positions."""
    dim = m.dim
    box = np.asarray(spec.box, dtype=float)
    if box.shape != (dim, 2):
        raise ValueError(f"box must have shape ({dim}, 2), got {box.shape}")
    u = halton(2 * dim + 1, spec.count, spec.seed)
    xs = box[:, 0] + u[:, :dim] * (box[:, 1] - box[:, 0])
    z = ndtri(np.clip(u[:, dim : 2 * dim], 1e-12, 1.0 - 1e-12))
    # a direction too short to normalize is replaced by (1, ..., 1)
    z = np.where(np.max(np.abs(z), axis=1, keepdims=True) < 1e-12, 1.0, z)
    lo, hi = spec.speed_range
    speeds = lo + (hi - lo) * u[:, -1]
    gmat = metric_at(m, xs)
    current = speed_from(gmat, z)
    return np.stack([xs, z * (speeds / current)[:, None]], axis=1), gmat


def sample_states(spec: SampleSpec, m: MetricField) -> Array:
    """Deterministic quasi-random states inside the sampling region.

    Returns one array of shape (count, 2, n): ``states[i]`` is the pair
    (x, v) of sample i, so ``for x, v in states`` walks the samples.
    """
    return _sampled(spec, m)[0]


def _residual_rows(
    subject: Union[GeneratingScalar, ForceField], m: MetricField, mode: str, states: Array,
    gmat: Array,
) -> Tuple[Array, Array]:
    """The residual table (count, 7) and the lambda samples of a stack of states.

    Columns follow the field order of :class:`NormalityReport`: the
    sup-norm of each raw residual over its state, divided by 1 + max|F| +
    max of the derivative magnitudes.  For a generating pair F comes from
    the (W, h) route and everything else from one coefficient pack per
    state; its analytic mode takes Dv, Dx and the fiber Hessian of A from
    the pack, its finite-difference mode differences F and A.  A bare
    field's ansatz scalar is A = N^i F_i, and its reduced columns are 0.
    Every finite difference is one closure call on the stack of all its
    offsets, and offsets in velocity reuse ``gmat``, the metric at ``x``.
    A differenced Hessian of A comes from A itself
    (:func:`~normalshift.extended_fields.fiber_hessian`): one call of A on
    the 1 + 4n^2 velocity offsets of every state, 37 at n = 3.
    """
    x, v = states[:, 0], states[:, 1]
    pr = direction_from(gmat, x, v)
    ginv = inverse_metric_from(gmat, x)
    analytic = mode == "analytic"
    if isinstance(subject, GeneratingScalar):
        af = ansatz_from_generator(subject)
        force = generated_force(subject, m)
        c = coefficients(af, x, pr.speed)
        c_p = coefficient_speed_derivative(af, x, pr.speed)
        grad = coefficient_gradient(af, x, pr.speed)

        def A(u):
            at, g = _over(x, u), _over(gmat, u, 2)
            return ansatz_value(coefficients(af, at, direction_from(g, at, u).speed), u)
    else:
        af = None
        force = field_call(subject, subject.eval, m)

        def A(u):
            at, g = _over(x, u), _over(gmat, u, 2)
            return dot(direction_from(g, at, u).N_up, force(at, u, g))

    if af is not None and analytic:
        F = check_finite(force(x, v, gmat), "force field")
        Dv = check_finite(ansatz_force_dv(pr, gmat, v, c, c_p), "force fiber derivative")
        gamma = christoffel_from(ginv, metric_derivatives_at(m, x))
        Dx = check_finite(ansatz_force_nabla(pr, gamma, v, c, grad), "force spatial derivative")
        c_pp = coefficient_speed_derivative(af, x, pr.speed, order=2)
        H = ansatz_fiber_hessian(pr, gmat, v, c_p, c_pp)
    else:
        F, Dv, Dx = (
            _force_derivatives(force, m, x, v, gmat, ginv) if af is not None
            else _derivative_pack(subject, m, x, v, mode, ginv, gmat)
        )
        H = fiber_hessian(A, v)

    def sup(r):
        return np.maximum.reduce(np.abs(r).reshape(len(r), -1), axis=1)

    scale = 1.0 + sup(F) + np.maximum(sup(Dv), sup(Dx))
    eq_res, lam = _eq124(H, pr, ginv)
    reduced = _reduced(c, c_p, grad) if af is not None else (np.zeros(len(x)),) * 2
    raw = [kernel(F, Dv, Dx, pr, ginv) for kernel in _EQUATIONS] + [eq_res, *reduced]
    return np.stack([sup(r) / scale for r in raw], axis=1), lam


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
    All samples are evaluated as one stack, and the report's sup-norms are
    the column maxima of its residual table (:func:`_residual_rows`),
    making the tolerances scale-free.  When the stack fails, the samples
    are evaluated again one by one; the first that fails alone raises, its
    error keeping its type and naming the sample's index and state.
    """
    states, gmat = _sampled(sampler, m)
    try:
        rows, lambdas = _residual_rows(subject, m, sampler.mode, states, gmat)
    except NormalShiftError:
        for i, (x, v) in enumerate(states):
            try:
                _residual_rows(subject, m, sampler.mode, states[i : i + 1], gmat[i : i + 1])
            except NormalShiftError as exc:
                raise type(exc)(f"sample {i} at x = {x.tolist()}, v = {v.tolist()}: {exc}") from exc
        raise

    worst = np.max(rows, axis=0)
    tol = sampler.resolved_tolerance()
    return NormalityReport(
        *worst.tolist(),
        lambda_samples=lambdas,
        sample_count=sampler.count,
        tolerance_used=tol,
        passed=bool(np.all(worst <= tol)),
    )
