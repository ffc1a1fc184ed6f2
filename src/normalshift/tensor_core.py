"""Chart-level Riemannian machinery.

Everything here lives in a single coordinate chart: the metric is a
user-supplied closure ``x -> g_ij(x)`` and all derived objects (the inverse
metric, Christoffel symbols, the unit velocity direction N and the orthogonal
projector P onto the hyperplane perpendicular to the velocity) are evaluated
from it.  A flow stage reads g, its inverse and its derivatives and raises
its acceleration once, from the lowered connection term, without forming the
Christoffel symbols.  The inverse metric of a 3-dimensional chart comes from
its cofactors, and any inverse is accepted only once multiplying back gives
the identity (:func:`inverse_metric_from`).  A metric whose builder marks it
``diagonal`` hands over only its n diagonal entries and their n x n
derivatives: its check is the sign of each entry, and a flow stage on it
inverts by reciprocals and forms the connection term from the n x n
derivatives (:func:`diagonal_raised_acceleration`).  Every other reader
still gets the full matrices.  Every evaluator takes one point
of shape (n,) or a stack of points of shape (..., n) and returns its tensors
with the stack's leading axes in front.  A metric marked ``stacked`` has its
closures called once per stack, and only ever on a stack: a single point
reaches them as a one-row stack; its optional ``terms`` gives g and its
derivatives from one call, for a flow stage (:func:`stage_metric`).  Any
other metric's closures are called once per point.  No metric value is
kept: a user closure is called on read-only copies of its states, which
carry their metric, and a force field's its velocities, for that one
call (:func:`handing`).  A point closure called on them through
:func:`by_rows` reads its own row's metric by index, and its own row's
speed too, from speeds taken for the whole stack on the first request.
Index conventions, on the trailing axes:

* ``gamma[k, i, j]`` holds the connection component with upper index k and
  lower indices (i, j).
* ``dg(x)[m, i, j]`` holds the coordinate derivative of ``g_ij`` along
  ``x^m``.

Apart from that handoff all functions are pure; the descriptor dataclasses
are frozen.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import (
    AsymmetricMetric,
    DimensionTooSmall,
    NotPositiveDefinite,
    ZeroVelocity,
)

ASYMMETRY_TOL = 1e-12
SPEED_FLOOR = 1e-12
# Base step of every central difference, scaled by the argument's size where used.
FD_STEP = 1e-5


def every(mask) -> bool:
    """Whether every entry of the boolean array ``mask`` holds: ``mask.all()``
    as numpy's count of nonzero entries, which on the small arrays of a
    stage costs a third of the reduction behind ``mask.all()``."""
    return np.count_nonzero(mask) == mask.size


@cache
def identity(n: int) -> np.ndarray:
    """The n x n identity, one read-only array per dimension."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


@dataclass(frozen=True)
class MetricField:
    """Riemannian metric on one chart.

    Parameters
    ----------
    dim : int
        Chart dimension n, at least 3.
    g : callable
        Maps a coordinate array of shape (n,) to the n x n matrix g_ij.
        The result must be symmetric to within ``ASYMMETRY_TOL`` and
        positive-definite everywhere it is evaluated.
    dg : callable, optional
        Analytic coordinate derivatives, shape (n, n, n) with layout
        ``dg(x)[m, i, j] = d g_ij / d x^m``.  When absent, derivatives fall
        back to central differences of ``g`` with one Richardson
        extrapolation level, with step ``FD_STEP``.
    stacked : bool
        Whether ``g`` and ``dg`` take a stack of points (..., n) instead,
        returning (..., n, n) and (..., n, n, n), so a stack costs one
        call.  They are then only called on stacks, a single point as a
        one-row stack.  Unmarked closures are called once per point.
    diagonal : bool
        Whether the metric is diagonal, as its builder knows: ``g`` then
        returns the n diagonal entries g_ii, shape (n,), and ``dg`` the
        n x n derivatives ``dg(x)[m, i] = d g_ii / d x^m``.  Combined with
        ``stacked``, the stack's leading axes come first as before.  The
        evaluators below still return full matrices and derivative cubes.
    terms : callable, optional
        Read only when the metric is ``stacked`` and has ``dg``:
        ``terms(x)`` gives (``g(x)``, ``dg(x)``) on a stack in one call
        that does their shared work once, each in its own layout (the
        diagonal ones for a ``diagonal`` metric).  A flow stage whose metric it has not taken
        yet reads both from it (:func:`stage_metric`).  It must agree
        with ``g`` and ``dg`` bit for bit, so a ``dataclasses.replace``
        that swaps ``g`` or ``dg`` must set ``terms=None``.
    """

    dim: int
    g: Callable[[np.ndarray], np.ndarray]
    dg: Optional[Callable[[np.ndarray], np.ndarray]] = None
    stacked: bool = False
    diagonal: bool = False
    terms: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        if self.dim < 3:
            raise DimensionTooSmall(
                f"chart dimension must be at least 3, got {self.dim}"
            )


@dataclass(frozen=True)
class Projector:
    """Unit direction N^i (``N_up``) and N_i (``N_down``) of velocities and
    their modulus ``speed`` (a numpy float for one state, an array over a
    stack).  The projector ``P``, mixed components P^i_k = delta^i_k - N^i N_k
    (row = upper index), is built on its first read."""

    N_up: np.ndarray
    N_down: np.ndarray
    speed: Union[np.floating, np.ndarray]

    @cached_property
    def P(self) -> np.ndarray:
        return identity(self.N_up.shape[-1]) - outer(self.N_up, self.N_down)


# What :func:`handing` hands over, in the slots of this list: [0] the
# metric, [1] a read-only copy of the positions, [2] their read-only values
# (k, n, n), [3] a read-only copy of the velocities, or None; the current
# row, while :func:`by_rows` passes the handed states to its closure: [4]
# the position row, [5] its index and [6] the velocity row, or None when
# the velocities passed are not the handed ones; [7] the speeds of the
# handed states, Python floats, taken on first need.
_handed: list = [None] * 8


def _read_only(a: np.ndarray) -> np.ndarray:
    """A float copy of ``a`` that may not be written."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@contextmanager
def handing(m: MetricField, x: np.ndarray, gmat: np.ndarray, v: Optional[np.ndarray] = None):
    """Hand ``gmat``, the checked metric of ``m`` at ``x`` (..., n), to the
    closure called in the ``with`` block, with ``v``, the velocities at
    ``x`` of ``x``'s shape, when given.  It yields read-only copies of
    ``x`` and ``v`` (None when ``v`` is not given), on which the closure
    is to be called: :func:`metric_at` at that very copy reads the handed
    values.  A point closure that :func:`by_rows` calls on it gets its
    read-only rows, and its metric at its own row is read by index; called
    on the velocity copy too, it gets that copy's rows, and its
    :func:`speed_at` at its own two rows is read by index from the speeds
    of all the handed states, taken together on the first such call.  Any
    other array, equal in value or not, is evaluated afresh.  The previous
    handoff, its current row included, comes back on exit, also when the
    closure raises."""
    positions = _read_only(x)
    velocities = None if v is None else _read_only(v)
    values = np.reshape(gmat, (-1, m.dim, m.dim))
    values.setflags(write=False)
    previous = _handed[:]
    _handed[:] = [m, positions, values, velocities, None, None, None, None]
    try:
        yield positions, velocities
    finally:
        _handed[:] = previous


def by_rows(fn: Callable, x: np.ndarray, *more) -> np.ndarray:
    """A point closure ``fn(x_i, *more_i)`` applied to each state of a stack.

    ``x`` is one point (n,) or a stack (..., n); each of ``more`` has the
    same leading axes, with trailing axes of its own or none (a speed per
    state, which ``fn`` receives as a float).  One point is passed as it
    is, and so is each of ``more`` with it.  The values come back as one
    float array with the leading axes in front.  This is the one adapter
    through which a closure that takes only one point meets a stack.
    When ``x`` is the handed positions (:func:`handing`), the row being
    called is the handoff's current row, so the closure's
    :func:`metric_at` there is one index; when the first of ``more`` is
    the handed velocities, each of its rows is current beside its
    position, so the closure's :func:`speed_at` at the two is one index.
    The current row is put back as it was when the calls end or raise.
    """
    lead = x.shape[:-1]
    if not lead:
        args = [np.asarray(arr, dtype=float) for arr in more]
        value = fn(x, *(arr if arr.ndim else float(arr) for arr in args))
        return np.array(value, dtype=float)
    rows = [x.reshape(-1, x.shape[-1])]
    for arr in more:
        arr = np.asarray(arr, dtype=float)
        flat = arr.reshape((-1,) + arr.shape[len(lead):])
        rows.append(flat.tolist() if flat.ndim == 1 else flat)
    if x is _handed[1]:
        values = _handed_rows(fn, rows, bool(more) and more[0] is _handed[3])
    else:
        values = [fn(*args) for args in zip(*rows)]
    values = np.array(values, dtype=float)
    return values.reshape(lead + values.shape[1:])


def _handed_rows(fn: Callable, rows: list, with_v: bool) -> list:
    """``fn`` on each state of ``rows``, the rows of the handed positions
    first, with each row the handoff's current row while it is called; its
    velocity row is current too ``with_v``, when the second entry of
    ``rows`` holds the rows of the handed velocities."""
    previous = _handed[4:7]
    values = []
    try:
        for i, args in enumerate(zip(*rows)):
            _handed[4] = args[0]
            _handed[5] = i
            _handed[6] = args[1] if with_v else None
            values.append(fn(*args))
    finally:
        _handed[4:7] = previous
    return values


def _checked_value(value, x: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    try:
        value = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise AsymmetricMetric(
            f"{what} closure returned a ragged or non-numeric value, expected shape {shape} at x={x}"
        ) from exc
    if value.shape != shape:
        raise AsymmetricMetric(
            f"{what} closure returned shape {value.shape}, expected {shape} at x={x}"
        )
    return value


def _closure_values(
    fn: Callable, x: np.ndarray, shape: tuple, what: str, stacked: bool
) -> np.ndarray:
    """A metric closure's values at one point (n,) or a stack (..., n).

    A ``stacked`` closure is called once with the whole stack, a single
    point as a one-row stack.  Any other is called once per point of the
    stack.  The point values are assembled in one pass and their shape
    checked once; each point's value must have ``shape``, and a wrong or
    ragged one raises :class:`AsymmetricMetric` naming its point.
    """
    if stacked:
        rows = x if x.ndim > 1 else x[None]
        value = _checked_value(fn(rows), rows, rows.shape[:-1] + shape, what)
        return value.reshape(x.shape[:-1] + shape)
    if x.ndim == 1:
        return _checked_value(fn(x), x, shape, what)
    flat = x.reshape(-1, x.shape[-1])
    points = [fn(xi) for xi in flat]
    try:
        values = np.array(points, dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape[1:] != shape:
        checked = [_checked_value(p, xi, shape, what) for p, xi in zip(points, flat)]
        values = np.array(checked).reshape((-1,) + shape)
    return values.reshape(x.shape[:-1] + shape)


def _first_offender(err: np.ndarray, x: np.ndarray, tol: float):
    """(worst entry, point) of the first point whose error matrix reaches ``tol``
    or holds a nan."""
    per_point = err.reshape(-1, err.shape[-2] * err.shape[-1]).max(axis=1)
    i = int(np.argmax(~(per_point < tol)))
    return per_point[i], x.reshape(-1, x.shape[-1])[i]


def _checked_diagonal(entries: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The metric matrices (..., n, n) of diagonal entries (..., n) taken at
    ``x``, after the exact test of their definiteness: every entry finite
    and positive.  A failure names the first offending point."""
    good = np.isfinite(entries) & (entries > 0.0)
    if not every(good):
        n = entries.shape[-1]
        at = x.reshape(-1, n)[int(np.argmin(good.reshape(-1, n).all(axis=1)))]
        raise NotPositiveDefinite(f"metric not positive-definite at x={at}")
    return entries[..., None] * identity(entries.shape[-1])


def _checked_metric(gmat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetrize metric values (..., n, n) taken at ``x`` (..., n), after checks.

    The one validation of metric values, for single points and stacks
    alike: asymmetry against ``ASYMMETRY_TOL`` and positive-definiteness
    by Cholesky.  A non-finite entry leaves its point's asymmetry inf or
    nan, so the asymmetry test catches it too, and it is then reported as
    not positive-definite.  A failure names the first offending point.
    """
    gt = gmat.swapaxes(-1, -2)
    # inf - inf is nan, which the test below catches: no warning for it
    with np.errstate(invalid="ignore"):
        asym = np.abs(gmat - gt)
    if not asym.max() < ASYMMETRY_TOL:
        worst, at = _first_offender(asym, x, ASYMMETRY_TOL)
        if not np.isfinite(worst):
            raise NotPositiveDefinite(f"metric not positive-definite at x={at}")
        raise AsymmetricMetric(f"metric asymmetry {worst:.3e} exceeds tolerance at x={at}")
    gmat = 0.5 * (gmat + gt)
    try:
        np.linalg.cholesky(gmat)
    except np.linalg.LinAlgError:
        n = gmat.shape[-1]
        for xi, gi in zip(x.reshape(-1, n), gmat.reshape(-1, n, n)):
            try:
                np.linalg.cholesky(gi)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(f"metric not positive-definite at x={xi}") from exc
        raise
    return gmat


# Entry k of a 3 x 3 inverse, row-major, is the cofactor
# g[a] g[b] - g[c] g[d] divided by the determinant, with (a, b, c, d)
# column k of this table of flat indices into g.  Mirrored entries use
# the same two products of a symmetric g, so the inverse is symmetric.
_COFACTOR3 = np.array(
    [
        [4, 2, 1, 5, 0, 2, 3, 1, 0],
        [8, 7, 5, 6, 8, 3, 7, 6, 4],
        [5, 1, 2, 3, 2, 0, 4, 0, 1],
        [7, 8, 4, 8, 6, 5, 6, 7, 3],
    ]
)


def _inverse3(gmat: np.ndarray) -> np.ndarray:
    """Inverses of symmetric 3 x 3 matrices (..., 3, 3) from their cofactors.

    Every operation is elementwise, so each matrix of a stack rounds as it
    rounds alone; the determinant is the first row of ``gmat`` against the
    first column of cofactors, summed left to right.
    """
    fl = gmat.reshape(gmat.shape[:-2] + (9,))
    t = fl[..., _COFACTOR3]
    cof = t[..., 0, :] * t[..., 1, :] - t[..., 2, :] * t[..., 3, :]
    det = fl[..., 0] * cof[..., 0] + fl[..., 1] * cof[..., 1] + fl[..., 2] * cof[..., 2]
    return (cof / det[..., None]).reshape(gmat.shape)


def _lapack_inverse(gmat: np.ndarray) -> np.ndarray:
    """Symmetrized ``np.linalg.inv``, which inverts each matrix of a stack alone."""
    ginv = np.linalg.inv(gmat)
    return 0.5 * (ginv + ginv.swapaxes(-1, -2))


def _multiply_back(gmat: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    return np.abs(gmat @ ginv - identity(gmat.shape[-1]))


def inverse_metric_from(gmat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inverse of metric values already checked at ``x``, verified by multiplying back.

    Every inverse must give ``g g^-1`` within 1e-10 of the identity in
    each entry.  For n = 3 it is taken from the cofactors
    (:func:`_inverse3`), and only the matrices whose cofactor inverse
    fails that test are inverted by LAPACK (:func:`_lapack_inverse`) and
    tested again.  They are picked one by one, so a point's inverse is
    the same alone and in a stack.  Any other n is inverted by LAPACK.
    A matrix that LAPACK's inverse too fails raises
    :class:`NotPositiveDefinite` with that inverse's residual, naming the
    first such point.
    """
    if gmat.shape[-1] != 3:
        ginv = _lapack_inverse(gmat)
        residual = _multiply_back(gmat, ginv)
    else:
        # a determinant that rounds to 0 gives inf or nan, which fails the test
        with np.errstate(divide="ignore", invalid="ignore"):
            ginv = _inverse3(gmat)
            residual = _multiply_back(gmat, ginv)
        if residual.max() < 1e-10:
            return ginv
        redo = ~(residual < 1e-10).all(axis=(-2, -1))
        ginv[redo] = _lapack_inverse(gmat[redo])
        residual[redo] = _multiply_back(gmat[redo], ginv[redo])
    if not residual.max() < 1e-10:
        worst, at = _first_offender(residual, x, 1e-10)
        raise NotPositiveDefinite(
            f"metric too ill-conditioned to invert: residual {worst:.3e} at x={at}"
        )
    return ginv


def metric_at(m: MetricField, x: np.ndarray) -> np.ndarray:
    """Evaluate the metric matrix at ``x``, one point (n,) or a stack (..., n).

    Asymmetry below ``ASYMMETRY_TOL`` is silently averaged out; anything
    larger raises :class:`AsymmetricMetric`.  Positive-definiteness is
    checked by attempting a Cholesky factorization, and for a ``diagonal``
    metric by the sign of each entry, which must also be finite; the
    matrix is then built from the entries.  Inside a closure handed the
    metric (:func:`handing`), the handed values are returned, read-only,
    at two objects only: the handed positions themselves, and the current
    row of :func:`by_rows`, by its index.
    """
    if _handed[0] is m:
        if x is _handed[1]:
            return _handed[2].reshape(x.shape[:-1] + (m.dim, m.dim))
        if x is _handed[4] and x is not None:
            return _handed[2][_handed[5]]
    x = np.ascontiguousarray(x, dtype=float)
    if m.diagonal:
        return _checked_diagonal(_closure_values(m.g, x, (m.dim,), "metric", m.stacked), x)
    return _checked_metric(_closure_values(m.g, x, (m.dim, m.dim), "metric", m.stacked), x)


def stage_metric(m: MetricField, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The metric at a stack of positions (k, n) and its derivatives, from
    one ``terms`` call of ``m``, as a flow stage reads them.

    The metric is checked as :func:`metric_at` checks it and returned as
    full matrices.  The derivatives are the n x n ``d g_ii / d x^m`` of a
    ``diagonal`` metric, and otherwise the cube made symmetric in the
    metric index pair, as :func:`metric_derivatives_at` returns it.  A
    value of the wrong shape raises :class:`AsymmetricMetric`, as from
    ``g`` or ``dg``.
    """
    n = m.dim
    entry = (n,) if m.diagonal else (n, n)
    g_values, d_values = m.terms(x)
    g_values = _checked_value(g_values, x, x.shape[:-1] + entry, "metric")
    d_values = _checked_value(d_values, x, x.shape[:-1] + (n,) + entry, "dg")
    if m.diagonal:
        return _checked_diagonal(g_values, x), d_values
    return _checked_metric(g_values, x), 0.5 * (d_values + d_values.swapaxes(-1, -2))


def inverse_metric_at(m: MetricField, x: np.ndarray) -> np.ndarray:
    """Inverse metric g^ij at ``x`` (or a stack), verified by multiplying back."""
    x = np.asarray(x, dtype=float)
    return inverse_metric_from(metric_at(m, x), x)


def metric_derivatives_at(m: MetricField, x: np.ndarray) -> np.ndarray:
    """Coordinate derivatives ``D[..., m, i, j] = d g_ij / d x^m``.

    Uses the analytic closure when supplied, whose n x n derivatives of a
    ``diagonal`` metric fill the cube's diagonal in each metric index pair.
    Otherwise central differences of the metric (its symmetric part) with
    one Richardson extrapolation level, which upgrades the truncation error
    from O(h^2) to O(h^4).
    """
    x = np.asarray(x, dtype=float)
    n = m.dim
    if m.diagonal and m.dg is not None:
        return _closure_values(m.dg, x, (n, n), "dg", m.stacked)[..., None] * identity(n)
    if m.dg is not None:
        d = _closure_values(m.dg, x, (n, n, n), "dg", m.stacked)
    else:
        d = np.moveaxis(
            central_partials(lambda y: metric_at(m, y), x, FD_STEP, richardson=True), 0, -3
        )
    # Exact symmetry in the metric index pair keeps the Christoffel
    # construction below exactly symmetric in its lower indices.
    return 0.5 * (d + d.swapaxes(-1, -2))


def scaled_step(a: np.ndarray, base: float = FD_STEP) -> np.ndarray:
    """The difference step at points ``a`` (..., n): ``base`` times the larger
    of 1 and max|a| over the last axis, one step per point."""
    return base * np.maximum(1.0, np.max(np.abs(a), axis=-1))


def central_partials(
    fn: Callable[[np.ndarray], np.ndarray], at: np.ndarray, h, richardson: bool = False
) -> np.ndarray:
    """Central differences ``out[k] = d fn / d at^k`` over the last axis of ``at``.

    ``fn`` may return a scalar, a vector or a matrix, and ``out`` has shape
    (n,) + the shape of ``fn(at)``.  Each partial takes ``at`` offset by
    +-h along one axis; with ``richardson`` the steps h and h/2 combine as
    (4 fine - coarse) / 3, which upgrades the truncation error from O(h^2)
    to O(h^4).  When ``at`` carries leading stack axes, ``fn`` must keep
    them: it is called once, on the stack (..., 2n, n) of all offsets
    ((..., 4n, n) with ``richardson``), and ``h`` may hold one step per
    state of the stack.  At a single point ``fn`` need take only one
    point, and is called once per offset.
    """
    at = np.asarray(at, dtype=float)
    lead, n = at.shape[:-1], at.shape[-1]
    h = np.asarray(h, dtype=float)
    steps = (h, 0.5 * h) if richardson else (h,)
    offsets = []
    for step in steps:
        shift = identity(n) * step[..., None, None]  # row k: the step along axis k
        offsets += [at[..., None, :] + shift, at[..., None, :] - shift]
    # the offset axis runs over (+h, -h[, +h/2, -h/2]) for each axis in turn
    offsets = np.stack(offsets, axis=-2).reshape(lead + (-1, n))
    values = np.asarray(fn(offsets), dtype=float) if lead else by_rows(fn, offsets)
    values = np.moveaxis(values, len(lead), 0)
    values = values.reshape((n, len(steps), 2) + values.shape[1:])
    def difference(j: int) -> np.ndarray:
        step = per_state(steps[j], values.ndim - 3 - h.ndim)
        return (values[:, j, 0] - values[:, j, 1]) / (2.0 * step)

    coarse = difference(0)
    return (4.0 * difference(1) - coarse) / 3.0 if richardson else coarse


@cache
def _hessian_offsets(n: int) -> np.ndarray:
    """The unit offsets of one step of :func:`central_hessian`, one read-only
    (2n^2, n) array per dimension: +e_r and -e_r for each axis r in turn,
    then (+,+), (+,-), (-,+), (-,-) of e_r and e_s for each pair r < s in
    ``np.triu_indices`` order."""
    eye = identity(n)
    r, s = np.triu_indices(n, 1)
    axes = np.stack([eye, -eye], axis=1)
    cross = np.stack([eye[r] + eye[s], eye[r] - eye[s], eye[s] - eye[r], -eye[r] - eye[s]], axis=1)
    table = np.concatenate([axes.reshape(-1, n), cross.reshape(-1, n)])
    table.setflags(write=False)
    return table


def central_hessian(fn: Callable[[np.ndarray], np.ndarray], at: np.ndarray, h) -> np.ndarray:
    """Second central differences ``out[r, s] = d^2 fn / d at^r d at^s`` over
    the last axis of ``at``, with one Richardson level, exactly symmetric.

    ``fn`` may return a scalar, a vector or a matrix, and ``out`` has shape
    (n, n) + the shape of ``fn(at)``.  At steps h and h/2, the diagonal
    takes ``at`` and ``at`` +- h e_r, and each pair r < s the four points
    ``at`` +- h e_r +- h e_s, whose one difference fills both (r, s) and
    (s, r); the two steps combine as (4 fine - coarse) / 3, which upgrades
    the truncation error from O(h^2) to O(h^4).  That is 1 + 4n^2 values,
    37 at n = 3.  The calling convention is :func:`central_partials`'s:
    when ``at`` carries leading stack axes, ``fn`` is called once, on the
    stack (..., 1 + 4n^2, n) of all offsets, and ``h`` may hold one step
    per state; at a single point ``fn`` is called once per offset.
    """
    at = np.asarray(at, dtype=float)
    lead, n = at.shape[:-1], at.shape[-1]
    h = np.asarray(h, dtype=float)
    units = _hessian_offsets(n)
    steps = (h, 0.5 * h)
    offsets = [at[..., None, :]]
    for step in steps:
        offsets.append(at[..., None, :] + units * step[..., None, None])
    offsets = np.concatenate(offsets, axis=-2)
    values = np.asarray(fn(offsets), dtype=float) if lead else by_rows(fn, offsets)
    values = np.moveaxis(values, len(lead), 0)
    centre, pairs = values[0], n * (n - 1) // 2
    blocks = values[1:].reshape((2, len(units)) + values.shape[1:])

    def second(j: int) -> Tuple[np.ndarray, np.ndarray]:
        squared = per_state(steps[j], centre.ndim - h.ndim) ** 2
        axis = blocks[j, : 2 * n].reshape((n, 2) + centre.shape)
        cross = blocks[j, 2 * n :].reshape((pairs, 4) + centre.shape)
        diagonal = (axis[:, 0] + axis[:, 1] - 2.0 * centre) / squared
        mixed = (cross[:, 0] - cross[:, 1] - cross[:, 2] + cross[:, 3]) / (4.0 * squared)
        return diagonal, mixed

    (coarse_d, coarse_m), (fine_d, fine_m) = second(0), second(1)
    out = np.empty((n, n) + centre.shape)
    r, s = np.triu_indices(n, 1)
    out[np.arange(n), np.arange(n)] = (4.0 * fine_d - coarse_d) / 3.0
    out[r, s] = out[s, r] = (4.0 * fine_m - coarse_m) / 3.0
    return out


# The products ``a @ b`` of single states, written for stacks: matmuls with
# unit axes, which round every state of a stack exactly as ``@`` rounds one.


def mat_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for matrices (..., n, n) and vectors (..., n)."""
    return (a @ b[..., :, None])[..., 0]


def vec_mat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for vectors (..., n) and matrices (..., n, n)."""
    return (a[..., None, :] @ b)[..., 0, :]


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for two vectors (..., n)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.outer(a, b)`` for two vectors (..., n)."""
    return a[..., :, None] * b[..., None, :]


def per_state(value, ndim: int = 1) -> np.ndarray:
    """A scalar per state, for one state or a stack (...), with ``ndim`` unit
    axes appended so that it broadcasts against the states' vectors or
    matrices."""
    return np.asarray(value).reshape(np.shape(value) + (1,) * ndim)


def christoffel_from(ginv: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Connection components from the inverse metric and its derivatives.

    Implements gamma^k_ij = (1/2) sum_s g^ks (d_i g_sj + d_j g_is - d_s g_ij)
    for one point or a stack, with the lower-index symmetry exact by
    construction.
    """
    n = ginv.shape[-1]
    lead = ginv.shape[:-2]
    # t[k, i, j] = sum_s g^ks d_i g_sj ; its (i <-> j) transpose supplies the
    # second term, and the third is symmetric because d is.
    t = (ginv @ d.swapaxes(-3, -2).reshape(lead + (n, n * n))).reshape(lead + (n, n, n))
    third = (ginv @ d.reshape(lead + (n, n * n))).reshape(lead + (n, n, n))
    return 0.5 * (t + t.swapaxes(-1, -2) - third)


def christoffel_at(m: MetricField, x: np.ndarray) -> np.ndarray:
    """Christoffel symbols ``gamma[..., k, i, j]`` of the metric connection at
    ``x`` (or a stack), symmetric in (i, j)."""
    return christoffel_from(inverse_metric_at(m, x), metric_derivatives_at(m, x))


def raised_acceleration(
    ginv: np.ndarray, dg: np.ndarray, v: np.ndarray, force: np.ndarray
) -> np.ndarray:
    """dv/dt = g^-1 (F - c) of the flow with covector force ``F``, which is
    g^-1 F - gamma(v, v) raised once, with no Christoffel tensor formed.

    c_s = g_sk gamma^k_ij v^i v^j = sum_m v^m d_m g_sj v^j - (1/2) d_s g_ij v^i v^j
    is the lowered connection term.  With e[..., m, s] = sum_j d_m g_sj v^j,
    one matmul, its first part contracts the row index of ``e`` with v and
    its second part the column index.  ``ginv`` is the inverse metric and
    ``dg`` its derivatives, symmetric in the metric index pair, as
    :func:`metric_derivatives_at` returns them.
    """
    e = (dg @ v[..., None, :, None])[..., 0]
    return mat_vec(ginv, force - (vec_mat(v, e) - 0.5 * mat_vec(e, v)))


def _reciprocal(entries: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The inverse 1/g_ii of checked diagonal metric entries (..., n) at ``x``,
    under the multiply-back test of :func:`inverse_metric_from`: each
    g_ii (1/g_ii) within 1e-10 of 1, else :class:`NotPositiveDefinite`
    naming the first failing point.  Only an entry so small that its
    reciprocal overflows fails it."""
    with np.errstate(over="ignore"):
        inv = 1.0 / entries
    residual = np.abs(entries * inv - 1.0)
    if not residual.max() < 1e-10:
        worst, at = _first_offender(residual[..., None], x, 1e-10)
        raise NotPositiveDefinite(
            f"metric too ill-conditioned to invert: residual {worst:.3e} at x={at}"
        )
    return inv


def diagonal_raised_acceleration(
    m: MetricField, x: np.ndarray, v: np.ndarray, gmat: np.ndarray, force: Callable,
    e: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`raised_acceleration` for a ``diagonal`` metric ``m`` with analytic
    ``dg``, from ``gmat``, its checked matrices at ``x``.

    In the order of the general stage, the metric is inverted by
    reciprocals (:func:`_reciprocal`), its n x n derivatives
    e[..., m, i] = d_m g_ii are taken, unless given as ``e``, and then the
    covector force ``force(x, v, gmat)``.  The lowered connection term is
    c_s = (sum_m v^m d_m g_ss) v^s - (1/2) sum_i d_s g_ii (v^i)^2,
    with no derivative cube.
    """
    ginv = _reciprocal(np.diagonal(gmat, axis1=-2, axis2=-1), x)
    if e is None:
        e = _closure_values(m.dg, x, (m.dim, m.dim), "dg", m.stacked)
    c = vec_mat(v, e) * v - 0.5 * mat_vec(e, v * v)
    return ginv * (np.asarray(force(x, v, gmat), dtype=float) - c)


def speed_from(gmat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The g-norm sqrt(g_ij v^i v^j) of vectors ``v`` (..., n) from metric values
    ``gmat`` (..., n, n) already taken, which may be broadcast over extra axes
    of ``v``.  Its matmuls (:func:`dot`, :func:`vec_mat`) round each vector of
    a stack as they round one vector alone."""
    return np.sqrt(dot(vec_mat(v, gmat), v))


def speed_at(m: MetricField, x: np.ndarray, v: np.ndarray):
    """Velocity modulus |v| = sqrt(g_ij v^i v^j): a float, or an array for stacks
    (:func:`speed_from`).

    At the current position and velocity rows of :func:`by_rows` on states
    handed with their velocities (:func:`handing`), the very row objects,
    it is that row's entry of the handed states' speeds, which one
    :func:`speed_from` takes on the first such call and the handoff keeps
    until it ends.  Every other call takes the metric at ``x``
    (:func:`metric_at`) and its own product.
    """
    if _handed[6] is not None and v is _handed[6] and x is _handed[4] and _handed[0] is m:
        speeds = _handed[7]
        if speeds is None:
            speeds = _handed[7] = speed_from(_handed[2], _handed[3].reshape(-1, m.dim)).tolist()
        return speeds[_handed[5]]
    gmat = metric_at(m, x)
    v = np.asarray(v, dtype=float)
    if v.ndim == 1 and gmat.ndim == 2:
        # one state, as point-wise callbacks ask for it: the gemv and ddot
        # kernels of the stack products, called without matmul's dispatch;
        # math.sqrt rounds as np.sqrt does, which alone takes a negative or nan
        q = v.dot(gmat).dot(v)
        return math.sqrt(q) if q >= 0.0 else float(np.sqrt(q))
    return speed_from(gmat, v)


def unit_direction(m: MetricField, x: np.ndarray, v: np.ndarray) -> Projector:
    """:func:`direction_from` with the metric taken at ``x``: N along ``v``.

    Takes one state or stacks of states (..., n); for a stack every field
    of the result carries the same leading axes.  Raises
    :class:`ZeroVelocity` when a velocity modulus is at or below
    ``SPEED_FLOOR``; the zero section of the tangent bundle is excluded from
    the theory.
    """
    x = np.asarray(x, dtype=float)
    return direction_from(metric_at(m, x), x, v)


def direction_from(gmat: np.ndarray, x: np.ndarray, v: np.ndarray) -> Projector:
    """The :class:`Projector` of velocities ``v`` from metric values ``gmat`` taken at ``x``.

    The one unit direction of the library and its one speed-floor check.
    One body serves a state and a stack: the speed is :func:`speed_from`,
    and :func:`mat_vec` rounds every state of a stack as it rounds a
    single state.  ``gmat`` may be broadcast over extra axes of ``v``,
    such as velocity offsets.  Raises :class:`ZeroVelocity` when a speed
    is at or below ``SPEED_FLOOR``.
    """
    v = np.asarray(v, dtype=float)
    n = gmat.shape[-1]
    speed = speed_from(gmat, v)
    slow = speed <= SPEED_FLOOR
    if np.count_nonzero(slow):
        i = int(np.argmax(np.ravel(slow)))
        where = np.broadcast_to(x, v.shape).reshape(-1, n)[i]
        raise ZeroVelocity(
            f"velocity modulus {np.ravel(speed)[i]:.3e} at or below floor at x={where}"
        )
    n_up = v / speed[..., None]
    return Projector(N_up=n_up, N_down=mat_vec(gmat, n_up), speed=speed)
