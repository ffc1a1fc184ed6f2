"""Simulation of the normal shift of a hypersurface along trajectories.

A hypersurface S moves along the trajectory family started g-orthogonally
from each of its points with initial speed nu(u), where nu solves the
implicit equation W(x(u), nu) = W(p0, nu0).  For force fields of the
generating family the shifted surfaces S_t stay orthogonal to every
trajectory; the deviation functions phi_k = g(tau_k, v) measure how well
that holds and vanish identically on exact normal shifts.

The trajectory family is integrated with a fixed-step classical
Runge-Kutta scheme so all family members share time grids exactly, which
lets tau_k = dx/du^k come from fourth-order central differences across
the u-grid.  Grid boundary points lack the stencil width and carry NaN
deviations; consumers aggregate with NaN-aware reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateTangents,
    GridTooCoarse,
    NonFinite,
    NormalShiftError,
    RootNotBracketed,
    TrajectoryEscaped,
    ZeroVelocity,
)
from .extended_fields import isotropic_call, isotropic_speed_derivative
from .force_builder import (
    WV_FLOOR,
    ForceField,
    GeneratingScalar,
    field_call,
    generated_force,
    h_values,
)
from .tensor_core import (
    FD_STEP,
    SPEED_FLOOR,
    MetricField,
    by_rows,
    central_partials,
    dot,
    inverse_metric_from,
    mat_vec,
    metric_at,
    metric_pack,
    raised_acceleration,
    speed_from,
    unit_direction_from,
)

Array = np.ndarray

# Iteration cap of the initial-speed solve.
SOLVE_NU_ITERATIONS = 100


@dataclass(frozen=True)
class Hypersurface:
    """Parametrized hypersurface with a marked point and normalization.

    ``chart_map`` sends an (n-1)-dimensional parameter u to coordinates;
    ``du``, when given, returns the matrix du(u)[i, k] = dx^i/du^k whose
    columns are the tangents tau_k.  ``nu0`` is the initial speed at the
    marked parameter ``base_u`` and ``orientation`` selects the side of
    the surface the unit normal points to.
    """

    dim_u: int
    chart_map: Callable[[Array], Array]
    du: Optional[Callable[[Array], Array]] = None
    base_u: Tuple[float, ...] = ()
    nu0: float = 1.0
    orientation: float = 1.0

    def __post_init__(self):
        if self.dim_u < 1:
            raise ValueError("dim_u must be at least 1")
        if self.nu0 == 0.0:
            raise ValueError("nu0 must be nonzero")
        if self.orientation not in (1.0, -1.0, 1, -1):
            raise ValueError("orientation must be +1 or -1")
        if len(self.base_u) != self.dim_u:
            raise ValueError("base_u must have dim_u components")


@dataclass(frozen=True)
class PhaseState:
    """Point of the trajectory flow: position, velocity, time."""

    x: Array
    v: Array
    t: float


@dataclass(frozen=True)
class GridSpec:
    """Uniform parameter grid, one (start, stop, count) range per direction,
    each of at least five points and nonzero width for the deviation stencil."""

    ranges: Tuple[Tuple[float, float, int], ...]

    def __post_init__(self):
        for a, b, c in self.ranges:
            if int(c) < 5:
                raise GridTooCoarse(
                    f"{int(c)} points on [{a}, {b}]: the interior stencil needs at least 5"
                )
            if a == b:
                raise GridTooCoarse(f"range [{a}, {b}] has zero width: the stencil needs lo != hi")

    def axes(self) -> Tuple[Array, ...]:
        return tuple(np.linspace(a, b, int(c)) for a, b, c in self.ranges)


@dataclass(frozen=True)
class ShiftRecord:
    """Recorded trajectory family of one shift run.

    ``u_grid`` flattens the parameter grid in row-major order matching
    ``grid_shape``; per-trajectory arrays are indexed [grid point, time].
    Deviations ``phi`` are NaN at grid points within two cells of the
    boundary, where the interior stencil does not fit.
    """

    u_grid: Array
    grid_shape: Tuple[int, ...]
    u_axes: Tuple[Array, ...]
    times: Array
    x: Array
    v: Array
    phi: Array
    W_vals: Array
    speed_vals: Array
    nu_vals: Array
    dt: float
    sample_stride: int

    def __post_init__(self):
        n_u, dim_u = self.u_grid.shape
        n_t = self.times.shape[0]
        dim = self.x.shape[-1]
        expected = {
            "x": (n_u, n_t, dim),
            "v": (n_u, n_t, dim),
            "phi": (n_u, n_t, dim_u),
            "W_vals": (n_u, n_t),
            "speed_vals": (n_u, n_t),
            "nu_vals": (n_u,),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, want {shape}")
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must increase strictly from 0")
        if int(np.prod(self.grid_shape)) != n_u:
            raise ValueError("grid_shape inconsistent with u_grid")

    def state_at(self, point: int, time_index: int) -> PhaseState:
        return PhaseState(
            x=self.x[point, time_index].copy(),
            v=self.v[point, time_index].copy(),
            t=float(self.times[time_index]),
        )


def surface_tangents(s: Hypersurface, u: Array) -> Array:
    """Tangent matrices T[..., k, i] = dx^i/du^k, differenced when du is absent.

    Takes one chart point (dim_u,) or a stack (..., dim_u); the surface's
    closures take one point and are called once per point.
    """
    u = np.asarray(u, dtype=float)
    if s.du is not None:
        return by_rows(s.du, u).swapaxes(-1, -2)
    h = FD_STEP * np.maximum(1.0, np.max(np.abs(u), axis=-1))
    partials = central_partials(lambda y: by_rows(s.chart_map, y), u, h, richardson=True)
    return np.moveaxis(partials, 0, -2)


def _family_normals(m: MetricField, s: Hypersurface, u: Array, x: Array) -> Tuple[Array, Array]:
    """g-unit normals (k, n) at chart points u (k, dim_u) with positions x (k, n),
    and the metric (k, n, n) at x that they were built from.

    The base sign is fixed deterministically by requiring positive
    determinant of the frame (tau_1, ..., tau_{n-1}, n), then flipped by
    ``orientation``; over a connected patch this yields a smooth field.
    Raises :class:`DegenerateTangents` naming the first chart point whose
    tangents are nearly dependent.
    """
    T = surface_tangents(s, u)
    g = metric_at(m, x)
    tg = T @ g
    eigvals = np.linalg.eigvalsh(tg @ T.swapaxes(-1, -2))
    degenerate = eigvals[:, 0] < 1e-12 * np.maximum(1.0, eigvals[:, -1])
    if degenerate.any():
        at = u[int(np.argmax(degenerate))]
        raise DegenerateTangents(f"tangent vectors nearly dependent at u = {at.tolist()}")
    # the normal spans the nullspace of the (n-1) x n system (T g) n = 0
    n_vec = np.linalg.svd(tg)[2][:, -1]
    n_vec = n_vec / speed_from(g, n_vec)[:, None]
    frame = np.concatenate([T, n_vec[:, None, :]], axis=1)
    n_vec = np.where((np.linalg.det(frame) < 0.0)[:, None], -n_vec, n_vec)
    return float(s.orientation) * n_vec, g


def surface_normal(m: MetricField, s: Hypersurface, u: Array) -> Array:
    """The g-unit normal at chart point u, oriented by the surface.

    The one-point case of the family normals :func:`run_shift` takes, so a
    point's normal is the same alone and in a family.
    """
    u = np.asarray(u, dtype=float)[None]
    return _family_normals(m, s, u, by_rows(s.chart_map, u))[0][0]


def _family_nu(gs: GeneratingScalar, s: Hypersurface, u: Array, x: Array) -> Array:
    """Initial speeds (k,) at chart points u (k, dim_u) with positions x (k, n)
    making W match its value at the marked point.

    Each row scans 25 speeds geometrically around |nu0| (one W call for
    the whole family); the first exact zero wins, otherwise the sign change
    nearest |nu0| in log distance brackets the root, ties going to the
    lower speed.  A Newton iteration with the analytic speed derivative of
    W, safeguarded by bisection inside the bracket, then runs on the rows
    not yet converged.  The sign of nu0 is preserved.  A row without a
    bracket or without convergence raises :class:`RootNotBracketed`
    naming the first such chart point.
    """
    w = gs.W
    sigma0 = abs(float(s.nu0))
    x_base = np.asarray(s.chart_map(np.asarray(s.base_u, dtype=float)), dtype=float)
    w0 = float(isotropic_call(w, w.eval, x_base, sigma0))
    tol = 1e-12 * (1.0 + abs(w0))
    k = x.shape[0]
    scan = sigma0 * np.power(8.0, np.linspace(-1.0, 1.0, 25))
    distance = np.array([abs(math.log(sig / sigma0)) for sig in scan[:-1]])
    values = np.asarray(
        isotropic_call(w, w.eval, np.repeat(x[:, None], scan.size, axis=1), np.tile(scan, (k, 1))),
        dtype=float,
    ) - w0
    zero = values[:, :-1] == 0.0
    change = values[:, :-1] * values[:, 1:] <= 0.0
    exact = zero.any(axis=1)
    nu = np.where(exact, scan[np.argmax(zero, axis=1)], np.nan)
    j = np.argmin(np.where(change, distance, np.inf), axis=1)
    unbracketed = ~exact & ~change.any(axis=1)

    rows = np.flatnonzero(~exact & ~unbracketed)
    lo, hi = scan[j[rows]], scan[j[rows] + 1]
    g_lo = values[rows, j[rows]]
    sigma = np.minimum(np.maximum(sigma0, lo), hi)
    for _ in range(SOLVE_NU_ITERATIONS):
        if not rows.size:
            break
        g_sig = np.asarray(isotropic_call(w, w.eval, x[rows], sigma), dtype=float) - w0
        done = np.abs(g_sig) < tol
        nu[rows[done]] = sigma[done]
        active = ~done
        rows, sigma, g_sig, lo, hi, g_lo = (
            a[active] for a in (rows, sigma, g_sig, lo, hi, g_lo)
        )
        if not rows.size:
            break
        left = g_lo * g_sig <= 0.0
        hi = np.where(left, sigma, hi)
        lo, g_lo = np.where(left, lo, sigma), np.where(left, g_lo, g_sig)
        wv = np.asarray(isotropic_speed_derivative(w, x[rows], sigma), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            candidate = sigma - g_sig / wv
        newton = (np.abs(wv) >= WV_FLOOR) & (lo < candidate) & (candidate < hi)
        sigma = np.where(newton, candidate, 0.5 * (lo + hi))

    failed = np.union1d(np.flatnonzero(unbracketed), rows)
    if failed.size:
        i = failed[0]
        if unbracketed[i]:
            raise RootNotBracketed(
                f"no speed in [{scan[0]:.4g}, {scan[-1]:.4g}] matches the surface value "
                f"of W at u = {u[i].tolist()}"
            )
        raise RootNotBracketed(f"speed iteration failed to converge at u = {u[i].tolist()}")
    return np.copysign(nu, s.nu0)


def solve_nu(
    gs: GeneratingScalar,
    m: MetricField,
    s: Hypersurface,
    u: Array,
) -> float:
    """Initial speed at u making W match its value at the marked point.

    The one-point case of the family solve :func:`run_shift` takes, so a
    point's speed is the same alone and in a family.
    """
    u = np.asarray(u, dtype=float)[None]
    return float(_family_nu(gs, s, u, by_rows(s.chart_map, u))[0])


# A force of the flow: the covector at states (x, v), given the metric
# values already taken at x.
Force = Callable[[Array, Array, Array], Array]


def _flow_rhs(force: Force, m: MetricField, x: Array, v: Array, gmat: Array) -> Tuple[Array, Array]:
    """(dx/dt, dv/dt) of the flow at a stack of states (k, n).

    ``gmat`` is the checked metric at ``x``.  The stage's one metric pack
    is built on it, the force reads its g, and the acceleration is raised
    once (:func:`~normalshift.tensor_core.raised_acceleration`).
    """
    pack = metric_pack(m, x, gmat)
    return v, raised_acceleration(pack, v, np.asarray(force(x, v, pack.g), dtype=float))


def _rk4_step(
    force: Force, m: MetricField, x: Array, v: Array, dt: float, gmat: Optional[Array] = None
) -> Tuple[Array, Array, Array]:
    """One classical Runge-Kutta step of a stack of states (k, n) stepped together.

    Evaluates the metric once per stage: ``gmat``, the metric at ``x``
    when the caller has it, serves the first stage, and the metric at the
    new positions, which the speed-floor check takes, is returned with
    them for the next step's first stage.  Raises :class:`NonFinite` or
    :class:`ZeroVelocity` when any stepped state leaves the domain of the
    flow.
    """
    if gmat is None:
        gmat = metric_at(m, x)
    # overflow is diagnosed below rather than warned about element-wise
    with np.errstate(over="ignore", invalid="ignore"):
        k1x, k1v = _flow_rhs(force, m, x, v, gmat)
        x2, v2 = x + 0.5 * dt * k1x, v + 0.5 * dt * k1v
        k2x, k2v = _flow_rhs(force, m, x2, v2, metric_at(m, x2))
        x3, v3 = x + 0.5 * dt * k2x, v + 0.5 * dt * k2v
        k3x, k3v = _flow_rhs(force, m, x3, v3, metric_at(m, x3))
        x4, v4 = x + dt * k3x, v + dt * k3v
        k4x, k4v = _flow_rhs(force, m, x4, v4, metric_at(m, x4))
        x_new = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v_new = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
        raise NonFinite("integration overflowed")
    g_new = metric_at(m, x_new)
    if np.any(speed_from(g_new, v_new) <= SPEED_FLOOR):
        raise ZeroVelocity("speed collapsed below floor")
    return x_new, v_new, g_new


def step_trajectory(F: ForceField, m: MetricField, st: PhaseState, dt: float) -> PhaseState:
    """One classical Runge-Kutta step of the second-order flow.

    The one-row case of the step :func:`run_shift` takes for a whole
    family: the state is stepped as the stack (1, n), so a ``stacked``
    ``F`` sees only that stack and any other ``F`` one state.  Errors name
    the step's start time.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x, v = np.asarray(st.x, dtype=float)[None], np.asarray(st.v, dtype=float)[None]
    try:
        x_new, v_new, _ = _rk4_step(field_call(F, F.eval, m), m, x, v, dt)
    except NormalShiftError as exc:
        raise type(exc)(f"{exc} near t = {st.t:.6g}") from exc
    return PhaseState(x=x_new[0], v=v_new[0], t=st.t + dt)


def _escaped(box: Optional[Array], x: Array) -> Array:
    """Per-row mask of positions outside the chart box."""
    if box is None:
        return np.zeros(x.shape[0], dtype=bool)
    return np.any((x < box[:, 0]) | (x > box[:, 1]), axis=-1)


def _escape_error(u: Array, t: float) -> TrajectoryEscaped:
    return TrajectoryEscaped(f"trajectory from u = {u.tolist()} left the chart box at t = {t:.6g}")


def _raise_first_failure(
    force: Force, m: MetricField, x: Array, v: Array, dt: float, t: float,
    u_grid: Array, box: Optional[Array],
) -> None:
    """Re-step the family's rows one by one and raise the first row's failure.

    Rows evolve independently, so after a family step fails the lowest
    failing row is the first one that fails on its own, by a numerical
    error or by leaving the chart box.  The error keeps its type and names
    the trajectory's u and the step's start time.  Returns only if no row
    fails alone.
    """
    for i, u in enumerate(u_grid):
        try:
            x_i, _, _ = _rk4_step(force, m, x[i : i + 1], v[i : i + 1], dt)
        except NormalShiftError as exc:
            raise type(exc)(f"trajectory from u = {u.tolist()} near t = {t:.6g}: {exc}") from exc
        if _escaped(box, x_i)[0]:
            raise _escape_error(u, t + dt)


def _grid_tangents(x: Array, shape: Tuple[int, ...], axes: Tuple[Array, ...]) -> Array:
    """Tangents tau_k = dx/du^k (n_u, n_t, dim_u, n) of positions x (n_u, n_t, n) on a grid.

    tau_k is the fourth-order central stencil along grid axis k, where that
    axis leaves two cells on each side, and NaN elsewhere.
    """
    n_u, n_t, dim = x.shape
    tau = np.full((n_u, n_t, len(axes), dim), np.nan)
    x_grid = x.reshape(shape + (n_t, dim))
    tau_grid = tau.reshape(shape + (n_t, len(axes), dim))
    for k, ax in enumerate(axes):
        xk = np.moveaxis(x_grid, k, 0)
        np.moveaxis(tau_grid[..., k, :], k, 0)[2:-2] = (
            -xk[4:] + 8.0 * xk[3:-1] - 8.0 * xk[1:-3] + xk[:-4]
        ) / (12.0 * float(ax[1] - ax[0]))
    return tau


def run_shift(
    gs: GeneratingScalar,
    m: MetricField,
    s: Hypersurface,
    grid: GridSpec,
    t_end: float,
    dt: float,
    *,
    sample_stride: int = 10,
    force_constant_nu: bool = False,
    chart_box: Optional[Sequence[Sequence[float]]] = None,
) -> ShiftRecord:
    """Integrate the trajectory family of a shift and assemble deviations.

    Initial conditions follow the orthogonal-start rule x = chart(u),
    v = nu(u) n(u), with nu from the family solve of :func:`solve_nu`
    unless ``force_constant_nu`` pins nu = nu0 everywhere (the negative
    control), and the normals n(u) from one stacked computation whose
    metric serves the first step.  A failed solve names the first failing
    grid point's u.  The whole family is stepped as one (n_u, n) stack of
    positions and one of velocities.
    States are recorded every ``sample_stride`` steps; ``chart_box``, when
    given, bounds the coordinates and integration aborts once a trajectory
    leaves it.  A failure is reported for the earliest failing step and,
    within it, the lowest grid row, naming that trajectory's u and time.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError("t_end must be positive and finite")
    if not isinstance(sample_stride, (int, np.integer)) or sample_stride < 1:
        raise ValueError("sample_stride must be a positive integer")
    if len(grid.ranges) != s.dim_u:
        raise ValueError("grid dimensionality does not match the surface")
    axes = grid.axes()
    shape = tuple(len(ax) for ax in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    u_grid = np.stack([part.ravel() for part in mesh], axis=1)
    n_u = u_grid.shape[0]
    dim = m.dim

    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)) or n_steps < 1:
        raise ValueError("t_end must be a positive multiple of dt")
    if n_steps % sample_stride != 0:
        raise ValueError("sample_stride must divide the step count")
    record_steps = np.arange(0, n_steps + 1, sample_stride)
    times = record_steps * dt
    n_t = len(times)

    box = None if chart_box is None else np.asarray(chart_box, dtype=float)

    force = generated_force(gs, m)
    x = by_rows(s.chart_map, u_grid)
    nu_vals = np.full(n_u, float(s.nu0)) if force_constant_nu else _family_nu(gs, s, u_grid, x)
    normals, gmat = _family_normals(m, s, u_grid, x)
    v = nu_vals[:, None] * normals

    xs = np.empty((n_u, n_t, dim))
    vs = np.empty((n_u, n_t, dim))
    xs[:, 0], vs[:, 0] = x, v
    slot = 1
    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        try:
            x_new, v_new, g_new = _rk4_step(force, m, x, v, dt, gmat)
        except NormalShiftError:
            _raise_first_failure(force, m, x, v, dt, t, u_grid, box)
            raise
        escaped = np.flatnonzero(_escaped(box, x_new))
        if escaped.size:
            raise _escape_error(u_grid[escaped[0]], step * dt)
        x, v, gmat = x_new, v_new, g_new
        if step == record_steps[slot]:
            xs[:, slot], vs[:, slot] = x, v
            slot += 1

    g_rec = metric_at(m, xs)
    speed_vals = speed_from(g_rec, vs)
    v_cov = np.einsum("...ij,...j->...i", g_rec, vs)
    W_vals = np.array(isotropic_call(gs.W, gs.W.eval, xs, speed_vals), dtype=float)

    phi = np.einsum("...kj,...j->...k", _grid_tangents(xs, shape, axes), v_cov)

    return ShiftRecord(
        u_grid=u_grid,
        grid_shape=shape,
        u_axes=axes,
        times=times,
        x=xs,
        v=vs,
        phi=phi,
        W_vals=W_vals,
        speed_vals=speed_vals,
        nu_vals=nu_vals,
        dt=dt,
        sample_stride=sample_stride,
    )


def w_dynamics_residual(rec: ShiftRecord, gs: GeneratingScalar) -> float:
    """Sup-norm gap between recorded W and the integrated law dW/dt = h(W).

    Every trajectory's RK4 of W steps at once; h is called once per stage
    on all trajectories when it takes arrays.  NaN gaps are skipped.
    """
    w = np.empty_like(rec.W_vals)
    w[:, 0] = rec.W_vals[:, 0]
    for j in range(1, rec.times.shape[0]):
        step = float(rec.times[j] - rec.times[j - 1])
        k1 = h_values(gs, w[:, j - 1])
        k2 = h_values(gs, w[:, j - 1] + 0.5 * step * k1)
        k3 = h_values(gs, w[:, j - 1] + 0.5 * step * k2)
        k4 = h_values(gs, w[:, j - 1] + step * k3)
        w[:, j] = w[:, j - 1] + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(np.fmax.reduce(np.abs(rec.W_vals - w), axis=None, initial=0.0))


def surface_constancy_residual(rec: ShiftRecord) -> Array:
    """Per-time spread (max - min over the family) of the recorded W."""
    return np.max(rec.W_vals, axis=0) - np.min(rec.W_vals, axis=0)


def speed_law_residual(rec: ShiftRecord, F: ForceField, m: MetricField) -> float:
    """Sup-norm gap between differenced d|v|/dt and sum_i N_i F^i.

    Uses the interior fourth-order stencil on the recorded time grid, so
    the record must span at least five sample times.  The interior states
    are evaluated as one stack; a field that is not ``stacked`` is called
    once per state.
    """
    n_t = rec.times.shape[0]
    if n_t < 5:
        raise ValueError("record too short for the interior stencil")
    step = float(rec.times[1] - rec.times[0])
    s = rec.speed_vals
    ds_dt = (-s[:, 4:] + 8.0 * s[:, 3:-1] - 8.0 * s[:, 1:-3] + s[:, :-4]) / (12.0 * step)
    x, v = rec.x[:, 2:-2], rec.v[:, 2:-2]
    gmat = metric_at(m, x)
    pr = unit_direction_from(gmat, x, v)
    f = field_call(F, F.eval, m)(x, v)
    f_up = mat_vec(inverse_metric_from(gmat, x), np.asarray(f, dtype=float))
    return float(np.max(np.abs(ds_dt - dot(pr.N_down, f_up))))


def max_normalized_deviation(rec: ShiftRecord, m: MetricField) -> float:
    """Largest |phi_k| / (|v| * g-norm of tau_k) over the interior record.

    The metric is evaluated once on the stack of interior states; states on
    the grid margin, whose first deviation is NaN, are skipped.
    """
    interior = np.isfinite(rec.phi[..., 0])
    if not interior.any():
        return 0.0
    tau = _grid_tangents(rec.x, rec.grid_shape, rec.u_axes)[interior]
    g = metric_at(m, rec.x[interior])
    norm = speed_from(g[:, None], tau)
    ratio = np.abs(rec.phi[interior]) / (rec.speed_vals[interior][:, None] * norm)
    return float(np.nanmax(ratio, initial=0.0))


def plane_surface(
    axis: int = 2,
    offset: float = 0.0,
    base_u: Tuple[float, float] = (0.0, 0.0),
    nu0: float = 1.0,
    orientation: float = 1.0,
) -> Hypersurface:
    """Coordinate plane x^axis = offset in three dimensions."""
    others = [k for k in range(3) if k != axis]

    def chart(u):
        x = np.empty(3)
        x[axis] = offset
        x[others[0]] = u[0]
        x[others[1]] = u[1]
        return x

    def du(u):
        out = np.zeros((3, 2))
        out[others[0], 0] = 1.0
        out[others[1], 1] = 1.0
        return out

    return Hypersurface(
        dim_u=2, chart_map=chart, du=du, base_u=base_u, nu0=nu0, orientation=orientation
    )


def sphere_surface(
    radius: float = 1.0,
    center: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    base_u: Tuple[float, float] = (0.5 * math.pi, 0.0),
    nu0: float = 1.0,
    orientation: float = 1.0,
) -> Hypersurface:
    """Sphere patch in angles u = (polar, azimuth), polar away from 0, pi."""
    c = np.asarray(center, dtype=float)

    def chart(u):
        th, ph = float(u[0]), float(u[1])
        return c + radius * np.array(
            [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        )

    def du(u):
        th, ph = float(u[0]), float(u[1])
        out = np.empty((3, 2))
        out[:, 0] = radius * np.array(
            [math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), -math.sin(th)]
        )
        out[:, 1] = radius * np.array(
            [-math.sin(th) * math.sin(ph), math.sin(th) * math.cos(ph), 0.0]
        )
        return out

    return Hypersurface(
        dim_u=2, chart_map=chart, du=du, base_u=base_u, nu0=nu0, orientation=orientation
    )


def graph_surface(
    height: Callable[[Array], float],
    base_u: Tuple[float, float] = (0.0, 0.0),
    nu0: float = 1.0,
    orientation: float = 1.0,
) -> Hypersurface:
    """Graph x^3 = height(u^1, u^2); tangents come from differencing."""

    def chart(u):
        return np.array([u[0], u[1], float(height(u))])

    return Hypersurface(
        dim_u=2, chart_map=chart, base_u=base_u, nu0=nu0, orientation=orientation
    )
