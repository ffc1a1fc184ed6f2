"""Shared metric fixtures for the test suite.

Three chart metrics recur throughout: flat Euclidean, the conformally flat
metric exp(-2 f) * I with f = x^1, and the diagonal metric
diag(1, (x^1)^2, 1).  The curved ones carry analytic derivative closures so
finite-difference paths can be checked against them.
"""

import json
from pathlib import Path

import numpy as np

from normalshift.tensor_core import MetricField


def euclidean_metric(dim=3):
    eye = np.eye(dim)
    zero = np.zeros((dim, dim, dim))
    return MetricField(dim=dim, g=lambda x: eye.copy(), dg=lambda x: zero.copy())


def conformal_metric(dim=3, analytic=True):
    """g = exp(-2 x^1) * I."""

    def g(x):
        return np.exp(-2.0 * x[0]) * np.eye(dim)

    def dg(x):
        d = np.zeros((dim, dim, dim))
        d[0] = -2.0 * np.exp(-2.0 * x[0]) * np.eye(dim)
        return d

    return MetricField(dim=dim, g=g, dg=dg if analytic else None)


def wavy_conformal_metric(dim=3):
    """g = exp(-2 f) * I with f = 0.3 sin(x^1 + 2 x^2) + 0.1 x^3.

    A conformal factor with genuinely mixed partial derivatives, for tests
    where f = x^1 would be too forgiving.
    """

    def f(x):
        return 0.3 * np.sin(x[0] + 2.0 * x[1]) + 0.1 * x[2]

    def grad_f(x):
        c = 0.3 * np.cos(x[0] + 2.0 * x[1])
        return np.array([c, 2.0 * c, 0.1] + [0.0] * (dim - 3))

    def g(x):
        return np.exp(-2.0 * f(x)) * np.eye(dim)

    def dg(x):
        factor = np.exp(-2.0 * f(x))
        grad = grad_f(x)
        d = np.zeros((dim, dim, dim))
        for k in range(dim):
            d[k] = -2.0 * grad[k] * factor * np.eye(dim)
        return d

    return MetricField(dim=dim, g=g, dg=dg)


def diagonal_metric(analytic=True):
    """g = diag(1, (x^1)^2, 1); evaluate at x^1 > 0 only."""

    def g(x):
        return np.diag([1.0, x[0] ** 2, 1.0])

    def dg(x):
        d = np.zeros((3, 3, 3))
        d[0, 1, 1] = 2.0 * x[0]
        return d

    return MetricField(dim=3, g=g, dg=dg if analytic else None)


# the metric sections of the three kinds the CLI builds, all diagonal
CLI_METRICS = {
    "euclidean": {"kind": "euclidean"},
    "conformal": {"kind": "conformal", "f": "0.3*sin(x1 + 2*x2) + 0.1*x3"},
    "diagonal": {"kind": "diagonal", "entries": ["1 + 0.1*x1^2", "exp(0.2*x2)", "1 + 0.2*sin(x3)"]},
}


def cli_scenario(directory, **sections):
    """``cli.load_scenario`` of a scenario with these sections (a geodesic
    generator unless given), written to ``directory``."""
    from normalshift.cli import load_scenario

    path = Path(directory) / "scenario.json"
    path.write_text(json.dumps({"name": "s", "generator": {"kind": "geodesic"}, **sections}))
    return load_scenario(path)


def cli_metric(metric, directory):
    """``cli.build_metric`` of a scenario with this metric section."""
    from normalshift.cli import build_metric

    return build_metric(cli_scenario(directory, metric=metric))


def full_matrices(m):
    """The diagonal metric ``m`` with closures that return its full matrices
    and derivative cubes, unmarked, so every evaluator takes the general path."""
    eye = np.eye(m.dim)
    return MetricField(
        dim=m.dim,
        g=lambda x: np.asarray(m.g(x))[..., None] * eye,
        dg=m.dg and (lambda x: np.asarray(m.dg(x))[..., None] * eye),
        stacked=m.stacked,
    )


def hermite_curve_gap(a, b):
    """The largest gap in (x^1, x^2) from a recorded point of ``a`` to the
    same trajectory of ``b`` where it reaches the point's x^3 (which
    increases along every trajectory here), with the count of points
    compared.  ``b`` between its recorded states is the cubic Hermite of
    their positions and velocities, solved for x^3 by Newton steps."""
    worst, compared = 0.0, 0
    for xa, xb, vb in zip(a.x, b.x, b.v):
        assert np.all(np.diff(xb[:, 2]) > 0)
        level = xa[:, 2]
        j = np.searchsorted(xb[:, 2], level) - 1
        inside = (j >= 0) & (j < len(xb) - 1)
        j, level, compared = j[inside], level[inside], compared + int(inside.sum())
        h = (b.times[j + 1] - b.times[j])[:, None]
        p0, p1, m0, m1 = xb[j], xb[j + 1], vb[j] * h, vb[j + 1] * h

        def hermite(s):
            return ((2 * s**3 - 3 * s**2 + 1) * p0 + (s**3 - 2 * s**2 + s) * m0
                    + (3 * s**2 - 2 * s**3) * p1 + (s**3 - s**2) * m1)

        def slope(s):
            return (6 * s**2 - 6 * s) * (p0 - p1) + (3 * s**2 - 4 * s + 1) * m0 + (3 * s**2 - 2 * s) * m1

        s = ((level - p0[:, 2]) / (p1[:, 2] - p0[:, 2]))[:, None]
        for _ in range(6):
            s = s - ((hermite(s)[:, 2] - level) / slope(s)[:, 2])[:, None]
        on_b = hermite(s)
        assert np.all(np.abs(on_b[:, 2] - level) <= 1e-15)
        worst = max(worst, float(np.abs(on_b[:, :2] - xa[inside, :2]).max(initial=0.0)))
    return worst, compared


def random_point(rng, box):
    """Uniform draw from a box given as an (n, 2) array of [lo, hi] rows."""
    box = np.asarray(box, dtype=float)
    return box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(box.shape[0])


def random_velocity(rng, m, x, speed_lo=0.5, speed_hi=2.0):
    """Random velocity with metric modulus uniformly inside [lo, hi]."""
    from normalshift.tensor_core import metric_at

    while True:
        raw = rng.standard_normal(m.dim)
        norm = float(np.sqrt(raw @ metric_at(m, x) @ raw))
        if norm > 1e-6:
            break
    target = speed_lo + (speed_hi - speed_lo) * rng.random()
    return raw * (target / norm)


def pointwise_initial_state(gs, m, s, u_grid):
    """Initial speeds and normals of a shift family, one grid point at a time.

    The oracle of the family solve in ``shift_engine``: the per-point
    ``solve_nu`` and ``surface_normal`` that the library once ran in a loop
    over the grid, kept verbatim here.  Returns ``(nu, normals)``.
    """
    import math

    from normalshift.errors import DegenerateTangents, RootNotBracketed
    from normalshift.extended_fields import isotropic_speed_derivative
    from normalshift.force_builder import WV_FLOOR
    from normalshift.shift_engine import SOLVE_NU_ITERATIONS
    from normalshift.tensor_core import FD_STEP, central_partials, metric_at

    def surface_tangents(u):
        if s.du is not None:
            return np.asarray(s.du(u), dtype=float).T
        h = FD_STEP * max(1.0, float(np.max(np.abs(u))))
        return central_partials(s.chart_map, u, h, richardson=True)

    def surface_normal(u):
        x = np.asarray(s.chart_map(u), dtype=float)
        T = surface_tangents(u)
        g = metric_at(m, x)
        gram = T @ g @ T.T
        eigvals = np.linalg.eigvalsh(gram)
        if eigvals[0] < 1e-12 * max(1.0, eigvals[-1]):
            raise DegenerateTangents(f"tangent vectors nearly dependent at u = {u.tolist()}")
        _, _, vt = np.linalg.svd(T @ g)
        n_vec = vt[-1]
        n_vec = n_vec / math.sqrt(float(n_vec @ g @ n_vec))
        frame = np.vstack([T, n_vec])
        if np.linalg.det(frame) < 0.0:
            n_vec = -n_vec
        return float(s.orientation) * n_vec

    def solve_nu(u):
        x_base = np.asarray(s.chart_map(np.asarray(s.base_u, dtype=float)), dtype=float)
        x = np.asarray(s.chart_map(u), dtype=float)
        sigma0 = abs(float(s.nu0))
        w0 = float(gs.W.eval(x_base, sigma0))
        tol = 1e-12 * (1.0 + abs(w0))

        def gap(sigma):
            return float(gs.W.eval(x, sigma)) - w0

        scan = sigma0 * np.power(8.0, np.linspace(-1.0, 1.0, 25))
        values = np.array([gap(sig) for sig in scan])
        lo = hi = None
        best = np.inf
        for j in range(len(scan) - 1):
            if values[j] == 0.0:
                return math.copysign(float(scan[j]), s.nu0)
            if values[j] * values[j + 1] <= 0.0:
                distance = abs(math.log(scan[j] / sigma0))
                if distance < best:
                    best = distance
                    lo, hi = float(scan[j]), float(scan[j + 1])
        if lo is None:
            raise RootNotBracketed("no speed in the scan matches the surface value of W")
        g_lo = gap(lo)
        sigma = min(max(sigma0, lo), hi)
        for _ in range(SOLVE_NU_ITERATIONS):
            g_sig = gap(sigma)
            if abs(g_sig) < tol:
                return math.copysign(sigma, s.nu0)
            if g_lo * g_sig <= 0.0:
                hi = sigma
            else:
                lo, g_lo = sigma, g_sig
            wv = isotropic_speed_derivative(gs.W, x, sigma)
            step = g_sig / wv if abs(wv) >= WV_FLOOR else None
            candidate = sigma - step if step is not None else None
            if candidate is not None and lo < candidate < hi:
                sigma = candidate
            else:
                sigma = 0.5 * (lo + hi)
        raise RootNotBracketed("speed iteration failed to converge")

    u_grid = np.asarray(u_grid, dtype=float)
    nu = np.array([solve_nu(u) for u in u_grid])
    normals = np.array([surface_normal(u) for u in u_grid])
    return nu, normals


def quad_anchor_table(A_of_speed, speed_range=(0.05, 5.0)):
    """Anchor table of the nonmetrizable speed quadrature, one ``quad`` per segment.

    The oracle of the Gauss-Kronrod pass in ``force_builder``: the
    per-segment loop that ``builtin_nonmetrizable`` once ran, kept verbatim
    here.  Returns the cumulative integral of s / A(s) at the
    ``QUADRATURE_ANCHORS`` anchors, from the lowest one.
    """
    import warnings

    from scipy.integrate import IntegrationWarning, quad

    from normalshift.errors import QuadratureFailure
    from normalshift.force_builder import QUADRATURE_ANCHORS

    lo, hi = speed_range

    def integrand(s):
        return s / A_of_speed(s)

    last = QUADRATURE_ANCHORS - 1
    anchors = np.linspace(lo, hi, QUADRATURE_ANCHORS)
    segments = np.empty(last)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            for j in range(last):
                segments[j], _ = quad(integrand, anchors[j], anchors[j + 1])
    except Exception as exc:
        raise QuadratureFailure("adaptive quadrature of the speed profile failed") from exc
    return np.concatenate([[0.0], np.cumsum(segments)])


# How the acceptance battery runs its shift families (criteria 7-10):
# t in [0, 1] at dt = 1e-3, every tenth step sampled.
SHIFT_RUN = {"t_end": 1.0, "dt": 1e-3, "sample_stride": 10}


def shift_cases(points=7):
    """The four shift families of acceptance criteria 7-10, as
    ``{name: (generator, surface, grid, force_constant_nu)}``, each on a
    ``points`` x ``points`` chart grid spanning 0.3 in either direction.

    A plane and an inward sphere under the metrizable generator of
    W = |v| exp(-x^1) with h = 0, the plane again with nu forced constant (the
    control), and the plane with h = w.  They run on the Euclidean metric
    as :data:`SHIFT_RUN` says.
    """
    import math

    from normalshift.force_builder import builtin_metrizable, coordinate_scalar
    from normalshift.shift_engine import GridSpec, plane_surface, sphere_surface

    gs_h0 = builtin_metrizable(coordinate_scalar(0), H=lambda w: 0.0)
    gs_hw = builtin_metrizable(coordinate_scalar(0), H=lambda w: w)
    plane_grid = GridSpec(ranges=((-0.15, 0.15, points),) * 2)
    sphere_grid = GridSpec(
        ranges=((math.pi / 2 - 0.15, math.pi / 2 + 0.15, points), (-0.15, 0.15, points))
    )
    return {
        "plane_h0": (gs_h0, plane_surface(), plane_grid, False),
        "sphere_h0": (gs_h0, sphere_surface(orientation=-1.0), sphere_grid, False),
        "control": (gs_h0, plane_surface(), plane_grid, True),
        "plane_hw": (gs_hw, plane_surface(), plane_grid, False),
    }


# How the acceptance battery verifies its subjects (criteria 2 and 3): 200
# samples of the box [0.25, 1.25]^3 at seed 7, on the Euclidean metric.
VERIFY_RUN = {"box": [[0.25, 1.25]] * 3, "count": 200, "seed": 7}


def verify_cases():
    """The subjects of acceptance criteria 2 and 3, as ``{name: (subject,
    mode)}``, each verified as :data:`VERIFY_RUN` says.

    Criterion 2's are certified: the metrizable generator of
    W = |v| exp(-x^1) with h = w and the nonmetrizable one of A(v) = v^3
    over f = x^1, each in analytic and in finite-difference mode.
    Criterion 3's is the perturbed control: the metrizable generator's
    force field with |v| x^2 added to F_1, in analytic mode.
    """
    from normalshift.force_builder import (
        as_force_field,
        builtin_metrizable,
        builtin_nonmetrizable,
        coordinate_scalar,
        perturbed_field,
    )
    from normalshift.tensor_core import speed_at

    metrizable = builtin_metrizable(coordinate_scalar(0), H=lambda w: w)
    nonmetrizable = builtin_nonmetrizable(coordinate_scalar(0), lambda v: v**3)
    perturbed = perturbed_field(
        as_force_field(metrizable), 0, lambda m_, x, v: speed_at(m_, x, v) * x[1]
    )
    return {
        "metrizable_analytic": (metrizable, "analytic"),
        "metrizable_finite_diff": (metrizable, "finite-diff"),
        "nonmetrizable_analytic": (nonmetrizable, "analytic"),
        "nonmetrizable_finite_diff": (nonmetrizable, "finite-diff"),
        "perturbed": (perturbed, "analytic"),
    }
