"""Tests for the chart-level metric machinery."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from normalshift.errors import (
    AsymmetricMetric,
    DimensionTooSmall,
    NotPositiveDefinite,
    ZeroVelocity,
)
from normalshift.tensor_core import (
    FD_STEP,
    MetricField,
    _inverse3,
    _lapack_inverse,
    _multiply_back,
    _hessian_offsets,
    _reciprocal,
    by_rows,
    central_hessian,
    central_partials,
    christoffel_at,
    every,
    handing,
    identity,
    inverse_metric_at,
    inverse_metric_from,
    metric_at,
    metric_derivatives_at,
    scaled_step,
    speed_at,
    speed_from,
    unit_direction,
)

from helpers import (
    CLI_METRICS,
    cli_metric,
    conformal_metric,
    diagonal_metric,
    euclidean_metric,
    full_matrices,
    wavy_conformal_metric,
)


# points where every test metric is well-behaved (x^1 away from 0 for the
# diagonal one)
GOOD_POINTS = st.builds(
    np.array,
    st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=3, max_size=3),
)


def random_spd_metric(a):
    """Constant SPD metric built from an arbitrary square matrix."""
    a = np.asarray(a, dtype=float)
    gmat = a.T @ a + np.eye(a.shape[0])
    return MetricField(dim=a.shape[0], g=lambda x: gmat.copy())


def spd_stack(rng, k, kappa, n=3):
    """k symmetric positive-definite n x n matrices of 2-norm condition
    number ``kappa``, each in its own random frame and at its own scale
    in [1e-2, 1e2], symmetrized as the library symmetrizes metric values."""
    q, _ = np.linalg.qr(rng.standard_normal((k, n, n)))
    spread = np.concatenate([np.zeros((k, 1)), rng.random((k, n - 2)), np.ones((k, 1))], axis=1)
    eig = kappa**spread * 10.0 ** rng.uniform(-2.0, 2.0, size=(k, 1))
    g = (q * eig[:, None, :]) @ q.swapaxes(-1, -2)
    return 0.5 * (g + g.swapaxes(-1, -2))


def lapack_path(g):
    """The inverse and the multiply-back residual of every matrix of ``g``
    by symmetrized LAPACK, the path every n took before the cofactor one."""
    ginv = np.linalg.inv(g)
    ginv = 0.5 * (ginv + ginv.swapaxes(-1, -2))
    return ginv, np.abs(g @ ginv - np.eye(g.shape[-1])).max(axis=(-2, -1))


def accepted(g):
    """Whether ``inverse_metric_from`` takes the single matrix ``g``."""
    try:
        inverse_metric_from(g, np.zeros(g.shape[-1]))
    except NotPositiveDefinite:
        return False
    return True


class TestMetricAt:
    def test_euclidean_is_identity(self):
        m = euclidean_metric()
        assert np.array_equal(metric_at(m, np.zeros(3)), np.eye(3))

    def test_conformal_with_zero_exponent_is_identity(self):
        m = MetricField(dim=3, g=lambda x: np.exp(-2.0 * 0.0) * np.eye(3))
        assert np.allclose(metric_at(m, np.ones(3)), np.eye(3), atol=0, rtol=0)

    def test_conformal_point_value(self):
        # exp(-2 * 0.3) * I at x = (0.3, 0, 0); the factor cross-checked
        # against the scalar exponential directly
        m = conformal_metric()
        got = metric_at(m, np.array([0.3, 0.0, 0.0]))
        assert np.allclose(got, math.exp(-0.6) * np.eye(3), rtol=1e-15)

    def test_asymmetric_metric_rejected(self):
        skew = np.eye(3)
        skew[0, 1] = 1e-6
        m = MetricField(dim=3, g=lambda x: skew)
        with pytest.raises(AsymmetricMetric):
            metric_at(m, np.zeros(3))

    def test_tiny_asymmetry_is_symmetrized(self):
        skew = np.eye(3)
        skew[0, 1] = 1e-14
        m = MetricField(dim=3, g=lambda x: skew)
        got = metric_at(m, np.zeros(3))
        assert np.array_equal(got, got.T)

    def test_not_positive_definite_rejected(self):
        m = MetricField(dim=3, g=lambda x: np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(NotPositiveDefinite):
            metric_at(m, np.zeros(3))

    def test_dimension_below_three_rejected(self):
        with pytest.raises(DimensionTooSmall):
            MetricField(dim=2, g=lambda x: np.eye(2))

    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "pointwise"])
    @pytest.mark.parametrize(
        "entries",
        [[(1, 1)], [(0, 2), (2, 0)], [(0, 2)]],
        ids=["diagonal", "off-diagonal", "one-sided"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_non_finite_entry_names_its_point(self, bad, entries, stacked):
        # a non-finite entry leaves its point's asymmetry nan or inf, so the
        # asymmetry test catches it and reports it as not positive-definite
        x = np.arange(15.0).reshape(5, 3)

        def point(y):
            out = np.eye(3)
            if y[0] == 9.0:
                for ij in entries:
                    out[ij] = bad
            return out

        g = (lambda ys: np.array([point(y) for y in ys])) if stacked else point
        m = MetricField(dim=3, g=g, stacked=stacked)
        evaluators = (
            lambda at: metric_at(m, at),
            lambda at: speed_at(m, at, np.ones(at.shape)),
            lambda at: inverse_metric_at(m, at),
        )
        for at in (x, x[3]):
            for evaluate in evaluators:
                with pytest.raises(NotPositiveDefinite) as info:
                    evaluate(at)
                assert str(info.value) == f"metric not positive-definite at x={x[3]}"

    def test_non_finite_point_after_an_asymmetric_one_names_the_first(self):
        # the first offending point decides the error, as for finite values
        x = np.arange(9.0).reshape(3, 3)

        def g(y):
            out = np.eye(3)
            out[0, 1] = {3.0: 1e-6, 6.0: np.nan}.get(y[0], 0.0)
            return out

        m = MetricField(dim=3, g=g)
        with pytest.raises(AsymmetricMetric, match=re.escape(f"exceeds tolerance at x={x[1]}")):
            metric_at(m, x)
        with pytest.raises(NotPositiveDefinite, match=re.escape(f"at x={x[2]}")):
            metric_at(m, x[[0, 2, 1]])


class TestInverseMetric:
    def test_euclidean(self):
        m = euclidean_metric()
        assert np.allclose(inverse_metric_at(m, np.zeros(3)), np.eye(3))

    def test_conformal_inverse_is_scalar_inverse(self):
        m = conformal_metric()
        x = np.array([0.7, -0.2, 1.1])
        assert np.allclose(
            inverse_metric_at(m, x), math.exp(2.0 * 0.7) * np.eye(3), rtol=1e-12
        )

    @seed(7)
    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=st.floats(-2.0, 2.0)))
    def test_multiply_back_residual(self, a):
        m = random_spd_metric(a)
        x = np.zeros(3)
        prod = metric_at(m, x) @ inverse_metric_at(m, x)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-10

    @pytest.mark.parametrize("kappa", [1.0, 1e1, 1e2, 1e3, 1e4])
    def test_cofactor_inverse_matches_lapack(self, kappa):
        # the cofactor inverse is not backward stable: its gap to LAPACK's
        # grows as kappa^2 (on these stacks at most 0.06 kappa^2 ulp of the
        # largest entry for kappa >= 10, 1.6 ulp at kappa = 1); the bound
        # is 4 kappa^2 ulp
        g = spd_stack(np.random.default_rng(11), 500, kappa)
        got, want = _inverse3(g), lapack_path(g)[0]
        assert np.array_equal(got, got.swapaxes(-1, -2))
        gap = np.abs(got - want).max(axis=(-2, -1))
        ulp = np.finfo(float).eps * np.abs(want).max(axis=(-2, -1))
        assert np.all(gap <= 4.0 * kappa**2 * ulp)

    @pytest.mark.parametrize("kappa", [1e4, 1e5, 1e6, 1e7, 1e8])
    def test_no_metric_is_newly_rejected(self, kappa):
        g = spd_stack(np.random.default_rng(int(np.log10(kappa))), 1000, kappa)
        before = lapack_path(g)[1] < 1e-10
        now = np.array([accepted(gi) for gi in g])
        assert not np.any(before & ~now)
        # the few metrics near the threshold that are newly taken carry an
        # inverse that passes the multiply-back test, and every taken one
        # is the same alone and in a stack
        taken = g[now]
        ginv = inverse_metric_from(taken, np.zeros((len(taken), 3)))
        assert np.abs(taken @ ginv - np.eye(3)).max() < 1e-10
        for gi, row in zip(taken, ginv):
            assert np.array_equal(inverse_metric_from(gi, np.zeros(3)), row)

    def test_fallback_is_picked_per_row(self):
        # a metric whose cofactor inverse fails the multiply-back test but
        # whose LAPACK inverse passes, among well-conditioned ones
        candidates = spd_stack(np.random.default_rng(6), 200, 1e6)
        cofactor = np.abs(candidates @ _inverse3(candidates) - np.eye(3)).max(axis=(-2, -1))
        bad = candidates[np.argmax((cofactor >= 1e-10) & (lapack_path(candidates)[1] < 1e-10))]
        assert np.abs(bad @ _inverse3(bad) - np.eye(3)).max() >= 1e-10
        good = spd_stack(np.random.default_rng(7), 4, 10.0)
        g = np.concatenate([good[:2], bad[None], good[2:]])
        x = np.arange(15.0).reshape(5, 3)
        ginv = inverse_metric_from(g, x)
        for i in range(5):
            alone = inverse_metric_from(g[i], x[i])
            assert np.array_equal(ginv[i], alone)
            assert np.array_equal(inverse_metric_from(g[i : i + 1], x[i : i + 1])[0], alone)
            want = _lapack_inverse(g[i]) if i == 2 else _inverse3(g[i])
            assert np.array_equal(ginv[i], want)

    @pytest.mark.parametrize("n", [4, 5])
    def test_other_dimensions_keep_the_lapack_inverse(self, n):
        g = spd_stack(np.random.default_rng(n), 50, 1e3, n=n)
        want = lapack_path(g)[0]
        assert np.array_equal(inverse_metric_from(g, np.zeros((50, n))), want)
        assert np.array_equal(inverse_metric_from(g[3], np.zeros(n)), want[3])


def entries_stack(rng, k, kappa, n=3):
    """k diagonals of n positive entries whose ratio of largest to smallest
    is ``kappa``, each at its own scale in [1e-2, 1e2]: the diagonal
    counterpart of :func:`spd_stack`."""
    spread = np.concatenate([np.zeros((k, 1)), rng.random((k, n - 2)), np.ones((k, 1))], axis=1)
    return kappa**spread * 10.0 ** rng.uniform(-2.0, 2.0, size=(k, 1))


class TestDiagonalForm:
    """A metric its builder marks ``diagonal``: g gives the entries (..., n)
    and dg their derivatives (..., n, n); the evaluators give what the same
    closures give as full matrices."""

    @pytest.mark.parametrize("lead", [(), (7,), (2, 5)], ids=str)
    @pytest.mark.parametrize("kind", CLI_METRICS)
    def test_evaluators_equal_the_full_matrices(self, tmp_path, kind, lead):
        m = cli_metric(CLI_METRICS[kind], tmp_path)
        full = full_matrices(m)
        assert m.diagonal and not full.diagonal
        x = np.random.default_rng(3).uniform(-0.5, 0.5, lead + (3,))
        for fn in (metric_at, metric_derivatives_at, inverse_metric_at, christoffel_at):
            got, want = fn(m, x), fn(full, x)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_differenced_derivatives_without_dg(self):
        # dg(x)[m, i] = d g_ii / d x^m, every entry depending on two coordinates
        def g(x):
            return np.array([1.0 + x[0] ** 2 + x[1], np.exp(x[1]) * (1.0 + 0.1 * x[2]),
                             2.0 + np.sin(x[2]) + 0.1 * x[0]])

        def dg(x):
            e = np.exp(x[1])
            return np.array([[2.0 * x[0], 0.0, 0.1],
                             [1.0, e * (1.0 + 0.1 * x[2]), 0.0],
                             [0.0, 0.1 * e, np.cos(x[2])]])

        x = np.array([0.3, -0.4, 0.9])
        analytic = metric_derivatives_at(MetricField(dim=3, g=g, dg=dg, diagonal=True), x)
        differenced = metric_derivatives_at(MetricField(dim=3, g=g, diagonal=True), x)
        assert np.allclose(differenced, analytic, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4, 1e8, 1e16, 1e100])
    def test_reciprocal_multiply_back_is_one_ulp_per_entry(self, kappa):
        # g (1/g) rounds to 1 or to the float just below it, at every
        # condition; that is the full matrices' multiply-back, entry for entry
        g = entries_stack(np.random.default_rng(int(np.log10(kappa))), 1000, kappa)
        inv = _reciprocal(g, np.zeros_like(g))
        product = g * inv
        assert np.all((product == 1.0) | (product == np.nextafter(1.0, 0.0)))
        eye = np.eye(3)
        back = _multiply_back(g[..., None] * eye, inv[..., None] * eye)
        assert np.array_equal(back, np.abs(product - 1.0)[..., None] * eye)

    def test_reciprocal_that_overflows_is_named(self):
        # only an entry whose reciprocal overflows fails the test
        g = np.ones((4, 3))
        g[2, 1] = 1e-309
        x = np.arange(12.0).reshape(4, 3)
        with pytest.raises(NotPositiveDefinite) as info:
            _reciprocal(g, x)
        assert str(info.value) == (
            f"metric too ill-conditioned to invert: residual inf at x={x[2]}"
        )

    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "pointwise"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf], ids=str)
    def test_bad_entry_names_its_point(self, bad, stacked):
        x = np.arange(15.0).reshape(5, 3)

        def entries(y):
            return np.where(y[..., [0]] == 9.0, [1.0, bad, 1.0], 1.0)

        m = MetricField(dim=3, g=entries, stacked=stacked, diagonal=True)
        for at in (x, x[3]):
            with pytest.raises(NotPositiveDefinite) as info:
                metric_at(m, at)
            assert str(info.value) == f"metric not positive-definite at x={x[3]}"
        if -np.inf < bad <= 0.0:  # the general path names it alike
            with pytest.raises(NotPositiveDefinite) as info:
                metric_at(full_matrices(m), x)
            assert str(info.value) == f"metric not positive-definite at x={x[3]}"

    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "pointwise"])
    def test_closure_of_the_wrong_shape_names_the_expected_one(self, stacked):
        # closures written for full matrices and derivative cubes
        x = np.arange(6.0).reshape(2, 3)
        lead = (2,) if stacked else ()
        m = MetricField(
            dim=3, g=lambda y: np.eye(3) * np.ones(y.shape[:-1] + (1, 1)),
            dg=lambda y: np.zeros(y.shape[:-1] + (3, 3, 3)), stacked=stacked, diagonal=True,
        )
        with pytest.raises(AsymmetricMetric, match=re.escape(f"expected {lead + (3,)} at x=")):
            metric_at(m, x)
        with pytest.raises(AsymmetricMetric, match=re.escape(f"expected {lead + (3, 3)} at x=")):
            metric_derivatives_at(m, x)


class TestChristoffel:
    def test_flat_metric_vanishes(self):
        m = euclidean_metric()
        gamma = christoffel_at(m, np.array([0.4, 1.0, -2.0]))
        assert np.array_equal(gamma, np.zeros((3, 3, 3)))

    @seed(11)
    @settings(max_examples=25, deadline=None)
    @given(GOOD_POINTS)
    def test_conformal_closed_form(self, x):
        # For g = exp(-2 f) * delta on a flat background the connection is
        # gamma^k_ij = -d_i f delta^k_j - d_j f delta^k_i + delta_ij d_k f.
        # Here f = x^1, so df = (1, 0, 0).
        m = conformal_metric()
        gamma = christoffel_at(m, x)
        df = np.array([1.0, 0.0, 0.0])
        expected = np.zeros((3, 3, 3))
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    expected[k, i, j] = (
                        -df[i] * (k == j) - df[j] * (k == i) + (i == j) * df[k]
                    )
        assert np.allclose(gamma, expected, atol=1e-12)

    def test_diagonal_metric_values(self):
        # Hand evaluation for diag(1, (x^1)^2, 1), frozen from a symbolic
        # cross-check: gamma^2_12 = gamma^2_21 = 1/x^1, gamma^1_22 = -x^1,
        # everything else zero.  At x^1 = 2 the nonzero values are 1/2, -2.
        m = diagonal_metric()
        gamma = christoffel_at(m, np.array([2.0, 0.3, -1.0]))
        expected = np.zeros((3, 3, 3))
        expected[1, 0, 1] = expected[1, 1, 0] = 0.5
        expected[0, 1, 1] = -2.0
        assert np.allclose(gamma, expected, atol=1e-13)

    @pytest.mark.parametrize(
        "make", [conformal_metric, diagonal_metric], ids=["conformal", "diagonal"]
    )
    def test_finite_difference_matches_analytic(self, make):
        analytic = make(analytic=True)
        fd = make(analytic=False)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = 0.5 + rng.random(3)
            ga = christoffel_at(analytic, x)
            gf = christoffel_at(fd, x)
            assert np.max(np.abs(ga - gf)) < 1e-6

    @seed(13)
    @settings(max_examples=25, deadline=None)
    @given(GOOD_POINTS)
    def test_lower_index_symmetry_exact(self, x):
        m = wavy_conformal_metric()
        gamma = christoffel_at(m, x)
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


class TestCentralPartials:
    """The one central-difference stencil behind every vector derivative."""

    def test_scaled_step(self):
        # FD_STEP, or the base, times max(1, max|a|) over the last axis, per point
        a = np.array([[0.5, -0.2, 0.1], [3.0, -4.0, 0.5]])
        assert np.array_equal(scaled_step(a), [FD_STEP, 4.0 * FD_STEP])
        assert scaled_step(np.array([-2.0]), 0.25) == 0.5
        assert scaled_step(a[:, None, :1], 0.25).shape == (2, 1)

    def test_quadratic_is_exact_without_richardson(self):
        q = np.array([[2.0, 0.5, -1.0], [0.5, 1.0, 0.3], [-1.0, 0.3, 3.0]])
        b = np.array([0.7, -1.2, 0.4])
        x = np.array([0.3, -0.8, 1.1])
        got = central_partials(lambda y: y @ q @ y + b @ y + 5.0, x, 1e-3)
        assert got.shape == (3,)
        assert np.allclose(got, 2.0 * q @ x + b, rtol=0, atol=1e-11)

    def test_quartic_is_exact_with_richardson(self):
        def quartic(y):
            return y[0] ** 4 + 2.0 * y[1] ** 3 * y[2] - y[0] * y[2] ** 2

        x = np.array([0.9, -0.4, 1.3])
        want = np.array(
            [4.0 * x[0] ** 3 - x[2] ** 2, 6.0 * x[1] ** 2 * x[2], 2.0 * x[1] ** 3 - 2.0 * x[0] * x[2]]
        )
        h = 1e-2
        plain = central_partials(quartic, x, h)
        # the plain stencil keeps the third-derivative term h^2 f^(3) / 6 = 4 h^2 x^1 along x^1
        assert plain[0] - want[0] == pytest.approx(4.0 * h**2 * x[0], rel=1e-6)
        assert np.allclose(central_partials(quartic, x, h, richardson=True), want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("richardson", [False, True])
    def test_stack_gives_the_per_point_rows(self, richardson):
        def fn(y):
            return np.sin(y[..., 0] * y[..., 1]) + np.exp(0.3 * y[..., 2])

        xs = np.random.default_rng(41).uniform(-1.0, 1.0, size=(5, 3))
        got = central_partials(fn, xs, 1e-4, richardson=richardson)
        assert got.shape == (3, 5)
        for i, x in enumerate(xs):
            assert np.array_equal(got[:, i], central_partials(fn, x, 1e-4, richardson=richardson))

    @pytest.mark.parametrize("richardson", [False, True])
    def test_per_state_steps_give_the_per_point_rows(self, richardson):
        # a stack is one call of fn on all its offsets, each state with its own step
        calls = []

        def fn(y):
            calls.append(y.shape)
            return np.sin(y[..., 0] * y[..., 1]) + np.exp(0.3 * y[..., 2])

        xs = np.random.default_rng(47).uniform(-1.0, 1.0, size=(4, 2, 3))
        steps = 1e-4 * (1.0 + np.arange(8.0)).reshape(4, 2)
        got = central_partials(fn, xs, steps, richardson=richardson)
        assert calls == [(4, 2, 12 if richardson else 6, 3)]
        assert got.shape == (3, 4, 2)
        for i in range(4):
            for j in range(2):
                want = central_partials(fn, xs[i, j], steps[i, j], richardson=richardson)
                assert np.array_equal(got[:, i, j], want)

    def test_matrix_values_lead_with_the_partial_axis(self):
        # fn(y) = y y^T + I, so d fn_ij / d y^k = delta_ki y_j + y_i delta_kj
        def outer(y):
            return y[..., :, None] * y[..., None, :] + np.eye(3)

        xs = np.random.default_rng(43).uniform(0.5, 1.5, size=(4, 3))
        got = central_partials(outer, xs, FD_STEP, richardson=True)
        assert got.shape == (3, 4, 3, 3)
        eye = np.eye(3)
        want = (
            eye[:, None, :, None] * xs[None, :, None, :] + xs[None, :, :, None] * eye[:, None, None, :]
        )
        assert np.allclose(got, want, rtol=0, atol=1e-9)
        # metric derivatives D[..., m, i, j] are this stack with m moved to axis -3
        m = MetricField(dim=3, g=outer, stacked=True)
        assert np.allclose(metric_derivatives_at(m, xs), np.moveaxis(want, 0, -3), rtol=0, atol=1e-9)


class TestCentralHessian:
    """The second-difference stencil of every differenced fiber Hessian."""

    @staticmethod
    def smooth(y):
        return np.sin(y[..., 0] * y[..., 1]) + np.exp(0.3 * y[..., -1]) * y[..., 1]

    @pytest.mark.parametrize("n,values", [(3, 37), (4, 65)])
    def test_stack_is_one_call_on_all_offsets(self, n, values):
        calls = []

        def fn(y):
            calls.append(y.shape)
            return self.smooth(y)

        xs = np.random.default_rng(51).uniform(-1.0, 1.0, size=(5, n))
        got = central_hessian(fn, xs, 1e-3 * (1.0 + np.arange(5.0)))
        assert calls == [(5, values, n)]
        assert got.shape == (n, n, 5)

    def test_single_point_calls_once_per_offset(self):
        calls = []

        def fn(y):
            calls.append(y.shape)
            return float(y @ y)

        got = central_hessian(fn, np.array([0.3, -0.2, 0.9]), 1e-2)
        assert calls == [(3,)] * 37
        assert got.shape == (3, 3)

    def test_stack_gives_the_per_point_hessians(self):
        xs = np.random.default_rng(52).uniform(-1.0, 1.0, size=(4, 2, 3))
        steps = 1e-3 * (1.0 + np.arange(8.0)).reshape(4, 2)
        got = central_hessian(self.smooth, xs, steps)
        assert got.shape == (3, 3, 4, 2)
        for i in range(4):
            for j in range(2):
                want = central_hessian(self.smooth, xs[i, j], steps[i, j])
                assert np.array_equal(got[:, :, i, j], want)

    def test_exactly_symmetric(self):
        xs = np.random.default_rng(53).uniform(-1.0, 1.0, size=(6, 4))
        got = central_hessian(self.smooth, xs, 3e-3)
        assert np.array_equal(got, got.swapaxes(0, 1))

    @pytest.mark.parametrize("n", [3, 4])
    def test_quadratic_is_exact(self, n):
        rng = np.random.default_rng(54)
        q = rng.normal(size=(n, n))
        q = q + q.T
        b = rng.normal(size=n)
        xs = rng.uniform(-1.0, 1.0, size=(6, n))

        def quadratic(y):
            return np.einsum("...i,ij,...j->...", y, q, y) + y @ b + 5.0

        got = central_hessian(quadratic, xs, 0.25)
        assert np.allclose(np.moveaxis(got, -1, 0), 2.0 * q, rtol=0, atol=1e-11)
        assert np.allclose(central_hessian(quadratic, xs[0], 0.25), 2.0 * q, rtol=0, atol=1e-11)

    def test_quartic_is_exact_with_one_richardson_level(self):
        # the h^2 error term of each stencil holds fourth derivatives, which
        # are constant for a quartic and cancel in (4 fine - coarse) / 3
        def quartic(y):
            return y[0] ** 4 + 2.0 * y[1] ** 3 * y[2] - y[0] * y[2] ** 2 + (y[0] * y[1]) ** 2

        x = np.array([0.9, -0.4, 1.3])
        want = np.array([
            [12.0 * x[0] ** 2 + 2.0 * x[1] ** 2, 4.0 * x[0] * x[1], -2.0 * x[2]],
            [4.0 * x[0] * x[1], 12.0 * x[1] * x[2] + 2.0 * x[0] ** 2, 6.0 * x[1] ** 2],
            [-2.0 * x[2], 6.0 * x[1] ** 2, -2.0 * x[0]],
        ])
        assert np.allclose(central_hessian(quartic, x, 0.1), want, rtol=0, atol=1e-10)

    def test_vector_values_follow_the_hessian_axes(self):
        # fn(y) = (y0 y1, y2^2): out[r, s, ..., c] = d^2 fn_c / d y^r d y^s
        def pair(y):
            return np.stack([y[..., 0] * y[..., 1], y[..., 2] ** 2], axis=-1)

        xs = np.random.default_rng(55).uniform(-1.0, 1.0, size=(4, 3))
        got = central_hessian(pair, xs, 0.1)
        assert got.shape == (3, 3, 4, 2)
        want = np.zeros((3, 3, 2))
        want[0, 1, 0] = want[1, 0, 0] = 1.0
        want[2, 2, 1] = 2.0
        assert np.allclose(got, want[:, :, None, :], rtol=0, atol=1e-12)

    def test_offsets_are_one_read_only_table_per_dimension(self):
        table = _hessian_offsets(3)
        assert table is _hessian_offsets(3) and not table.flags.writeable
        assert table.shape == (18, 3) and _hessian_offsets(4).shape == (32, 4)
        eye = np.eye(3)
        assert np.array_equal(table[:6], np.stack([eye, -eye], axis=1).reshape(6, 3))
        assert np.array_equal(table[6:10], [[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0]])
        assert len(np.unique(table, axis=0)) == 18


class TestUnitDirection:
    def test_axis_aligned(self):
        m = euclidean_metric()
        pr = unit_direction(m, np.zeros(3), np.array([2.0, 0.0, 0.0]))
        assert np.allclose(pr.N_up, [1.0, 0.0, 0.0])
        assert np.allclose(pr.P, np.diag([0.0, 1.0, 1.0]))
        assert pr.speed == pytest.approx(2.0)

    def test_diagonal_direction(self):
        m = euclidean_metric()
        pr = unit_direction(m, np.zeros(3), np.array([1.0, 1.0, 0.0]))
        root = 1.0 / math.sqrt(2.0)
        assert np.allclose(pr.N_up, [root, root, 0.0])
        assert np.max(np.abs(pr.P @ pr.P - pr.P)) < 1e-15
        assert np.max(np.abs(pr.P @ pr.N_up)) < 1e-15

    def test_conformal_speed_and_direction(self):
        # |v|^2 = exp(-2) for v = (1,0,0) at x = (1,0,0), so N^1 = e
        m = conformal_metric()
        pr = unit_direction(m, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert pr.speed == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert pr.N_up[0] == pytest.approx(math.e, rel=1e-14)

    def test_zero_velocity_rejected(self):
        m = euclidean_metric()
        with pytest.raises(ZeroVelocity):
            unit_direction(m, np.zeros(3), np.zeros(3))

    @seed(17)
    @settings(max_examples=60, deadline=None)
    @given(
        GOOD_POINTS,
        arrays(np.float64, (3,), elements=st.floats(-3.0, 3.0)).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
    )
    def test_projector_invariants(self, x, v):
        for m in (euclidean_metric(), wavy_conformal_metric(), diagonal_metric()):
            pr = unit_direction(m, x, v)
            gmat = metric_at(m, x)
            assert np.max(np.abs(pr.P @ pr.P - pr.P)) < 1e-10
            assert np.trace(pr.P) == pytest.approx(2.0, abs=1e-10)
            assert np.max(np.abs(pr.P @ pr.N_up)) < 1e-10
            assert pr.N_up @ gmat @ pr.N_up == pytest.approx(1.0, abs=1e-10)
            assert np.allclose(pr.N_down, gmat @ pr.N_up)


class TestStacks:
    """Stacks of points (..., n) against the same points one at a time."""

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "differenced"])
    def test_stack_matches_points(self, analytic):
        m = wavy_conformal_metric() if analytic else conformal_metric(analytic=False)
        rng = np.random.default_rng(29)
        x = 0.5 + rng.random((2, 4, 3))
        v = rng.uniform(-1.0, 1.0, size=(2, 4, 3))
        g = metric_at(m, x)
        ginv = inverse_metric_at(m, x)
        gamma = christoffel_at(m, x)
        pr = unit_direction(m, x, v)
        speed = speed_at(m, x, v)
        assert g.shape == ginv.shape == pr.P.shape == (2, 4, 3, 3)
        assert gamma.shape == (2, 4, 3, 3, 3)
        assert pr.speed.shape == speed.shape == (2, 4)
        for idx in np.ndindex(2, 4):
            one = unit_direction(m, x[idx], v[idx])
            assert np.allclose(g[idx], metric_at(m, x[idx]), rtol=1e-15, atol=0)
            assert np.allclose(ginv[idx], inverse_metric_at(m, x[idx]), rtol=1e-14, atol=0)
            assert np.allclose(gamma[idx], christoffel_at(m, x[idx]), rtol=0, atol=1e-13)
            assert np.allclose(pr.P[idx], one.P, rtol=0, atol=1e-14)
            assert np.allclose(pr.N_down[idx], one.N_down, rtol=1e-14, atol=0)
            assert speed[idx] == pytest.approx(one.speed, rel=1e-14)
            assert pr.speed[idx] == pytest.approx(one.speed, rel=1e-14)
        lowered = np.einsum("...ij,...j->...i", g, v)
        assert np.allclose(np.einsum("...ij,...j->...i", ginv, lowered), v, rtol=0, atol=1e-12)

    def test_stack_calls_the_closures_once_per_point(self):
        calls = []

        def g(x):
            calls.append(x.copy())
            return np.eye(3)

        m = MetricField(dim=3, g=g, dg=lambda x: np.zeros((3, 3, 3)))
        x = np.arange(12.0).reshape(4, 3)
        metric_at(m, x)
        assert np.array_equal(np.array(calls), x)

    def test_point_closures_once_per_row_of_a_family(self):
        # a family (k, n) is not scanned for repeats
        calls = []

        def g(x):
            calls.append(x.copy())
            return np.eye(3)

        def dg(x):
            calls.append(x.copy())
            return np.zeros((3, 3, 3))

        m = MetricField(dim=3, g=g, dg=dg)
        family = np.repeat(np.arange(6.0).reshape(2, 3), 3, axis=0)
        for evaluate in (metric_at, metric_derivatives_at):
            calls.clear()
            evaluate(m, family)
            assert np.array_equal(np.array(calls), family)

    def test_stack_changed_in_place_is_evaluated_again(self):
        # no values are kept between calls, so an in-place change of the
        # caller's array is seen, by the stack and by a single point alike
        m = MetricField(dim=3, g=lambda x: (1.0 + x[0] ** 2) * np.eye(3))
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.array_equal(metric_at(m, x)[:, 0, 0], [1.0, 2.0])
        x[:, 0] = [2.0, 3.0]
        assert np.array_equal(metric_at(m, x)[:, 0, 0], [5.0, 10.0])
        assert metric_at(m, np.array([2.0, 0.0, 0.0]))[0, 0] == 5.0

    def test_handed_values_are_read_only(self):
        # inside a handoff the handed copy and its rows, as by_rows passes
        # them, read the handed values, which may not be written, and the
        # copy may not be written either; the caller's arrays stay
        # writable, and so does a fresh evaluation
        m = MetricField(dim=3, g=lambda x: (1.0 + x[0] ** 2) * np.eye(3))
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        gmat = metric_at(m, x)

        def write(g):
            g[..., 0, 0] = 7.0
            return 0.0

        with handing(m, x, gmat) as (handed, _):
            with pytest.raises(ValueError):
                write(metric_at(m, handed))
            with pytest.raises(ValueError):
                by_rows(lambda xi: write(metric_at(m, xi)), handed)
            with pytest.raises(ValueError):
                handed[1, 0] = 7.0
            for fresh in (metric_at(m, 2.0 * x), metric_at(m, x), metric_at(m, handed[1])):
                write(fresh)
        assert gmat.flags.writeable and x.flags.writeable
        assert metric_at(m, x[1])[0, 0] == 2.0
        fresh = metric_at(m, x)
        fresh[..., 0, 0] = 7.0
        assert metric_at(m, x)[1, 0, 0] == 2.0

    def test_failure_names_first_offending_point(self):
        # positive-definite only where x^1 > 0
        m = MetricField(dim=3, g=lambda x: np.diag([1.0, x[0], 1.0]))
        x = np.array([[1.0, 0.0, 0.0], [-1.0, 5.0, 0.0], [-2.0, 7.0, 0.0]])
        with pytest.raises(NotPositiveDefinite, match=r"x=\[-1\.\s+5\."):
            metric_at(m, x)
        with pytest.raises(NotPositiveDefinite, match=r"x=\[-1\.\s+5\."):
            christoffel_at(m, x)

    def test_asymmetry_and_shape_checked_per_point(self):
        def skewed(x):
            out = np.eye(3)
            out[0, 1] = 1e-6 * x[2]
            return out

        m = MetricField(dim=3, g=skewed)
        with pytest.raises(AsymmetricMetric, match=r"x=\[0\.\s+0\.\s+3\."):
            metric_at(m, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]]))
        bad_dg = MetricField(dim=3, g=lambda x: np.eye(3), dg=lambda x: np.zeros((3, 3)))
        with pytest.raises(AsymmetricMetric, match="dg closure returned shape"):
            christoffel_at(bad_dg, np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "bad",
        [np.eye(2), [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], None],
        ids=["wrong-shape", "ragged-list", "not-numeric"],
    )
    def test_bad_value_at_one_row_names_that_row(self, bad):
        # the values of a stack are assembled in one pass; only a bad one
        # sends them through the per-point check, which names its point
        x = np.arange(15.0).reshape(5, 3)
        k = 3

        def g(y):
            return bad if np.array_equal(y, x[k]) else np.eye(3)

        m = MetricField(dim=3, g=g)
        with pytest.raises(AsymmetricMetric, match=r"x=\[ 9\.\s+10\.\s+11\.\]"):
            metric_at(m, x)
        # the same point alone is checked alike
        with pytest.raises(AsymmetricMetric, match=r"x=\[ 9\.\s+10\.\s+11\.\]"):
            metric_at(m, x[k])

    def test_closure_errors_pass_through_unchanged(self):
        class Boom(Exception):
            pass

        def g(y):
            if y[0] > 5.0:
                raise Boom("closure failed")
            return np.eye(3)

        with pytest.raises(Boom, match="closure failed"):
            metric_at(MetricField(dim=3, g=g), np.arange(12.0).reshape(4, 3))

    def test_zero_velocity_in_stack_named(self):
        m = euclidean_metric()
        x = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        v = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ZeroVelocity, match=r"x=\[0\.\s+2\."):
            unit_direction(m, x, v)


def conditioned_metrics(rng, dim, condition, scale, count):
    """``count`` exactly symmetric positive-definite matrices of condition
    number ``condition`` and size ``scale``, in random orientations."""
    out = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        lam = scale * np.geomspace(1.0, condition, dim)
        a = (q * lam) @ q.T
        out.append(0.5 * (a + a.T))
    return np.array(out)


class TestPointKernels:
    """The single-state paths call numpy's kernels directly and round as the
    stack paths do."""

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_speed_at_one_state_is_its_stack_row_bit_for_bit(self, dim):
        # v.dot(g).dot(v) runs the gemv and ddot kernels of the stack
        # products, and math.sqrt rounds as np.sqrt does
        rng = np.random.default_rng(dim)
        for condition in (1.0, 1e2, 1e4, 1e6, 1e8):
            for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
                table = conditioned_metrics(rng, dim, condition, scale, 40)
                m = MetricField(dim=dim, g=lambda x: table[int(x[0])])
                x = np.zeros((40, dim))
                x[:, 0] = np.arange(40)
                v = rng.normal(size=(40, dim)) * np.geomspace(1e-3, 1e3, 40)[:, None]
                stack = speed_at(m, x, v)
                gmat = metric_at(m, x)
                for i in range(40):
                    point = speed_at(m, x[i], v[i])
                    assert type(point) is float
                    one_row = speed_from(gmat[i][None], v[i][None])[0]
                    assert point == stack[i] == one_row, (condition, scale, i)

    def test_speed_at_one_state_takes_np_sqrt_of_a_negative(self):
        # an indefinite matrix can only be handed, never checked; its
        # negative square gives nan with numpy's warning, not an exception
        m = euclidean_metric()
        x, v = np.zeros(3), np.array([1.0, 0.0, 0.0])
        with handing(m, x, -np.eye(3)) as (x, _), pytest.warns(RuntimeWarning, match="invalid value"):
            assert math.isnan(speed_at(m, x, v))
        assert math.isnan(speed_at(m, x, np.array([math.nan, 0.0, 0.0])))

    def test_identity_is_cached_read_only(self):
        eye = identity(4)
        assert eye is identity(4)
        assert np.array_equal(eye, np.eye(4)) and eye.dtype == np.float64
        with pytest.raises(ValueError):
            eye[0, 1] = 1.0
        # results built from it are new, writable arrays
        pr = unit_direction(euclidean_metric(), np.zeros(3), np.array([1.0, 2.0, 2.0]))
        pr.P[0, 0] = 5.0
        assert np.array_equal(identity(3), np.eye(3))

    def test_every_is_all(self):
        rng = np.random.default_rng(3)
        for shape in [(), (0,), (5,), (4, 3), (2, 3, 4)]:
            for p in (0.0, 0.5, 0.99, 1.0):
                mask = rng.random(shape) < p
                assert every(mask) == bool(mask.all())
        assert every(np.isfinite(np.float64(1.0))) and not every(np.isfinite(np.float64(math.nan)))
