import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from normalshift import normality_verifier
from normalshift.errors import DegenerateWv, EvaluationFailure
from normalshift.extended_fields import ExtendedScalar, IsotropicScalar, fiber_hessian
from normalshift.force_builder import (
    AnsatzField,
    ForceField,
    GeneratingScalar,
    ansatz_from_generator,
    ansatz_scalar,
    as_force_field,
    builtin_geodesic,
    builtin_metrizable,
    builtin_nonmetrizable,
    coordinate_scalar,
    perturbed_field,
)
from normalshift import normality_verifier
from normalshift.normality_verifier import (
    MODES,
    NormalityReport,
    SampleSpec,
    halton,
    residual_additional1,
    residual_additional2,
    residual_eq124,
    residual_reduced,
    residual_weak1,
    residual_weak2,
    sample_states,
    verify,
)
from normalshift.tensor_core import (
    FD_STEP,
    MetricField,
    direction_from,
    inverse_metric_at,
    metric_at,
    scaled_step,
    speed_at,
    unit_direction,
)

from helpers import (
    diagonal_metric,
    euclidean_metric,
    random_point,
    random_velocity,
    wavy_conformal_metric,
)

BOX = [[0.25, 1.25], [0.25, 1.25], [0.25, 1.25]]


def zero_field():
    return ForceField(eval=lambda m, x, v: np.zeros(3))


def metrizable_flat_h():
    return as_force_field(builtin_metrizable(coordinate_scalar(0), H=lambda w: 0.0))


def metrizable_linear_h():
    return as_force_field(builtin_metrizable(coordinate_scalar(0), H=lambda w: w))


def nonmetrizable_cubic():
    return as_force_field(
        builtin_nonmetrizable(coordinate_scalar(0), lambda s: s**3)
    )


def perturbed_control():
    return perturbed_field(
        metrizable_linear_h(), 1, lambda m, x, v: speed_at(m, x, v) * x[1]
    )


def sample_pairs(m, count, seed):
    rng = np.random.default_rng(seed)
    return [
        (random_point(rng, BOX), random_velocity(rng, m, random_point(rng, BOX)))
        for _ in range(count)
    ]


class TestWeakEquations:
    def test_zero_field_zero_residuals(self):
        m = euclidean_metric()
        x = np.array([0.7, 0.4, 1.2])
        v = np.array([0.9, -0.5, 0.6])
        assert np.array_equal(residual_weak1(zero_field(), m, x, v), np.zeros(3))
        assert np.array_equal(residual_weak2(zero_field(), m, x, v), np.zeros(3))

    def test_geodesic_field_zero_residuals(self):
        m = diagonal_metric()
        ff = as_force_field(builtin_geodesic())
        x = np.array([1.7, 0.4, -0.2])
        v = np.array([0.9, 0.5, 0.6])
        assert np.array_equal(residual_weak1(ff, m, x, v), np.zeros(3))
        assert np.array_equal(residual_weak2(ff, m, x, v), np.zeros(3))

    @pytest.mark.parametrize("mode,tol", [("analytic", 1e-9), ("finite-diff", 1e-5)])
    def test_certified_field_small_residuals(self, mode, tol):
        m = euclidean_metric()
        ff = metrizable_flat_h()
        for x, v in sample_pairs(m, 15, 5):
            assert np.max(np.abs(residual_weak1(ff, m, x, v, mode=mode))) < tol
            assert np.max(np.abs(residual_weak2(ff, m, x, v, mode=mode))) < tol

    def test_perturbed_field_violates_weak2(self):
        m = euclidean_metric()
        ff = perturbed_control()
        worst = 0.0
        for x, v in sample_pairs(m, 10, 9):
            worst = max(worst, float(np.max(np.abs(residual_weak2(ff, m, x, v)))))
        assert worst > 1e-3

    def test_velocity_proportional_field_violates_weak2(self):
        # F_k = x^1 v_k is a scalar-ansatz field whose coefficient a = x^1 |v|
        # fails the reduced a-equation, and the failure surfaces here
        m = euclidean_metric()
        ff = ForceField(
            eval=lambda m_, x_, v_: np.einsum("ij,j->i", metric_at(m_, x_), v_) * x_[0]
        )
        x = np.array([0.7, 0.4, 1.2])
        v = np.array([0.9, -0.5, 0.6])
        assert np.max(np.abs(residual_weak2(ff, m, x, v))) > 1e-3


class TestConstantBump:
    """A non-certified field whose residuals are known in closed form: the
    certified metrizable field plus a constant covector B on the Euclidean
    metric.

    B adds 2 P B / |v| = 2 (B - (B.N) N) / |v| to the weak-1 residual, which
    is linear in F and its fiber derivative, and B has none.  The fiber
    derivative of the sum is the base's, so additional-2 stays at the
    certified level.  The field has no derivative closures, so both modes
    difference it; over 200 states (seeds 0-9) the weak-1 gap to the closed
    form was at most 2.5e-10 of 2|B|/|v|, from differencing the base force,
    and additional-2 at most 3.9e-11."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("c", [0.3, -2.0])
    def test_weak1_is_twice_the_projected_bump_over_the_speed(self, mode, c):
        m = euclidean_metric()
        ff = perturbed_field(metrizable_linear_h(), 0, lambda m_, x, v: c)
        B = np.array([c, 0.0, 0.0])
        for x, v in sample_pairs(m, 20, 5):
            pr = unit_direction(m, x, v)
            closed = 2.0 * (B - (B @ pr.N_up) * pr.N_down) / pr.speed
            gap = np.max(np.abs(residual_weak1(ff, m, x, v, mode=mode) - closed))
            assert gap <= 2e-9 * (2.0 * abs(c) / pr.speed)
            assert np.max(np.abs(residual_additional2(ff, m, x, v, mode=mode))) < 1e-9


class TestAdditionalConditions:
    def test_zero_field_zero_residuals(self):
        m = euclidean_metric()
        x = np.array([0.7, 0.4, 1.2])
        v = np.array([0.9, -0.5, 0.6])
        assert np.array_equal(residual_additional1(zero_field(), m, x, v), np.zeros((3, 3)))
        assert np.array_equal(residual_additional2(zero_field(), m, x, v), np.zeros((3, 3)))

    @pytest.mark.parametrize("mode,tol", [("analytic", 1e-9), ("finite-diff", 1e-5)])
    def test_certified_fields_small_residuals(self, mode, tol):
        m = euclidean_metric()
        for ff in (nonmetrizable_cubic(), metrizable_linear_h()):
            for x, v in sample_pairs(m, 10, 13):
                assert np.max(np.abs(residual_additional1(ff, m, x, v, mode=mode))) < tol
                assert np.max(np.abs(residual_additional2(ff, m, x, v, mode=mode))) < tol

    def test_perturbed_field_violates_first_condition(self):
        m = euclidean_metric()
        ff = perturbed_control()
        worst = 0.0
        for x, v in sample_pairs(m, 10, 17):
            worst = max(worst, float(np.max(np.abs(residual_additional1(ff, m, x, v)))))
        assert worst > 1e-3

    def test_velocity_proportional_field_lies_in_first_condition_kernel(self):
        # both terms of the condition are annihilated by the projectors for
        # fields proportional to the covariant velocity
        m = euclidean_metric()
        ff = ForceField(
            eval=lambda m_, x_, v_: np.einsum("ij,j->i", metric_at(m_, x_), v_) * x_[0]
        )
        x = np.array([0.7, 0.4, 1.2])
        v = np.array([0.9, -0.5, 0.6])
        assert np.max(np.abs(residual_additional1(ff, m, x, v))) < 1e-10

    def test_linear_velocity_field_violates_second_condition(self):
        m = euclidean_metric()
        mat = np.array([[0.3, -0.7, 0.2], [0.5, 0.1, -0.4], [-0.2, 0.6, 0.8]])
        ff = ForceField(eval=lambda m_, x_, v_: mat @ v_)
        x = np.array([0.7, 0.4, 1.2])
        v = np.array([0.9, -0.5, 0.6])
        assert np.max(np.abs(residual_additional2(ff, m, x, v))) > 1e-3

    def test_antisymmetry_of_first_condition_residual(self):
        m = diagonal_metric()
        ff = perturbed_control()
        x = np.array([1.7, 0.4, -0.2])
        v = np.array([0.9, 0.5, 0.6])
        r = residual_additional1(ff, m, x, v)
        assert np.array_equal(r, -r.T)



# The four equations in index notation, each an explicit einsum over one
# state or a stack: F_k the force, Dv[r, k] = dF_k/dv^r, Dx[r, k] its
# covariant x^r-derivative, N = v/|v|, P^i_k = delta^i_k - N^i N_k (row =
# upper index) and F^j = g^jk F_k.


def index_frame(g, v):
    speed = np.sqrt(np.einsum("...ij,...i,...j->...", g, v, v))[..., None]
    n_up = v / speed
    proj = np.eye(v.shape[-1]) - np.einsum("...i,...j,...jk->...ik", n_up, n_up, g)
    return speed, n_up, proj


def index_weak1(F, Dv, Dx, v, g, ginv):
    # (F_i/|v| + d(N^j F_j)/dv^i) P^i_k, with dN^j/dv^i = P^j_i/|v|
    s, N, P = index_frame(g, v)
    inner = F / s + np.einsum("...ji,...j->...i", P, F) / s + np.einsum("...ij,...j->...i", Dv, N)
    return np.einsum("...i,...ik->...k", inner, P)


def index_weak2(F, Dv, Dx, v, g, ginv):
    # [(Dx_ij + Dx_ji - 2 F_i F_j/|v|^2) N^j + (F^j Dv_ji - N^r Dv_jr N^j F_i)/|v|] P^i_k
    s, N, P = index_frame(g, v)
    F_up = np.einsum("...jk,...k->...j", ginv, F)
    sym = (np.einsum("...ij,...j->...i", Dx, N) + np.einsum("...ji,...j->...i", Dx, N)
           - 2.0 * np.einsum("...i,...j,...j->...i", F, F, N) / s**2)
    drift = (np.einsum("...j,...ji->...i", F_up, Dv)
             - np.einsum("...r,...jr,...j,...i->...i", N, Dv, N, F)) / s
    return np.einsum("...i,...ik->...k", sym + drift, P)


def index_additional1(F, Dv, Dx, v, g, ginv):
    # G_ab = P^r_a (F_r v^q Dv_qk/|v|^2 - Dx_rk) P^k_b, antisymmetrized
    s, N, P = index_frame(g, v)
    K = np.einsum("...r,...q,...qk->...rk", F, v, Dv) / s[..., None] ** 2 - Dx
    G = np.einsum("...ra,...rk,...kb->...ab", P, K, P)
    return G - np.swapaxes(G, -1, -2)


def index_additional2(F, Dv, Dx, v, g, ginv):
    # M_ab = P^r_b (Dv_rk g^ks) P^a_s less its trace over (n - 1) times P^a_b
    s, N, P = index_frame(g, v)
    M = np.einsum("...rb,...rk,...ks,...as->...ab", P, Dv, ginv, P)
    trace = np.einsum("...aa->...", M) / (v.shape[-1] - 1)
    return M - trace[..., None, None] * P


def index_eq124(H, v, g, ginv):
    # with S = (H + H^T)/2 and p^rs = g^rs - N^r N^s:
    # lambda = p^rs S_rs / (n - 1),  R_ab = P^r_a S_rs p^sb - lambda P^b_a
    s, N, P = index_frame(g, v)
    S = 0.5 * (H + np.einsum("...rs->...sr", H))
    p_up = ginv - np.einsum("...r,...s->...rs", N, N)
    lam = np.einsum("...rs,...rs->...", p_up, S) / (v.shape[-1] - 1)
    R = np.einsum("...ra,...rs,...sb->...ab", P, S, p_up) - lam[..., None, None] * np.einsum(
        "...ba->...ab", P
    )
    return R, lam


def index_reduced(c, c_p, grad):
    # L_s b_r = d_s b_r + b_s b'_r;  b-residual_rs = L_s b_r - L_r b_s and
    # a-residual_s = d_s a + b_s a' - a b'_s, with c = (a, b), c_p = c' and
    # grad[s, i] = d_s c_i at fixed speed
    a, b = c[..., 0], c[..., 1:]
    a_p, b_p = c_p[..., 0], c_p[..., 1:]
    da, db = grad[..., :, 0], grad[..., :, 1:]
    L = db + np.einsum("...s,...r->...sr", b, b_p)
    b_res = np.einsum("...sr->...rs", L) - L
    a_res = da + np.einsum("...s,...->...s", b, a_p) - np.einsum("...,...s->...s", a, b_p)
    return b_res, a_res


class TestKernelsAgainstIndexNotation:
    """Each equation kernel against its equation in index notation, on random
    states (F, Dv, Dx, v, g) rather than on fields."""

    @pytest.mark.parametrize(
        "kernel,statement",
        [
            (normality_verifier._weak1, index_weak1),
            (normality_verifier._weak2, index_weak2),
            (normality_verifier._additional1, index_additional1),
            (normality_verifier._additional2, index_additional2),
        ],
        ids=["weak1", "weak2", "additional1", "additional2"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_is_its_equation(self, kernel, statement, seed):
        rng = np.random.default_rng(seed)
        k = 2000
        a = rng.uniform(-0.5, 0.5, size=(k, 3, 3))
        g = a @ a.swapaxes(-1, -2) + np.eye(3)
        ginv = np.linalg.inv(g)
        v = rng.normal(size=(k, 3))
        v *= (rng.uniform(0.5, 2.0, k) / np.sqrt(np.einsum("...ij,...i,...j->...", g, v, v)))[:, None]
        F = rng.uniform(-1.0, 1.0, (k, 3))
        Dv, Dx = rng.uniform(-1.0, 1.0, (2, k, 3, 3))
        got = kernel(F, Dv, Dx, direction_from(g, np.zeros((k, 3)), v), ginv)
        want = statement(F, Dv, Dx, v, g, ginv)
        # measured on seeds 0-4: at most 8.2e-16 of the largest entry
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_projected_hessian_kernel_is_its_equation(self, seed):
        rng = np.random.default_rng(seed)
        k = 2000
        a = rng.uniform(-0.5, 0.5, size=(k, 3, 3))
        g = a @ a.swapaxes(-1, -2) + np.eye(3)
        ginv = np.linalg.inv(g)
        v = rng.normal(size=(k, 3))
        v *= (rng.uniform(0.5, 2.0, k) / np.sqrt(np.einsum("...ij,...i,...j->...", g, v, v)))[:, None]
        H = rng.uniform(-1.0, 1.0, (k, 3, 3))  # not symmetric: the kernel takes its symmetric part
        got = normality_verifier._eq124(H, direction_from(g, np.zeros((k, 3)), v), ginv)
        want = index_eq124(H, v, g, ginv)
        # measured on seeds 0-4: at most 7.3e-16 (residual) and 4.3e-16
        # (lambda) of the largest entry
        for got_part, want_part in zip(got, want):
            assert np.abs(got_part - want_part).max() <= 1e-14 * np.abs(want_part).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduced_kernel_is_its_equation(self, seed):
        rng = np.random.default_rng(seed)
        k = 2000
        c, c_p = rng.uniform(-1.0, 1.0, (2, k, 4))
        grad = rng.uniform(-1.0, 1.0, (k, 3, 4))
        got = normality_verifier._reduced(c, c_p, grad)
        want = index_reduced(c, c_p, grad)
        # measured on seeds 0-4: equal, the same elementwise operations
        for got_part, want_part in zip(got, want):
            assert np.abs(got_part - want_part).max() <= 1e-14 * np.abs(want_part).max()


class TestProjectedHessian:
    def test_speed_only_scalar(self):
        # A = |v|^2 has fiber Hessian 2 g, whose projected trace-free part
        # vanishes, and lambda = a'/|v| = 2
        m = euclidean_metric()
        A = ExtendedScalar(eval=lambda x, v: float(v @ v))
        x = np.array([0.3, 0.8, 0.5])
        v = np.array([0.9, -0.5, 0.6])
        res, lam = residual_eq124(A, m, x, v)
        assert np.max(np.abs(res)) < 1e-6
        assert lam == pytest.approx(2.0, abs=1e-6)

    def test_linear_in_velocity_scalar(self):
        # A = sum b_i(|v|) v^i gives lambda = sum b_i' N^i
        m = euclidean_metric()

        def b_funcs(s):
            return np.array([math.sin(s), s * s, 1.0])

        def b_primes(s):
            return np.array([math.cos(s), 2.0 * s, 0.0])

        A = ExtendedScalar(
            eval=lambda x, v: float(b_funcs(float(np.linalg.norm(v))) @ v)
        )
        x = np.array([0.3, 0.8, 0.5])
        v = np.array([0.9, -0.5, 0.6])
        res, lam = residual_eq124(A, m, x, v)
        pr = unit_direction(m, x, v)
        assert np.max(np.abs(res)) < 1e-5
        assert lam == pytest.approx(float(b_primes(pr.speed) @ pr.N_up), abs=1e-5)

    def test_angular_dependence_rejected(self):
        m = euclidean_metric()
        A = ExtendedScalar(eval=lambda x, v: float(v[0]) ** 2)
        x = np.array([0.3, 0.8, 0.5])
        v = np.array([0.9, -0.5, 0.6])
        res, _ = residual_eq124(A, m, x, v)
        assert np.max(np.abs(res)) > 1e-3

    def test_random_isotropic_forms_pass(self):
        # randomly generated A = a(x,|v|) + sum b_i(x,|v|) v^i, differenced
        # with no structural shortcuts
        m = euclidean_metric()
        rng = np.random.default_rng(29)
        for _ in range(20):
            c = rng.uniform(-0.6, 0.6, size=8)

            def a_fn(x, s, c=c):
                return c[0] * math.sin(x[0] + c[1] * s) + c[2] * x[1] * s * s

            def b_fn(x, s, c=c):
                return np.array(
                    [
                        c[3] * math.cos(x[2] + c[4] * s),
                        c[5] * s,
                        c[6] + c[7] * x[0] * s,
                    ]
                )

            def a_eval(x, v):
                s = float(np.linalg.norm(v))
                return a_fn(x, s) + float(b_fn(x, s) @ v)

            A = ExtendedScalar(eval=a_eval)
            x = random_point(rng, BOX)
            v = random_velocity(rng, m, x)
            res, _ = residual_eq124(A, m, x, v)
            assert np.max(np.abs(res)) < 1e-5


def test_eq124_rounds_any_layout_of_H_as_a_single_state():
    # the same fiber Hessians as a non-contiguous view, as their C-order
    # copy and one state at a time give the same residuals and lambda bits
    m = wavy_conformal_metric()
    states = sample_states(SampleSpec(box=BOX, count=64, seed=21, mode="finite-diff"), m)
    x, v = states[:, 0], states[:, 1]
    gmat = metric_at(m, x)
    pr, ginv = direction_from(gmat, x, v), inverse_metric_at(m, x)
    q = np.random.default_rng(21).normal(size=3)
    H = fiber_hessian(lambda u: np.sin(u @ q) + np.sum(u * u, axis=-1) ** 0.75, v)
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(H, (1, 2), (0, 1))), (0, 1), (1, 2))
    assert not view.flags.c_contiguous and np.array_equal(view, H)
    res, lam = normality_verifier._eq124(view, pr, ginv)
    res_c, lam_c = normality_verifier._eq124(np.ascontiguousarray(view), pr, ginv)
    assert np.array_equal(res, res_c) and np.array_equal(lam, lam_c)
    for i in range(len(x)):
        one_res, one_lam = normality_verifier._eq124(
            view[i], direction_from(gmat[i], x[i], v[i]), ginv[i]
        )
        assert np.array_equal(one_res, res[i]) and one_lam == lam[i]


class TestReducedEquations:
    def test_certified_coefficients_pass(self):
        m = euclidean_metric()
        gs = builtin_metrizable(coordinate_scalar(0), H=lambda w: w)
        af = ansatz_from_generator(gs)
        rng = np.random.default_rng(31)
        for _ in range(10):
            x = random_point(rng, BOX)
            s = rng.uniform(0.5, 2.0)
            b_res, a_res = residual_reduced(af, m, x, s)
            assert np.max(np.abs(b_res)) < 1e-5
            assert np.max(np.abs(a_res)) < 1e-5

    def test_position_free_coefficients_vanish_exactly(self):
        m = euclidean_metric()
        a = IsotropicScalar(eval=lambda x, s: math.sin(s))
        b = tuple(IsotropicScalar(eval=lambda x, s: 0.0) for _ in range(3))
        b_res, a_res = residual_reduced(AnsatzField(a=a, b=b), m, np.ones(3), 1.3)
        assert np.array_equal(b_res, np.zeros((3, 3)))
        assert np.array_equal(a_res, np.zeros(3))

    def test_commutator_counterexample(self):
        # b_1 = x^2: the operators L_1 and L_2 fail to commute, with
        # residual entry of magnitude exactly one
        m = euclidean_metric()
        a = IsotropicScalar(eval=lambda x, s: 0.0)
        b = (
            IsotropicScalar(eval=lambda x, s: float(x[1])),
            IsotropicScalar(eval=lambda x, s: 0.0),
            IsotropicScalar(eval=lambda x, s: 0.0),
        )
        b_res, _ = residual_reduced(AnsatzField(a=a, b=b), m, np.array([0.2, 0.7, 0.4]), 1.1)
        assert b_res[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert b_res[1, 0] == pytest.approx(-1.0, abs=1e-9)
        assert np.array_equal(b_res, -b_res.T)

    def test_position_dependent_a_with_zero_b_fails(self):
        m = euclidean_metric()
        a = IsotropicScalar(eval=lambda x, s: float(x[0]))
        b = tuple(IsotropicScalar(eval=lambda x, s: 0.0) for _ in range(3))
        _, a_res = residual_reduced(AnsatzField(a=a, b=b), m, np.ones(3), 1.3)
        assert np.allclose(a_res, [1.0, 0.0, 0.0], atol=1e-9)


# the counts where a digit of base 2, 3, 5 or 7 starts to vary: b^k - 1, b^k
# and b^k + 1 for every power b^k up to 1,000
BOUNDARY_COUNTS = sorted(
    {b**k + e for b in (2, 3, 5, 7) for k in range(1, 10) if b**k <= 1000 for e in (-1, 0, 1)}
)


class TestSampling:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 9, 11])
    def test_halton_is_scipys_sequence_bit_for_bit(self, d):
        from scipy.stats import qmc

        for seed_ in (0, 1, 123, 99991, 2**31 - 2):
            for n in (1, 50, 200, 1000):
                expected = qmc.Halton(d=d, scramble=True, seed=seed_).random(n)
                assert np.array_equal(halton(d, n, seed_), expected), (d, seed_, n)

    @pytest.mark.parametrize("d", [4, 7])
    def test_halton_is_scipys_sequence_at_the_digit_boundaries(self, d):
        from scipy.stats import qmc

        for seed_ in (0, 21):
            for n in BOUNDARY_COUNTS:
                expected = qmc.Halton(d=d, scramble=True, seed=seed_).random(n)
                assert np.array_equal(halton(d, n, seed_), expected), (d, seed_, n)

    @pytest.mark.parametrize("d,n", [(1, 1), (7, 50), (7, 200), (3, 1000)])
    def test_halton_is_a_c_ordered_n_by_d_array(self, d, n):
        # a transposed view compares equal, but the sampled directions
        # round differently in speed_from's products
        points = halton(d, n, 3)
        assert points.shape == (n, d) and points.flags.c_contiguous and points.flags.owndata

    def test_digit_tables_are_read_only_and_built_once(self):
        # halton's plan is shared by every call in its dimension, so none
        # of its tables may be written
        plan = normality_verifier._digit_tables(3)
        assert normality_verifier._digit_tables(3) is plan
        for table in plan[1:]:
            with pytest.raises(ValueError):
                table.flat[0] = 1
        first = halton(7, 50, 5)
        plan = normality_verifier._digit_tables(7)
        built = normality_verifier._digit_tables.cache_info().misses
        # the first 50 points do not depend on how many are drawn
        assert np.array_equal(halton(7, 200, 5)[:50], first)
        assert normality_verifier._digit_tables.cache_info().misses == built
        assert normality_verifier._digit_tables(7) is plan
        assert all(not table.flags.writeable for table in plan[1:])

    def test_states_respect_box_and_speed_range(self):
        m = diagonal_metric()
        spec = SampleSpec(box=[[0.5, 1.5], [0.1, 0.9], [-1.0, 1.0]], count=64, seed=3)
        states = sample_states(spec, m)
        assert len(states) == 64
        for x, v in states:
            assert 0.5 <= x[0] <= 1.5 and 0.1 <= x[1] <= 0.9 and -1.0 <= x[2] <= 1.0
            assert 0.5 - 1e-12 <= speed_at(m, x, v) <= 2.0 + 1e-12

    def test_states_are_deterministic(self):
        m = euclidean_metric()
        spec = SampleSpec(box=BOX, count=16, seed=11)
        first = sample_states(spec, m)
        second = sample_states(spec, m)
        for (x1, v1), (x2, v2) in zip(first, second):
            assert np.array_equal(x1, x2) and np.array_equal(v1, v2)

    @pytest.mark.parametrize("metric_fn", [diagonal_metric, wavy_conformal_metric])
    def test_stacked_states_match_pointwise_construction(self, metric_fn):
        # the point-wise construction: one unit_direction call per state
        m = metric_fn()
        box = np.array([[0.5, 1.5], [0.1, 0.9], [-1.0, 1.0]])
        spec = SampleSpec(box=box, count=64, seed=5, speed_range=(0.3, 3.0))
        from scipy.stats import qmc

        u = qmc.Halton(d=7, scramble=True, seed=5).random(64)
        expected = []
        for row in u:
            x = box[:, 0] + row[:3] * (box[:, 1] - box[:, 0])
            raw = ndtri(np.clip(row[3:6], 1e-12, 1.0 - 1e-12))
            target = 0.3 + 2.7 * row[6]
            expected.append((x, raw * (target / unit_direction(m, x, raw).speed)))
        states = sample_states(spec, m)
        assert len(states) == len(expected)
        for (x, v), (x_ref, v_ref) in zip(states, expected):
            assert np.array_equal(x, x_ref)
            assert np.max(np.abs(v - v_ref)) <= 1e-15 * np.max(np.abs(v_ref))
        again = sample_states(spec, m)
        for (x, v), (x2, v2) in zip(states, again):
            assert np.array_equal(x, x2) and np.array_equal(v, v2)

    def test_vanishing_direction_replaced(self, monkeypatch):
        # a Gaussian direction too short to normalize becomes (1, ..., 1)
        def ndtri_first_zero(p):
            z = ndtri(p)
            z[0] = 0.0
            return z

        monkeypatch.setattr(normality_verifier, "ndtri", ndtri_first_zero)
        m = euclidean_metric()
        states = sample_states(SampleSpec(box=BOX, count=4, seed=2), m)
        v = states[0][1]
        assert np.allclose(v, v[0]) and v[0] > 0.0
        assert 0.5 <= speed_at(m, states[0][0], v) <= 2.0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SampleSpec(box=BOX, mode="symbolic")

    @pytest.mark.parametrize(
        "field,value",
        [("count", 2.5), ("count", 0), ("count", "3"), ("count", np.float64(4.0)),
         ("seed", -1), ("seed", 1.5), ("seed", None)],
    )
    def test_count_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            SampleSpec(box=BOX, **{field: value})
        SampleSpec(box=BOX, **{field: np.int64(3)})

    def test_bad_box_rejected(self):
        m = euclidean_metric()
        with pytest.raises(ValueError):
            sample_states(SampleSpec(box=[[0.0, 1.0]]), m)

    @pytest.mark.parametrize(
        "field,value", [("count", True), ("seed", True), ("seed", False)]
    )
    def test_a_bool_is_not_a_count_or_seed(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a \w+ integer, got {value!r}$"):
            SampleSpec(box=BOX, **{field: value})

    @pytest.mark.parametrize(
        "box",
        [[[math.nan, 1.0]] * 3, [[0.0, math.inf]] * 3, [[0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0]],
         [0.0, 1.0], [["a", 1.0]] * 3],
        ids=["nan", "inf", "ragged", "flat", "not-numeric"],
    )
    def test_box_must_hold_finite_pairs(self, box):
        with pytest.raises(
            ValueError, match=r"^box must be a list of finite \[lo, hi\] pairs, got "
        ):
            SampleSpec(box=box)

    @pytest.mark.parametrize(
        "box", [[[1.0, 0.0]] * 3, [[0.0, 1.0], [0.5, 0.5], [0.0, 1.0]]], ids=["reversed", "empty"]
    )
    def test_box_needs_lo_below_hi(self, box):
        with pytest.raises(ValueError, match=r"^box must have lo < hi in every pair, got "):
            SampleSpec(box=box)

    @pytest.mark.parametrize(
        "speed_range",
        [(2.0, 1.0), (0.0, 1.0), (0.5, math.inf), (math.nan, 2.0), (0.5, math.nan)],
        ids=["reversed", "zero", "inf", "nan-lo", "nan-hi"],
    )
    def test_speed_range_must_be_finite_positive_and_ordered(self, speed_range):
        with pytest.raises(
            ValueError,
            match=r"^speed_range must be finite, positive and ordered, got "
            + re.escape(repr(speed_range)) + "$",
        ):
            SampleSpec(box=BOX, speed_range=speed_range)

    @pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(
            ValueError, match=f"^tolerance must be positive and finite, got {tolerance!r}$"
        ):
            SampleSpec(box=BOX, tolerance=tolerance)
        assert SampleSpec(box=BOX, tolerance=1e-3).resolved_tolerance() == 1e-3
        assert SampleSpec(box=BOX, mode="finite-diff").resolved_tolerance() == 1e-5

    def test_report_needs_a_sample(self):
        with pytest.raises(ValueError, match="^sample_count must be at least 1$"):
            NormalityReport(*[0.0] * 7, lambda_samples=np.zeros(0), sample_count=0,
                            tolerance_used=1e-8, passed=True)


class TestVerify:
    def test_geodesic_report_is_exactly_zero(self):
        m = euclidean_metric()
        report = verify(builtin_geodesic(), m, SampleSpec(box=BOX, count=100))
        assert report.r_weak1 == 0.0
        assert report.r_weak2 == 0.0
        assert report.r_add1 == 0.0
        assert report.r_add2 == 0.0
        assert report.r_eq124 == 0.0
        assert report.r_reduced_b == 0.0
        assert report.r_reduced_a == 0.0
        assert np.array_equal(report.lambda_samples, np.zeros(100))
        assert report.passed

    @pytest.mark.parametrize(
        "make", [lambda: builtin_metrizable(coordinate_scalar(0), H=lambda w: w),
                 lambda: builtin_nonmetrizable(coordinate_scalar(0), lambda s: s**3)]
    )
    def test_certified_generators_pass_analytic(self, make):
        m = euclidean_metric()
        report = verify(make(), m, SampleSpec(box=BOX, count=60, seed=1))
        assert report.passed, report.residuals()
        assert report.tolerance_used == 1e-8
        assert len(report.lambda_samples) == 60

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dim", [4, 5])
    @pytest.mark.parametrize(
        "make", [lambda: builtin_metrizable(coordinate_scalar(0), H=lambda w: w),
                 lambda: builtin_nonmetrizable(coordinate_scalar(1), lambda s: s**3)],
        ids=["metrizable", "nonmetrizable"],
    )
    def test_coordinate_generators_pass_beyond_three_dimensions(self, make, dim, mode):
        # coordinate_scalar's x-partials take the chart's dimension from x
        spec = SampleSpec(box=[[0.25, 1.25]] * dim, count=40, seed=3, mode=mode)
        report = verify(make(), euclidean_metric(dim), spec)
        assert report.passed, report.residuals()

    def test_certified_generator_passes_differenced(self):
        m = euclidean_metric()
        gs = builtin_metrizable(coordinate_scalar(0), H=lambda w: w)
        report = verify(gs, m, SampleSpec(box=BOX, count=40, seed=2, mode="finite-diff"))
        assert report.passed, report.residuals()
        assert report.tolerance_used == 1e-5

    def test_perturbed_field_fails(self):
        m = euclidean_metric()
        report = verify(
            perturbed_control(), m, SampleSpec(box=BOX, count=40, seed=4, mode="finite-diff")
        )
        assert report.r_weak2 > 1e-3
        assert not report.passed
        assert report.r_reduced_b == 0.0 and report.r_reduced_a == 0.0

    def test_reports_are_deterministic(self):
        m = euclidean_metric()
        gs = builtin_metrizable(coordinate_scalar(0), H=lambda w: w)
        spec = SampleSpec(box=BOX, count=25, seed=8)
        one = verify(gs, m, spec)
        two = verify(gs, m, spec)
        assert one.residuals() == two.residuals()
        assert np.array_equal(one.lambda_samples, two.lambda_samples)

    def test_report_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NormalityReport(
                r_weak1=-1.0,
                r_weak2=0.0,
                r_add1=0.0,
                r_add2=0.0,
                r_eq124=0.0,
                r_reduced_b=0.0,
                r_reduced_a=0.0,
                lambda_samples=np.zeros(1),
                sample_count=1,
                tolerance_used=1e-8,
                passed=True,
            )


def random_conformal_metric(c, stacked, analytic):
    """g = exp(-2 f) I with f = c0 x^1 + c1 x^2 + c2 x^3 + c3 sin(x^1 x^2)."""

    def f(x):
        return c[0] * x[..., 0] + c[1] * x[..., 1] + c[2] * x[..., 2] + c[3] * np.sin(x[..., 0] * x[..., 1])

    def g(x):
        return np.exp(-2.0 * f(x))[..., None, None] * np.eye(3)

    def dg(x):
        grad_f = np.stack(
            [
                c[0] + c[3] * x[..., 1] * np.cos(x[..., 0] * x[..., 1]),
                c[1] + c[3] * x[..., 0] * np.cos(x[..., 0] * x[..., 1]),
                c[2] + 0.0 * x[..., 2],
            ],
            axis=-1,
        )
        return -2.0 * grad_f[..., :, None, None] * g(x)[..., None, :, :]

    return MetricField(dim=3, g=g, dg=dg if analytic else None, stacked=stacked)


class TestStackedVerify:
    """verify evaluates every sample, and every finite-difference offset, as one stack."""

    @seed(53)
    @settings(max_examples=12, deadline=None)
    @given(
        c=st.lists(st.floats(-0.6, 0.6), min_size=4, max_size=4),
        stacked=st.booleans(),
        analytic=st.booleans(),
        halton=st.integers(0, 2**16),
    )
    def test_geodesic_is_exactly_zero_on_random_conformal_metrics(self, c, stacked, analytic, halton):
        m = random_conformal_metric(c, stacked, analytic)
        for mode in MODES:
            report = verify(builtin_geodesic(), m, SampleSpec(box=BOX, count=12, seed=halton, mode=mode))
            assert all(value == 0.0 for value in report.residuals().values()), report.residuals()
            assert np.array_equal(report.lambda_samples, np.zeros(12))
            assert report.passed

    @pytest.mark.parametrize("mode", MODES)
    def test_point_only_field_gives_the_stacked_report(self, mode):
        # an unmarked field is adapted by rows and never receives a stack
        stacked = perturbed_control()
        assert stacked.stacked

        def one_state(m_, x, v):
            if np.ndim(x) != 1 or np.ndim(v) != 1:
                raise TypeError("this field takes one state")
            return stacked.eval(m_, x, v)

        m = wavy_conformal_metric()
        spec = SampleSpec(box=BOX, count=10, seed=12, mode=mode)
        rows = verify(ForceField(eval=one_state), m, spec)
        stack = verify(stacked, m, spec)
        assert rows.residuals() == stack.residuals()
        assert np.array_equal(rows.lambda_samples, stack.lambda_samples)
        assert rows.passed == stack.passed

    @pytest.mark.parametrize("mode", MODES)
    def test_failure_at_a_later_samples_offset_names_it(self, mode):
        # W = |v| with h = 0, whose speed derivative is NaN at exactly one
        # position: sample 5 moved by its difference step along x^1
        m = euclidean_metric()
        spec = SampleSpec(box=BOX, count=12, seed=9, mode=mode)
        states = sample_states(spec, m)
        x5, v5 = states[5]
        target = x5[0] + FD_STEP * max(1.0, float(np.max(np.abs(x5))))
        steps = FD_STEP * np.maximum(1.0, np.max(np.abs(states[:, 0]), axis=1))
        others = np.delete(states[:, 0, 0][:, None] + np.array([-1.0, 0.0, 1.0]) * steps[:, None], 5, 0)
        assert np.min(np.abs(others - target)) > 1e-9

        def dspeed(x, s):
            return np.where(np.abs(x[..., 0] - target) < 1e-12, np.nan, np.ones(np.shape(s)))

        gs = GeneratingScalar(
            W=IsotropicScalar(
                eval=lambda x, s: np.asarray(s, dtype=float),
                dx=lambda x, s: np.zeros(np.shape(x)),
                dspeed=dspeed,
                stacked=True,
            ),
            h=lambda w: 0.0,
        )
        with pytest.raises(EvaluationFailure) as info:
            verify(gs, m, spec)
        message = str(info.value)
        assert message.startswith(f"sample 5 at x = {x5.tolist()}, v = {v5.tolist()}: ")
        assert "non-finite" in message

    @pytest.mark.parametrize("mode", MODES)
    def test_pointwise_metric_is_evaluated_once_per_position(self, mode):
        # the samples' positions once, and in finite-diff mode their 2n
        # position offsets once; velocity offsets reuse the metric at x, and
        # the control's field and its point-wise bump read the metric
        # handed to them
        calls = []
        base = euclidean_metric()

        def counted():
            return MetricField(dim=3, g=lambda x: calls.append(1) or base.g(x), dg=base.dg)

        count = 8
        spec = SampleSpec(box=BOX, count=count, seed=4, mode=mode)
        verify(builtin_metrizable(coordinate_scalar(0), H=lambda w: w), counted(), spec)
        assert len(calls) == (count if mode == "analytic" else 7 * count)
        calls.clear()
        verify(perturbed_control(), counted(), spec)
        # the samples, which F, Dv and the Hessian at x reuse, then Dx at
        # the 2n position offsets
        assert len(calls) == 7 * count


def half_degenerate_generator():
    """W = |v| max(x^1 - 0.75, 0) + x^2: W_v vanishes where x^1 <= 0.75."""
    return GeneratingScalar(
        W=IsotropicScalar(
            eval=lambda x, s: s * max(float(x[0]) - 0.75, 0.0) + float(x[1]),
            dx=lambda x, s: np.array([s if x[0] > 0.75 else 0.0, 1.0, 0.0]),
            dspeed=lambda x, s: max(float(x[0]) - 0.75, 0.0),
        ),
        h=lambda w: 0.0,
    )


class TestVerifyFailures:
    @pytest.mark.parametrize("mode", ["analytic", "finite-diff"])
    def test_degenerate_wv_names_the_sample(self, mode):
        m = euclidean_metric()
        spec = SampleSpec(box=BOX, count=40, seed=3, mode=mode)
        states = sample_states(spec, m)
        first = next(i for i, (x, _) in enumerate(states) if x[0] <= 0.75)
        # earlier samples sit clear of the degenerate half, difference steps included
        assert first > 0 and all(x[0] > 0.76 for x, _ in states[:first])
        x, v = states[first]
        with pytest.raises(DegenerateWv) as info:
            verify(half_degenerate_generator(), m, spec)
        message = str(info.value)
        assert message.startswith(f"sample {first} at x = {x.tolist()}, v = {v.tolist()}: ")
        assert "below floor" in message

    def test_force_field_failure_names_the_sample(self):
        m = euclidean_metric()

        def blows_up(m_, x, v):
            if x[1] > 1.0:
                return np.full(3, np.nan)
            return np.zeros(3)

        spec = SampleSpec(box=BOX, count=30, seed=4, mode="finite-diff")
        states = sample_states(spec, m)
        first = next(i for i, (x, _) in enumerate(states) if x[1] > 1.0)
        assert all(x[1] < 0.999 for x, _ in states[:first])
        with pytest.raises(EvaluationFailure, match=rf"^sample {first} at x = "):
            verify(ForceField(eval=blows_up), m, spec)

    @pytest.mark.parametrize("mode", MODES)
    def test_nan_at_one_hessian_offset_names_the_sample(self, mode):
        # a bare field is NaN at exactly one velocity offset of the fiber
        # Hessian's stencil: sample 5 moved by the coarse step along the
        # second axis, which no other difference of F and no other sample
        # reaches
        m = euclidean_metric()
        spec = SampleSpec(box=BOX, count=12, seed=9, mode=mode)
        states = sample_states(spec, m)
        x5, v5 = states[5]
        spot = v5 + np.array([0.0, 1.0, 0.0]) * scaled_step(v5, np.sqrt(FD_STEP))

        def field(m_, x, v):
            hit = np.all(x == x5, axis=-1) & np.all(v == spot, axis=-1)
            return np.where(hit[..., None], np.nan, 0.0 * v)

        with pytest.raises(EvaluationFailure) as info:
            verify(ForceField(eval=field, stacked=True), m, spec)
        message = str(info.value)
        assert message == (
            f"sample 5 at x = {x5.tolist()}, v = {v5.tolist()}: "
            "fiber Hessian evaluated to a non-finite value"
        )


class TestSharedPackPath:
    """verify reads one coefficient pack per sample; its sup-norms must be
    those of the public point-wise residual functions."""

    @pytest.mark.parametrize("mode", ["analytic", "finite-diff"])
    @pytest.mark.parametrize(
        "make",
        [lambda: builtin_metrizable(coordinate_scalar(0), H=lambda w: w),
         lambda: builtin_nonmetrizable(coordinate_scalar(0), lambda s: s**3),
         # the benchmark's negative control: a bare ForceField, with no reduced systems
         lambda: perturbed_field(
             as_force_field(builtin_metrizable(coordinate_scalar(0), H=lambda w: w)),
             0,
             lambda m_, x, v: speed_at(m_, x, v) * x[1],
         )],
        ids=["metrizable", "nonmetrizable", "perturbed-control"],
    )
    def test_report_is_max_of_pointwise_residuals(self, make, mode):
        m = wavy_conformal_metric()
        subject = make()
        spec = SampleSpec(box=BOX, count=8, seed=6, mode=mode)
        report = verify(subject, m, spec)
        if isinstance(subject, ForceField):
            ff, af = subject, None
            A = ExtendedScalar(
                eval=lambda x, v: float(unit_direction(m, x, v).N_up @ ff.eval(m, x, v))
            )
        else:
            ff = as_force_field(subject)
            af = ansatz_from_generator(subject)
            A = ansatz_scalar(af, m)
        worst = dict.fromkeys(report.residuals(), 0.0)
        lambdas = []
        for x, v in sample_states(spec, m):
            if mode == "analytic" and af is not None:
                F, Dv, Dx = ff.eval(m, x, v), ff.dv(m, x, v), ff.nabla(m, x, v)
            else:
                F, Dv, Dx = normality_verifier._derivative_pack(
                    ff, m, x, v, mode, inverse_metric_at(m, x), metric_at(m, x)
                )
            scale = 1.0 + np.max(np.abs(F)) + max(np.max(np.abs(Dv)), np.max(np.abs(Dx)))
            eq_res, lam = residual_eq124(A, m, x, v, mode=mode)
            lambdas.append(lam)
            raw = {
                "r_weak1": residual_weak1(ff, m, x, v, mode=mode),
                "r_weak2": residual_weak2(ff, m, x, v, mode=mode),
                "r_add1": residual_additional1(ff, m, x, v, mode=mode),
                "r_add2": residual_additional2(ff, m, x, v, mode=mode),
                "r_eq124": eq_res,
            }
            if af is not None:
                b_res, a_res = residual_reduced(af, m, x, speed_at(m, x, v))
                raw.update(r_reduced_b=b_res, r_reduced_a=a_res)
            for key, value in raw.items():
                worst[key] = max(worst[key], float(np.max(np.abs(value))) / scale)
        for key, value in report.residuals().items():
            assert value == pytest.approx(worst[key], rel=1e-12, abs=1e-300), key
        np.testing.assert_allclose(report.lambda_samples, lambdas, rtol=1e-12, atol=0.0)
        if af is None:
            assert report.r_reduced_b == 0.0 and report.r_reduced_a == 0.0
