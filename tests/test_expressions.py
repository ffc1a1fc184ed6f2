import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from normalshift import expressions
from normalshift.errors import ConfigError, EvaluationFailure
from normalshift.expressions import compile_stack, parse_expression
from normalshift.tensor_core import central_partials, scaled_step


def value(text, **env):
    return parse_expression(text).eval(env)


class TestArithmetic:
    def test_numbers(self):
        assert value("3") == 3.0
        assert value("2.5") == 2.5
        assert value(".5") == 0.5
        assert value("1e-3") == 1e-3
        assert value("2.5E2") == 250.0

    def test_sum_and_difference(self):
        assert value("1 + 2 - 4") == -1.0

    def test_precedence(self):
        assert value("2 + 3 * 4") == 14.0
        assert value("2 * 3 + 4") == 10.0
        assert value("6 / 3 / 2") == 1.0
        assert value("8 - 3 - 2") == 3.0

    def test_power_binds_tightest_and_right_associates(self):
        assert value("2 * 3 ^ 2") == 18.0
        assert value("2 ^ 3 ^ 2") == 512.0
        assert value("2 ^ -1") == 0.5

    def test_unary_minus(self):
        assert value("-3 + 5") == 2.0
        assert value("--3") == 3.0
        # the sign applies to the whole power, as in written mathematics
        assert value("-2 ^ 2") == -4.0
        assert value("2 * -3") == -6.0

    def test_parentheses(self):
        assert value("(2 + 3) * 4") == 20.0
        assert value("(-2) ^ 2") == 4.0

    def test_variables(self):
        assert value("x1 + 2 * x2", x1=1.0, x2=3.0) == 7.0
        assert value("v ^ 3", v=2.0) == 8.0
        expr = parse_expression("x1 * v + x3")
        assert expr.variables == frozenset({"x1", "x3", "v"})

    def test_functions(self):
        assert abs(value("exp(1)") - math.e) < 1e-15
        assert abs(value("log(exp(2))") - 2.0) < 1e-14
        assert abs(value("sin(0)") - 0.0) < 1e-15
        assert abs(value("cos(0)") - 1.0) < 1e-15
        assert abs(value("sqrt(2) ^ 2") - 2.0) < 1e-14
        assert abs(value("v * exp(-x1)", v=2.0, x1=1.0) - 2.0 / math.e) < 1e-15

    def test_whitespace_tolerated(self):
        assert value("  1+ 2   *3 ") == 7.0


def deriv(text, var, **env):
    return parse_expression(text).derivative(var).eval(env)


class TestDerivatives:
    def test_polynomial(self):
        assert deriv("x1 ^ 3", "x1", x1=2.0) == 12.0
        assert deriv("3 * v ^ 2 - v + 5", "v", v=4.0) == 23.0
        assert deriv("x1 * x2", "x2", x1=3.0, x2=-1.0) == 3.0

    def test_absent_variable_gives_zero(self):
        expr = parse_expression("x1 ^ 2 + sin(x2)").derivative("x3")
        assert expr.eval({}) == 0.0
        assert expr.variables == frozenset()

    def test_chain_rule_through_functions(self):
        assert abs(deriv("exp(2 * x1)", "x1", x1=0.3) - 2.0 * math.exp(0.6)) < 1e-14
        assert abs(deriv("log(x1 ^ 2)", "x1", x1=3.0) - 2.0 / 3.0) < 1e-14
        assert abs(deriv("sin(v ^ 2)", "v", v=1.2) - 2.4 * math.cos(1.44)) < 1e-14
        assert abs(deriv("cos(x1)", "x1", x1=0.7) + math.sin(0.7)) < 1e-15
        assert abs(deriv("sqrt(x1)", "x1", x1=4.0) - 0.25) < 1e-15

    def test_quotient_and_negative_powers(self):
        assert abs(deriv("1 / v", "v", v=2.0) + 0.25) < 1e-15
        assert abs(deriv("v ^ -2", "v", v=2.0) + 0.25) < 1e-15
        assert abs(deriv("x1 / (1 + x1)", "x1", x1=1.0) - 0.25) < 1e-14

    def test_variable_exponent(self):
        # a^b with both parts varying follows from a^b = exp(b log a)
        got = deriv("x1 ^ v", "v", x1=2.0, v=3.0)
        assert abs(got - 8.0 * math.log(2.0)) < 1e-14
        got = deriv("v ^ v", "v", v=2.0)
        assert abs(got - 4.0 * (math.log(2.0) + 1.0)) < 1e-14

    def test_matches_finite_difference(self):
        expr = parse_expression("exp(-x1) * v ^ 2 + sin(x2 * v) / (1 + x1 ^ 2)")
        env = {"x1": 0.4, "x2": -0.7, "v": 1.3}
        for var in ("x1", "x2", "v"):
            step = 1e-6
            hi = dict(env, **{var: env[var] + step})
            lo = dict(env, **{var: env[var] - step})
            fd = (expr.eval(hi) - expr.eval(lo)) / (2.0 * step)
            assert abs(expr.derivative(var).eval(env) - fd) < 1e-9

    def test_bad_variable_name_rejected(self):
        with pytest.raises(ConfigError):
            parse_expression("x1").derivative("y")


class TestErrors:
    def test_syntax_errors(self):
        for bad in ("", "   ", "1 +", "* 2", "(1 + 2", "1 + 2)", "1 2", "exp 2", "exp()"):
            with pytest.raises(ConfigError):
                parse_expression(bad)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            parse_expression("tan(1)")
        with pytest.raises(ConfigError):
            parse_expression("x0 + 1")
        with pytest.raises(ConfigError):
            parse_expression("y + 1")

    def test_unexpected_character(self):
        with pytest.raises(ConfigError):
            parse_expression("1 & 2")

    def test_missing_variable_at_evaluation(self):
        expr = parse_expression("x1 + v")
        with pytest.raises(ConfigError):
            expr.eval({"x1": 1.0})

    def test_domain_error_reported(self):
        with pytest.raises(EvaluationFailure):
            value("log(0 - 1)")
        with pytest.raises(EvaluationFailure):
            value("1 / 0")

    def test_non_string_rejected(self):
        with pytest.raises(ConfigError):
            parse_expression(3)

    def test_non_finite_float_result_reported(self):
        # no domain error: the float arithmetic overflows to inf, or to nan
        for text in ("v*1e308*10", "v*1e308*10 - v*1e308*10"):
            with pytest.raises(EvaluationFailure) as failure:
                value(text, v=1.0)
            assert str(failure.value) == (
                f"expression {text!r} failed to evaluate: non-finite result"
            )

    def test_constant_that_fails_is_left_to_each_call(self):
        expr = parse_expression("x1 + 1/0")
        for _ in range(2):
            with pytest.raises(EvaluationFailure) as failure:
                expr.eval({"x1": 1.0})
            assert str(failure.value) == (
                "expression 'x1 + 1/0' failed to evaluate: non-finite result"
            )


class TestCompileStack:
    ENV = {"x1": np.array([[0.5, 1.0, 2.0]]), "x2": np.array([[0.25], [4.0]])}
    SHAPE = (2, 3)

    def test_values_equal_the_same_numpy_operations_bit_for_bit(self):
        x1, x2 = self.ENV["x1"], self.ENV["x2"]
        cases = {
            "x1 * x2 + exp(1)": x1 * x2 + np.exp(1.0),
            "sin(x1) - 2": np.sin(x1) - 2.0,
            "3.5": 3.5,
            "x2": x2,
        }
        values = compile_stack([parse_expression(text) for text in cases])(self.ENV, self.SHAPE)
        assert len(values) == len(cases)
        for got, want in zip(values, cases.values()):
            want = np.broadcast_to(want, self.SHAPE)
            assert got.dtype == np.float64 and got.shape == self.SHAPE
            assert got.tobytes() == want.tobytes()
        for text, got in zip(cases, values):
            assert got.tobytes() == parse_expression(text).eval(self.ENV).tobytes()

    def test_constants_fill_fresh_writable_arrays(self):
        fn = compile_stack([parse_expression("2 * 3"), parse_expression("x1").derivative("x1")])
        first, unit = fn(self.ENV, self.SHAPE)
        assert np.array_equal(first, np.full(self.SHAPE, 6.0))
        assert np.array_equal(unit, np.ones(self.SHAPE))
        first[0, 0] = -1.0
        assert fn(self.ENV, self.SHAPE)[0][0, 0] == 6.0

    def test_constant_expressions_evaluated_once_at_build(self, monkeypatch):
        calls = []

        def counted_exp(arg):
            calls.append(arg)
            return np.exp(arg)

        monkeypatch.setitem(expressions._UFUNCS, "exp", counted_exp)
        fn = compile_stack([parse_expression("2 * exp(2 - 1)"), parse_expression("exp(1)")])
        built = len(calls)
        for _ in range(3):
            fn(self.ENV, self.SHAPE)
        assert built == 2 and len(calls) == built

    def test_arithmetic_error_in_a_constant_subexpression_is_named(self):
        for text in ("x1 + 1/0", "x1 + 10^400"):
            fn = compile_stack([parse_expression(text)])
            for _ in range(2):
                with pytest.raises(EvaluationFailure) as failure:
                    fn(self.ENV, self.SHAPE)
                assert str(failure.value) == (
                    f"expression {text!r} failed to evaluate: non-finite result"
                )

    @pytest.mark.parametrize("text", ["x1 + (0-8)^0.5", "(0-8)^0.5", "exp((0-8)^0.5) * x1"])
    def test_complex_value_is_a_failed_evaluation(self, text):
        # (0-8)^0.5 has no real value: numpy gives nan, which must not
        # pass, at build or at a call
        fn = compile_stack([parse_expression(text)])
        for _ in range(2):
            with pytest.raises(EvaluationFailure) as failure:
                fn(self.ENV, self.SHAPE)
            assert str(failure.value) == (
                f"expression {text!r} failed to evaluate: non-finite result"
            )
        with pytest.raises(EvaluationFailure):
            parse_expression(text).eval({"x1": 1.0})

    def test_first_non_finite_value_in_list_order_is_named(self):
        exprs = [parse_expression(text) for text in ("x1", "log(x1 - 1)", "sqrt(0 - x1)")]
        with pytest.raises(EvaluationFailure) as failure:
            compile_stack(exprs)({"x1": np.array([0.5, 2.0])}, (2,))
        assert str(failure.value) == (
            "expression 'log(x1 - 1)' failed to evaluate: non-finite result"
        )

    def test_non_finite_constant_fails_at_each_call(self):
        fn = compile_stack([parse_expression("log(0 - 1)")])
        for _ in range(2):
            with pytest.raises(EvaluationFailure, match="non-finite result"):
                fn({}, (2,))


# Random trees over the whole grammar.  The constants include ones that
# overflow (1e308) and a negative base for fractional powers ((0-8)).
LEAVES = st.sampled_from(["x1", "x2", "v", "0", "0.5", "2", "3", "1000", "1e308", "(0-8)"])


def trees(depth, leaves=LEAVES):
    if depth == 0:
        return leaves
    sub = trees(depth - 1, leaves)
    return st.one_of(
        leaves,
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]), sub).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        sub.map(lambda a: f"-{a}"),
    )


class TestPointIsOneRowStack:
    """A point evaluated alone and the same point in a stack fail together
    and, where they succeed, give the same bits."""

    @seed(61)
    @settings(max_examples=300, deadline=None)
    @given(text=trees(4), points_seed=st.integers(0, 2**32 - 1))
    def test_point_and_stack_agree(self, text, points_seed):
        # generic floats: last-bit differences hide at round values
        points = np.random.default_rng(points_seed).uniform(-3.0, 3.0, (4, 3))
        expr = parse_expression(text)
        names = ("x1", "x2", "v")
        values = {}
        for i, point in enumerate(points):
            try:
                values[i] = expr.eval(dict(zip(names, point.tolist())))
            except EvaluationFailure:
                pass

        def stack_pass(rows):
            env = {name: points[rows, k] for k, name in enumerate(names)}
            return compile_stack([expr])(env, (len(rows),))[0]

        if len(values) < len(points):
            with pytest.raises(EvaluationFailure):
                stack_pass(list(range(len(points))))
        else:
            stack_pass(list(range(len(points))))
        if values:
            rows = sorted(values)
            got = stack_pass(rows)
            assert got.tobytes() == np.array([values[i] for i in rows]).tobytes()


# The trees above without the overflowing and the complex-valued leaves.
SMOOTH_LEAVES = st.sampled_from(["x1", "x2", "v", "0", "0.5", "2", "3", "1000"])


class TestDerivativeMatchesDifferences:
    """Each symbolic partial agrees with a Richardson-extrapolated central
    difference of the compiled value pass, at points where the value and
    the partials are finite and moderate (at most 1e3 in size).

    The error is measured relative to 1 + |value| + |partial|.  Over 11,000
    trees at four points each the worst was 1.0e-8, from cancellation in
    sums near 2000 such as sin(-2000 + x2); a wrong rule errs by O(1).
    """

    NAMES = ("x1", "x2", "v")

    @seed(67)
    @settings(max_examples=300, deadline=None)
    @given(text=trees(4, SMOOTH_LEAVES), points_seed=st.integers(0, 2**32 - 1))
    def test_symbolic_partials(self, text, points_seed):
        expr = parse_expression(text)
        value = compile_stack([expr])
        partials = compile_stack([expr.derivative(name) for name in self.NAMES])

        def env(at):
            return {name: at[..., k] for k, name in enumerate(self.NAMES)}, at.shape[:-1]

        def fn(at):
            return value(*env(at))[0]

        for point in np.random.default_rng(points_seed).uniform(-3.0, 3.0, (4, 3)):
            at = point[None]
            try:
                f = fn(at)[0]
                exact = np.concatenate(partials(*env(at)))
                differenced = central_partials(fn, at, scaled_step(at), richardson=True)[:, 0]
            except EvaluationFailure:
                continue  # not finite at the point or at one of its offsets
            if abs(f) > 1e3 or np.max(np.abs(exact)) > 1e3:
                continue
            error = np.abs(differenced - exact) / (1.0 + abs(f) + np.abs(exact))
            assert np.max(error) < 1e-6, (text, point.tolist(), exact, differenced)
