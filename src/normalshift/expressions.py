"""Arithmetic expression parser for scenario configuration files.

Scalar fields in configs (conformal factors, speed profiles, generating
scalars) are written as plain arithmetic text over position variables
``x1 .. xn`` and the speed variable ``v``, with operators ``+ - * / ^``
and the functions exp, log, sin, cos, sqrt.  ``parse_expression`` turns
such text into a small syntax tree compiled to one closure of numpy
operations: constants are ``np.float64`` and the functions are numpy
ufuncs, so every operation is numpy's.  :func:`compile_stack` turns a
list of expressions into one function of a stack, with one error state
and one finiteness pass per call; the scenario closures of
:mod:`normalshift.cli` are built with it.  A single point is evaluated
as a one-row stack through the same pass, so a point and the same point
in a stack give the same bits and fail together.

Expressions differentiate symbolically (:meth:`Expression.derivative`),
so configured scalars carry exact partial derivatives and scenario runs
reach the same accuracy as hand-written closures.

The grammar is the usual one: ``^`` binds tightest and associates to the
right, unary minus sits between ``^`` and the multiplicative level, and
parentheses group.  Malformed input, unknown names and missing variables
raise :class:`ConfigError`, which the command layer maps to its
configuration exit code.  An evaluation fails at run time by one rule,
its value is not finite (a domain error, an overflow, a division by
zero, a negative base raised to a fractional power), and raises
:class:`EvaluationFailure`, a numerical failure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, EvaluationFailure

_UFUNCS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_VARIABLE_RE = re.compile(r"^(v|x[1-9][0-9]*)$")

# Syntax-tree nodes are tuples: ("num", c), ("var", name), ("neg", a),
# ("call", fname, a), and ("+"|"-"|"*"|"/"|"^", a, b).


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            trailing = text[pos:].strip()
            if not trailing:
                break
            raise ConfigError(f"unexpected character {trailing[0]!r} in expression {text!r}")
        pos = match.end()
        for kind in ("number", "name", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        token = self.peek()
        self.pos += 1
        return token

    def expect_op(self, symbol: str):
        kind, value = self.take()
        if kind != "op" or value != symbol:
            raise ConfigError(f"expected {symbol!r} in expression {self.text!r}")

    def parse(self):
        node = self.sum_level()
        if self.pos != len(self.tokens):
            _, value = self.peek()
            raise ConfigError(f"trailing input {value!r} in expression {self.text!r}")
        return node

    def sum_level(self):
        node = self.product_level()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            node = (op, node, self.product_level())
        return node

    def product_level(self):
        node = self.unary_level()
        while self.peek() in (("op", "*"), ("op", "/")):
            _, op = self.take()
            node = (op, node, self.unary_level())
        return node

    def unary_level(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.unary_level())
        return self.power_level()

    def power_level(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            # the exponent may itself carry a sign, as in v^-2
            return ("^", base, self.unary_level())
        return base

    def atom(self):
        kind, value = self.take()
        if kind == "number":
            return ("num", float(value))
        if kind == "name":
            if value in _UFUNCS:
                self.expect_op("(")
                arg = self.sum_level()
                self.expect_op(")")
                return ("call", value, arg)
            if _VARIABLE_RE.match(value):
                return ("var", value)
            raise ConfigError(f"unknown name {value!r} in expression {self.text!r}")
        if (kind, value) == ("op", "("):
            inner = self.sum_level()
            self.expect_op(")")
            return inner
        raise ConfigError(f"malformed expression {self.text!r}")


def _variables(node) -> FrozenSet[str]:
    head = node[0]
    if head == "num":
        return frozenset()
    if head == "var":
        return frozenset({node[1]})
    if head in ("neg", "call"):
        return _variables(node[-1])
    return _variables(node[1]) | _variables(node[2])


def _compile(node) -> Callable[[Dict[str, np.ndarray]], np.ndarray]:
    """Closure evaluating ``node`` with numpy operations on ``np.float64`` constants."""
    head = node[0]
    if head == "num":
        const = np.float64(node[1])
        return lambda env: const
    if head == "var":
        name = node[1]
        return lambda env: env[name]
    if head == "neg":
        inner = _compile(node[1])
        return lambda env: -inner(env)
    if head == "call":
        fn = _UFUNCS[node[1]]
        arg = _compile(node[2])
        return lambda env: fn(arg(env))
    lhs, rhs = _compile(node[1]), _compile(node[2])
    if head == "+":
        return lambda env: lhs(env) + rhs(env)
    if head == "-":
        return lambda env: lhs(env) - rhs(env)
    if head == "*":
        return lambda env: lhs(env) * rhs(env)
    if head == "/":
        return lambda env: lhs(env) / rhs(env)
    return lambda env: lhs(env) ** rhs(env)


def _is_zero(node) -> bool:
    return node == ("num", 0.0)


def _is_one(node) -> bool:
    return node == ("num", 1.0)


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if a[0] == "num" and b[0] == "num":
        return ("num", a[1] + b[1])
    return ("+", a, b)


def _sub(a, b):
    if _is_zero(b):
        return a
    if a[0] == "num" and b[0] == "num":
        return ("num", a[1] - b[1])
    if _is_zero(a):
        return ("neg", b)
    return ("-", a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return ("num", 0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if a[0] == "num" and b[0] == "num":
        return ("num", a[1] * b[1])
    return ("*", a, b)


def _div(a, b):
    if _is_zero(a):
        return ("num", 0.0)
    if _is_one(b):
        return a
    return ("/", a, b)


def _differentiate(node, var: str):
    head = node[0]
    if head == "num":
        return ("num", 0.0)
    if head == "var":
        return ("num", 1.0) if node[1] == var else ("num", 0.0)
    if head == "neg":
        inner = _differentiate(node[1], var)
        return ("num", 0.0) if _is_zero(inner) else ("neg", inner)
    if head == "call":
        fname, arg = node[1], node[2]
        du = _differentiate(arg, var)
        if _is_zero(du):
            return ("num", 0.0)
        if fname == "exp":
            outer = ("call", "exp", arg)
        elif fname == "log":
            return _div(du, arg)
        elif fname == "sin":
            outer = ("call", "cos", arg)
        elif fname == "cos":
            outer = ("neg", ("call", "sin", arg))
        else:
            return _div(du, _mul(("num", 2.0), ("call", "sqrt", arg)))
        return _mul(outer, du)
    a, b = node[1], node[2]
    da, db = _differentiate(a, var), _differentiate(b, var)
    if head == "+":
        return _add(da, db)
    if head == "-":
        return _sub(da, db)
    if head == "*":
        return _add(_mul(da, b), _mul(a, db))
    if head == "/":
        return _div(_sub(_mul(da, b), _mul(a, db)), ("^", b, ("num", 2.0)))
    # power: the constant-exponent rule when possible, else via a^b = exp(b log a)
    if _is_zero(db):
        if b[0] == "num":
            exponent = ("num", b[1] - 1.0)
            return _mul(_mul(b, ("^", a, exponent)), da)
        return _mul(_mul(b, ("^", a, ("-", b, ("num", 1.0)))), da)
    logarithmic = _add(_mul(db, ("call", "log", a)), _div(_mul(b, da), a))
    return _mul(("^", a, b), logarithmic)


@dataclass(frozen=True)
class Expression:
    """Parsed expression: source text, referenced variables, evaluator."""

    text: str
    variables: FrozenSet[str]
    _node: tuple
    _array_fn: Callable[[Dict[str, np.ndarray]], np.ndarray]

    def eval(self, env: Dict[str, float]):
        """Value in ``env``: a float, or an array when some variable is one.

        An array result has the broadcast shape of all the environment's
        values, constant expressions included.  Floats are evaluated as a
        one-row stack, so a point gives the bits that the same point gives
        in a stack.  Either way the expression's own :func:`compile_stack`
        pass runs, and a value that is not finite raises
        :class:`EvaluationFailure`.
        """
        missing = self.variables - env.keys()
        if missing:
            raise ConfigError(
                f"expression {self.text!r} needs undefined variable(s) {sorted(missing)}"
            )
        if any(isinstance(value, np.ndarray) for value in env.values()):
            shape = np.broadcast_shapes(*(np.shape(value) for value in env.values()))
            return self._stack_pass(env, shape)[0]
        row = {name: np.full(1, value, dtype=float) for name, value in env.items()}
        return float(self._stack_pass(row, (1,))[0][0])

    @cached_property
    def _stack_pass(self):
        return compile_stack([self])

    def derivative(self, var: str) -> "Expression":
        """Exact partial derivative with respect to one variable name."""
        if not _VARIABLE_RE.match(var):
            raise ConfigError(f"cannot differentiate with respect to {var!r}")
        return _expression(f"d({self.text})/d{var}", _differentiate(self._node, var))


def _expression(text: str, node: tuple) -> Expression:
    return Expression(text=text, variables=_variables(node), _node=node, _array_fn=_compile(node))


def compile_stack(
    exprs: Sequence[Expression],
) -> Callable[[Dict[str, np.ndarray], Tuple[int, ...]], List[np.ndarray]]:
    """One function ``fn(env, shape)`` evaluating every one of ``exprs`` on arrays.

    ``fn`` returns the values in list order, each a float array of
    ``shape``, the broadcast shape of ``env``'s arrays.  It does not check
    that ``env`` defines each variable, as :meth:`Expression.eval` does:
    the caller checks the variables once, as ``load_scenario`` does when a
    scenario loads.  A call enters one ``np.errstate`` that ignores every
    floating-point error, and the first value in list order that is not
    finite raises :class:`EvaluationFailure` naming its expression.  An
    expression without variables is evaluated here, once, and each call
    fills ``shape`` with its value; one whose value is not finite fails
    at each call.
    """
    steps = []  # (text, closure, None), or (text, None, value) for a finite constant
    for expr in exprs:
        const = None
        if not expr.variables:
            with np.errstate(all="ignore"):
                const = float(expr._array_fn({}))
        if const is not None and np.isfinite(const):
            steps.append((expr.text, None, const))
        else:
            steps.append((expr.text, expr._array_fn, None))

    def fn(env: Dict[str, np.ndarray], shape: Tuple[int, ...]) -> List[np.ndarray]:
        values = []
        with np.errstate(all="ignore"):
            for text, array_fn, const in steps:
                if array_fn is None:
                    values.append(np.full(shape, const))
                    continue
                value = np.asarray(array_fn(env), dtype=float)
                if not np.isfinite(value).all():
                    raise EvaluationFailure(
                        f"expression {text!r} failed to evaluate: non-finite result"
                    )
                if value.shape != shape:
                    value = np.broadcast_to(value, shape).copy()
                values.append(value)
        return values

    return fn


def parse_expression(text: str) -> Expression:
    """Parse arithmetic text into an :class:`Expression`."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigError("expression must be nonempty text")
    return _expression(text, _Parser(text).parse())
