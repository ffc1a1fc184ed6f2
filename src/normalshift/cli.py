"""Batch command-line front end.

Three subcommands drive the library from declarative JSON scenarios:
``verify`` samples the normality residuals of a configured force field,
``shift`` integrates a hypersurface shift and writes the trajectory
family as CSV, and ``report`` renders a previously written summary
bundle as a table.  Scalar fields in scenarios (conformal factors, speed
profiles, generating scalars) are arithmetic expressions over x1..xn and
v; see :mod:`normalshift.expressions`.

Exit codes: 0 pass, 1 criterion failure, 2 configuration error (a file
is checked as it loads, by the library objects built from it, before
anything is computed), 3 numerical error, 4 trajectory escaped the
chart box.  Identical configuration and seed give byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, GridTooCoarse, NormalShiftError, TrajectoryEscaped
from .expressions import Expression, compile_stack, parse_expression
from .extended_fields import IsotropicScalar
from .force_builder import (
    ForceField,
    GeneratingScalar,
    as_force_field,
    builtin_geodesic,
    builtin_metrizable,
    builtin_nonmetrizable,
    force_from_W,
)
from .normality_verifier import NormalityReport, SampleSpec, verify
from .shift_engine import (
    GridSpec,
    Hypersurface,
    ShiftRecord,
    graph_surface,
    max_normalized_deviation,
    plane_surface,
    run_plan,
    run_shift,
    speed_law_residual,
    sphere_surface,
    surface_constancy_residual,
    w_dynamics_residual,
)
from .tensor_core import MetricField, metric_at, speed_from
from . import __version__ as TOOL_VERSION

REQUIRED = object()


class _Expr(frozenset):
    """A required key whose value is an expression over these variables;
    ``"x"`` stands for the position coordinates x1..xn."""


_X, _V, _XV = _Expr({"x"}), _Expr({"v"}), _Expr({"x", "v"})
_GENERATOR = {"kind": REQUIRED, "perturb": None}
# defaults the library owns: SampleSpec's fields and the nonmetrizable speed range
_SAMPLE = {f.name: f.default for f in dataclasses.fields(SampleSpec)}
_PROFILE_RANGE = inspect.signature(builtin_nonmetrizable).parameters["speed_range"].default
_SURFACE = {"kind": REQUIRED, "base_u": [0.0, 0.0], "nu0": 1.0, "orientation": 1.0}

# The keys of every scenario section, by section and kind (None for a
# section without kinds): REQUIRED, an expression, or optional with its
# default.  An optional key whose default is None may be left out.
SECTIONS = {
    "scenario": {
        None: {"name": REQUIRED, "metric": REQUIRED, "generator": REQUIRED,
               "surface": None, "run": None, "verify": None, "seed": 0},
    },
    "metric": {
        "euclidean": {"kind": REQUIRED, "dim": 3},
        "conformal": {"kind": REQUIRED, "f": _X, "dim": 3},
        "diagonal": {"kind": REQUIRED, "entries": REQUIRED},
    },
    "generator": {
        "geodesic": _GENERATOR,
        "metrizable": {**_GENERATOR, "f": _X, "H": _V},
        "nonmetrizable": {**_GENERATOR, "f": _X, "A": _V, "speed_range": list(_PROFILE_RANGE)},
        "custom": {**_GENERATOR, "W": _XV, "h": _V},
    },
    "generator.perturb": {None: {"component": REQUIRED, "expression": _XV}},
    "surface": {
        "plane": {**_SURFACE, "axis": 2, "offset": 0.0},
        "sphere": {**_SURFACE, "radius": 1.0, "center": [0.0, 0.0, 0.0]},
        "graph": {**_SURFACE, "height": _Expr({"x1", "x2"})},
    },
    "run": {
        None: {"t_end": REQUIRED, "dt": REQUIRED, "u_grid": REQUIRED,
               "sample_stride": 10, "box": None, "tolerance": 1e-6},
    },
    "verify": {
        None: {"box": REQUIRED, "sample_count": _SAMPLE["count"],
               "speed_range": list(_SAMPLE["speed_range"]), "mode": _SAMPLE["mode"],
               "tolerance": _SAMPLE["tolerance"]},
    },
}


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: a name plus the five configuration sections.

    ``metric``, ``generator`` and ``run`` hold every key of their
    ``SECTIONS`` entry, defaults filled in, numbers as floats or ints,
    expressions parsed and ``run["u_grid"]`` a :class:`GridSpec`;
    ``surface`` and ``verify`` are the objects their sections describe.
    """

    name: str
    metric: dict
    generator: dict
    surface: Optional[Hypersurface]
    run: Optional[dict]
    verify: Optional[SampleSpec]
    seed: int
    dim: int


def _section(raw, where: str) -> dict:
    """``raw`` checked against its ``SECTIONS`` entry, every default filled in."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    kinds = SECTIONS[where]
    kind = None if None in kinds else raw.get("kind", REQUIRED)
    if kind is REQUIRED:
        raise ConfigError(f"missing key(s) ['kind'] in {where}")
    try:
        keys = kinds[kind]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown {where} kind {kind!r}") from None
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    required = (key for key, spec in keys.items() if spec is REQUIRED or isinstance(spec, _Expr))
    missing = sorted(set(required) - set(raw))
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")
    return {key: raw.get(key, spec) for key, spec in keys.items()}


def _parse_expressions(section: dict, where: str, dim: int) -> dict:
    """``section`` with each expression key of its ``SECTIONS`` entry parsed."""
    for key, spec in SECTIONS[where][section.get("kind")].items():
        if isinstance(spec, _Expr):
            section[key] = _expression(section[key], f"{where}.{key}", spec, dim)
    return section


def _as_number(value, where: str) -> float:
    # json.loads accepts Infinity, NaN and integers past the float range
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where} must be a finite number")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _lo_hi(pair, where: str, malformed: str) -> Tuple[float, float]:
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ConfigError(malformed)
    return _as_number(pair[0], f"{where} lo"), _as_number(pair[1], f"{where} hi")


def _numbers(value, where: str) -> Tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers")
    return tuple(_as_number(item, f"{where} entry") for item in value)


def _pairs(value, where: str) -> Tuple[Tuple[float, float], ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must list [lo, hi] pairs")
    return tuple(_lo_hi(pair, where, f"{where} entries must be [lo, hi]") for pair in value)


def _expression(text, where: str, spec: _Expr, dim: int) -> Expression:
    """``text`` parsed; x1..xn are told by name, so a large n builds no list of names."""
    if not isinstance(text, str):
        raise ConfigError(f"{where} must be an expression string")
    expr = parse_expression(text)
    named = spec - {"x"}
    # an index with more digits than n exceeds it, and is never converted
    stray = sorted(name for name in expr.variables if name not in named and not (
        "x" in spec and re.fullmatch(r"x[1-9][0-9]*", name)
        and len(name) <= len(str(dim)) + 1 and int(name[1:]) <= dim))
    if stray:
        allowed = sorted(named) + ([f"x1..x{dim}"] if "x" in spec else [])
        raise ConfigError(f"{where} uses variable(s) {stray} outside the allowed set {allowed}")
    return expr


@functools.cache
def _coordinate_names(dim: int) -> Tuple[str, ...]:
    """The position variables x1..xn of a chart, built once per dimension."""
    return tuple(f"x{i + 1}" for i in range(dim))


def _stack_env(x: np.ndarray, s=None) -> Tuple[Dict[str, np.ndarray], tuple]:
    """The variables of a stack of points (..., n), with speeds (...) if
    given: x1..xn and v as arrays, and the stack's leading shape."""
    env = {name: x[..., i] for i, name in enumerate(_coordinate_names(x.shape[-1]))}
    if s is not None:
        env["v"] = np.asarray(s, dtype=float)
    return env, x.shape[:-1]


def _stacked(values: Sequence[np.ndarray]) -> np.ndarray:
    """``np.stack(values, axis=-1)`` of arrays of one shape, as a compiled
    pass returns them, each copied into its slot of one new array."""
    out = np.empty(values[0].shape + (len(values),))
    for k, value in enumerate(values):
        out[..., k] = value
    return out


def _read_json(path: Union[str, Path], what: str):
    """The JSON value in the file at ``path``; a :class:`ConfigError` naming
    ``what`` and the path if the file cannot be read, is not UTF-8, is not
    JSON, nests too deeply or holds an integer too long to parse."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    # a ValueError: not UTF-8, not JSON, or an integer past Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse and validate a scenario file; unknown keys are errors.

    The one reader of the file: each section is checked once against its
    ``SECTIONS`` entry for keys, types, shapes and finite numbers.  The
    library objects the sections describe are built here, once, and hold
    the value rules: a ``ValueError`` from one becomes a
    :class:`ConfigError` naming ``section.key``.  Only rules the library
    has no reason to hold are checked here.
    """
    data = _section(_read_json(path, "scenario file"), "scenario")
    name = data["name"]
    # the name becomes a file name under --out, so it may not leave that directory
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError("scenario.name must be a plain file name: no path separator, not . or ..")
    seed = _as_int(data["seed"], "scenario.seed")
    if seed < 0:
        raise ConfigError("scenario.seed must be nonnegative")

    metric = _section(data["metric"], "metric")
    if metric["kind"] == "diagonal":
        entries = metric["entries"]
        if not isinstance(entries, list) or len(entries) < 3:
            raise ConfigError("metric.entries must list at least three expressions")
        dim = len(entries)
        metric["entries"] = [
            _expression(text, f"metric.entries[{idx}]", _X, dim) for idx, text in enumerate(entries)
        ]
    else:
        dim = metric["dim"] = _as_int(metric["dim"], "metric.dim")
    if dim < 3:
        raise ConfigError("metric dimension must be at least 3")
    _parse_expressions(metric, "metric", dim)

    generator = _parse_expressions(_section(data["generator"], "generator"), "generator", dim)
    if generator["kind"] == "nonmetrizable":
        lo, hi = generator["speed_range"] = _lo_hi(
            generator["speed_range"], "generator.speed_range", "generator.speed_range must be [lo, hi]"
        )
        if not 0.0 < lo < 1.0 < hi:
            raise ConfigError("generator.speed_range must satisfy 0 < lo < 1 < hi")
    if generator["perturb"] is not None:
        perturb = generator["perturb"] = _parse_expressions(
            _section(generator["perturb"], "generator.perturb"), "generator.perturb", dim
        )
        component = perturb["component"] = _as_int(
            perturb["component"], "generator.perturb.component"
        )
        if not 0 <= component < dim:
            raise ConfigError("generator.perturb.component out of range")

    surface = data["surface"]
    if surface is not None:
        if dim != 3:
            raise ConfigError("surfaces require a three-dimensional metric")
        surface = _parse_expressions(_section(surface, "surface"), "surface", dim)
        for key, convert in (("base_u", _numbers), ("center", _numbers), ("axis", _as_int),
                             ("offset", _as_number), ("radius", _as_number),
                             ("nu0", _as_number), ("orientation", _as_number)):
            if key in surface:
                surface[key] = convert(surface[key], f"surface.{key}")
        with _configuring("surface"):
            surface = _surface(surface)

    run = data["run"]
    if run is not None:
        run = _section(run, "run")
        for key in ("t_end", "dt", "tolerance"):
            run[key] = _as_number(run[key], f"run.{key}")
        run["sample_stride"] = _as_int(run["sample_stride"], "run.sample_stride")
        u_grid = run["u_grid"]
        shaped = isinstance(u_grid, list) and all(isinstance(r, list) and len(r) == 3 for r in u_grid)
        if not shaped:
            raise ConfigError("run.u_grid must list [lo, hi, count] ranges")
        ranges = tuple(
            (_as_number(lo, "run.u_grid lo"), _as_number(hi, "run.u_grid hi"),
             _as_int(count, "run.u_grid count"))
            for lo, hi, count in u_grid
        )
        if run["box"] is not None:
            run["box"] = _pairs(run["box"], "run.box")
        with _configuring("run", {"grid": "u_grid", "range": "u_grid range", "chart_box": "box"}):
            grid = run["u_grid"] = GridSpec(ranges=ranges)
            recorded, _ = run_plan(grid, dim - 1, run["t_end"], run["dt"], run["sample_stride"],
                                   run["box"], dim)
        if len(recorded) < 5:
            raise ConfigError(f"run records {len(recorded)} times; the speed-law stencil needs 5")
        if run["tolerance"] <= 0.0:
            raise ConfigError("run.tolerance must be positive")

    verify_sec = data["verify"]
    if verify_sec is not None:
        verify_sec = _section(verify_sec, "verify")
        # SampleSpec is not told the dimension; verify() checks it only as it computes
        box = _pairs(verify_sec["box"], "verify.box")
        if len(box) != dim:
            raise ConfigError("verify.box must hold one [lo, hi] pair per coordinate")
        count = _as_int(verify_sec["sample_count"], "verify.sample_count")
        speed_range = _lo_hi(
            verify_sec["speed_range"], "verify.speed_range", "verify.speed_range must be [lo, hi]"
        )
        tolerance = verify_sec["tolerance"]
        if tolerance is not None:
            tolerance = _as_number(tolerance, "verify.tolerance")
        with _configuring("verify", {"count": "sample_count"}):
            verify_sec = SampleSpec(box=box, count=count, speed_range=speed_range, seed=seed,
                                    mode=verify_sec["mode"], tolerance=tolerance)

    return Scenario(
        name=name,
        metric=metric,
        generator=generator,
        surface=surface,
        run=run,
        verify=verify_sec,
        seed=seed,
        dim=dim,
    )


def _check_options(tolerance: Optional[float], seed: Optional[int] = None) -> None:
    """Reject a command-line tolerance that is not positive and finite, or a negative seed."""
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ConfigError(f"--tolerance must be positive and finite, not {tolerance}")
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be nonnegative, not {seed}")


def build_metric(sc: Scenario) -> MetricField:
    """The scenario's metric.  Every kind is diagonal, and its closures take
    a stack of points (..., n) and return the diagonal entries (..., n) and
    their derivatives (..., n, n), ``[..., m, i] = d g_ii / d x^m``.  Its
    ``terms`` gives both from one compiled pass, so a flow stage that takes
    both at the same positions evaluates each expression once."""
    kind = sc.metric["kind"]
    dim = sc.dim
    ones = np.ones(dim)
    if kind == "euclidean":

        def g(x):
            return np.ones(x.shape[:-1] + (dim,))

        def dg(x):
            return np.zeros(x.shape[:-1] + (dim, dim))

        return MetricField(
            dim=dim, g=g, dg=dg, stacked=True, diagonal=True, terms=lambda x: (g(x), dg(x))
        )
    if kind == "conformal":
        f_expr = sc.metric["f"]
        f_value = compile_stack([f_expr])
        f_and_grad = compile_stack(
            [f_expr] + [f_expr.derivative(name) for name in _coordinate_names(dim)]
        )

        def derivatives(e, grad):
            """dg from e = exp(-2 f) and the gradient of f."""
            return ((-2.0 * e)[..., None] * _stacked(grad))[..., None] * ones

        def g(x):
            return np.exp(-2.0 * f_value(*_stack_env(x))[0])[..., None] * ones

        def dg(x):
            f, *grad = f_and_grad(*_stack_env(x))
            return derivatives(np.exp(-2.0 * f), grad)

        def terms(x):
            f, *grad = f_and_grad(*_stack_env(x))
            e = np.exp(-2.0 * f)
            return e[..., None] * ones, derivatives(e, grad)

        return MetricField(dim=dim, g=g, dg=dg, stacked=True, diagonal=True, terms=terms)
    entries = sc.metric["entries"]
    # d entries[i] / d x^m, i-major
    grads = [e.derivative(name) for e in entries for name in _coordinate_names(dim)]
    entry_values, entry_grads = compile_stack(entries), compile_stack(grads)
    both = compile_stack(entries + grads)

    def gradients(values, lead):
        return _stacked(values).reshape(lead + (dim, dim)).swapaxes(-1, -2)

    def g_diag(x):
        return _stacked(entry_values(*_stack_env(x)))

    def dg_diag(x):
        return gradients(entry_grads(*_stack_env(x)), x.shape[:-1])

    def terms(x):
        values = both(*_stack_env(x))
        return _stacked(values[:dim]), gradients(values[dim:], x.shape[:-1])

    return MetricField(dim=dim, g=g_diag, dg=dg_diag, stacked=True, diagonal=True, terms=terms)


def _isotropic(expr: Expression, dim: int) -> IsotropicScalar:
    """The stacked isotropic scalar of an expression over x1..xn and v, with
    its symbolic partials (the constant 0 in v for a position expression)."""
    value = compile_stack([expr])
    partials = compile_stack([expr.derivative(name) for name in _coordinate_names(dim)])
    speed = compile_stack([expr.derivative("v")])

    def ev(x, s):
        return value(*_stack_env(x, s))[0]

    def dx(x, s):
        return _stacked(partials(*_stack_env(x, s)))

    def dspeed(x, s):
        return speed(*_stack_env(x, s))[0]

    return IsotropicScalar(eval=ev, dx=dx, dspeed=dspeed, stacked=True)


def _position_scalar(expr: Expression, dim: int) -> IsotropicScalar:
    """:func:`_isotropic` of a generator's position expression f, with
    ``terms``: f, its v-partial (the constant 0) and its x-partials from one
    compiled pass, which ``builtin_metrizable`` and ``builtin_nonmetrizable``
    read in a stage.  A ``custom`` W gets none, since its W_v is checked
    against the floor before W is evaluated."""
    fused = compile_stack(
        [expr, expr.derivative("v")] + [expr.derivative(name) for name in _coordinate_names(dim)]
    )

    def terms(x, s):
        f, f_v, *f_x = fused(*_stack_env(x, s))
        return f, f_v, _stacked(f_x)

    return dataclasses.replace(_isotropic(expr, dim), terms=terms)


def _single_variable_fn(expr: Expression):
    """The expression as a function of ``v``: one compiled pass on an array
    (ndim >= 1), and on a float or a 0-d array a float from
    :meth:`Expression.eval`, which evaluates it as a one-row stack."""
    values = compile_stack([expr])
    return lambda w: (
        values({"v": w}, w.shape)[0] if isinstance(w, np.ndarray) and w.ndim
        else expr.eval({"v": float(w)})
    )


def build_generator(sc: Scenario) -> GeneratingScalar:
    """Assemble the generating pair (W, h) described by the scenario."""
    gen = sc.generator
    kind = gen["kind"]
    if kind == "geodesic":
        return builtin_geodesic()
    if kind == "metrizable":
        f_scalar, h_fn = _position_scalar(gen["f"], sc.dim), _single_variable_fn(gen["H"])
        return builtin_metrizable(f_scalar, H=h_fn)
    if kind == "nonmetrizable":
        f_scalar, a_fn = _position_scalar(gen["f"], sc.dim), _single_variable_fn(gen["A"])
        return builtin_nonmetrizable(f_scalar, a_fn, speed_range=gen["speed_range"])
    return GeneratingScalar(W=_isotropic(gen["W"], sc.dim), h=_single_variable_fn(gen["h"]))


def build_subject(sc: Scenario) -> Union[GeneratingScalar, ForceField]:
    """Verification subject: the generator, optionally with a perturbation,
    which adds its expression to one force component in one pass per stack."""
    gs = build_generator(sc)
    perturb = sc.generator["perturb"]
    if perturb is None:
        return gs
    component, bump = perturb["component"], compile_stack([perturb["expression"]])

    def eval_(m, x, v):
        gmat = metric_at(m, x)
        out = np.array(force_from_W(gs, m, x, v, gmat), dtype=float)
        out[..., component] += bump(*_stack_env(x, speed_from(gmat, v)))[0]
        return out

    return ForceField(eval=eval_, stacked=True)


def build_surface(sc: Scenario) -> Hypersurface:
    """The scenario's hypersurface, built and checked by :func:`load_scenario`."""
    return sc.surface


def _surface(surface: dict) -> Hypersurface:
    """The hypersurface of a ``surface`` section, checked by the library
    constructors.  A graph's tangents are built from the height
    expression's symbolic partials, one compiled pass per chart point."""
    common = dict(
        base_u=surface["base_u"], nu0=surface["nu0"], orientation=surface["orientation"]
    )
    kind = surface["kind"]
    if kind == "plane":
        return plane_surface(axis=surface["axis"], offset=surface["offset"], **common)
    if kind == "sphere":
        return sphere_surface(radius=surface["radius"], center=surface["center"], **common)
    height_expr = surface["height"]
    partials = compile_stack([height_expr.derivative("x1"), height_expr.derivative("x2")])

    def height(u):
        return height_expr.eval({"x1": float(u[0]), "x2": float(u[1])})

    def height_du(u):
        return np.concatenate(partials(*_stack_env(np.asarray(u, dtype=float)[None])))

    return graph_surface(height=height, height_du=height_du, **common)


def _normality_section(report: NormalityReport) -> dict:
    section = {key: float(value) for key, value in report.residuals().items()}
    section["sample_count"] = report.sample_count
    section["tolerance"] = report.tolerance_used
    section["passed"] = report.passed
    return section


def _output_dir(out: Union[str, Path]) -> Path:
    """The ``--out`` directory, created if absent; a :class:`ConfigError` if it cannot be."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {str(out_dir)!r} is not a usable directory: {exc}") from exc
    return out_dir


def _write(path: Path, write: Callable, *args) -> Path:
    """``write(path, *args)``; an ``OSError`` becomes a :class:`ConfigError` naming ``path``."""
    try:
        write(path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc
    return path


def _write_bundle(out_dir: Path, sc: Scenario, kind: str, config_path: Union[str, Path],
                  normality: Optional[dict] = None, shift_summary: Optional[dict] = None) -> Path:
    """Write ``<name>.<kind>.report.json``: the normality section or the shift
    summary, and the provenance of the configuration file."""
    provenance = {
        "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "tool_version": TOOL_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    bundle = {"name": sc.name, "normality": normality, "shift_summary": shift_summary,
              "provenance": provenance}
    text = json.dumps(bundle, indent=2, sort_keys=True) + "\n"
    return _write(out_dir / f"{sc.name}.{kind}.report.json", Path.write_text, text)


@contextlib.contextmanager
def _configuring(section: Optional[str] = None, keys: Optional[Dict[str, str]] = None):
    """Report a ``ValueError`` or :class:`GridTooCoarse` raised while
    building from the scenario as a :class:`ConfigError`; one raised later,
    at run time, is numerical.  A library message starts with the name of
    the argument it rejects; under a ``section`` that name becomes
    ``section.key``, the key being ``keys[name]`` where the names differ.
    """
    try:
        yield
    except (ValueError, GridTooCoarse) as exc:
        message = str(exc)
        if section is not None:
            name, space, rest = message.partition(" ")
            message = f"{section}.{(keys or {}).get(name, name)}{space}{rest}"
        raise ConfigError(message) from exc


def _exit_code(exc: Exception) -> int:
    """Print a failure of ``verify`` or ``shift`` to stderr and return its exit code."""
    if isinstance(exc, TrajectoryEscaped):
        label, code = "trajectory escaped", 4
    elif isinstance(exc, ConfigError):
        label, code = "configuration error", 2
    else:
        label, code = "numerical error", 3
    print(f"{label}: {exc}", file=sys.stderr)
    return code


def write_trajectory_csv(path: Union[str, Path], rec: ShiftRecord) -> None:
    """Write the recorded family with fixed columns and LF line endings: each
    trajectory's values (t, x, v, speed, W, phi) are stacked once, and each
    row is one format string, the id and then every value as ``%.17g``."""
    dim = rec.x.shape[2]
    dim_u = rec.phi.shape[2]
    columns = (
        ["traj_id", "t"]
        + [f"x{k + 1}" for k in range(dim)]
        + [f"v{k + 1}" for k in range(dim)]
        + ["speed", "W"]
        + [f"phi_{k + 1}" for k in range(dim_u)]
    )
    row = "%d" + ",%.17g" * (len(columns) - 1) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(rec.u_grid.shape[0]):
            values = np.column_stack(
                (rec.times, rec.x[i], rec.v[i], rec.speed_vals[i], rec.W_vals[i], rec.phi[i])
            )
            fh.writelines(row % (i, *cells) for cells in values.tolist())


def cmd_verify(
    config_path: Union[str, Path],
    tolerance: Optional[float] = None,
    seed: Optional[int] = None,
    out: Union[str, Path] = ".",
) -> int:
    """Sample normality residuals for the configured subject."""
    try:
        _check_options(tolerance, seed)
        sc = load_scenario(config_path)
        if sc.verify is None:
            raise ConfigError("scenario has no verify section")
        out_dir = _output_dir(out)
        options = {k: v for k, v in (("seed", seed), ("tolerance", tolerance)) if v is not None}
        with _configuring():
            m = build_metric(sc)
            subject = build_subject(sc)
            spec = dataclasses.replace(sc.verify, **options)
        report = verify(subject, m, spec)
        path = _write_bundle(out_dir, sc, "verify", config_path, _normality_section(report))
    except (NormalShiftError, ValueError) as exc:
        return _exit_code(exc)

    for family, value in report.residuals().items():
        flag = "ok" if value <= report.tolerance_used else "FAIL"
        print(f"{family:12s} {value:12.5e}  {flag}")
    if report.passed:
        print(f"PASS ({report.sample_count} samples, tolerance {report.tolerance_used:g})")
    else:
        failing = [k for k, v in report.residuals().items() if v > report.tolerance_used]
        print(f"FAIL: {', '.join(failing)} above tolerance {report.tolerance_used:g}")
    print(f"report: {path}")
    return 0 if report.passed else 1


def cmd_shift(
    config_path: Union[str, Path],
    force_constant_nu: bool = False,
    out: Union[str, Path] = ".",
    tolerance: Optional[float] = None,
) -> int:
    """Run the configured shift and write trajectories plus a summary."""
    try:
        _check_options(tolerance)
        sc = load_scenario(config_path)
        if sc.surface is None or sc.run is None:
            raise ConfigError("scenario needs surface and run sections for a shift")
        if sc.generator["perturb"] is not None:
            raise ConfigError("generator.perturb applies to verification only")
        out_dir = _output_dir(out)
        with _configuring():
            m = build_metric(sc)
            gs = build_generator(sc)
        rec = run_shift(
            gs,
            m,
            sc.surface,
            sc.run["u_grid"],
            t_end=sc.run["t_end"],
            dt=sc.run["dt"],
            sample_stride=sc.run["sample_stride"],
            force_constant_nu=force_constant_nu,
            chart_box=sc.run["box"],
        )
        max_phi = max_normalized_deviation(rec, m)
        w_dyn = w_dynamics_residual(rec, gs)
        spread = float(np.max(surface_constancy_residual(rec)))
        speed_law = speed_law_residual(rec, as_force_field(gs), m)
        tol = tolerance if tolerance is not None else sc.run["tolerance"]
        summary = {
            "max_norm_phi": max_phi,
            "w_dyn_residual": w_dyn,
            "per_time_spread": spread,
            "speed_law_residual": speed_law,
            "forced_constant_nu": force_constant_nu,
            "tolerance": tol,
            "passed": bool(max_phi < tol and w_dyn < tol),
        }
        for key in ("max_norm_phi", "w_dyn_residual", "per_time_spread", "speed_law_residual"):
            if not math.isfinite(summary[key]):
                raise NormalShiftError(f"{key} is not finite")
        csv_path = _write(out_dir / f"{sc.name}.trajectories.csv", write_trajectory_csv, rec)
        bundle_path = _write_bundle(out_dir, sc, "shift", config_path, shift_summary=summary)
    except (NormalShiftError, ValueError) as exc:
        return _exit_code(exc)

    for key in ("max_norm_phi", "w_dyn_residual", "per_time_spread", "speed_law_residual"):
        print(f"{key:20s} {summary[key]:12.5e}")
    print("PASS" if summary["passed"] else "FAIL", f"(tolerance {tol:g})")
    print(f"trajectories: {csv_path}")
    print(f"report: {bundle_path}")
    return 0 if summary["passed"] else 1


def _bundle_number(section: dict, where: str, key: str) -> float:
    """``section[key]`` as a number, NaN when absent; a :class:`ConfigError` if not a number."""
    return _as_number(section[key], f"bundle {where}.{key}") if key in section else math.nan


def cmd_report(bundle_path: Union[str, Path]) -> int:
    """Render a summary bundle as a table; always exits 0 when readable."""
    rows = []  # (section, quantity, value, status), read before anything is printed
    try:
        data = _read_json(bundle_path, "bundle file")
        if not isinstance(data, dict):
            raise ConfigError("bundle must be a JSON object")
        for key in ("name", "normality", "shift_summary", "provenance"):
            if key not in data:
                raise ConfigError(f"bundle is missing the {key!r} section")
        for key in ("normality", "shift_summary", "provenance"):
            if not (isinstance(data[key], dict) or data[key] is None and key != "provenance"):
                raise ConfigError(f"bundle section {key!r} must be an object")
        normality, summary = data["normality"] or {}, data["shift_summary"]
        tol = _bundle_number(normality, "normality", "tolerance")
        for key in normality:
            if key not in ("sample_count", "tolerance", "passed"):
                value = _bundle_number(normality, "normality", key)
                rows.append(("normality", key, value, "ok" if value <= tol else "FAIL"))
        if summary is not None:
            tol = _bundle_number(summary, "shift_summary", "tolerance")
            for key in ("max_norm_phi", "w_dyn_residual"):
                value = _bundle_number(summary, "shift_summary", key)
                rows.append(("shift", key, value, "ok" if value < tol else "FAIL"))
            for key in ("per_time_spread", "speed_law_residual"):
                if key in summary:
                    rows.append(("shift", key, _bundle_number(summary, "shift_summary", key), "-"))
    except ConfigError as exc:
        print(f"cannot read bundle: {exc}", file=sys.stderr)
        return 2

    print(f"scenario: {data['name']}")
    provenance = data["provenance"]
    print(
        f"tool {provenance.get('tool_version', '?')}  "
        f"config {str(provenance.get('config_sha256', '?'))[:12]}  "
        f"at {provenance.get('generated_at', '?')}"
    )
    header = f"{'section':10s} {'quantity':22s} {'value':>13s}  status"
    print(header)
    print("-" * len(header))
    for section, key, value, flag in rows:
        print(f"{section:10s} {key:22s} {value:13.5e}  {flag}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line: one subparser per command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="normalshift",
        description="Force fields admitting the normal shift: verification and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="sample normality residuals for a scenario")
    p_verify.add_argument("config")
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", default=".")

    p_shift = sub.add_parser("shift", help="run a hypersurface shift scenario")
    p_shift.add_argument("config")
    p_shift.add_argument("--force-constant-nu", action="store_true")
    p_shift.add_argument("--out", default=".")
    p_shift.add_argument("--tolerance", type=float, default=None)

    p_report = sub.add_parser("report", help="render a summary bundle")
    p_report.add_argument("bundle")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.config, tolerance=args.tolerance, seed=args.seed, out=args.out)
    if args.command == "shift":
        return cmd_shift(args.config, force_constant_nu=args.force_constant_nu, out=args.out,
                         tolerance=args.tolerance)
    return cmd_report(args.bundle)


if __name__ == "__main__":
    sys.exit(main())
