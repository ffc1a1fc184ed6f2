"""Batch command-line front end.

Three subcommands drive the library from declarative JSON scenarios:
``verify`` samples the normality residuals of a configured force field,
``shift`` integrates a hypersurface shift and writes the trajectory
family as CSV, and ``report`` renders a previously written summary
bundle as a table.  Scalar fields in scenarios (conformal factors, speed
profiles, generating scalars) are arithmetic expressions over x1..xn and
v; see :mod:`normalshift.expressions`.

Exit codes: 0 pass, 1 criterion failure, 2 configuration error,
3 numerical error, 4 trajectory escaped the chart box.  Identical
configuration and seed produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
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
)
from .normality_verifier import MODES, NormalityReport, SampleSpec, verify
from .shift_engine import (
    GridSpec,
    Hypersurface,
    ShiftRecord,
    graph_surface,
    max_normalized_deviation,
    plane_surface,
    run_shift,
    speed_law_residual,
    sphere_surface,
    surface_constancy_residual,
    w_dynamics_residual,
)
from .tensor_core import MetricField, speed_at
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

    Each section holds every key of its ``SECTIONS`` entry, defaults filled
    in, numbers as floats or ints and expressions parsed.
    """

    name: str
    metric: dict
    generator: dict
    surface: Optional[dict]
    run: Optional[dict]
    verify: Optional[dict]
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
            allowed = spec - {"x"} | (_position_variables(dim) if "x" in spec else frozenset())
            section[key] = _expression(section[key], f"{where}.{key}", allowed)
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


def _expression(text, where: str, allowed: frozenset) -> Expression:
    if not isinstance(text, str):
        raise ConfigError(f"{where} must be an expression string")
    expr = parse_expression(text)
    stray = sorted(expr.variables - allowed)
    if stray:
        raise ConfigError(
            f"{where} uses variable(s) {stray} outside the allowed set {sorted(allowed)}"
        )
    return expr


def _stack_env(x: np.ndarray, s=None) -> Tuple[Dict[str, np.ndarray], tuple]:
    """The variables of a stack of points (..., n), with speeds (...) if
    given: x1..xn and v as arrays, and the stack's leading shape."""
    env = {f"x{i + 1}": x[..., i] for i in range(x.shape[-1])}
    if s is not None:
        env["v"] = np.asarray(s, dtype=float)
    return env, x.shape[:-1]


def _position_variables(dim: int) -> frozenset:
    return frozenset(f"x{i + 1}" for i in range(dim))


def _read_json(path: Union[str, Path], what: str):
    """The JSON value in the file at ``path``; a :class:`ConfigError` naming
    ``what`` and the path if the file cannot be read, is not UTF-8, is not
    JSON or nests too deeply to parse."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse and validate a scenario file; unknown keys are errors.

    The one reader of the file: each section is checked once against its
    ``SECTIONS`` entry, and the builders read the result as it stands.
    """
    data = _section(_read_json(path, "scenario file"), "scenario")
    name = data["name"]
    # the name becomes a file name under --out, so it may not leave that directory
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError("scenario.name must be a plain file name: no path separator, not . or ..")

    metric = _section(data["metric"], "metric")
    if metric["kind"] == "diagonal":
        entries = metric["entries"]
        if not isinstance(entries, list) or len(entries) < 3:
            raise ConfigError("metric.entries must list at least three expressions")
        dim = len(entries)
        metric["entries"] = [
            _expression(text, f"metric.entries[{idx}]", _position_variables(dim))
            for idx, text in enumerate(entries)
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
        if surface["kind"] == "plane":
            axis = surface["axis"] = _as_int(surface["axis"], "surface.axis")
            if not 0 <= axis < 3:
                raise ConfigError("surface.axis must be 0, 1, or 2")
            surface["offset"] = _as_number(surface["offset"], "surface.offset")
        elif surface["kind"] == "sphere":
            radius = surface["radius"] = _as_number(surface["radius"], "surface.radius")
            if radius <= 0.0:
                raise ConfigError("surface.radius must be positive")
            center = surface["center"]
            if not (isinstance(center, list) and len(center) == 3):
                raise ConfigError("surface.center must have three components")
            surface["center"] = tuple(_as_number(c, "surface.center entry") for c in center)
        base_u = surface["base_u"]
        if not (isinstance(base_u, list) and len(base_u) == 2):
            raise ConfigError("surface.base_u must have two components")
        surface["base_u"] = tuple(_as_number(c, "surface.base_u entry") for c in base_u)
        nu0 = surface["nu0"] = _as_number(surface["nu0"], "surface.nu0")
        if nu0 == 0.0:
            raise ConfigError("surface.nu0 must be nonzero")
        orientation = _as_number(surface["orientation"], "surface.orientation")
        if orientation not in (1.0, -1.0):
            raise ConfigError("surface.orientation must be +1 or -1")
        surface["orientation"] = orientation

    run = data["run"]
    if run is not None:
        run = _section(run, "run")
        t_end = run["t_end"] = _as_number(run["t_end"], "run.t_end")
        dt = run["dt"] = _as_number(run["dt"], "run.dt")
        if t_end <= 0.0 or dt <= 0.0:
            raise ConfigError("run.t_end and run.dt must be positive")
        u_grid = run["u_grid"]
        if not (isinstance(u_grid, list) and len(u_grid) == 2):
            raise ConfigError("run.u_grid must list two [lo, hi, count] ranges")
        for rng in u_grid:
            if not (isinstance(rng, list) and len(rng) == 3):
                raise ConfigError("run.u_grid entries must be [lo, hi, count]")
        run["u_grid"] = tuple(
            (
                _as_number(rng[0], "run.u_grid lo"),
                _as_number(rng[1], "run.u_grid hi"),
                _as_int(rng[2], "run.u_grid count"),
            )
            for rng in u_grid
        )
        stride = run["sample_stride"] = _as_int(run["sample_stride"], "run.sample_stride")
        if stride < 1:
            raise ConfigError("run.sample_stride must be positive")
        steps = round(t_end / dt)
        if abs(steps * dt - t_end) > 1e-9 * max(1.0, t_end):
            raise ConfigError(f"run.t_end {t_end:g} is not a multiple of run.dt {dt:g}")
        if steps % stride != 0:
            raise ConfigError(f"run.sample_stride {stride} does not divide the {steps} steps")
        if steps // stride < 4:
            raise ConfigError(
                f"run records {steps // stride + 1} times; the speed-law stencil needs 5"
            )
        if run["box"] is not None:
            run["box"] = _validate_box(run["box"], dim, "run.box")
        run["tolerance"] = _as_number(run["tolerance"], "run.tolerance")
        if run["tolerance"] <= 0.0:
            raise ConfigError("run.tolerance must be positive")

    verify_sec = data["verify"]
    if verify_sec is not None:
        verify_sec = _section(verify_sec, "verify")
        verify_sec["box"] = _validate_box(verify_sec["box"], dim, "verify.box")
        count = verify_sec["sample_count"] = _as_int(verify_sec["sample_count"], "verify.sample_count")
        if count < 1:
            raise ConfigError("verify.sample_count must be positive")
        lo, hi = verify_sec["speed_range"] = _lo_hi(
            verify_sec["speed_range"], "verify.speed_range", "verify.speed_range must be [lo, hi]"
        )
        if not 0.0 < lo <= hi:
            raise ConfigError("verify.speed_range must satisfy 0 < lo <= hi")
        if verify_sec["tolerance"] is not None:
            tolerance = verify_sec["tolerance"] = _as_number(verify_sec["tolerance"], "verify.tolerance")
            if tolerance <= 0.0:
                raise ConfigError("verify.tolerance must be positive")
        if verify_sec["mode"] not in MODES:
            raise ConfigError(f"verify.mode must be one of {MODES}")

    seed = _as_int(data["seed"], "scenario.seed")
    if seed < 0:
        raise ConfigError("scenario.seed must be nonnegative")
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


def _validate_box(box, dim: int, where: str) -> tuple:
    if not (isinstance(box, list) and len(box) == dim):
        raise ConfigError(f"{where} must list one [lo, hi] pair per coordinate")
    pairs = tuple(_lo_hi(pair, where, f"{where} entries must be [lo, hi]") for pair in box)
    if any(lo >= hi for lo, hi in pairs):
        raise ConfigError(f"{where} must have lo < hi")
    return pairs


def _check_options(tolerance: Optional[float], seed: Optional[int]) -> None:
    """Reject a command-line tolerance that is not positive and finite, or a negative seed."""
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ConfigError(f"--tolerance must be positive and finite, not {tolerance}")
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be nonnegative, not {seed}")


def build_metric(sc: Scenario) -> MetricField:
    """The scenario's metric; its closures take a stack of points (..., n)."""
    kind = sc.metric["kind"]
    dim = sc.dim
    eye = np.eye(dim)
    if kind == "euclidean":

        def g_flat(x):
            return np.broadcast_to(eye, x.shape[:-1] + (dim, dim)).copy()

        return MetricField(
            dim=dim, g=g_flat, dg=lambda x: np.zeros(x.shape[:-1] + (dim, dim, dim)), stacked=True
        )
    if kind == "conformal":
        f_expr = sc.metric["f"]
        f_value = compile_stack([f_expr])
        f_and_grad = compile_stack([f_expr] + [f_expr.derivative(f"x{k + 1}") for k in range(dim)])

        def g(x):
            return np.exp(-2.0 * f_value(*_stack_env(x))[0])[..., None, None] * eye

        def dg(x):
            f, *grad = f_and_grad(*_stack_env(x))
            factor = -2.0 * np.exp(-2.0 * f)
            return (factor[..., None] * np.stack(grad, axis=-1))[..., None, None] * eye

        return MetricField(dim=dim, g=g, dg=dg, stacked=True)
    entries = sc.metric["entries"]
    entry_values = compile_stack(entries)
    # d entries[i] / d x^m, i-major
    entry_grads = compile_stack([e.derivative(f"x{m + 1}") for e in entries for m in range(dim)])
    diag = np.arange(dim)

    def g_diag(x):
        out = np.zeros(x.shape[:-1] + (dim, dim))
        out[..., diag, diag] = np.stack(entry_values(*_stack_env(x)), axis=-1)
        return out

    def dg_diag(x):
        grads = np.stack(entry_grads(*_stack_env(x)), axis=-1).reshape(x.shape[:-1] + (dim, dim))
        cube = np.zeros(x.shape[:-1] + (dim, dim, dim))
        cube[..., diag, diag] = grads.swapaxes(-1, -2)
        return cube

    return MetricField(dim=dim, g=g_diag, dg=dg_diag, stacked=True)


def _isotropic_from_position_expression(expr: Expression, dim: int) -> IsotropicScalar:
    value = compile_stack([expr])
    partials = compile_stack([expr.derivative(f"x{k + 1}") for k in range(dim)])

    def ev(x, s):
        return value(*_stack_env(x))[0]

    def dx(x, s):
        return np.stack(partials(*_stack_env(x)), axis=-1)

    def dspeed(x, s):
        return np.zeros(x.shape[:-1])

    return IsotropicScalar(eval=ev, dx=dx, dspeed=dspeed, stacked=True)


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
        f_scalar = _isotropic_from_position_expression(gen["f"], sc.dim)
        return builtin_metrizable(f_scalar, H=_single_variable_fn(gen["H"]))
    if kind == "nonmetrizable":
        f_scalar = _isotropic_from_position_expression(gen["f"], sc.dim)
        a_fn = _single_variable_fn(gen["A"])
        return builtin_nonmetrizable(f_scalar, a_fn, speed_range=gen["speed_range"])
    w_expr = gen["W"]
    w_value = compile_stack([w_expr])
    w_partials = compile_stack([w_expr.derivative(f"x{k + 1}") for k in range(sc.dim)])
    w_speed = compile_stack([w_expr.derivative("v")])

    def w_eval(x, s):
        return w_value(*_stack_env(x, s))[0]

    def w_dx(x, s):
        return np.stack(w_partials(*_stack_env(x, s)), axis=-1)

    def w_dspeed(x, s):
        return w_speed(*_stack_env(x, s))[0]

    return GeneratingScalar(
        W=IsotropicScalar(eval=w_eval, dx=w_dx, dspeed=w_dspeed, stacked=True),
        h=_single_variable_fn(gen["h"]),
    )


def build_subject(sc: Scenario) -> Union[GeneratingScalar, ForceField]:
    """Verification subject: the generator, optionally with a perturbation,
    which adds its expression to one force component in one pass per stack."""
    gs = build_generator(sc)
    perturb = sc.generator["perturb"]
    if perturb is None:
        return gs
    base, component = as_force_field(gs), perturb["component"]
    bump = compile_stack([perturb["expression"]])

    def eval_(m, x, v):
        out = np.array(base.eval(m, x, v), dtype=float)
        out[..., component] += bump(*_stack_env(x, speed_at(m, x, v)))[0]
        return out

    return ForceField(eval=eval_, label="user", stacked=True)


def build_surface(sc: Scenario) -> Hypersurface:
    surface = sc.surface
    common = dict(
        base_u=surface["base_u"], nu0=surface["nu0"], orientation=surface["orientation"]
    )
    kind = surface["kind"]
    if kind == "plane":
        return plane_surface(axis=surface["axis"], offset=surface["offset"], **common)
    if kind == "sphere":
        return sphere_surface(radius=surface["radius"], center=surface["center"], **common)
    height_expr = surface["height"]

    def height(u):
        return height_expr.eval({"x1": float(u[0]), "x2": float(u[1])})

    return graph_surface(height=height, **common)


def _config_digest(path: Union[str, Path]) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _provenance(config_path: Union[str, Path]) -> dict:
    return {
        "config_sha256": _config_digest(config_path),
        "tool_version": TOOL_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


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


def _write_bundle(out_dir: Path, name: str, bundle: dict) -> Path:
    text = json.dumps(bundle, indent=2, sort_keys=True) + "\n"
    return _write(out_dir / f"{name}.report.json", Path.write_text, text)


@contextlib.contextmanager
def _configuring():
    """Report a ``ValueError`` raised while building from the scenario as a
    :class:`ConfigError`; one raised later, at run time, is numerical."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _exit_code(exc: Exception) -> int:
    """Print a failure of ``verify`` or ``shift`` to stderr and return its exit code."""
    if isinstance(exc, TrajectoryEscaped):
        label, code = "trajectory escaped", 4
    elif isinstance(exc, (ConfigError, GridTooCoarse)):
        label, code = "configuration error", 2
    else:
        label, code = "numerical error", 3
    print(f"{label}: {exc}", file=sys.stderr)
    return code


def _format_float(value: float) -> str:
    return format(value, ".17g")


def write_trajectory_csv(path: Union[str, Path], rec: ShiftRecord) -> None:
    """Write the recorded family with fixed columns and LF line endings."""
    dim = rec.x.shape[2]
    dim_u = rec.phi.shape[2]
    columns = (
        ["traj_id", "t"]
        + [f"x{k + 1}" for k in range(dim)]
        + [f"v{k + 1}" for k in range(dim)]
        + ["speed", "W"]
        + [f"phi_{k + 1}" for k in range(dim_u)]
    )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(rec.u_grid.shape[0]):
            for j in range(rec.times.shape[0]):
                cells = [str(i), _format_float(rec.times[j])]
                cells += [_format_float(val) for val in rec.x[i, j]]
                cells += [_format_float(val) for val in rec.v[i, j]]
                cells.append(_format_float(rec.speed_vals[i, j]))
                cells.append(_format_float(rec.W_vals[i, j]))
                cells += [_format_float(val) for val in rec.phi[i, j]]
                fh.write(",".join(cells) + "\n")


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
        with _configuring():
            m = build_metric(sc)
            subject = build_subject(sc)
            spec = SampleSpec(
                box=sc.verify["box"],
                count=sc.verify["sample_count"],
                speed_range=sc.verify["speed_range"],
                seed=seed if seed is not None else sc.seed,
                mode=sc.verify["mode"],
                tolerance=tolerance if tolerance is not None else sc.verify["tolerance"],
            )
        report = verify(subject, m, spec)
        bundle = {
            "name": sc.name,
            "normality": _normality_section(report),
            "shift_summary": None,
            "provenance": _provenance(config_path),
        }
        path = _write_bundle(out_dir, f"{sc.name}.verify", bundle)
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
    seed: Optional[int] = None,
) -> int:
    """Run the configured shift and write trajectories plus a summary."""
    try:
        _check_options(tolerance, seed)  # seed is unused: shift runs are deterministic
        sc = load_scenario(config_path)
        if sc.surface is None or sc.run is None:
            raise ConfigError("scenario needs surface and run sections for a shift")
        if sc.generator["perturb"] is not None:
            raise ConfigError("generator.perturb applies to verification only")
        grid = GridSpec(ranges=sc.run["u_grid"])
        out_dir = _output_dir(out)
        with _configuring():
            m = build_metric(sc)
            gs = build_generator(sc)
            surface = build_surface(sc)
        rec = run_shift(
            gs,
            m,
            surface,
            grid,
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
        bundle = {
            "name": sc.name,
            "normality": None,
            "shift_summary": summary,
            "provenance": _provenance(config_path),
        }
        bundle_path = _write_bundle(out_dir, f"{sc.name}.shift", bundle)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
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
    p_shift.add_argument("--seed", type=int, default=None)

    p_report = sub.add_parser("report", help="render a summary bundle")
    p_report.add_argument("bundle")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.config, tolerance=args.tolerance, seed=args.seed, out=args.out)
    if args.command == "shift":
        return cmd_shift(
            args.config,
            force_constant_nu=args.force_constant_nu,
            out=args.out,
            tolerance=args.tolerance,
            seed=args.seed,
        )
    return cmd_report(args.bundle)


if __name__ == "__main__":
    sys.exit(main())
