"""The benchmark's workloads: seeded inputs, timed operations, gates.

A workload is built from a seed (its set-up) and then runs rounds.  A
round calls each of the workload's operations once, with inputs drawn
from ``(seed, repeat)``, so no repeat is served from the position-keyed
metric cache of an earlier one.  Every operation is timed and its result
is checked against the gates of the acceptance battery; an exception or
a missed gate makes it a failed operation.

Workloads, and why they were chosen:

* ``shift-acceptance``: the four shift families of acceptance criteria
  7-9 through the library.  ``shift_engine``, ``tensor_core`` and
  ``force_builder.force_from_W`` do the work; the verifier and
  ``expressions`` are idle.  The 49-wide family is where batching the
  integrator shows.
* ``verify-generators``: ``verify`` for the geodesic, metrizable and
  nonmetrizable generators in analytic and finite-difference mode, plus
  the perturbed negative control.  ``force_builder``, ``extended_fields``
  and ``normality_verifier`` do the work; ``shift_engine`` is idle.
* ``cli-scenario``: one scenario through the in-process CLI (shift,
  verify, report) with an expression metric and the quadrature-backed
  nonmetrizable generator on a narrow 5 x 5 family, where per-step
  overhead dominates and file output sits beside the compute.

Only the modules a workload uses are imported in its set-up, because
set-up time is measured per workload in a fresh process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# wrap(name, fn) -> fn: how the traced run counts benchmark-owned closures
Wrap = Optional[Callable[[str, Callable], Callable]]
Gate = Tuple[str, str, float]

DT = 1e-3
SPACING = 0.05  # chart spacing of the acceptance battery's families
VERIFY_BOX = [[0.25, 1.25]] * 3
EQUATIONS = ("r_weak1", "r_weak2", "r_add1", "r_add2")
CERTIFIED_TOLERANCE = {"analytic": 1e-8, "finite-diff": 1e-5}
CONTROL_FLOOR = 1e-3

# Called after every timed operation, outside its timing.  The end-to-end
# run sets it to time a slice of the reference kernel (reference.py).
after_op: Callable[[], None] = lambda: None


@dataclass(frozen=True)
class Size:
    """How much work one round does."""

    grid: int  # chart points per direction of a shift family
    t_end: float
    stride: int
    samples: int  # verify samples per call
    cli_t_end: float
    cli_stride: int
    cli_samples: int


SIZES = {
    "full": Size(grid=7, t_end=0.02, stride=4, samples=50, cli_t_end=0.05, cli_stride=10, cli_samples=50),
    # the stencils' minimum: 5 chart points, 5 recorded times
    "smallest": Size(grid=5, t_end=0.01, stride=2, samples=5, cli_t_end=0.01, cli_stride=2, cli_samples=5),
}


@dataclass
class OpResult:
    """One timed operation and what its gates said."""

    kind: str
    name: str
    seconds: float
    failures: List[str]
    work: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def check(values: Dict[str, float], gates: Sequence[Gate]) -> List[str]:
    """Failure messages for every gate ``(quantity, '<' or '>', limit)`` missed."""
    failures = []
    for key, op, limit in gates:
        value = values[key]
        passed = value < limit if op == "<" else value > limit
        if not passed:
            failures.append(f"{key} = {value:.3e}, want {op} {limit:g}")
    return failures


def timed_op(kind: str, name: str, body: Callable[[], Tuple[List[str], dict]]) -> OpResult:
    """Time ``body``; an exception it raises is recorded as a failure."""
    started = time.perf_counter()
    try:
        failures, work = body()
    except Exception as exc:  # a raising operation is a failed operation
        traceback.print_exc(file=sys.stderr)
        failures, work = [f"{type(exc).__name__}: {exc}"], {}
    result = OpResult(kind, name, time.perf_counter() - started, failures, work)
    after_op()
    return result


def euclidean_metric(wrap: Wrap):
    tc = importlib.import_module("normalshift.tensor_core")
    eye = np.eye(3)
    zero = np.zeros((3, 3, 3))

    def g(x):
        return eye.copy()

    def dg(x):
        return zero.copy()

    if wrap is not None:
        g, dg = wrap("closure.g", g), wrap("closure.dg", dg)
    return tc.MetricField(dim=3, g=g, dg=dg)


def count_metric(m, wrap: Callable):
    return dataclasses.replace(m, g=wrap("closure.g", m.g), dg=m.dg and wrap("closure.dg", m.dg))


def count_generator(gs, wrap: Wrap):
    """The same pair (W, h) with every W and h evaluation counted."""
    if wrap is None:
        return gs
    w = gs.W
    counted = dataclasses.replace(
        w,
        eval=wrap("closure.W", w.eval),
        dx=w.dx and wrap("closure.W", w.dx),
        dspeed=w.dspeed and wrap("closure.W", w.dspeed),
    )
    return dataclasses.replace(gs, W=counted, h=wrap("closure.h", gs.h))


def _rng(seed: int, repeat: int) -> np.random.Generator:
    return np.random.default_rng([seed, repeat])


# ---------------------------------------------------------------- shift

H0_GATES: Tuple[Gate, ...] = (
    ("max_norm_phi", "<", 1e-6),
    ("W_drift", "<", 1e-8),
    ("constancy", "<", 1e-7),
    ("speed_law", "<", 1e-5),
)
CONTROL_GATES: Tuple[Gate, ...] = (("max_norm_phi", ">", 1e-3), ("speed_law", "<", 1e-5))
HW_GATES: Tuple[Gate, ...] = (
    ("max_norm_phi", "<", 1e-6),
    ("growth", "<", 1e-6),
    ("w_dynamics", "<", 1e-6),
    ("speed_law", "<", 1e-5),
)


@dataclass(frozen=True)
class Family:
    """One shift family of the acceptance battery and the gates it must meet."""

    name: str
    generator: str  # "h0": h = 0, "hw": h(w) = w
    surface: str  # "plane" or inward "sphere"
    forced: bool  # constant nu: the negative control
    gates: Tuple[Gate, ...]


FAMILIES = (
    Family("plane_h0", "h0", "plane", False, H0_GATES),
    Family("sphere_h0", "h0", "sphere", False, H0_GATES),
    Family("control", "h0", "plane", True, CONTROL_GATES),
    Family("plane_hw", "hw", "plane", False, HW_GATES),
)


class ShiftAcceptance:
    """Criteria 7-9 families, 7 x 7 at dt = 1e-3, W = |v| exp(-x1)."""

    name = "shift-acceptance"

    def __init__(self, seed: int, size: str = "full", wrap: Wrap = None,
                 workdir: Optional[Path] = None, families: Sequence[Family] = FAMILIES):
        self.fb = importlib.import_module("normalshift.force_builder")
        self.se = importlib.import_module("normalshift.shift_engine")
        self.seed, self.size, self.families = seed, SIZES[size], tuple(families)
        self.metric = euclidean_metric(wrap)
        x1 = self.fb.coordinate_scalar(0)
        self.generators = {
            "h0": count_generator(self.fb.builtin_metrizable(x1, H=lambda w: 0.0), wrap),
            "hw": count_generator(self.fb.builtin_metrizable(x1, H=lambda w: w), wrap),
        }

    def round(self, repeat: int) -> List[OpResult]:
        rng = _rng(self.seed, repeat)
        results = []
        for fam in self.families:
            centre = rng.uniform(-0.05, 0.05, size=2)
            level = float(rng.uniform(-0.1, 0.1))
            results.append(
                timed_op("family", fam.name, lambda: self._family(fam, centre, level))
            )
        return results

    def _family(self, fam: Family, centre: np.ndarray, level: float):
        se, size, m = self.se, self.size, self.metric
        if fam.surface == "plane":
            base = (float(centre[0]), float(centre[1]))
            surface = se.plane_surface(offset=level, base_u=base)
        else:
            base = (0.5 * math.pi + float(centre[0]), float(centre[1]))
            surface = se.sphere_surface(orientation=-1.0, base_u=base)
        half = 0.5 * SPACING * (size.grid - 1)
        grid = se.GridSpec(ranges=tuple((c - half, c + half, size.grid) for c in base))
        gs = self.generators[fam.generator]
        started = time.perf_counter()
        rec = se.run_shift(
            gs, m, surface, grid, t_end=size.t_end, dt=DT,
            sample_stride=size.stride, force_constant_nu=fam.forced,
        )
        shift_s = time.perf_counter() - started
        W = rec.W_vals
        values = {
            "max_norm_phi": se.max_normalized_deviation(rec, m),
            "w_dynamics": se.w_dynamics_residual(rec, gs),
            "constancy": float(np.max(se.surface_constancy_residual(rec))),
            "speed_law": se.speed_law_residual(rec, self.fb.as_force_field(gs), m),
            "W_drift": float(np.max(np.abs(W - W[:, :1]))),
            "growth": float(np.max(np.abs(W - W[:, :1] * np.exp(rec.times)[None, :]))),
        }
        steps = int(round(size.t_end / DT))
        work = {"traj_steps": rec.u_grid.shape[0] * steps, "run_shift_s": shift_s}
        return check(values, fam.gates), work


# --------------------------------------------------------------- verify


class VerifyGenerators:
    """``verify`` per generator and mode, plus the perturbed-field control."""

    name = "verify-generators"

    def __init__(self, seed: int, size: str = "full", wrap: Wrap = None,
                 workdir: Optional[Path] = None):
        fb = importlib.import_module("normalshift.force_builder")
        self.nv = importlib.import_module("normalshift.normality_verifier")
        tc = importlib.import_module("normalshift.tensor_core")
        self.seed, self.size = seed, SIZES[size]
        self.metric = euclidean_metric(wrap)
        x1 = fb.coordinate_scalar(0)
        geodesic = count_generator(fb.builtin_geodesic(), wrap)
        metrizable = count_generator(fb.builtin_metrizable(x1, H=lambda w: w), wrap)
        nonmetrizable = count_generator(fb.builtin_nonmetrizable(x1, lambda v: v**3), wrap)
        # a bare ForceField: the verifier takes its finite-difference path
        perturbed = fb.perturbed_field(
            fb.as_force_field(metrizable), 0, lambda m_, x, v: tc.speed_at(m_, x, v) * x[1]
        )
        self.cases = (
            ("geodesic-analytic", geodesic, "analytic", "exact"),
            ("geodesic-finite-diff", geodesic, "finite-diff", "exact"),
            ("metrizable-analytic", metrizable, "analytic", "certified"),
            ("metrizable-finite-diff", metrizable, "finite-diff", "certified"),
            ("nonmetrizable-analytic", nonmetrizable, "analytic", "certified"),
            ("nonmetrizable-finite-diff", nonmetrizable, "finite-diff", "certified"),
            ("perturbed-control", perturbed, "analytic", "violated"),
        )

    def round(self, repeat: int) -> List[OpResult]:
        seeds = _rng(self.seed, repeat).integers(0, 2**31 - 1, size=len(self.cases))
        return [
            timed_op("verify", name, lambda: self._verify(subject, mode, expect, int(s)))
            for (name, subject, mode, expect), s in zip(self.cases, seeds)
        ]

    def _verify(self, subject, mode: str, expect: str, halton_seed: int):
        count = self.size.samples
        spec = self.nv.SampleSpec(box=VERIFY_BOX, count=count, seed=halton_seed, mode=mode)
        report = self.nv.verify(subject, self.metric, spec)
        residuals = report.residuals()
        worst = {"equations": max(residuals[k] for k in EQUATIONS)}
        if expect == "exact":
            failures = [f"{k} = {v:.3e}, want exactly 0" for k, v in residuals.items() if v != 0.0]
        elif expect == "certified":
            failures = check(worst, (("equations", "<", CERTIFIED_TOLERANCE[mode]),))
        else:
            failures = check(worst, (("equations", ">", CONTROL_FLOOR),))
        if report.passed != (expect != "violated"):
            failures.append(f"report.passed is {report.passed}")
        return failures, {"samples": count}


# ------------------------------------------------------------------ cli

CLI_NAME = "bench"


class CliScenario:
    """Shift, verify and report of one scenario through ``normalshift.cli.main``."""

    name = "cli-scenario"

    def __init__(self, seed: int, size: str = "full", wrap: Wrap = None,
                 workdir: Optional[Path] = None):
        if workdir is None:
            raise ValueError("the cli-scenario workload needs a working directory")
        self.cli = importlib.import_module("normalshift.cli")
        self.size = SIZES[size]
        offset = _rng(seed, 0).uniform(-0.05, 0.05, size=2)
        centre = (0.5 * math.pi + float(offset[0]), float(offset[1]))
        scenario = {
            "name": CLI_NAME,
            "seed": seed,
            "metric": {"kind": "conformal", "f": "0.3*sin(x1 + 2*x2) + 0.1*x3"},
            "generator": {"kind": "nonmetrizable", "f": "x1", "A": "v^3"},
            "surface": {"kind": "sphere", "orientation": -1, "base_u": list(centre)},
            "run": {
                "t_end": self.size.cli_t_end,
                "dt": DT,
                "u_grid": [[c - 0.1, c + 0.1, 5] for c in centre],
                "sample_stride": self.size.cli_stride,
                "tolerance": 1e-6,
            },
            "verify": {"box": VERIFY_BOX, "sample_count": self.size.cli_samples},
        }
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / "scenario.json"
        self.path.write_text(json.dumps(scenario, indent=2) + "\n")
        self.out = workdir / "out"
        self.csv_digest: Optional[str] = None
        # what a first command builds before it computes anything
        sc = self.cli.load_scenario(self.path)
        self.cli.build_metric(sc)
        self.cli.build_generator(sc)
        self.cli.build_surface(sc)

    @staticmethod
    def trace_posts(wrap: Callable) -> Dict[str, Callable]:
        """Count the closures the CLI builds from the scenario."""
        return {
            "cli.build_metric": lambda m: count_metric(m, wrap),
            "cli.build_generator": lambda gs: count_generator(gs, wrap),
        }

    def _main(self, argv: List[str]) -> Tuple[int, str]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = self.cli.main(argv)
        return code, captured.getvalue()

    def _expect_zero(self, argv: List[str]) -> List[str]:
        code, text = self._main(argv)
        return [] if code == 0 else [f"{argv[0]} exited {code}: {text.strip()[-300:]}"]

    def round(self, repeat: int) -> List[OpResult]:
        del repeat  # every repeat runs the same scenario; its CSV must not change
        return [
            timed_op("cli_shift", "shift", self._shift),
            timed_op("cli_verify", "verify", self._verify),
            timed_op("cli_report", "report", self._report),
        ]

    def _shift(self):
        failures = self._expect_zero(["shift", str(self.path), "--out", str(self.out)])
        steps = int(round(self.size.cli_t_end / DT))
        work = {"traj_steps": 25 * steps}
        if failures:
            return failures, work
        csv = (self.out / f"{CLI_NAME}.trajectories.csv").read_bytes()
        digest = hashlib.sha256(csv).hexdigest()
        if self.csv_digest is None:
            self.csv_digest = digest
        elif digest != self.csv_digest:
            failures.append("trajectory CSV differs from the first repeat's")
        work["csv_bytes"] = len(csv)
        return failures, work

    def _verify(self):
        failures = self._expect_zero(["verify", str(self.path), "--out", str(self.out)])
        return failures, {"samples": self.size.cli_samples}

    def _report(self):
        bundle = self.out / f"{CLI_NAME}.shift.report.json"
        return self._expect_zero(["report", str(bundle)]), {}


WORKLOADS = {cls.name: cls for cls in (ShiftAcceptance, VerifyGenerators, CliScenario)}
