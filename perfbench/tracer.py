"""Span tracing of normalshift from outside the package.

The tracer wraps public functions of the library by rebinding them in
every ``normalshift.*`` namespace that holds them (``from .tensor_core
import christoffel_at`` copies the binding, so patching only the defining
module would miss most callers).  Each call becomes a span: name, start,
end, parent span and workload id, kept in memory and written out once the
run ends.  Closures that the benchmark owns (the metric g and dg, the
generator's W and h) are counted without spans.

A function that no longer exists is reported as absent instead of failing,
so the breakdown survives API rewrites of the library.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Layer table: module -> functions timed, by attribute path in that module.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "tensor_core": (
        "metric_at",
        "inverse_metric_at",
        "metric_derivatives_at",
        "christoffel_at",
        "unit_direction",
        "speed_at",
    ),
    "shift_engine": (
        "run_shift",
        "step_trajectory",
        "solve_nu",
        "surface_normal",
        "max_normalized_deviation",
        "w_dynamics_residual",
        "speed_law_residual",
    ),
    "force_builder": (
        "force_from_W",
        "ansatz_from_generator",
        "as_force_field",
        "compute_a",
        "compute_b",
        "builtin_nonmetrizable",
    ),
    "extended_fields": (
        "spatial_gradient_isotropic",
        "isotropic_speed_derivative",
        "isotropic_second_speed_derivative",
        "velocity_gradient",
        "velocity_hessian",
    ),
    "normality_verifier": ("verify", "sample_states", "residual_eq124", "residual_reduced"),
    "expressions": ("Expression.eval", "parse_expression"),
    "cli": (
        "load_scenario",
        "build_metric",
        "build_generator",
        "build_surface",
        "write_trajectory_csv",
        "cmd_shift",
        "cmd_verify",
    ),
}

# Traced for their call counts only; not part of the per-function table.
EXTRA = {"shift_engine": ("_flow_rhs",)}

# Counts taken only while a given span is open, for the per-layer ratios.
SCOPES: Dict[str, Tuple[str, ...]] = {
    "closure.W": (
        "shift_engine.solve_nu",
        "force_builder.force_from_W",
        "normality_verifier.verify",
    ),
    "closure.g": ("shift_engine.run_shift",),
    "expressions.Expression.eval": ("shift_engine.run_shift",),
}


def layer_functions() -> List[str]:
    """Every timed function as ``module.attribute.path``, in table order."""
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _namespaces() -> List[object]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "normalshift" or name.startswith("normalshift."))
    ]


class Tracer:
    """Records spans of the wrapped library calls and counts of closures."""

    def __init__(self, workload_id: int):
        self.workload_id = workload_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._open: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.scoped: Dict[Tuple[str, str], int] = defaultdict(int)
        self._scopes: Dict[int, Tuple[int, ...]] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []
        for counted, scopes in SCOPES.items():
            self._scopes[self._id(counted)] = tuple(self._id(s) for s in scopes)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def _note(self, nid: int) -> None:
        for scope in self._scopes.get(nid, ()):
            if self._open[scope]:
                self.scoped[(self.names[nid], self.names[scope])] += 1

    def _enter(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._open[nid] += 1
        if nid in self._scopes:
            self._note(nid)
        self._start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int, nid: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[nid] -= 1

    @contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around a block."""
        nid = self._id(name)
        idx = self._enter(nid)
        try:
            yield
        finally:
            self._exit(idx, nid)

    def wrap(self, name: str, fn: Callable, post: Optional[Callable] = None) -> Callable:
        """Span-recording stand-in for ``fn``; ``post`` maps its result."""
        nid = self._id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx, nid)
            return result if post is None else post(result)

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """Call-counting stand-in for a closure the benchmark owns."""
        nid = self._id(name)
        counts = self.counts
        note = self._note

        def counting(*args, **kwargs):
            counts[name] += 1
            note(nid)
            return fn(*args, **kwargs)

        return counting

    def install(self, post: Optional[Dict[str, Callable]] = None) -> None:
        """Rebind every table function (and EXTRA) in all normalshift namespaces."""
        post = post or {}
        modules = {}
        for mod_name in LAYERS:
            try:
                modules[mod_name] = importlib.import_module(f"normalshift.{mod_name}")
            except ImportError:
                modules[mod_name] = None
        namespaces = _namespaces()
        targets = [(mod, fn) for mod, fns in LAYERS.items() for fn in fns]
        targets += [(mod, fn) for mod, fns in EXTRA.items() for fn in fns]
        for mod_name, path in targets:
            name = f"{mod_name}.{path}"
            module = modules[mod_name]
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, post.get(name))
            if owner_path:
                # a method: rebinding it on its class reaches every instance
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                if vars(ns).get(attr) is original:
                    self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds.

        Self time is a span's duration minus the durations of its child
        spans.  Inclusive time sums durations, which double counts only
        for recursive calls; none of the traced functions recurse.
        """
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        n_names = len(self.names)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(names, minlength=n_names)
        self_s = np.bincount(names, weights=self_t, minlength=n_names)
        incl_s = np.bincount(names, weights=dur, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(self.names)
        }

    def span_count(self) -> int:
        return len(self._name)

    def write(self, path: Path) -> None:
        """Write all spans as columns of one compressed numpy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self._name)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=float),
            end=np.frombuffer(self._end, dtype=float),
            workload_id=np.full(n, self.workload_id, dtype=np.int32),
        )


def trace_round(workload_cls, seed: int, size: str, workdir: Path, workload_id: int, repeat: int):
    """Set up a workload and run one round of it under a fresh tracer."""
    tracer = Tracer(workload_id)
    post = getattr(workload_cls, "trace_posts", None)
    try:
        tracer.install(post=post(tracer.counted) if post else None)
        with tracer.span("bench.setup"):
            wl = workload_cls(seed, size, wrap=tracer.counted, workdir=workdir)
        with tracer.span("bench.round"):
            ops = wl.round(repeat)
    finally:
        tracer.uninstall()
    return tracer, ops


def sum_by_module(breakdown: Dict[str, Dict[str, float]], key: str) -> Dict[str, float]:
    totals = {mod: 0.0 for mod in LAYERS}
    for name, row in breakdown.items():
        mod = name.split(".", 1)[0]
        if mod in totals:
            totals[mod] += row[key]
    return totals
