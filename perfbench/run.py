"""Benchmark of normalshift: end-to-end figures or a traced per-layer breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload shift-acceptance --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times the workload's set-up in several fresh
processes, warms up on the smallest inputs, then runs rounds of the
workload for ``--seconds`` and reports ``setup_s``, ``round_ref`` and
``peak_rss_mb``.  ``round_ref`` is the median over rounds of a round's
wall time divided by the time a fixed reference kernel took in slices
run between the round's operations (``reference.py``): the round's cost
in units of the host's speed at that moment, which stays steady while
the shared host's speed drifts.  Raw round seconds are printed beside
it.  With ``--trace 1`` it runs one round under the span
tracer between two untraced rounds and reports calls and self-time shares
per library function, closure counts and the tracing overhead; the spans
are written to ``.perfbench/spans-<workload>-seed<n>.npz``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
BLAS and OpenMP run with one thread.  Without the ``src`` tree next to
``perfbench`` the run exits nonzero and prints no result.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

SETUP_PROBES = 5
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_summary(values):
    """Median, the highest percentile with at least ten samples beyond it, n."""
    ordered = sorted(values)
    n = len(ordered)
    line = f"median={statistics.median(ordered):.6g}"
    if n > 10:
        p = math.floor(100.0 * (1.0 - 10.0 / n))
        line += f" p{p}={ordered[max(0, math.ceil(p * n / 100.0) - 1)]:.6g}"
    return line + f" n={n}"


def machine_line() -> str:
    import numpy
    import scipy

    return (
        f"machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} blas_threads=1"
    )


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Set-up seconds of one fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed), str(workdir)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def timed_round(wl, repeat: int):
    started = time.perf_counter()
    ops = wl.round(repeat)
    return time.perf_counter() - started, ops


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def print_workload_figures(ops) -> None:
    """Per-operation figures (median, tail percentile, sample count) of the ops run."""
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    families = by_kind.get("family", [])
    if families:
        print("shift_family_s:", tail_summary([op.seconds for op in families]))
        steps = sum(op.work.get("traj_steps", 0) for op in families)
        inside = sum(op.work.get("run_shift_s", 0.0) for op in families)
        print(f"shift_traj_steps_per_s: {ratio(steps, inside):.6g} (inside run_shift)")
    verifies = by_kind.get("verify", [])
    if verifies:
        samples = sum(op.work.get("samples", 0) for op in verifies)
        print(f"verify_samples_per_s: {ratio(samples, sum(op.seconds for op in verifies)):.6g}")
        for name in dict.fromkeys(op.name for op in verifies):
            same = [op for op in verifies if op.name == name]
            rate = ratio(sum(op.work.get("samples", 0) for op in same), sum(op.seconds for op in same))
            print(f"  {name}: {rate:.6g} samples/s, seconds {tail_summary([op.seconds for op in same])}")
    for kind in ("cli_shift", "cli_verify", "cli_report"):
        if by_kind.get(kind):
            print(f"{kind}_s:", tail_summary([op.seconds for op in by_kind[kind]]))
    if by_kind.get("cli_shift"):
        shifts = by_kind["cli_shift"]
        steps = sum(op.work.get("traj_steps", 0) for op in shifts)
        print(f"shift_traj_steps_per_s: {ratio(steps, sum(op.seconds for op in shifts)):.6g} (whole command)")
        cli_verifies = by_kind.get("cli_verify", [])
        samples = sum(op.work.get("samples", 0) for op in cli_verifies)
        print(f"verify_samples_per_s: {ratio(samples, sum(op.seconds for op in cli_verifies)):.6g} (whole command)")


def report_failures(ops) -> int:
    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"FAILED {op.kind} {op.name}: {'; '.join(op.failures)}", file=sys.stderr)
    return len(failed)


def end_to_end(args, workloads, workdir: Path) -> dict:
    import reference

    cls = workloads.WORKLOADS[args.workload]
    setups = [
        probe_setup(args.workload, args.seed, workdir / f"probe{k}") for k in range(SETUP_PROBES)
    ]
    wl = cls(args.seed, "full", workdir=workdir / "main")
    ref = reference.Reference()
    workloads.after_op = ref.tick
    ops = cls(args.seed, "smallest", workdir=workdir / "warm").round(0)
    ref.take()
    rounds, refs, ratios = [], [], []
    deadline = time.perf_counter() + args.seconds
    repeat = 1
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        seconds, round_ops = timed_round(wl, repeat)
        ref_s = ref.take()
        rounds.append(seconds - ref_s)
        refs.append(ref_s)
        ratios.append(rounds[-1] / ref_s)
        ops += round_ops
        repeat += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"setup_s: median={statistics.median(setups):.6g} of {SETUP_PROBES} fresh processes "
          + " ".join(f"{s:.4g}" for s in setups))
    print("round_s:", tail_summary(rounds))
    print("reference_s (kernel slices beside each round):", tail_summary(refs))
    print("round_ref (round_s / reference_s, per round):", tail_summary(ratios))
    print_workload_figures(ops)
    failed = report_failures(ops)
    print(f"peak_rss_mb: {peak_rss_mb:.6g}")
    print(f"failed_ratio: {ratio(failed, len(ops)):.6g} ({failed} of {len(ops)} operations)")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "round_ref": (statistics.median(ratios), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"ops": ops, "metrics": metrics}


def traced(args, workloads, tracing, workdir: Path) -> dict:
    names = list(workloads.WORKLOADS)
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, "full", workdir=workdir / "main")
    ops = cls(args.seed, "smallest", workdir=workdir / "warm").round(0)
    before, round_ops = timed_round(wl, 1)
    ops += round_ops
    tracer, traced_ops = tracing.trace_round(
        cls, args.seed, "full", workdir / "traced", names.index(args.workload), repeat=2
    )
    after, round_ops = timed_round(wl, 3)
    ops += traced_ops + round_ops
    spans_path = env.SCRATCH / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_path)

    bd = tracer.breakdown()
    traced_round = bd["bench.round"]["incl_s"]
    total = traced_round + bd["bench.setup"]["incl_s"]
    overhead_pct = 100.0 * (traced_round / (0.5 * (before + after)) - 1.0)
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}

    def row(name):
        return bd.get(name, empty)

    metrics = {}
    print(f"{'function':48s} {'calls':>9s} {'self_s':>10s} {'incl_s':>10s} {'self%':>7s}")
    for name in tracing.layer_functions():
        r = row(name)
        metrics[f"{name}.calls"] = (r["calls"], "count")
        metrics[f"{name}.self_pct"] = (100.0 * r["self_s"] / total, "%")
        if r["calls"]:
            print(f"{name:48s} {r['calls']:9d} {r['self_s']:10.4f} {r['incl_s']:10.4f} "
                  f"{100.0 * r['self_s'] / total:7.2f}")
    for mod, self_s in tracing.sum_by_module(bd, "self_s").items():
        metrics[f"{mod}.self_pct"] = (100.0 * self_s / total, "%")
        print(f"module {mod}: self_s={self_s:.4f} ({100.0 * self_s / total:.2f}%)")
    bench_self = row("bench.setup")["self_s"] + row("bench.round")["self_s"]
    print(f"benchmark's own code: self_s={bench_self:.4f}; traced total {total:.4f} s")

    scoped = tracer.scoped
    rhs = row("shift_engine._flow_rhs")["calls"]
    samples = sum(op.work.get("samples", 0) for op in traced_ops)
    traj_steps = sum(op.work.get("traj_steps", 0) for op in traced_ops)
    counts = {
        "tensor_core.g_evals": (tracer.counts["closure.g"], "count"),
        "tensor_core.dg_evals": (tracer.counts["closure.dg"], "count"),
        "tensor_core.g_evals_per_rhs": (
            ratio(scoped[("closure.g", "shift_engine.run_shift")], rhs), "count/rhs"),
        "shift_engine.rhs_evals": (rhs, "count"),
        "shift_engine.W_evals_per_solve": (
            ratio(scoped[("closure.W", "shift_engine.solve_nu")], row("shift_engine.solve_nu")["calls"]),
            "count/solve"),
        "force_builder.W_evals": (tracer.counts["closure.W"], "count"),
        "force_builder.h_evals": (tracer.counts["closure.h"], "count"),
        "force_builder.W_evals_per_force": (
            ratio(scoped[("closure.W", "force_builder.force_from_W")], row("force_builder.force_from_W")["calls"]),
            "count/force"),
        "normality_verifier.W_evals_per_sample": (
            ratio(scoped[("closure.W", "normality_verifier.verify")], samples), "count/sample"),
        "expressions.evals_per_traj_step": (
            ratio(scoped[("expressions.Expression.eval", "shift_engine.run_shift")], traj_steps),
            "count/step"),
        "cli.csv_bytes": (sum(op.work.get("csv_bytes", 0) for op in traced_ops), "B"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.absent_functions": (len(tracer.absent), "count"),
    }
    metrics.update(counts)
    for name, (value, unit) in counts.items():
        print(f"{name}: {value:.6g} {unit}")
    christoffel = row("tensor_core.christoffel_at")["incl_s"]
    force = row("force_builder.force_from_W")["incl_s"]
    run_shift = row("shift_engine.run_shift")["incl_s"]
    if run_shift:
        print(f"share of run_shift: christoffel_at {100 * christoffel / run_shift:.1f}%, "
              f"force_from_W {100 * force / run_shift:.1f}% (inclusive, traced)")
    print(f"untraced rounds {before:.4f} s and {after:.4f} s; traced round {traced_round:.4f} s; "
          f"{tracer.span_count()} spans in {spans_path.relative_to(env.ROOT)}")
    if tracer.absent:
        print("absent functions:", ", ".join(tracer.absent))
    report_failures(ops)
    return {"ops": ops, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    env.prepare()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(machine_line())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    workdir = env.SCRATCH / f"run-{os.getpid()}"
    try:
        if args.trace:
            result = traced(args, workloads, tracing, workdir)
        else:
            result = end_to_end(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = result["ops"]
    failed = sum(not op.ok for op in ops)
    line = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
