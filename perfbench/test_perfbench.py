"""Self-test of the benchmark, kept out of the library's test suite.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
Each workload runs at its smallest size, traced, twice: every gate must
pass and every per-layer count must repeat exactly.  A family checked
against the wrong gate must be counted as failed, one reference-kernel
slice must run after each operation, and the benchmark must refuse to
run without the source tree.
"""

import json
import shutil
import subprocess
import sys

import pytest

import env

env.prepare()

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def layer_counts(tracer):
    calls = {name: row["calls"] for name, row in tracer.breakdown().items()}
    return calls, dict(tracer.counts), dict(tracer.scoped)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smallest_rounds_pass_and_counts_repeat(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    seen = []
    for k in range(2):
        tracer, ops = tracing.trace_round(cls, SEED, "smallest", tmp_path / str(k), 0, repeat=1)
        assert ops
        assert [op.failures for op in ops if not op.ok] == []
        assert tracer.absent == []
        seen.append(layer_counts(tracer))
    assert seen[0] == seen[1]


def test_control_against_the_normal_gate_is_a_failure():
    control = workloads.Family("control", "h0", "plane", True, workloads.H0_GATES)
    (op,) = workloads.ShiftAcceptance(SEED, "smallest", families=[control]).round(1)
    assert not op.ok
    assert any(failure.startswith("max_norm_phi") for failure in op.failures)


def test_one_reference_slice_runs_after_each_operation():
    ref = reference.Reference()
    slices = []
    workloads.after_op = lambda: (slices.append(1), ref.tick())
    try:
        ops = workloads.VerifyGenerators(SEED, "smallest").round(1)
    finally:
        workloads.after_op = lambda: None
    assert len(slices) == len(ops)
    assert all(op.ok for op in ops)
    assert ref.take() > 0.0
    assert ref.take() == 0.0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(
        env.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        bench["command"] + ["--workload", "cli-scenario", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
