"""Smoke test of ``tools/northstar.py``, the timings of the north star's
workloads, at its tiny size."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "northstar.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_times_every_item_at_the_tiny_size():
    done = run_tool("--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["size"] == "tiny" and result["repeats"] == 1 and result["failures"] == []
    items = list(result["criterion7"].items())
    assert [name for name, _ in items] == ["plane_h0", "sphere_h0", "control", "plane_hw", "total"]
    assert list(result["verify"]) == [
        "metrizable_analytic", "metrizable_finite_diff", "nonmetrizable_analytic",
        "nonmetrizable_finite_diff", "perturbed", "total",
    ]
    items += result["verify"].items()
    for label in ("readme", "conformal"):
        assert sorted(result["cli"][label]) == ["report", "shift", "verify"]
        items += result["cli"][label].items()
    assert result["reference_slice_s"] > 0.0
    for _, figures in items:
        assert figures["seconds"] > 0.0 and figures["ref"] > 0.0


def test_unknown_size_exits_2():
    assert run_tool("--size", "huge").returncode == 2
