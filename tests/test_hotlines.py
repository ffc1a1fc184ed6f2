"""Smoke test of ``tools/hotlines.py``, the sampling profiler of the
benchmark's workloads, at the benchmark's smallest size."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hotlines.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=120
    )


def test_profiles_a_workload_at_the_smallest_size():
    done = run_tool("--workload", "verify-generators", "--seed", "1", "--seconds", "0.2",
                    "--size", "smallest")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    header = re.match(r"workload=verify-generators seed=1 size=smallest rounds=(\d+) "
                      r"failed_ops=0 samples=(\d+) cpu_s=", lines[0])
    assert header and int(header.group(1)) >= 3
    inclusive = lines.index("inclusive functions (share of samples on the stack):")
    leaves = lines.index("leaf lines (share of samples whose innermost frame ran the line):")
    assert inclusive == 1 < leaves
    shares = [float(line.split("%")[0]) for line in lines[2:leaves] + lines[leaves + 1:]]
    assert shares and all(0.0 < share <= 100.0 for share in shares)
    # the profiler's own frames are left out of the inclusive table
    assert not any("tools/hotlines.py" in line for line in lines[2:leaves])
    if int(header.group(2)):
        assert any("normalshift" in line for line in lines[2:leaves])


@pytest.mark.parametrize(
    "args, message",
    [(("--workload", "nope"), "unknown workload 'nope'"),
     (("--workload", "cli-scenario", "--size", "huge"), "unknown size 'huge'")],
)
def test_unknown_workload_or_size_exits_2(args, message):
    done = run_tool(*args, "--seed", "1", "--seconds", "0.1")
    assert done.returncode == 2 and message in done.stderr
