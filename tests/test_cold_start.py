"""scipy stays unloaded until the code that needs it runs.

``force_builder`` imports ``scipy.integrate`` only for a quadrature segment
that fails the Gauss-Kronrod pass, and ``normality_verifier`` imports
``scipy.special`` only when ``verify`` samples; its Halton sequence is
numpy's, so ``scipy.stats`` is never loaded.  The test session has scipy
loaded already (the verifier tests import it), so each check here runs
in a fresh interpreter with ``src`` on its path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from normalshift import force_builder
from normalshift.force_builder import builtin_nonmetrizable, coordinate_scalar

from helpers import quad_anchor_table

SRC = Path(__file__).resolve().parents[1] / "src"

# the README scenario on a 5 x 5 grid for 10 steps, and 20 verify samples
SCENARIO = {
    "name": "plane-demo",
    "seed": 7,
    "metric": {"kind": "euclidean"},
    "generator": {"kind": "metrizable", "f": "x1", "H": "v"},
    "surface": {"kind": "plane", "axis": 2, "offset": 0.0},
    "run": {
        "t_end": 0.01,
        "dt": 0.001,
        "u_grid": [[-0.15, 0.15, 5], [-0.15, 0.15, 5]],
        "sample_stride": 1,
        "tolerance": 1e-6,
    },
    "verify": {
        "box": [[0.25, 1.25], [0.25, 1.25], [0.25, 1.25]],
        "sample_count": 20,
        "speed_range": [0.5, 2.0],
        "mode": "analytic",
        "tolerance": 1e-8,
    },
}

PRELUDE = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

assert scipy_modules() == [], scipy_modules()
"""

# one source for the profile in both processes
KINKED = "lambda s: 1 + abs(s - 1.3)"
kinked = eval(KINKED)


def vanishing_profile_source() -> str:
    """The profile of ``test_profile_vanishing_between_probe_points_fails_in_quad``:
    it vanishes between two probe speeds, so only ``quad`` sees it."""
    fine = np.linspace(0.05, 5.0, 8 * force_builder.QUADRATURE_ANCHORS)
    return f"lambda s: abs(s - {float(0.5 * (fine[800] + fine[801]))!r})"


def run_cold(script: str, cwd: Path) -> dict:
    """Run ``PRELUDE`` and ``script`` in a fresh interpreter; the JSON object
    on the last line of its standard output."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + script],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_shift_and_report_never_load_scipy(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    result = run_cold(
        """
from normalshift import cli
from normalshift.force_builder import builtin_nonmetrizable, coordinate_scalar

builtin_nonmetrizable(coordinate_scalar(0), lambda v: v**3)
codes = [cli.main(["shift", "scenario.json", "--out", "out"]),
         cli.main(["report", "out/plane-demo.shift.report.json"])]
before_verify = scipy_modules()
codes.append(cli.main(["verify", "scenario.json", "--out", "out"]))
print(json.dumps({"codes": codes, "before_verify": before_verify,
                  "stats_after_verify": "scipy.stats" in sys.modules}))
""",
        tmp_path,
    )
    assert result["codes"] == [0, 0, 0]
    assert result["before_verify"] == []
    # verify's Halton sequence is built in numpy; only ndtri loads scipy
    assert not result["stats_after_verify"]


def test_importing_the_verifier_builds_no_halton_plan(tmp_path):
    result = run_cold(
        """
from normalshift import normality_verifier

plans = normality_verifier._digit_tables.cache_info().currsize
normality_verifier.halton(7, 50, 0)
print(json.dumps({"at_import": plans,
                  "after_halton": normality_verifier._digit_tables.cache_info().currsize}))
""",
        tmp_path,
    )
    # the plan is built on the first draw in its dimension, not at import
    assert result == {"at_import": 0, "after_halton": 1}


def in_process_table(monkeypatch, A) -> np.ndarray:
    """``builtin_nonmetrizable``'s anchor table for the profile A, built here."""
    tables, integrals = [], force_builder._segment_integrals

    def spy(*args):
        segments = integrals(*args)
        tables.append(np.concatenate([[0.0], np.cumsum(segments)]))
        return segments

    monkeypatch.setattr(force_builder, "_segment_integrals", spy)
    builtin_nonmetrizable(coordinate_scalar(1), A)
    return tables[0]


class TestColdFallback:
    """The ``quad`` fallback from a process that has not loaded scipy."""

    def test_kinked_profile_table_is_bit_identical(self, tmp_path, monkeypatch):
        result = run_cold(
            f"""
import numpy as np
from normalshift import force_builder
from normalshift.force_builder import builtin_nonmetrizable, coordinate_scalar

assert scipy_modules() == [], scipy_modules()
tables, integrals = [], force_builder._segment_integrals

def spy(*args):
    segments = integrals(*args)
    tables.append(np.concatenate([[0.0], np.cumsum(segments)]))
    return segments

force_builder._segment_integrals = spy
builtin_nonmetrizable(coordinate_scalar(1), {KINKED})
print(json.dumps({{"table": [value.hex() for value in tables[0].tolist()],
                   "integrate": "scipy.integrate" in sys.modules}}))
""",
            tmp_path,
        )
        cold = np.array([float.fromhex(value) for value in result["table"]])
        assert result["integrate"]  # the kink's segment went to quad
        assert cold.tobytes() == in_process_table(monkeypatch, kinked).tobytes()
        np.testing.assert_allclose(cold, quad_anchor_table(kinked), rtol=1e-14, atol=0.0)

    def test_vanishing_profile_fails_in_quad(self, tmp_path):
        result = run_cold(
            f"""
from normalshift.errors import QuadratureFailure
from normalshift.force_builder import builtin_nonmetrizable, coordinate_scalar

assert scipy_modules() == [], scipy_modules()
try:
    builtin_nonmetrizable(coordinate_scalar(0), {vanishing_profile_source()})
    message = None
except QuadratureFailure as exc:
    message = str(exc)
print(json.dumps({{"message": message}}))
""",
            tmp_path,
        )
        # quad's IntegrationWarning raised, so its filter was set after the import
        assert result["message"] is not None
        assert result["message"].startswith("adaptive quadrature")
