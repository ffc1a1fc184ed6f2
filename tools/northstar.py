"""Timings of the north star's own workloads, in units of the host's speed.

Usage, from the root of a checkout::

    python3 tools/northstar.py --size full

Three kinds of work are timed:

* the four shift families of the acceptance battery's criteria 7-10
  (plane, inward sphere, the constant-nu control and the plane with
  h = w), each a 7 x 7 family over t in [0, 1] at dt = 1e-3 on a
  point-wise Euclidean metric, run in this process from the table that
  the battery's ``shift_runs`` fixture runs (``tests/helpers.py``);
* ``verify`` at 200 samples on the subjects of the battery's criteria 2
  and 3 (the metrizable and the nonmetrizable generator, each in
  analytic and in finite-difference mode, and the perturbed control), on
  the same metric, run in this process from the table those criteria
  read (``verify_cases`` in ``tests/helpers.py``);
* ``normalshift shift``, ``verify`` and ``report`` on the README scenario
  and on a conformal variant of it, each as a fresh process.

After each timed item one slice of the benchmark's reference kernel
(``perfbench/reference.py``, imported and never changed) runs in this
process, and the item's ``ref`` is its seconds divided by that slice's, as
``perfbench/run.py`` divides a round by the slices run beside it.  The
figures are medians over three runs of each item.  The last line of
standard output is one JSON object.  Nothing here is a gate: the tool exits
1 only when a command fails, and 2 on a usage error.  ``--size tiny`` runs
each item once, on 5 x 5 families over ten steps and 5 verify samples,
for a smoke test.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND_TIMEOUT_S = 600

# Runs of each item per size, and what the tiny size shortens: the run's
# t_end and sample_stride, the grid points per direction and the samples
# of every verify.  The full size runs every item as it is.
SIZES = {
    "full": {"repeats": 3},
    "tiny": {"repeats": 1, "t_end": 0.01, "sample_stride": 2, "points": 5, "samples": 5},
}

README_SCENARIO = {
    "name": "plane-demo",
    "seed": 7,
    "metric": {"kind": "euclidean"},
    "generator": {"kind": "metrizable", "f": "x1", "H": "v"},
    "surface": {"kind": "plane", "axis": 2, "offset": 0.0},
    "run": {"t_end": 1.0, "dt": 0.001, "u_grid": [[-0.15, 0.15, 7], [-0.15, 0.15, 7]],
            "sample_stride": 10, "tolerance": 1e-6},
    "verify": {"box": [[0.25, 1.25], [0.25, 1.25], [0.25, 1.25]], "sample_count": 200,
               "speed_range": [0.5, 2.0], "mode": "analytic", "tolerance": 1e-8},
}
# the wavy conformal metric of the benchmark's cli-scenario workload; on it
# the README run's deviation reads 3.0e-6 at dt = 1e-3, so the variant's
# run tolerance is 1e-5
CONFORMAL_METRIC = {"kind": "conformal", "f": "0.3*sin(x1 + 2*x2) + 0.1*x3"}
CONFORMAL_TOLERANCE = 1e-5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    return parser.parse_args(argv)


def scenarios(size: str) -> dict:
    """The README scenario and its conformal variant, at ``size``."""
    shorter = SIZES[size]
    readme = json.loads(json.dumps(README_SCENARIO))
    for key in ("t_end", "sample_stride"):
        readme["run"][key] = shorter.get(key, readme["run"][key])
    if "points" in shorter:
        readme["run"]["u_grid"] = [[-0.15, 0.15, shorter["points"]]] * 2
    verify = readme["verify"]
    verify["sample_count"] = shorter.get("samples", verify["sample_count"])
    conformal = json.loads(json.dumps(readme))
    conformal.update(name="plane-conformal", metric=CONFORMAL_METRIC)
    conformal["run"]["tolerance"] = CONFORMAL_TOLERANCE
    return {"readme": readme, "conformal": conformal}


def families(size: str) -> dict:
    """Zero-argument runs of the acceptance battery's four shift families,
    from the table its ``shift_runs`` fixture runs."""
    from normalshift.shift_engine import run_shift

    from helpers import SHIFT_RUN, euclidean_metric, shift_cases

    shorter = SIZES[size]
    m = euclidean_metric()
    run_args = {key: shorter.get(key, value) for key, value in SHIFT_RUN.items()}

    def run(gs, surface, grid, forced):
        def body():
            run_shift(gs, m, surface, grid, force_constant_nu=forced, **run_args)

        return body

    cases = shift_cases(shorter["points"]) if "points" in shorter else shift_cases()
    return {name: run(*case) for name, case in cases.items()}


def verifications(size: str) -> dict:
    """Zero-argument runs of ``verify`` on the subjects of the acceptance
    battery's criteria 2 and 3, from the table those criteria read."""
    from normalshift.normality_verifier import SampleSpec, verify

    from helpers import VERIFY_RUN, euclidean_metric, verify_cases

    m = euclidean_metric()
    run_args = dict(VERIFY_RUN, count=SIZES[size].get("samples", VERIFY_RUN["count"]))

    def run(subject, mode):
        spec = SampleSpec(**run_args, mode=mode)

        def body():
            verify(subject, m, spec)

        return body

    return {name: run(*case) for name, case in verify_cases().items()}


def in_process(bodies: dict, repeats: int, ref) -> dict:
    """The summary of each zero-argument run in ``bodies``, run ``repeats``
    times in turn, and their ``total``: per repeat, the seconds and refs
    summed over the runs."""
    runs = {name: [] for name in bodies}
    for _ in range(repeats):
        for name, body in bodies.items():
            runs[name].append(timed(body, ref))
    result = {name: summary(each) for name, each in runs.items()}
    totals = [(sum(r[0] for r in row), sum(r[1] for r in row), None)
              for row in zip(*runs.values())]
    result["total"] = summary(totals)
    return result


def command(argv, workdir: Path):
    """A zero-argument run of ``normalshift`` in a fresh process; it returns
    the failure message of a nonzero exit, or None."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run():
        done = subprocess.run([sys.executable, "-m", "normalshift.cli", *argv], cwd=workdir,
                              env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return f"normalshift {argv[0]} exited {done.returncode}: {done.stderr.strip()[-300:]}"
        return None

    return run


def timed(body, ref) -> tuple:
    """(seconds, ref, failure) of one run of ``body``, with one reference slice after it."""
    started = time.perf_counter()
    failure = body()
    seconds = time.perf_counter() - started
    ref.tick()
    return seconds, seconds / ref.take(), failure


def summary(runs) -> dict:
    seconds, refs, _ = zip(*runs)
    return {"seconds": round(statistics.median(seconds), 4),
            "ref": round(statistics.median(refs), 3)}


def main(argv=None) -> int:
    args = parse_args(argv)
    repeats = SIZES[args.size]["repeats"]
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    import env

    env.prepare()
    import numpy
    import reference
    import scipy

    ref = reference.Reference()
    ref.tick()
    slice_s = ref.take()
    failures = []
    result = {
        "size": args.size,
        "repeats": repeats,
        "machine": (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
                    f"numpy={numpy.__version__} scipy={scipy.__version__} blas_threads=1"),
    }
    result["criterion7"] = in_process(families(args.size), repeats, ref)
    result["verify"] = in_process(verifications(args.size), repeats, ref)

    result["cli"] = {}
    with tempfile.TemporaryDirectory(prefix="northstar-") as tmp:
        for label, scenario in scenarios(args.size).items():
            workdir = Path(tmp) / label
            workdir.mkdir()
            path = workdir / "scenario.json"
            path.write_text(json.dumps(scenario, indent=2) + "\n")
            bundle = f"{scenario['name']}.shift.report.json"
            steps = {
                "shift": command(["shift", str(path), "--out", "."], workdir),
                "verify": command(["verify", str(path), "--out", "."], workdir),
                "report": command(["report", bundle], workdir),
            }
            result["cli"][label] = {}
            for step, body in steps.items():
                timings = [timed(body, ref) for _ in range(repeats)]
                failures += [f"{label} {failure}" for *_, failure in timings if failure]
                result["cli"][label][step] = summary(timings)
    result["reference_slice_s"] = round(slice_s, 4)
    result["failures"] = failures
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
