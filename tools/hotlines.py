"""Sampling profile of one perfbench workload: its time by function and by line.

Usage, from the root of a checkout::

    python3 tools/hotlines.py --workload verify-generators --seed 21 --seconds 6

The workload is built and warmed up as ``perfbench/run.py`` builds it, then
its rounds run for ``--seconds`` while ``ITIMER_PROF`` delivers ``SIGPROF``
to this process every millisecond of its own CPU time, or as often as the
kernel's timer allows.  Each signal records the Python stack.  Two tables
follow:

* inclusive functions: the share of samples with the function anywhere on
  the stack, counted once per sample however deep it recurses;
* leaf lines: the share of samples whose innermost Python frame was at the
  line.  A signal is handled between bytecodes, so time spent inside a
  numpy call lands on the line that made the call.

Each table lists every row at or above ``FLOOR_PCT`` of the samples, however
many that is, so a layer that a change shrank stays in view.

A sample costs nothing per Python call, so small, frequent calls are not
inflated as under ``cProfile``.  The shares are of samples, not of wall
time: time the process spends off the CPU is not seen.  The benchmark's
files are only imported, never changed.
"""

import argparse
import collections
import itertools
import linecache
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTERVAL_S = 1e-3
MIN_ROUNDS = 3
FLOOR_PCT = 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full", help="perfbench size: full or smallest")
    return parser.parse_args(argv)


def _where(code) -> str:
    path = Path(code.co_filename)
    try:
        path = path.relative_to(ROOT)
    except ValueError:
        pass
    return f"{path}:{code.co_firstlineno} {code.co_qualname}"


class Sampler:
    """Counts of the stacks seen by ``SIGPROF`` while armed."""

    def __init__(self):
        self.samples = 0
        self.inclusive = collections.Counter()
        self.leaves = collections.Counter()

    def _record(self, signum, frame):
        if frame is None:
            return
        self.samples += 1
        self.leaves[(frame.f_code, frame.f_lineno)] += 1
        codes = set()
        while frame is not None:
            codes.add(frame.f_code)
            frame = frame.f_back
        # this file's own frames are on every stack
        self.inclusive.update(code for code in codes if code.co_filename != __file__)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._record)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False


def run(workload: str, seed: int, seconds: float, size: str):
    """The sampler over ``workload``'s rounds, with the CPU seconds they took
    as ``cpu_s``, the number of rounds and of failed operations."""
    import workloads

    cls = workloads.WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="hotlines-") as workdir:
        wl = cls(seed, size, workdir=Path(workdir) / "main")
        cls(seed, "smallest", workdir=Path(workdir) / "warm").round(0)
        rounds = failed = 0
        cpu = time.process_time()
        with Sampler() as sampler:
            deadline = time.perf_counter() + seconds
            while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
                rounds += 1
                failed += sum(not op.ok for op in wl.round(rounds))
        sampler.cpu_s = time.process_time() - cpu
    return sampler, rounds, failed


def report(sampler: Sampler) -> str:
    total = max(sampler.samples, 1)

    def shown(counter):
        return itertools.takewhile(lambda row: 100.0 * row[1] >= FLOOR_PCT * total,
                                   counter.most_common())

    lines = ["inclusive functions (share of samples on the stack):"]
    for code, count in shown(sampler.inclusive):
        lines.append(f"  {100.0 * count / total:6.2f}%  {_where(code)}")
    lines.append("leaf lines (share of samples whose innermost frame ran the line):")
    for (code, line), count in shown(sampler.leaves):
        # an instruction with no line number (f_lineno None) has no text
        text = linecache.getline(code.co_filename, line).strip() if line else ""
        lines.append(f"  {100.0 * count / total:6.2f}%  {_where(code)} line {line}: {text}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import env

    env.prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.size not in workloads.SIZES:
        print(f"unknown size {args.size!r}; choose from {sorted(workloads.SIZES)}", file=sys.stderr)
        return 2
    sampler, rounds, failed = run(args.workload, args.seed, args.seconds, args.size)
    print(f"workload={args.workload} seed={args.seed} size={args.size} rounds={rounds} "
          f"failed_ops={failed} samples={sampler.samples} cpu_s={sampler.cpu_s:.3f} "
          f"(timer {INTERVAL_S * 1e3:g} ms; the kernel may deliver it more coarsely)")
    print(report(sampler))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
