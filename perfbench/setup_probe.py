"""Time one workload set-up in a fresh process and print the seconds.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <workdir>``.
The clock starts before numpy or normalshift is imported, so the figure
covers importing the modules the workload uses and building its metric,
generators, surfaces or scenario.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402


def main(argv):
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    env.prepare()
    import workloads

    workloads.WORKLOADS[name](seed, "full", workdir=workdir)
    print(repr(time.perf_counter() - STARTED))


if __name__ == "__main__":
    main(sys.argv[1:])
