"""Guards shared by every test, and a terminal summary for the acceptance battery.

Each test must leave the metric handoff (the context variable
``tensor_core._handoff``) unset: nothing handed to a closure outlives its
call.

The tests in test_acceptance.py are numbered criteria; after a run this
hook prints one PASS/FAIL line per criterion, with the duration of the
phase that decided it (the test call unless set-up or teardown failed),
so the battery's outcome and its wall-clock margins can be read at a
glance regardless of verbosity settings.
"""

import re
import sys

import pytest

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(report.nodeid)
            if match is None:
                continue
            if status == "passed" and report.when != "call":
                continue
            number, slug = match.groups()
            verdict = "PASS" if status == "passed" else "FAIL"
            # a failed setup or teardown overrides a passed call
            if outcomes.get(number, ("", "PASS"))[1] == "FAIL":
                continue
            outcomes[number] = (slug.replace("_", " "), verdict, report.duration)
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(outcomes):
        slug, verdict, seconds = outcomes[number]
        terminalreporter.write_line(
            f"criterion {int(number):2d} ({slug}): {verdict} {seconds:.2f} s"
        )


@pytest.fixture(autouse=True)
def nothing_handed_outlives_a_test():
    yield
    # a test that never imported the library cannot have handed anything
    core = sys.modules.get("normalshift.tensor_core")
    assert core is None or core._handoff.get() is None, "a handoff is still set after the test"
