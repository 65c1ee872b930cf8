"""Collects acceptance-criterion outcomes and prints one line per criterion.

Tests tagged ``@pytest.mark.criterion(n)`` feed a summary block at the end
of the run: a criterion passes only if every tagged test passed.
"""

import pytest

CRITERIA = {
    1: "first-order convergence table (errors within 1.5x, orders within "
    "0.2, under 5 minutes)",
    2: "velocity accuracy robust in the Brinkman coefficient (15% spread "
    "at 1/h = 8)",
    3: "velocity accuracy and order robust in the Forchheimer coefficient "
    "up to 1e4",
    4: "second-order scheme keeps spatial accuracy with N = 1/h steps",
    5: "structure properties: adjoints, per-step residuals, commuting "
    "interpolants, monotone drag, zero forcing, energy bound, linear "
    "single-sweep",
    6: "global space dimensions on the 2x2 square mesh",
}

_outcomes = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    n = marker.args[0]
    if report.failed or report.skipped:
        _outcomes[n] = False
    elif report.when == "call" and report.passed:
        _outcomes.setdefault(n, True)


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_outcomes):
        status = "PASS" if _outcomes[n] else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE CRITERION {n}: {status} - {CRITERIA[n]}"
        )
