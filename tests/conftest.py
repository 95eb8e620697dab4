"""Shared pytest wiring.

The acceptance tests hand their one-line verdicts to `acceptance_log` so
they survive output capture and get replayed in the terminal summary.

BLAS runs on one thread, set before numpy is first imported: on a loaded
host, threaded BLAS can slow the solver tests many times over and break
their wall-time bounds although the code is unchanged.
"""

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import pytest  # noqa: E402

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance_log():
    return _acceptance_lines.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
