"""Shared pytest wiring.

The acceptance tests hand their one-line verdicts to `acceptance_log` so
they survive output capture and get replayed in the terminal summary.
`unnormalized_residual` makes the protocol's residuals fail their
normalization check.

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


@pytest.fixture
def unnormalized_residual(monkeypatch):
    """Make teleport_residuals scale residual 1 by 1 + 1e-9, a norm defect
    of about 2e-9 that the outcome rows must refuse."""
    import entdist.protocol as protocol

    exact = protocol.teleport_residuals

    def scaled(*args):
        gammas = exact(*args).copy()
        gammas[1] *= 1 + 1e-9
        return gammas

    monkeypatch.setattr(protocol, "teleport_residuals", scaled)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
