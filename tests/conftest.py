"""Shared fixtures and the acceptance gate's terminal summary."""

import os
import subprocess
import sys

import pytest

import twinwidth

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(twinwidth.__file__)))


@pytest.fixture
def run_optimized():
    """Run a script under `python -O -c` in a fresh interpreter that sees
    the package and the test helpers; returns the CompletedProcess."""
    def run(script):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
        return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance gate's per-criterion lines past output capture."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)
