import os
import subprocess
import sys

import pytest

import dixonian

SRC = os.path.dirname(os.path.dirname(dixonian.__file__))


def _run_fresh(code: str, timeout: float = 120) -> list[str]:
    """The words a fresh interpreter prints, for what only a process's
    first call does (the one-time pi3 check), what a process loads, or
    what might never return.  It writes no bytecode."""
    return subprocess.run(
        [sys.executable, "-B", "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
        timeout=timeout,
    ).stdout.split()


@pytest.fixture
def run_fresh():
    return _run_fresh
