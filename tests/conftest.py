import os
import subprocess
import sys

import pytest

import dixonian

SRC = os.path.dirname(os.path.dirname(dixonian.__file__))


def _run_fresh(code: str) -> list[str]:
    """The words a fresh interpreter prints, for what only a process's
    first call does (the one-time pi3 check) or what a process loads.
    It writes no bytecode."""
    return subprocess.run(
        [sys.executable, "-B", "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout.split()


@pytest.fixture
def run_fresh():
    return _run_fresh
