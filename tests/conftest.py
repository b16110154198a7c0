"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import monvar

SRC = str(Path(monvar.__file__).resolve().parents[1])


def _run_fresh(script, *argv, options=()):
    """Run `script` with `argv` in a fresh interpreter, given `options`
    before its -c, that imports monvar from the tree under test."""
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *options, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def run_fresh():
    """`_run_fresh`: a script in a fresh interpreter, for what a process
    caches or has already imported."""
    return _run_fresh
