"""Each package that reaches back into ``repro.core`` imports cleanly as
the first ``repro`` package a fresh interpreter loads."""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


@pytest.mark.parametrize("package", ["repro.core", "repro.live", "repro.multicast"])
def test_imports_first(package):
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", f"import {package}"], env=env, check=True)
