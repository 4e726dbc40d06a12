import os
import subprocess
import sys

import pytest


def _run_python(flags, code):
    """Stdout lines of `code` run in a fresh interpreter with `flags`; the
    package and the test oracles (`tests/oracles.py`) are importable."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src), here] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split("\n")


@pytest.fixture
def run_python():
    return _run_python
