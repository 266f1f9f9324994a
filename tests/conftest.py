"""Suite-wide setup: every test, in process and in CLI subprocesses,
imports ``multicolor`` from this checkout's ``src``.

A relative ``PYTHONPATH=src`` stops resolving once a subprocess runs in
another directory, and an installed copy of the package would shadow the
code under test, so the absolute ``src`` goes first in both places.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from util import FIXTURES  # noqa: E402  (needs SRC on sys.path)

_IMPORT_FAILED = re.compile(r"No module named '?multicolor\b")


@pytest.fixture
def run_cli():
    """Run ``python -m multicolor ARGS`` from the fixtures directory.

    The child gets the inherited environment with ``SRC`` first on
    ``PYTHONPATH``.  Returns the ``CompletedProcess``; a child still
    running after ``timeout`` seconds is killed and the test errors.  A
    child that cannot import the package fails the test with its stderr,
    so an import failure is never mistaken for an expected exit 1 or an
    empty answer.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))

    def run(*args: str, text: bool = True, timeout: float | None = None) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, "-m", "multicolor", *args],
            cwd=FIXTURES,
            env=env,
            capture_output=True,
            text=text,
            timeout=timeout,
        )
        stderr = proc.stderr if text else proc.stderr.decode(errors="replace")
        if _IMPORT_FAILED.search(stderr):
            pytest.fail(f"the CLI subprocess could not import multicolor:\n{stderr}")
        return proc

    return run
