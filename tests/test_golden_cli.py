"""Golden CLI bytes: every subcommand on every fixture, run in process.

``golden_cli.json`` holds the exit code and the exact stdout of each
command in ``COMMANDS``, recorded at commit 085cdfe, before MIS families
and certificates became vertex masks.  Any difference is a change to the
CLI's answers: declare it and record the file again.  Arguments name
files in ``tests/fixtures``; stderr is not compared.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from multicolor import cli
from util import FIXTURES

GOLDEN = Path(__file__).parent / "golden_cli.json"

INSTANCES = (
    ("fix_c5.json",),
    ("fix_k2.json",),
    ("fix_k3.json",),
    ("fix_p3.json",),
    ("fix_p3_heavy.json",),
    ("fix_p4.json",),
    ("fix_sv.json",),
    ("path3.col", "--sidecar", "path3_sidecar.json"),
)

OPTIONS = (
    ("wmax",),
    ("wmax", "--prune-dominated", "--emit-certificates"),
    ("wmax", "--emit-mis"),
    ("check",),
    ("color",),
    ("enumerate", "--limit", "50"),
    ("chromatic",),
    ("oncall", "--with-colorings"),
    ("verify",),
    ("extend", "--precoloring", "pre_k3.json", "--base-colors", "2"),
)

COMMANDS = tuple(
    (command, *instance, *rest) for command, *rest in OPTIONS for instance in INSTANCES
)

FILES = {p.name for p in FIXTURES.iterdir()}


def run_in_process(args: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and stdout of cli.main, with fixture names as paths."""
    argv = [str(FIXTURES / a) if a in FILES else a for a in args]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return {tuple(case["args"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_command(golden):
    assert set(golden) == set(COMMANDS)


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_cli_bytes_match_the_golden_record(golden, args):
    code, stdout = run_in_process(args)
    assert (code, stdout) == (golden[args]["exit"], golden[args]["stdout"])
