"""Seeded low-cap fuzz of the CLI: every run must end at once with exit 0-3.

Each run calls multicolor.cli.main in process, under one of the eight
subcommands, on one input: a JSON fixture or a small random graph, each
mutated or not, or the DIMACS fixture path3.col with its sidecar, with a
mutated sidecar or with none.  extend also gets a precoloring file,
valid or mutated, and a base palette.  --max-vectors and --max-branches
are 1000 wherever a subcommand takes them, and enumerate always gets a
--limit.  Under caps that low every guarded loop ends at once, so a run
still going after ALARM_SECONDS is an unguarded loop.

The script exits 1 if an exception escapes main (argparse's SystemExit(2)
counts as exit 2), if an exit code lies outside 0-3, or if a run
outlasts its alarm, and prints each failing argv with its input files.
It also exits 1 if some subcommand never exits 0, so that it cannot pass
on inputs that all fail their checks.

The inputs stay clear of the loops that still have no guard: k disjoint
triangles (MIS enumeration), the dead-end star (enumerate), one list of
very many colors, and a base palette of many colors (the constrained
fold's steps).

Usage: python .github/fuzz_cli.py [RUNS [SEED]]

signal.alarm bounds each run, so it needs a POSIX system.
"""

import argparse
import io
import json
import random
import signal
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "src"))
from multicolor import cli  # noqa: E402

RUNS, SEED, ALARM_SECONDS = 8000, 0, 5
CAPS = {"--max-vectors": "1000", "--max-branches": "1000"}
# flags a run may add, per subcommand; enumerate always has a limit
FLAGS = {
    "wmax": [["--prune-dominated"], ["--emit-certificates"], ["--emit-mis"]],
    "oncall": [["--with-colorings"]],
    "extend": [["--exact"]],
}
# what a mutation may put in place of any part of a document
ODD = [None, True, False, -1, 0, 1, 2, 3, 10**6, 10**30, 2**63, 1.5, "", "1", "v1",
       [], {}, [1], [1, 1], [0], [-2], [10**9], [1, 2, 3], ["v1", "v2"], ["v1", "v1"]]


class Stalled(BaseException):
    """A run outlasted its alarm; BaseException, so no handler in main takes it."""


def _alarm(signum, frame):
    raise Stalled


def random_doc(rng):
    """An instance on up to 9 vertices with lists of up to 5 colors and demand
    0..3, or now and then up to 10**6."""
    n = rng.randint(0, 9)
    names = [f"v{i + 1}" for i in range(n)]
    p = rng.random()
    doc = {
        "vertices": names,
        "edges": [[a, b] for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < p],
    }
    if rng.random() < 0.8:
        top = rng.randint(1, 5)
        doc["lists"] = {v: sorted(rng.sample(range(1, top + 1), rng.randint(0, top))) for v in names}
    if rng.random() < 0.9:
        top = 3 if rng.random() < 0.85 else 10 ** rng.randint(1, 6)
        doc["weights"] = {v: rng.randint(0, top) for v in names}
    return doc


def random_precoloring(rng, doc, a0):
    """Colors of {1..a0}, no color on both ends of an edge: up to two per
    vertex, and no more than its demand where doc gives one."""
    names = doc.get("vertices")
    if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
        return {}
    held = {v: set() for v in names}
    edges = doc["edges"] if isinstance(doc.get("edges"), list) else []
    weights = doc["weights"] if isinstance(doc.get("weights"), dict) else {}
    for v in names:
        taken = set()
        for edge in edges:
            if isinstance(edge, list) and v in edge:
                for u in edge:
                    if isinstance(u, str) and u != v:
                        taken |= held.get(u, set())
        free = sorted(set(range(1, a0 + 1)) - taken)
        most = weights.get(v, 2) if isinstance(weights.get(v), int) else 2
        held[v] = set(rng.sample(free, max(0, min(rng.randint(0, 2), most, len(free)))))
    return {v: sorted(c) for v, c in held.items() if c}


def mutate(rng, node, top=True):
    """node with one part replaced, deleted or duplicated (a copy; node is kept).

    A document is always entered, so the part is never the whole of it.
    """
    descend = top or rng.random() < 0.75
    if isinstance(node, dict) and node and descend:
        out = dict(node)
        key = rng.choice(sorted(out))
        if rng.random() < 0.15:
            del out[key]
        else:
            out[key] = mutate(rng, out[key], False)
        return out
    if isinstance(node, list) and node and descend:
        out = list(node)
        i = rng.randrange(len(out))
        op = rng.random()
        if op < 0.2:
            del out[i]
        elif op < 0.4:
            out.insert(i, out[i])
        else:
            out[i] = mutate(rng, out[i], False)
        return out
    return rng.choice(ODD)


def text_of(rng, doc):
    """doc as JSON, mutated 0-2 times (none in most runs), and now and then cut short."""
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        doc = mutate(rng, doc)
    text = json.dumps(doc)
    if rng.random() < 0.03:
        text = text[: rng.randrange(len(text) + 1)]
    return text


def make_run(rng, fixtures, commands, caps, tmp):
    """(argv, {file name: text}) for one run; the files are written to tmp."""
    command = rng.choice(commands)
    files = {}
    kind = rng.random()
    if kind < 0.1:
        instance = str(FIXTURES / "path3.col")
        side = rng.random()
        extra = []
        if side < 0.4:
            extra = ["--sidecar", str(FIXTURES / "path3_sidecar.json")]
        elif side < 0.7:
            sidecar = json.loads((FIXTURES / "path3_sidecar.json").read_text(encoding="utf-8"))
            files["side.json"] = text_of(rng, sidecar)
            extra = ["--sidecar", str(tmp / "side.json")]
        doc = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}
        argv = [command, instance, *extra]
    else:
        doc = rng.choice(fixtures) if kind < 0.5 else random_doc(rng)
        files["inst.json"] = text_of(rng, doc)
        argv = [command, str(tmp / "inst.json")]
    argv += caps[command]
    for flags in FLAGS.get(command, ()):
        if rng.random() < 0.3:
            argv += flags
    if command == "enumerate":
        argv += ["--limit", str(rng.randint(1, 5))]
    if command == "extend":
        a0 = rng.randint(0, 3)
        pre = random_precoloring(rng, doc, a0)
        files["pre.json"] = text_of(rng, pre) if rng.random() < 0.3 else json.dumps(pre)
        base = str(a0) if rng.random() < 0.9 else rng.choice(["-1", "1001", "x"])
        argv += ["--precoloring", str(tmp / "pre.json"), "--base-colors", base]
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    return argv, files


def run(argv):
    """main's exit code for argv, its output discarded."""
    signal.alarm(ALARM_SECONDS)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        signal.alarm(0)


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else RUNS
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else SEED
    rng = random.Random(seed)
    fixtures = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(FIXTURES.glob("fix_*.json"))]
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = sorted(sub.choices)
    caps = {
        name: [x for flag in CAPS if flag in parser._option_string_actions for x in (flag, CAPS[flag])]
        for name, parser in sub.choices.items()
    }
    signal.signal(signal.SIGALRM, _alarm)
    exits, failures = {name: Counter() for name in commands}, []
    slowest = (0.0, None)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(runs):
            argv, files = make_run(rng, fixtures, commands, caps, Path(tmp))
            t0 = time.perf_counter()
            try:
                code = run(argv)
            except (Exception, Stalled) as exc:
                code = exc
            took = time.perf_counter() - t0
            slowest = max(slowest, (took, argv), key=lambda s: s[0])
            exits[argv[0]][code if isinstance(code, int) else type(code).__name__] += 1
            if not (isinstance(code, int) and 0 <= code <= 3):
                failures.append((argv, files, code))
    print(f"{runs} runs, seed {seed}, in {time.perf_counter() - start:.2f} s; exits per subcommand:")
    for name, counts in exits.items():
        print(f"  {name}: " + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items(), key=str)))
    print(f"slowest run {slowest[0]:.3f} s: {slowest[1]}")
    for argv, files, code in failures:
        print(f"FAIL {code!r}: {argv}")
        for name, text in files.items():
            print(f"  {name}: {text}")
    # a subcommand that never answered was not reached past input checks
    idle = [name for name, counts in exits.items() if not counts[0]]
    if idle:
        print(f"FAIL no run exited 0 under {idle}")
    return 1 if failures or idle else 0

if __name__ == "__main__":
    sys.exit(main())
