"""Serving benchmark requests with the real ``multicolor`` package.

``Library`` imports the package from the repository's ``src`` directory;
``Served`` turns a corpus into library objects (and instance files for CLI
requests) and answers one request at a time.  Every call goes through a
module attribute looked up at call time, so a tracer that rebinds those
attributes sees it.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from corpus import Corpus, Request

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (
    "errors", "vectors", "instance", "mis", "wmax", "coloring",
    "chromatic", "oncall", "extension", "oracle", "cli",
)


class Library:
    """The multicolor submodules, imported from ``SRC``."""

    def __init__(self) -> None:
        if not (SRC / "multicolor" / "__init__.py").is_file():
            raise ImportError(f"no multicolor package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        importlib.import_module("multicolor")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"multicolor.{name}"))


def fresh_library() -> Library:
    """Import the package anew, as a new process would."""
    for name in [m for m in sys.modules if m.split(".")[0] == "multicolor"]:
        del sys.modules[name]
    return Library()


def canon(obj):
    """JSON-ready form: sets sorted, tuples as lists."""
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    if isinstance(obj, (tuple, list)):
        return [canon(x) for x in obj]
    return obj


def encode(answer) -> bytes:
    return json.dumps(canon(answer), separators=(",", ":")).encode()


def stream_answer(colorings) -> tuple[str, int, str]:
    """Count and SHA-256 of a coloring stream, consumed one item at a time."""
    h = hashlib.sha256()
    count = 0
    for c in colorings:
        h.update(encode(c))
        count += 1
    return ("stream", count, h.hexdigest())


class Served:
    """Library objects for one corpus, and the per-case state requests share."""

    def __init__(self, lib: Library, corpus: Corpus, workdir: Path) -> None:
        self.lib = lib
        self.cases = {c.name: c for c in corpus.cases}
        self.graphs = {}
        self.paths = {}
        self.cached = {}
        inst = lib.instance
        for case in corpus.cases:
            names = tuple(f"v{i}" for i in range(case.n))
            graph = inst.Graph.build(names, set(case.edges))
            graph.adjacency  # a built graph is reused, so its lazy index is too
            self.graphs[case.name] = graph
            if corpus.workload == "sparse-lists":
                self.paths[case.name] = _write_case(workdir, case, names)

    def instance(self, name: str, w=None):
        case = self.cases[name]
        return self.lib.instance.Instance(self.graphs[name], case.lists, w)

    def execute(self, req: Request, keep: bool = False):
        """Run one request and return its answer.

        A stream is reduced to its count and digest unless ``keep`` asks for
        the colorings themselves.  NotPermissibleError is an answer (None);
        any other exception propagates to the caller.
        """
        lib, name, kind = self.lib, req.case, req.kind
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = lib.cli.main([req.args[0], self.paths[name], *req.args[1:]])
            return (code, out.getvalue())
        if kind == "build":
            ws = lib.wmax.wmax(self.graphs[name], self.cases[name].lists)
            self.cached[name] = ws
            return ws.vectors
        if kind == "prune":
            return lib.wmax.prune_dominated(self.cached[name].vectors)
        if kind == "permissible":
            case = self.cases[name]
            return lib.wmax.is_permissible(self.graphs[name], case.lists, req.args[0], self.cached[name])
        if kind == "find":
            try:
                return lib.coloring.find_coloring(self.instance(name, req.args[0]), self.cached[name])
            except lib.errors.NotPermissibleError:
                return None
        if kind == "oncall":
            return lib.oncall.oncall_solutions(self.instance(name, req.args[0]), self.cached[name])
        if kind == "chromatic":
            r = lib.chromatic.weighted_chromatic(self.graphs[name], req.args[0])
            return (r.chi, r.lower_bound, r.coloring)
        if kind == "extend":
            a0, c0, w = req.args
            r = lib.extension.extend_coloring(self.graphs[name], a0, c0, w)
            return (r.bound, r.coloring)
        if kind == "stream":
            (a,) = req.args
            graph = self.graphs[name]
            inst = lib.instance.Instance(graph, lib.instance.uniform_lists(graph.n, a), (1,) * graph.n)
            colorings = lib.coloring.iter_colorings(inst, lib.wmax.wmax_uniform(graph, a))
            return list(colorings) if keep else stream_answer(colorings)
        raise ValueError(f"unknown request kind {kind!r}")


def _write_case(workdir: Path, case, names) -> str:
    doc = {
        "vertices": list(names),
        "edges": [[names[i], names[j]] for i, j in case.edges],
        "lists": {names[v]: sorted(case.lists[v]) for v in range(case.n)},
        "weights": {names[v]: case.weights[v] for v in range(case.n)},
    }
    path = os.path.join(workdir, f"{case.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path
