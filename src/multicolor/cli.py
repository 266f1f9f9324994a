"""Command-line front end.

Subcommands map one-to-one onto the library: wmax, check, color, enumerate,
chromatic, oncall, extend, verify.  main loads the instance, checks its
weights and folds its wmax set once, as far as the subcommand needs them;
each handler only calls its solver and prints the answer.  Structured
output is line-delimited JSON on standard output; warnings and error
diagnostics go to standard error.  Exit codes: 0 success, 1 infeasible
or not-permissible answer, 2 input or usage error, 3 resource limit
exceeded.

Nothing here is randomized; identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice

from .chromatic import weighted_chromatic
from .coloring import Coloring, find_coloring, is_valid_coloring, iter_colorings
from .errors import DEFAULT_MAX_BRANCHES, NotPermissibleError, ResourceLimitExceeded
from .extension import extend_coloring
from .instance import Graph, Instance, load_instance, load_precoloring, vertices_of
from .oncall import oncall_solutions
from .oracle import (
    brute_all_colorings,
    brute_chromatic,
    brute_colorable,
    brute_nonrecolor_chi,
    brute_oncall,
)
from .vectors import in_hyperrectangle
from .wmax import DEFAULT_MAX_VECTORS, WmaxSet, prune_dominated, wmax

VERIFY_ENUM_BRANCHES = 100_000
NOT_PERMISSIBLE = "not permissible: no coloring meets the demand"


def _vec_format(n: int) -> str:
    """A %-template that prints an n-tuple of ints as json.dumps prints its list."""
    return "[" + ", ".join(["%d"] * n) + "]"


def _names(graph: Graph, mask: int) -> list[str]:
    return [graph.names[v] for v in vertices_of(mask, graph.n)]


def _coloring_doc(graph: Graph, coloring: Coloring) -> dict[str, list[int]]:
    return {graph.names[v]: sorted(coloring[v]) for v in range(graph.n)}


def _coloring_line(graph: Graph, coloring: Coloring) -> str:
    return json.dumps(_coloring_doc(graph, coloring))


def _cmd_wmax(args: argparse.Namespace, inst: Instance, ws: WmaxSet) -> int:
    if args.emit_mis:
        for x, family in sorted(ws.families.items()):
            for s in family:
                print(json.dumps({"color": x, "mis": _names(inst.graph, s)}))
    vectors = prune_dominated(ws.vectors) if args.prune_dominated else ws.vectors
    line = _vec_format(inst.n)
    for v in vectors:
        if args.emit_certificates:
            cert = {str(x): _names(inst.graph, s) for x, s in sorted(ws.certificates[v].items())}
            print(json.dumps({"vector": list(v), "certificate": cert}))
        else:
            print(line % v)
    return 0


def _cmd_check(args: argparse.Namespace, inst: Instance, ws: WmaxSet) -> int:
    witness = in_hyperrectangle(inst.weights, ws.vectors)
    if witness is None:
        print("NOT PERMISSIBLE")
        return 1
    print(_vec_format(inst.n) % witness)
    return 0


def _cmd_color(args: argparse.Namespace, inst: Instance, ws: WmaxSet) -> int:
    try:
        coloring = find_coloring(inst, ws)
    except NotPermissibleError:
        print(NOT_PERMISSIBLE, file=sys.stderr)
        return 1
    print(_coloring_line(inst.graph, coloring))
    return 0


def _cmd_enumerate(args: argparse.Namespace, inst: Instance, ws: WmaxSet) -> int:
    count = 0
    for count, coloring in enumerate(islice(iter_colorings(inst, ws), args.limit), 1):
        print(_coloring_line(inst.graph, coloring))
    if count:
        return 0
    # the stream is empty only when no maximal vector dominates the demand
    print(NOT_PERMISSIBLE, file=sys.stderr)
    return 1


def _cmd_chromatic(args: argparse.Namespace, inst: Instance, ws: None) -> int:
    result = weighted_chromatic(inst.graph, inst.weights, args.max_branches)
    print(json.dumps({"chi": result.chi, "lower_bound": result.lower_bound}))
    print(_coloring_line(inst.graph, result.coloring))
    return 0


def _cmd_oncall(args: argparse.Namespace, inst: Instance, ws: WmaxSet) -> int:
    line = _vec_format(inst.n)
    for sol, witness in oncall_solutions(inst, ws):
        if args.with_colorings:
            print(
                json.dumps(
                    {"vector": list(sol), "coloring": _coloring_doc(inst.graph, witness)}
                )
            )
        else:
            print(line % sol)
    return 0


def _cmd_extend(args: argparse.Namespace, inst: Instance, ws: None) -> int:
    w, c0 = inst.weights, load_precoloring(args.precoloring, inst.graph)
    # the oracle and the solver both run before any output, so a tripped
    # guard leaves stdout empty
    exact = (
        brute_nonrecolor_chi(inst.graph, args.base_colors, c0, w, args.max_branches)
        if args.exact
        else None
    )
    result = extend_coloring(
        inst.graph, args.base_colors, c0, w, args.max_vectors, args.max_branches
    )
    print(json.dumps({"bound": result.bound}))
    print(_coloring_line(inst.graph, result.coloring))
    if exact is not None:
        # the bound is the optimum: STRICT means a fault in the solver or the oracle
        verdict = "EQUALITY" if exact == result.bound else "STRICT"
        print(json.dumps({"exact": exact, "verdict": verdict}))
    return 0


def _cmd_verify(args: argparse.Namespace, inst: Instance, ws: WmaxSet) -> int:
    w, cap = inst.weights, args.max_branches
    # (name, oracle, agreement): a check whose oracle outgrows the cap is
    # skipped, and its solver does not run
    checks = (
        ("permissibility", lambda: brute_colorable(inst, cap),
         lambda witness: (witness is None) == (in_hyperrectangle(w, ws.vectors) is None)),
        ("enumeration", lambda: brute_all_colorings(inst, min(cap, VERIFY_ENUM_BRANCHES)),
         lambda expected: set(iter_colorings(inst, ws)) == expected
         and all(is_valid_coloring(inst, c).ok for c in expected)),
        ("chromatic", lambda: brute_chromatic(inst.graph, w, cap),
         lambda chi: weighted_chromatic(inst.graph, w).chi == chi),
        ("oncall", lambda: brute_oncall(inst, cap),
         lambda expected: {sol for sol, _ in oncall_solutions(inst, ws)} == expected),
    )
    verdicts = []
    for name, oracle, agrees in checks:
        try:
            expected = oracle()
        except ResourceLimitExceeded:
            print(f"SKIP {name}")
            continue
        verdicts.append(agrees(expected))
        print(f"{'PASS' if verdicts[-1] else 'FAIL'} {name}")
    if not verdicts:
        print(
            "error: no check ran: the brute-force oracle exceeded its branch cap "
            f"(--max-branches {cap}) on every check",
            file=sys.stderr,
        )
        return 3
    return 0 if all(verdicts) else 1


def _int_at_least(low: int):
    """Argparse type: an int no smaller than low; anything else exits 2."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing leaves the parser unchanged, so one instance serves every
    in-process call of main.  It is built lazily, not at import, so that
    importing the package stays cheap.
    """
    parser = argparse.ArgumentParser(
        prog="multicolor",
        description="List multicoloring of weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str, handler, help_text: str, vectors: bool = True, branches: bool = False
    ) -> argparse.ArgumentParser:
        """A subcommand on an instance, taking each cap its handler reads."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance JSON document, or a DIMACS .col file")
        p.add_argument(
            "--sidecar",
            help="JSON sidecar supplying lists/weights for a .col instance",
        )
        if vectors:
            p.add_argument(
                "--max-vectors",
                type=_int_at_least(0),
                default=DEFAULT_MAX_VECTORS,
                help="cap on intermediate demand-vector sets (default %(default)s)",
            )
        if branches:
            p.add_argument(
                "--max-branches",
                type=_int_at_least(0),
                default=DEFAULT_MAX_BRANCHES,
                help="cap on search work: brute-force branches, or the states the "
                "chromatic search expands (default %(default)s)",
            )
        p.set_defaults(func=handler)
        return p

    p = add("wmax", _cmd_wmax, "print the maximal demand vectors, one JSON array per line")
    p.add_argument(
        "--prune-dominated",
        action="store_true",
        help="drop vectors dominated by another member",
    )
    p.add_argument(
        "--emit-certificates",
        action="store_true",
        help="print each vector with its per-color independent sets",
    )
    p.add_argument(
        "--emit-mis",
        action="store_true",
        help="first print each color's maximal independent sets",
    )

    add("check", _cmd_check, "test whether the instance's demand is satisfiable")
    add("color", _cmd_color, "print one coloring meeting the demand")

    p = add("enumerate", _cmd_enumerate, "print every coloring, one JSON object per line")
    p.add_argument(
        "--limit", type=_int_at_least(1), help="stop after this many colorings"
    )

    add(
        "chromatic",
        _cmd_chromatic,
        "smallest uniform palette meeting the demand",
        vectors=False,
        branches=True,
    )

    p = add("oncall", _cmd_oncall, "best satisfiable demands below the requested one")
    p.add_argument(
        "--with-colorings",
        action="store_true",
        help="print a witness coloring for each solution vector",
    )

    p = add("extend", _cmd_extend, "extend a precoloring to a larger demand", branches=True)
    p.add_argument(
        "--precoloring",
        required=True,
        help="JSON file mapping vertex names to their fixed color lists",
    )
    p.add_argument(
        "--base-colors",
        type=int,
        required=True,
        help="size a0 of the palette the precoloring lives in",
    )
    p.add_argument(
        "--exact",
        action="store_true",
        help="also compute the exact optimum by brute force",
    )

    add("verify", _cmd_verify, "cross-check the solvers against brute force", branches=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    Before the handler runs, the instance is loaded, its weights are
    required (by all but wmax), and its wmax set is folded (for all but
    chromatic and extend, which use a uniform palette and warn instead if
    the instance has lists); the handler gets the instance and the set.
    """
    args = build_parser().parse_args(argv)
    try:
        inst = load_instance(args.instance, args.sidecar)
        if args.command != "wmax":
            inst.require_weights()
        uniform = args.command in ("chromatic", "extend")
        if uniform and any(inst.lists):
            print(
                "warning: the instance's color lists are ignored; "
                "this problem uses a uniform palette",
                file=sys.stderr,
            )
        ws = None if uniform else wmax(inst.graph, inst.lists, args.max_vectors)
        return args.func(args, inst, ws)
    except ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
