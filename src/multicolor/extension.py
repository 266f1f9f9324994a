"""Extending a precoloring to a larger demand without recoloring.

Given a valid partial coloring C0 on the palette {1..a0} and a demand
w at least C0's weight, the question is the smallest total palette that
admits a coloring of weight w containing C0 at every vertex.  A
two-block construction answers it: grow C0 inside {1..a0} to some
constrained maximal vector w1, serve min(w, w1) of the demand there,
and meet the residual w - min(w, w1) with a uniform coloring in fresh
colors stacked above a0.  Minimising over w1 gives

    bound = a0 + min over w1 of chi(w - min(w, w1)),

where w1 ranges over wmax_constrained(graph, a0, c0).vectors and chi is
the weighted chromatic number.  The construction reaches the bound, and
no extension does better, so the bound is the optimum:

1. Take any weight-w extension of C0 over {1..a}, with a >= a0.  For
   each color x <= a0, its class is independent and holds every vertex
   precolored x, so the class grows to a member of wmax_constrained's
   family for x.
2. Let u be the part of w served by colors <= a0.  Then u <= w1 for
   some w1 in wmax_constrained(...).vectors, and since also u <= w,
   u <= min(w, w1).
3. Colors a0+1..a are a uniform coloring of w - u, and
   w - u >= w - min(w, w1).  chi is monotone, so
   a - a0 >= chi(w - min(w, w1)).  Hence a >= bound.

wmax_constrained needs no search of its own: the maximal independent
sets that contain the vertices precolored x are those of the graph
without their neighbors, so a precoloring is the list assignment
{1..a0} minus the neighbors' precolors, folded by wmax.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chromatic import ChromaticResult, ChromaticSolver
from .coloring import Coloring, _assemble, shrink, weight_of
from .errors import DEFAULT_MAX_BRANCHES
from .instance import Graph
from .vectors import Vec, leq
from .wmax import DEFAULT_MAX_VECTORS, WmaxSet, wmax

__all__ = ["ExtensionResult", "extend_coloring", "wmax_constrained"]


@dataclass(frozen=True)
class ExtensionResult:
    """The optimal palette size and a witness coloring on {1..bound}."""

    bound: int
    coloring: Coloring


def _validate_precoloring(graph: Graph, a0: int, c0: Coloring) -> None:
    if a0 < 0:
        raise ValueError("base palette size must be non-negative")
    if len(c0) != graph.n:
        raise ValueError("precoloring has wrong dimension")
    for v, held in enumerate(c0):
        bad = [x for x in held if not (1 <= x <= a0)]
        if bad:
            raise ValueError(
                f"vertex {graph.names[v]}: precolors {sorted(bad)} outside 1..{a0}"
            )
    for i, j in graph.edges:
        shared = c0[i] & c0[j]
        if shared:
            raise ValueError(
                f"edge {graph.names[i]}-{graph.names[j]}: precoloring shares "
                f"colors {sorted(shared)}"
            )


def wmax_constrained(
    graph: Graph,
    a0: int,
    c0: Coloring,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> WmaxSet:
    """Maximal demand vectors over {1..a0} among colorings containing c0.

    The family for color x is the maximal independent sets that contain
    R_x, the vertices precolored x.  R_x is independent, so these are
    exactly the maximal independent sets of G - N(R_x), in which every
    vertex of R_x is isolated.  Each vertex's list is therefore {1..a0}
    minus the colors c0 gives its neighbors, and the result is wmax of
    that assignment.  With an all-empty precoloring this is the
    unconstrained maximal set of the uniform assignment.
    """
    _validate_precoloring(graph, a0, c0)
    lists = [frozenset(range(1, a0 + 1))] * graph.n
    for i, j in graph.edges:
        lists[i] -= c0[j]
        lists[j] -= c0[i]
    return wmax(graph, tuple(lists), max_vectors)


def extend_coloring(
    graph: Graph,
    a0: int,
    c0: Coloring,
    w: Vec,
    max_vectors: int = DEFAULT_MAX_VECTORS,
    max_branches: int = DEFAULT_MAX_BRANCHES,
) -> ExtensionResult:
    """Extend c0 to weight w on the smallest palette that admits it.

    Scans the constrained maximal vectors in ascending order, keeps the
    first whose residual demand has the smallest chromatic number, and
    assembles the witness: the constrained certificate's coloring shrunk
    to min(w, w1) without touching c0's colors, plus the residual's
    chromatic witness shifted into the fresh block {a0+1..bound}.  One
    ChromaticSolver, with one MIS family and one memo, answers every
    distinct residual; every residual is at most w, so w sizes it.

    Args:
        graph: the conflict graph.
        a0: size of the already-used palette {1..a0}; with a0 = 0, c0 is
            empty and the bound is the weighted chromatic number of w.
        c0: valid precoloring using only colors from {1..a0}.
        w: target demand, at least c0's weight at every vertex.
        max_vectors: cap on the constrained maximal vector set.
        max_branches: cap on the states the chromatic solver expands over
            all residuals together.

    Returns:
        ExtensionResult; its coloring has weight w, contains c0 at every
        vertex, and uses colors from {1..bound} only, and no coloring
        with those properties fits a smaller palette.

    Raises:
        ResourceLimitExceeded: if either cap is exceeded.
    """
    _validate_precoloring(graph, a0, c0)
    w0 = weight_of(c0)
    if len(w) != graph.n:
        raise ValueError("weight vector has wrong dimension")
    if not leq(w0, w):
        raise ValueError("target demand falls below the precoloring's weight")
    constrained = wmax_constrained(graph, a0, c0, max_vectors)
    solver = ChromaticSolver(graph, w, max_branches)
    by_residual: dict[Vec, ChromaticResult] = {}
    best: tuple[ChromaticResult, Vec] | None = None
    for w1 in constrained.vectors:
        residual = tuple(x - y if x > y else 0 for x, y in zip(w, w1))
        if residual not in by_residual:
            by_residual[residual] = solver.solve(residual)
        result = by_residual[residual]
        if best is None or result.chi < best[0].chi:
            best = (result, w1)
    fresh, base = best
    full = _assemble(graph.n, constrained.certificates[base])
    protected = {v: c0[v] for v in range(graph.n)}
    kept = shrink(full, tuple(map(min, w, base)), protected)
    combined = tuple(
        kept[v] | frozenset(x + a0 for x in fresh.coloring[v]) for v in range(graph.n)
    )
    return ExtensionResult(bound=a0 + fresh.chi, coloring=combined)
