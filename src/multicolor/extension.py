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

wmax_constrained needs no search of its own: the family for color x is
the graph's maximal independent sets that contain the vertices
precolored x, a filter of the graph's one family, and the families are
folded as wmax folds them.  extend_coloring filters the family its
chromatic solver enumerates, so the graph's sets are enumerated once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chromatic import ChromaticSolver
from .coloring import Coloring, from_certificate, is_valid_coloring, weight_of
from .errors import DEFAULT_MAX_BRANCHES
from .instance import Graph, Instance, color_masks, uniform_lists
from .mis import enumerate_mis
from .vectors import Vec, leq
from .wmax import DEFAULT_MAX_VECTORS, WmaxSet, vecsum_families

__all__ = ["ExtensionResult", "extend_coloring", "wmax_constrained"]


@dataclass(frozen=True)
class ExtensionResult:
    """The optimal palette size and a witness coloring on {1..bound}."""

    bound: int
    coloring: Coloring


def _validate_precoloring(graph: Graph, a0: int, c0: Coloring) -> None:
    """Raise ValueError unless c0 is a valid coloring of its own weight on {1..a0}.

    The message names the first violation is_valid_coloring finds.
    """
    if a0 < 0:
        raise ValueError("base palette size must be non-negative")
    check = is_valid_coloring(Instance(graph, uniform_lists(graph.n, a0), weight_of(c0)), c0)
    if not check.ok:
        raise ValueError(f"precoloring on 1..{a0}: {check.violations[0]}")


def wmax_constrained(
    graph: Graph,
    a0: int,
    c0: Coloring,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> WmaxSet:
    """Maximal demand vectors over {1..a0} among colorings containing c0.

    The family for color x is the maximal independent sets of the graph
    that contain R_x, the vertices precolored x, in the sorted order
    enumerate_mis gives them; these are exactly the maximal independent
    sets of G - N(R_x), the vertices whose list {1..a0} minus their
    neighbors' precolors holds x.  With an all-empty precoloring this is
    the unconstrained maximal set of the uniform assignment.
    """
    _validate_precoloring(graph, a0, c0)
    return _constrained(graph, a0, c0, enumerate_mis(graph), max_vectors)


def _constrained(
    graph: Graph, a0: int, c0: Coloring, family: tuple[int, ...], max_vectors: int
) -> WmaxSet:
    """wmax_constrained of a valid precoloring, filtered from family, the
    graph's maximal independent sets, once per color.  A graph with no
    vertex lists no color, so it folds no family."""
    required = color_masks(c0)
    families: dict[int, tuple[int, ...]] = {}
    for x in range(1, a0 + 1) if graph.n else ():
        r = required.get(x, 0)
        families[x] = tuple(m for m in family if m & r == r)
    return vecsum_families(families, graph.n, max_vectors)


def extend_coloring(
    graph: Graph,
    a0: int,
    c0: Coloring,
    w: Vec,
    max_vectors: int = DEFAULT_MAX_VECTORS,
    max_branches: int = DEFAULT_MAX_BRANCHES,
) -> ExtensionResult:
    """Extend c0 to weight w on the smallest palette that admits it.

    Scans the constrained maximal vectors in ascending order and keeps
    the first whose residual demand has the smallest chromatic number.
    Only residuals that can still win are decided: one already decided,
    or one whose start level max(ceil(|r|/alpha), max r) is at least the
    best chromatic number so far, cannot have a strictly smaller one, and
    a tie never replaces the best.  Each decision finds the level alone;
    the witness is then built once: c0, plus the constrained
    certificate's sets less the precolored vertices dealt up to
    min(w, w1) - w0 (from_certificate), plus the winning residual's
    chromatic witness shifted into the fresh block {a0+1..bound}.  Every
    set for color x contains R_x, so c0 and the smallest other colors of
    the certificate's coloring are kept.  One ChromaticSolver, with one
    memo, answers every residual; every residual is at most w, so w sizes it.  Its MIS family
    is the one the constrained families are filtered from, so the graph's
    maximal independent sets are enumerated once.

    Args:
        graph: the conflict graph.
        a0: size of the already-used palette {1..a0}; with a0 = 0, c0 is
            empty and the bound is the weighted chromatic number of w.
        c0: valid precoloring using only colors from {1..a0}.
        w: target demand, at least c0's weight at every vertex.
        max_vectors: cap on the constrained maximal vector set.
        max_branches: cap on the states the chromatic solver expands over
            the residuals decided and the winner's witness together.

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
    solver = ChromaticSolver(graph, w, max_branches)
    constrained = _constrained(graph, a0, c0, solver.family, max_vectors)
    decided: set[Vec] = set()
    best: tuple[int, Vec, Vec] | None = None  # chi, w1, residual
    for w1 in constrained.vectors:
        residual = tuple(x - y if x > y else 0 for x, y in zip(w, w1))
        if residual in decided or (
            best is not None and solver.bounds(residual)[1] >= best[0]
        ):
            continue
        decided.add(residual)
        chi = solver.chi(residual)
        if best is None or chi < best[0]:
            best = (chi, w1, residual)
    _, base, residual = best
    fresh = solver.solve(residual)
    held = color_masks(c0)
    rest = {x: m & ~held.get(x, 0) for x, m in constrained.certificates[base].items()}
    target = tuple(min(x, y) - z for x, y, z in zip(w, base, w0))
    kept = from_certificate(graph.n, rest, target)
    combined = tuple(
        c0[v] | kept[v] | frozenset(x + a0 for x in fresh.coloring[v]) for v in range(graph.n)
    )
    return ExtensionResult(bound=a0 + fresh.chi, coloring=combined)
