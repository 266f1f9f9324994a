"""Enumeration of maximal independent sets as indicator vectors.

"Maximal" throughout this package means inclusion-maximal: an independent
set not properly contained in another independent set.  (The independence
number, by contrast, is defined by maximum cardinality; see
chromatic.independence_number.)  Both functions here work on the subgraph
on the vertices of a member mask (vertex v at bit n-1-v, the whole graph
by default), such as the vertices whose list holds one color.  Indicator
vectors always live on the full instance index space, so a family has
zeros outside its members and families taken on different member sets can
be summed coordinatewise.
"""

from __future__ import annotations

from collections.abc import Iterable

from .instance import Graph
from .vectors import Vec


def is_maximal_independent(
    graph: Graph, subset: Iterable[int], members: int | None = None
) -> bool:
    """True iff the subset is independent and no member vertex can be added.

    Raises:
        ValueError: if the subset holds a vertex outside the members.
    """
    n = graph.n
    everyone = (1 << n) - 1 if members is None else members
    vertices = set(subset)
    chosen = reach = 0
    for v in vertices:
        if not (0 <= v < n and everyone >> (n - 1 - v) & 1):
            raise ValueError("subset contains vertices outside the graph")
        chosen |= 1 << (n - 1 - v)
    for v in vertices:
        if graph.adjacency[v] & chosen:
            return False
        reach |= graph.adjacency[v]
    return not everyone & ~(chosen | reach)


def enumerate_mis(graph: Graph, members: int | None = None) -> tuple[Vec, ...]:
    """All inclusion-maximal independent sets of the members, sorted.

    Bron-Kerbosch with the pivot rule of Tomita, Tanaka and Takahashi
    (TCS 2006), run on the non-adjacency relation of the members (all
    vertices when members is None).  Vertex sets are int masks with vertex
    v at bit n-1-v, so ordering the masks as ints orders their indicator
    vectors lexicographically; tuples are built once, at the end.  An
    empty member set has the empty set as its unique maximal independent
    set, so it yields the zero vector.
    """
    n = graph.n
    top = n - 1
    everyone = (1 << n) - 1 if members is None else members
    adjacency = graph.adjacency
    # compat[b]: the members other than the vertex at bit b and its neighbours
    compat = [everyone & ~(1 << b | adjacency[top - b]) for b in range(n)]

    out: list[int] = []

    def extend(chosen: int, candidates: int, excluded: int) -> None:
        if not candidates | excluded:
            out.append(chosen)
            return
        best = -1
        rest = candidates | excluded
        while rest:
            low = rest & -rest
            rest ^= low
            count = (candidates & compat[low.bit_length() - 1]).bit_count()
            if count > best:
                best, pivot = count, low
        branch = candidates & ~compat[pivot.bit_length() - 1]
        while branch:
            low = branch & -branch
            branch ^= low
            c = compat[low.bit_length() - 1]
            extend(chosen | low, candidates & c, excluded & c)
            candidates ^= low
            excluded |= low

    extend(0, everyone, 0)
    out.sort()
    # a sentinel bit above the n fields keeps the leading zeros in bin()
    return tuple(tuple(map(int, bin(s | 1 << n)[3:])) for s in out)
