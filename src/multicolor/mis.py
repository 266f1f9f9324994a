"""Enumeration of maximal independent sets as indicator vectors.

"Maximal" throughout this package means inclusion-maximal: an independent
set not properly contained in another independent set.  (The independence
number, by contrast, is defined by maximum cardinality; see
chromatic.independence_number.)  Indicator vectors always live on the full
instance index space, so the family of a color subgraph has zeros at the
vertices outside it and families taken on different subgraphs can be
summed coordinatewise.
"""

from __future__ import annotations

from collections.abc import Iterable

from .instance import Graph
from .vectors import Vec


def is_maximal_independent(graph: Graph, subset: Iterable[int]) -> bool:
    """True iff the subset is independent and no member vertex can be added.

    Raises:
        ValueError: if the subset is not contained in the graph's vertices.
    """
    chosen = frozenset(subset)
    if not chosen <= graph.members:
        raise ValueError("subset contains vertices outside the graph")
    adj = graph.adjacency
    for v in chosen:
        if adj[v] & chosen:
            return False
    for v in graph.members - chosen:
        if not (adj[v] & chosen):
            return False
    return True


def enumerate_mis(graph: Graph) -> tuple[Vec, ...]:
    """All inclusion-maximal independent sets, as sorted indicator vectors.

    Bron-Kerbosch with the pivot rule of Tomita, Tanaka and Takahashi
    (TCS 2006), run on the non-adjacency relation of the graph's members.
    Vertex sets are int bitmasks with vertex v at bit n-1-v, so ordering
    the masks as ints orders their indicator vectors lexicographically;
    tuples are built once, at the end.  The empty graph has the empty set
    as its unique maximal independent set, so it yields the zero vector.
    """
    n = graph.n
    top = n - 1
    everyone = 0
    for v in graph.members:
        everyone |= 1 << (top - v)
    # compat[b]: the members other than the vertex at bit b and its neighbours
    compat = [everyone & ~(1 << b) for b in range(n)]
    for i, j in graph.edges:
        compat[top - i] &= ~(1 << (top - j))
        compat[top - j] &= ~(1 << (top - i))

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
