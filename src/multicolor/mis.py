"""Enumeration of maximal independent sets as vertex masks.

"Maximal" throughout this package means inclusion-maximal: an independent
set not properly contained in another independent set.  (The independence
number, by contrast, is defined by maximum cardinality.)  The enumeration
works on the subgraph on the vertices of a member mask (vertex v at bit
n-1-v, the whole graph by default), such as the vertices whose list holds
one color.  A maximal independent set is a mask in the same convention,
over the whole instance, so sets taken on different member sets share one
vertex numbering; the fold (wmax.vecsum_families) and the chromatic solver
widen masks into packed indicator vectors with instance.spread, the
fold on whole-byte fields, the layout of vectors.pack, and the solver on
fields of the fewest bits its demands need.
"""

from __future__ import annotations

from .instance import Graph


def enumerate_mis(graph: Graph, members: int | None = None) -> tuple[int, ...]:
    """All inclusion-maximal independent sets of the members, sorted.

    Bron-Kerbosch with the pivot rule of Tomita, Tanaka and Takahashi
    (TCS 2006), run on the non-adjacency relation of the members (all
    vertices when members is None) with an explicit stack, so a set of
    any size needs no recursion.  Each set is returned as an int mask
    with vertex v at bit n-1-v, and the masks are sorted as ints, which
    orders them as their indicator vectors are ordered lexicographically.
    The non-adjacency table is built for the member vertices only, so the
    setup cost follows the members, not n.  An empty member set has the
    empty set as its unique maximal independent set, so it yields the
    mask 0.
    """
    n = graph.n
    top = n - 1
    everyone = (1 << n) - 1 if members is None else members
    adjacency = graph.adjacency
    # compat[b]: the members other than the member at bit b and its
    # neighbours; extend reads it only at member bits, so the rest stay 0
    compat = [0] * n
    rest = everyone
    while rest:
        low = rest & -rest
        rest ^= low
        b = low.bit_length() - 1
        compat[b] = everyone & ~(low | adjacency[top - b])

    out: list[int] = []
    # (chosen, candidates, excluded) still to expand: a branch's arguments
    # do not depend on its siblings' results, so every branch of a call is
    # pushed at once and the depth costs no Python recursion
    stack = [(0, everyone, 0)]
    while stack:
        chosen, candidates, excluded = stack.pop()
        if not candidates | excluded:
            out.append(chosen)
            continue
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
            stack.append((chosen | low, candidates & c, excluded & c))
            candidates ^= low
            excluded |= low
    out.sort()
    return tuple(out)
