"""Independent reference computations used to build and check the corpus.

Nothing here imports ``multicolor``: the corpus must not depend on the
program under test, and the answer checker must not trust it.  Vertex sets
are int bitmasks and demand vectors are tuples of ints.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence

Vec = tuple[int, ...]
Edges = Sequence[tuple[int, int]]


def adjacency(n: int, edges: Edges) -> list[int]:
    """Neighbour bitmask of every vertex."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def maximal_independent_sets(adj: Sequence[int], members: int) -> list[int]:
    """All maximal independent sets of the subgraph induced by ``members``.

    Bron-Kerbosch with a pivot on the complement; returns bitmasks.  The
    empty subgraph has exactly one maximal independent set, the empty one.
    """
    out: list[int] = []

    def extend(chosen: int, cand: int, excl: int) -> None:
        if not cand and not excl:
            out.append(chosen)
            return
        pool, pivot, best = cand | excl, 0, -1
        while pool:
            u = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            hits = (cand & ~adj[u] & ~(1 << u)).bit_count()
            if hits > best:
                pivot, best = u, hits
        branch = cand & (adj[pivot] | (1 << pivot))
        while branch:
            v = (branch & -branch).bit_length() - 1
            branch &= branch - 1
            blocked = adj[v] | (1 << v)
            extend(chosen | (1 << v), cand & ~blocked, excl & ~blocked)
            cand &= ~(1 << v)
            excl |= 1 << v

    extend(0, members & ((1 << len(adj)) - 1), 0)
    return out


def color_families(n: int, edges: Edges, lists: Sequence[frozenset[int]]) -> dict[int, list[int]]:
    """Per colour, the maximal independent sets of that colour's subgraph."""
    adj = adjacency(n, edges)
    colors = sorted(set().union(*lists))
    return {
        c: maximal_independent_sets(
            adj, sum(1 << v for v in range(n) if c in lists[v])
        )
        for c in colors
    }


FIELD = 4  # bits per coordinate of a packed vector; coordinates stay below 16


def packed_sums(n: int, families: dict[int, list[int]]) -> set[int]:
    """Every sum of one maximal independent set per colour, packed.

    Coordinate i of a sum is bits [FIELD*i, FIELD*(i+1)) of one int, so a
    vector sum is one integer addition.  A coordinate is at most the number
    of colours whose family covers its vertex, which must stay below
    2**FIELD.
    """
    covered = [0] * n
    for family in families.values():
        union = 0
        for m in family:
            union |= m
        for v in range(n):
            covered[v] += union >> v & 1
    if max(covered, default=0) >= 1 << FIELD:
        raise ValueError("a vertex is covered by too many colours for packed vectors")
    sums = {0}
    for c in sorted(families):
        rows = [sum(1 << (FIELD * v) for v in range(n) if m >> v & 1) for m in families[c]]
        sums = {s + r for s in sums for r in rows}
    return sums


def demand_vectors(n: int, families: dict[int, list[int]]) -> set[Vec]:
    """Every sum of one maximal independent set per colour (the wmax set)."""
    mask = (1 << FIELD) - 1
    return {tuple(s >> (FIELD * v) & mask for v in range(n)) for s in packed_sums(n, families)}


def leq(x: Vec, y: Vec) -> bool:
    return all(a <= b for a, b in zip(x, y))


def dominated(w: Vec, vectors: Iterable[Vec]) -> bool:
    """True iff some member lies above w coordinatewise."""
    return any(leq(w, m) for m in vectors)


@functools.cache
def maxima(vectors: frozenset[Vec]) -> frozenset[Vec]:
    """Members not strictly below another member (Kung-Luccio-Preparata)."""
    kept: list[Vec] = []
    for x in sorted(vectors, key=lambda v: (-sum(v), v)):
        if not any(leq(x, y) for y in kept):
            kept.append(x)
    return frozenset(kept)


def best_partial_norm(w: Vec, vectors: Iterable[Vec]) -> int:
    """Largest total of a satisfiable demand below w."""
    return max(sum(min(a, b) for a, b in zip(w, m)) for m in vectors)


def coloring_violations(
    n: int,
    edges: Edges,
    allowed: Sequence[frozenset[int]],
    demand: Vec,
    coloring: Sequence[Iterable[int]],
) -> list[str]:
    """Why a coloring is not a valid list multicoloring of exactly ``demand``."""
    if len(coloring) != n:
        return [f"expected {n} vertex entries, got {len(coloring)}"]
    sets = [frozenset(s) for s in coloring]
    problems = []
    for v in range(n):
        if not sets[v] <= allowed[v]:
            problems.append(f"vertex {v}: colours {sorted(sets[v] - allowed[v])} not allowed")
        if len(sets[v]) != demand[v]:
            problems.append(f"vertex {v}: {len(sets[v])} colours, demand {demand[v]}")
    for i, j in edges:
        if sets[i] & sets[j]:
            problems.append(f"edge {i}-{j} shares colours {sorted(sets[i] & sets[j])}")
    return problems


def cycle_edges(n: int) -> set[tuple[int, int]]:
    """Edges of C_n with its vertices in ring order."""
    return {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}


def odd_cycle_chi(n: int, b: int) -> int:
    """Weighted chromatic number of C_n, n odd, under uniform demand b."""
    k = (n - 1) // 2
    return 2 * b + -(-b // k)


def cycle_colorings(n: int, a: int) -> int:
    """Number of proper a-colourings of C_n (its chromatic polynomial)."""
    return (a - 1) ** n + (-1) ** n * (a - 1)
