"""Building, validating, and enumerating list multicolorings.

A coloring assigns each vertex a finite set of colors drawn from its list,
with adjacent vertices receiving disjoint sets.  Demands are met exactly:
vertex v gets precisely w(v) colors.  A single coloring is assembled from
the per-color maximal independent sets that certify a maximal demand vector
above w, then shrunk to w; the full set of colorings is enumerated directly,
vertex by vertex, in sorted order.  Certificates hold each color's
independent set as a vertex mask (vertex v at bit n-1-v), and assembly
walks the mask's set bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from typing import Iterator, Mapping

from .errors import NotPermissibleError
from .instance import Instance, all_colors, vertices_of
from .vectors import Vec, in_hyperrectangle
from .wmax import Certificate, WmaxSet, wmax

Coloring = tuple[frozenset[int], ...]


def weight_of(coloring: Coloring) -> Vec:
    return tuple(len(c) for c in coloring)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...] = ()


def is_valid_coloring(inst: Instance, coloring: Coloring) -> ValidationResult:
    """Check a proposed coloring against an instance's demands.

    Verifies dimension, list containment, exact per-vertex set sizes, and
    disjointness across every edge; all violations are collected, not just
    the first.  A coloring of the wrong length is the one violation reported.

    Raises:
        ValueError: if the instance's weights or lists do not have one
            entry per vertex, naming the lengths.
    """
    g = inst.graph
    w = inst.require_weights()
    problems: list[str] = []
    if len(coloring) != g.n:
        return ValidationResult(False, (f"expected {g.n} vertex entries, got {len(coloring)}",))
    if len(w) != g.n or len(inst.lists) != g.n:
        raise ValueError(f"instance has {g.n} vertices, {len(w)} weights and {len(inst.lists)} lists")
    for v in range(g.n):
        extra = coloring[v] - inst.lists[v]
        if extra:
            problems.append(
                f"{g.names[v]}: colors {sorted(extra)} not in its list"
            )
        if len(coloring[v]) != w[v]:
            problems.append(
                f"{g.names[v]}: has {len(coloring[v])} colors, demand is {w[v]}"
            )
    for i, j in sorted(g.edges):
        shared = coloring[i] & coloring[j]
        if shared:
            problems.append(
                f"edge {g.names[i]}-{g.names[j]}: shares colors {sorted(shared)}"
            )
    return ValidationResult(not problems, tuple(problems))


def _assemble(n: int, certificate: Certificate) -> Coloring:
    """Certificate to coloring, trusting the entries."""
    sets: list[set[int]] = [set() for _ in range(n)]
    for x, mask in certificate.items():
        for v in vertices_of(mask, n):
            sets[v].add(x)
    return tuple(frozenset(s) for s in sets)


def shrink(
    coloring: Coloring,
    target: Vec,
    protected: Mapping[int, frozenset[int]] | None = None,
) -> Coloring:
    """Keep target[v] colors at each vertex: its protected ones, then the smallest.

    protected maps a vertex to colors that must stay.  Deleting colors
    preserves validity; the weight drops to exactly target.

    Raises:
        ValueError: if target has the wrong dimension, or if some target[v]
            is above the colors vertex v holds or below the protected ones.
    """
    if len(target) != len(coloring):
        raise ValueError("shrink target has wrong dimension")
    out: list[frozenset[int]] = []
    for v, (have, count) in enumerate(zip(coloring, target)):
        keep = have & protected.get(v, frozenset()) if protected else frozenset()
        if not len(keep) <= count <= len(have):
            raise ValueError(
                f"vertex {v}: cannot keep {count} of {len(have)} colors, "
                f"{len(keep)} of them protected"
            )
        out.append(keep.union(sorted(have - keep)[: count - len(keep)]))
    return tuple(out)


def find_coloring(inst: Instance, wmax_set: WmaxSet | None = None) -> Coloring:
    """One coloring meeting the instance's demands.

    Picks the lexicographically smallest maximal vector dominating the
    demand, builds its certificate coloring, and deletes the surplus
    colors (largest first at each vertex), so the output is deterministic.

    Raises:
        NotPermissibleError: if the demand is not satisfiable.
    """
    w = inst.require_weights()
    if wmax_set is None:
        wmax_set = wmax(inst.graph, inst.lists)
    witness = in_hyperrectangle(w, wmax_set.packed)
    if witness is None:
        raise NotPermissibleError(w)
    return shrink(_assemble(inst.graph.n, wmax_set.certificates[witness]), w)


def iter_colorings(inst: Instance, wmax_set: WmaxSet | None = None) -> Iterator[Coloring]:
    """All colorings of the instance, lazily, each exactly once.

    Backtracks over the vertices in index order: vertex v takes each
    w(v)-subset of its list, in combinations order of the sorted list, that
    is disjoint from the colors of its earlier neighbors.  The stream is
    therefore strictly increasing under the key
    tuple(tuple(sorted(s)) for s in coloring).  The trailing run of
    mutually non-adjacent vertices depends only on the vertices before it,
    so it is expanded with one itertools.product.  A demand that no maximal
    vector dominates yields nothing without a search.
    """
    w = inst.require_weights()
    if wmax_set is None:
        wmax_set = wmax(inst.graph, inst.lists)
    if in_hyperrectangle(w, wmax_set.packed) is None:
        return
    n = inst.graph.n
    bit = {x: 1 << i for i, x in enumerate(all_colors(inst.lists))}
    options = [
        [
            (frozenset(subset), sum(bit[x] for x in subset))
            for subset in combinations(sorted(inst.lists[v]), w[v])
        ]
        for v in range(n)
    ]
    earlier: list[list[int]] = [[] for _ in range(n)]
    for u, v in inst.graph.edges:
        earlier[v].append(u)
    # vertices from tail on have no later neighbors, so none among themselves
    tail = 1 + max((u for u, _ in inst.graph.edges), default=-1)
    chosen: list[frozenset[int]] = [frozenset()] * tail
    masks = [0] * tail

    def allowed(v: int) -> list[tuple[frozenset[int], int]]:
        blocked = 0
        for u in earlier[v]:
            blocked |= masks[u]
        return [option for option in options[v] if not option[1] & blocked]

    def completions() -> Iterator[Coloring]:
        prefix = tuple(chosen)
        rest = [[s for s, _ in allowed(v)] for v in range(tail, n)]
        return map(prefix.__add__, product(*rest))

    if not tail:
        yield from completions()
        return
    stack = [iter(allowed(0))]
    while stack:
        v = len(stack) - 1
        option = next(stack[-1], None)
        if option is None:
            stack.pop()
        else:
            chosen[v], masks[v] = option
            if v + 1 < tail:
                stack.append(iter(allowed(v + 1)))
            else:
                yield from completions()


def enumerate_colorings(
    inst: Instance, limit: int | None = None, wmax_set: WmaxSet | None = None
) -> tuple[Coloring, ...]:
    """The stream of iter_colorings, collected; limit truncates it.

    Raises:
        ValueError: if limit is negative.
    """
    return tuple(islice(iter_colorings(inst, wmax_set), limit))
