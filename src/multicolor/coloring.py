"""Building, validating, and enumerating list multicolorings.

A coloring assigns each vertex a finite set of colors drawn from its list,
with adjacent vertices receiving disjoint sets.  Demands are met exactly:
vertex v gets precisely w(v) colors.  A single coloring is built in one
pass from the per-color maximal independent sets that certify a maximal
demand vector above w: each color, ascending, goes to the vertices of its
set still short of their demand (from_certificate).  The full set of
colorings is one lazy stream, iter_colorings, that backtracks vertex by
vertex in index order, each vertex a frame on one explicit stack; callers
take its first item, a prefix or all of it.
Certificates hold each color's independent set as a vertex mask (vertex v
at bit n-1-v), and the pass walks the masks' set bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import NotPermissibleError
from .instance import Instance, color_masks, vertices_of
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


def from_certificate(n: int, certificate: Certificate, target: Vec) -> Coloring:
    """The coloring of weight target that a certificate's sets give.

    Deals the colors in ascending order, each to the vertices of its set
    (a mask, vertex v at bit n-1-v) that hold fewer than target[v] colors,
    so vertex v keeps the target[v] smallest colors whose sets contain it.
    The sets are trusted to be independent; deleting colors keeps the
    coloring valid.

    Raises:
        ValueError: if target does not have n entries, or if some vertex
            lies in fewer than target[v] of the sets or target[v] < 0.
    """
    if len(target) != n:
        raise ValueError(f"target has {len(target)} entries for {n} vertices")
    sets: list[list[int]] = [[] for _ in range(n)]
    # the vertices that hold their target
    full = sum(1 << (n - 1 - v) for v, t in enumerate(target) if t <= 0)
    for x, mask in sorted(certificate.items()):
        for v in vertices_of(mask & ~full, n):
            sets[v].append(x)
            if len(sets[v]) == target[v]:
                full |= 1 << (n - 1 - v)
    for v, (held, t) in enumerate(zip(sets, target)):
        if len(held) != t:
            raise ValueError(f"vertex {v}: the certificate gives {len(held)} colors, target {t}")
    return tuple(map(frozenset, sets))


def find_coloring(inst: Instance, wmax_set: WmaxSet | None = None) -> Coloring:
    """One coloring meeting the instance's demands.

    Picks the lexicographically smallest maximal vector dominating the
    demand and deals its certificate's colors, smallest first, until each
    vertex meets its demand (from_certificate), so the output is
    deterministic.

    Raises:
        NotPermissibleError: if the demand is not satisfiable.
    """
    w = inst.require_weights()
    if wmax_set is None:
        wmax_set = wmax(inst.graph, inst.lists)
    witness = in_hyperrectangle(w, wmax_set.vectors)
    if witness is None:
        raise NotPermissibleError(w)
    return from_certificate(inst.graph.n, wmax_set.certificates[witness], w)


def iter_colorings(inst: Instance, wmax_set: WmaxSet | None = None) -> Iterator[Coloring]:
    """All colorings of the instance, lazily, each exactly once.

    Backtracks over the vertices in index order: vertex v takes each
    w(v)-subset of its list, in combinations order of the sorted list, that
    is disjoint from the colors of its earlier neighbors.  The stream is
    therefore strictly increasing under the key
    tuple(tuple(sorted(s)) for s in coloring).  Every vertex is one frame
    on a single explicit stack, and a coloring is yielded when the last
    vertex takes a subset; an instance with no vertices yields its one
    empty coloring.  A demand that no maximal vector dominates yields
    nothing without a search.
    """
    w = inst.require_weights()
    if wmax_set is None:
        wmax_set = wmax(inst.graph, inst.lists)
    if in_hyperrectangle(w, wmax_set.vectors) is None:
        return
    n = inst.graph.n
    bit = {x: 1 << i for i, x in enumerate(color_masks(inst.lists))}
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
    chosen: list[frozenset[int]] = [frozenset()] * n
    masks = [0] * n

    def allowed(v: int) -> list[tuple[frozenset[int], int]]:
        blocked = 0
        for u in earlier[v]:
            blocked |= masks[u]
        return [option for option in options[v] if not option[1] & blocked]

    if not n:
        yield ()
        return
    stack = [iter(allowed(0))]
    while stack:
        v = len(stack) - 1
        option = next(stack[-1], None)
        if option is None:
            stack.pop()
        else:
            chosen[v], masks[v] = option
            if v + 1 < n:
                stack.append(iter(allowed(v + 1)))
            else:
                yield tuple(chosen)
