"""Shared graphs, list assignments, and helpers for the test suite."""

from __future__ import annotations

import json
import random
from functools import lru_cache
from operator import le
from pathlib import Path

from multicolor import Graph, Instance, Vec, brute_colorable, uniform_lists, wmax
from multicolor.errors import DEFAULT_MAX_BRANCHES
from multicolor.instance import vertices_of
from multicolor.mis import enumerate_mis

FIXTURES = Path(__file__).parent / "fixtures"

SV = Graph.build(("v1",), set())
K2 = Graph.build(("v1", "v2"), {(0, 1)})
P3 = Graph.build(("v1", "v2", "v3"), {(0, 1), (1, 2)})
K3 = Graph.build(("v1", "v2", "v3"), {(0, 1), (1, 2), (0, 2)})
C5 = Graph.build(
    ("v1", "v2", "v3", "v4", "v5"),
    {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)},
)

# Malformed precolourings for fix_k3.json (vertices v1..v3): the document
# text, and the part of the error message that names the fault.
BAD_PRECOLORINGS = {
    "invalid-json": ('{"v1": [1]', "precoloring is not valid JSON"),
    "non-object": ("[[1]]", "precoloring must be a JSON object"),
    "unknown-vertex": ('{"zz": [1]}', "precoloring: list for unknown vertex 'zz'"),
    "non-array": ('{"v1": 1}', "precoloring: list of 'v1' must be an array"),
    "color-0": ('{"v1": [0]}', "precoloring: color 0 of 'v1' is not a positive integer"),
    "color-true": ('{"v1": [true]}', "precoloring: color True of 'v1' is not a positive integer"),
    "color-string": ('{"v1": ["1"]}', "precoloring: color '1' of 'v1' is not a positive integer"),
}

SV_LISTS = (frozenset({1, 2}),)
K2_LISTS = uniform_lists(2, 1)
P3_LISTS = (frozenset({1}), frozenset({1, 2}), frozenset({2}))
K3_LISTS = uniform_lists(3, 2)


def graph_from_edges(n: int, edges) -> Graph:
    names = tuple(f"v{i + 1}" for i in range(n))
    return Graph.build(names, set(edges))


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, {(i, j) for i in range(n) for j in range(i + 1, n)})


def coloring(*sets) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(s) for s in sets)


def random_lists(rng: random.Random, n: int, colors: int = 4):
    """Per-vertex nonempty subsets of {1..colors}."""
    out = []
    for _ in range(n):
        size = rng.randint(1, colors)
        out.append(frozenset(rng.sample(range(1, colors + 1), size)))
    return tuple(out)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = {
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    }
    return graph_from_edges(n, edges)


def random_weight(rng: random.Random, n: int, cap: int = 3):
    return tuple(rng.randint(0, cap) for _ in range(n))


def zero(n: int) -> Vec:
    return (0,) * n


def vec_add(x: Vec, y: Vec) -> Vec:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def indicator(members, n: int) -> Vec:
    """0/1 vector of length n with ones exactly at the given indices."""
    coords = [0] * n
    for i in members:
        if not 0 <= i < n:
            raise ValueError(f"vertex index {i} out of range for dimension {n}")
        coords[i] = 1
    return tuple(coords)


def mask_to_vec(mask: int, n: int) -> Vec:
    """The 0/1 indicator tuple of a vertex mask on n vertices (vertex v at
    bit n-1-v, as instance.color_masks and enumerate_mis have it)."""
    return tuple(mask >> (n - 1 - v) & 1 for v in range(n))


def vec_to_mask(vec) -> int:
    """The vertex mask of a 0/1 indicator tuple; inverts mask_to_vec."""
    mask = 0
    for bit in vec:
        mask = mask << 1 | bit
    return mask


def scan_witness(w: Vec, vecs) -> Vec | None:
    """The dominance scan, the definition in_hyperrectangle must meet.

    The lexicographically smallest member x with w <= x, or None; a member
    whose length is not w's raises, also after a witness was found.
    """
    n = len(w)
    best = None
    for x in vecs:
        if len(x) != n:
            raise ValueError(f"dimension mismatch: {n} vs {len(x)}")
        if (best is None or x < best) and all(map(le, w, x)):
            best = x
    return best


def scan_oncall(w: Vec, vecs) -> tuple[Vec, ...]:
    """The on-call loop, the definition the on-call optima must meet.

    The distinct min(w, m) over the members m of largest total, sorted.
    """
    n = len(w)
    sums: dict[Vec, int] = {}
    for m in vecs:
        if len(m) != n:
            raise ValueError(f"dimension mismatch: {n} vs {len(m)}")
        u = tuple([a if a < b else b for a, b in zip(w, m)])
        if u not in sums:
            sums[u] = sum(u)
    best = max(sums.values())
    return tuple(sorted(u for u, total in sums.items() if total == best))


def scan_best_minima(w: Vec, vecs) -> tuple[tuple[Vec, Vec], ...]:
    """The on-call optima, each paired with its scanned witness.

    The pairs PackedVectors.best_minima must return: every u of
    scan_oncall with scan_witness(u), the smallest member above u.
    """
    return tuple((u, scan_witness(u, vecs)) for u in scan_oncall(w, vecs))


@lru_cache(maxsize=None)
def dense_sets():
    """(graph, lists, wmax set) for G(10, 0.5) and G(11, 0.5), 4-colour lists.

    Drawn from a fixed seed and kept when the set has at least 300
    vectors, as the benchmark's dense queries have; four of them.
    """
    rng = random.Random(2026)
    out = []
    while len(out) < 4:
        n = 10 + len(out) % 2
        graph = random_graph(rng, n)
        lists = random_lists(rng, n, colors=4)
        ws = wmax(graph, lists)
        if len(ws) >= 300:
            out.append((graph, lists, ws))
    return tuple(out)


def demands_near(rng: random.Random, vectors, count: int):
    """Demands around a vector set: members, members lowered at random,
    members raised by one unit, and w = 0.  Non-negative, for every query."""
    out = [(0,) * len(vectors[0])]
    for _ in range(count):
        m = list(rng.choice(vectors))
        kind = rng.randrange(3)
        if kind == 1:
            m = [max(0, a - (rng.random() < 0.4)) for a in m]
        elif kind == 2:
            m[rng.randrange(len(m))] += 1
        out.append(tuple(m))
    return out


def independence_number(graph: Graph) -> int:
    """Size of a largest independent set."""
    return max(s.bit_count() for s in enumerate_mis(graph))


def decompose(coloring) -> dict[int, tuple[frozenset[int], ...]]:
    """Split a coloring into its single-color sublists.

    The sublist for color x holds {x} exactly at the vertices colored x.
    Per-vertex union of the sublists restores the coloring, and their
    weight vectors sum to its weight vector.
    """
    n = len(coloring)
    out = {}
    for x in sorted(set().union(*coloring) if coloring else ()):
        out[x] = tuple(
            frozenset((x,)) if x in coloring[v] else frozenset() for v in range(n)
        )
    return out


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON for an instance; parse(serialize(x)) == x."""
    names = inst.graph.names
    doc: dict = {
        "vertices": list(names),
        "edges": [[names[i], names[j]] for i, j in sorted(inst.graph.edges)],
        "lists": {names[i]: sorted(inst.lists[i]) for i in range(inst.n)},
    }
    if inst.weights is not None:
        doc["weights"] = {names[i]: inst.weights[i] for i in range(inst.n)}
    return json.dumps(doc, indent=2)


def is_maximal_independent(graph: Graph, subset: int, members: int | None = None) -> bool:
    """True iff the subset mask is independent and no member vertex can be added.

    Raises:
        ValueError: if the subset holds a vertex outside the graph or
            outside the members.
    """
    n = graph.n
    everyone = (1 << n) - 1 if members is None else members
    if subset & ~everyone:
        raise ValueError("subset contains vertices outside the graph")
    reach = 0
    for v in vertices_of(subset, n):
        if graph.adjacency[v] & subset:
            return False
        reach |= graph.adjacency[v]
    return not everyone & ~(subset | reach)


def brute_is_permissible(inst: Instance, w: Vec, max_branches: int = DEFAULT_MAX_BRANCHES) -> bool:
    """The oracle's permissibility test: does some coloring meet w exactly?"""
    if len(w) != inst.n:
        raise ValueError("weight vector has wrong dimension")
    if not all(x >= 0 for x in w):
        raise ValueError("weights must be non-negative")
    return brute_colorable(inst.with_weights(w), max_branches) is not None
