"""Shared graphs, list assignments, and helpers for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

from multicolor import Graph, Vec, uniform_lists

FIXTURES = Path(__file__).parent / "fixtures"

SV = Graph.build(("v1",), set())
K2 = Graph.build(("v1", "v2"), {(0, 1)})
P3 = Graph.build(("v1", "v2", "v3"), {(0, 1), (1, 2)})
K3 = Graph.build(("v1", "v2", "v3"), {(0, 1), (1, 2), (0, 2)})
C5 = Graph.build(
    ("v1", "v2", "v3", "v4", "v5"),
    {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)},
)

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
