import random
import sys
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multicolor import enumerate_mis
from multicolor.instance import color_masks
from multicolor.wmax import color_mis_families
from util import (
    C5,
    K2,
    K3,
    P3,
    graph_from_edges,
    is_maximal_independent,
    mask_to_vec,
    random_graph,
)

import graphgen


def brute_mis(graph, members=None):
    """All maximal independent sets of the subgraph induced by a vertex set
    (all vertices by default), by scanning every subset of it."""
    members = sorted(range(graph.n) if members is None else members)
    found = set()
    for r in range(len(members) + 1):
        for subset in combinations(members, r):
            chosen = set(subset)
            independent = all(
                not (i in chosen and j in chosen) for i, j in graph.edges
            )
            if not independent:
                continue
            dominated = chosen.union(
                *({i, j} for i, j in graph.edges if i in chosen or j in chosen)
            )
            if dominated >= set(members):
                found.add(tuple(1 if v in chosen else 0 for v in range(graph.n)))
    return found


def vecs(graph, family):
    """A family of masks as the indicator tuples of its sets, in order."""
    return tuple(mask_to_vec(s, graph.n) for s in family)


def test_edge_yields_two_singletons():
    assert enumerate_mis(K2) == (0b01, 0b10)
    assert vecs(K2, enumerate_mis(K2)) == ((0, 1), (1, 0))


def test_path_family():
    assert set(vecs(P3, enumerate_mis(P3))) == {(1, 0, 1), (0, 1, 0)}


def test_triangle_family():
    assert set(vecs(K3, enumerate_mis(K3))) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_output_is_sorted():
    family = enumerate_mis(C5)
    assert list(family) == sorted(family)
    assert list(vecs(C5, family)) == sorted(vecs(C5, family))


def test_every_member_is_maximal_independent():
    for s in enumerate_mis(C5):
        assert is_maximal_independent(C5, s)


def test_empty_member_set_graph():
    assert enumerate_mis(P3, 0) == (0,)


def test_a_set_far_above_the_recursion_limit():
    """1 500 vertices and the one edge v0-v1: the two maximal sets each hold
    1 499 vertices, one choice deep apiece."""
    n = 1500
    wide = graph_from_edges(n, {(0, 1)})
    everyone = (1 << n) - 1
    # v0 is bit n-1, so the set without it is the smaller mask
    assert enumerate_mis(wide) == (everyone ^ 1 << n - 1, everyone ^ 1 << n - 2)


# masks on P3 and K2: vertex v at bit n-1-v, so v1 is the highest bit
def test_maximality_check_rejects_non_independent():
    assert not is_maximal_independent(K2, 0b11)


def test_maximality_check_rejects_non_dominating():
    assert not is_maximal_independent(P3, 0b100)


def test_maximality_check_accepts():
    assert is_maximal_independent(P3, 0b101)


def test_maximality_check_rejects_foreign_vertex():
    # members v1 and v2 of P3, at bits 2 and 1; the subset is v3
    with pytest.raises(ValueError):
        is_maximal_independent(P3, 0b001, 0b110)
    # a bit at or above n is no vertex of the graph
    with pytest.raises(ValueError):
        is_maximal_independent(P3, 0b1000)
    with pytest.raises(ValueError):
        is_maximal_independent(P3, -1)


def test_matches_brute_force_on_all_small_graphs():
    for n, edges in graphgen.all_graphs(5):
        graph = graph_from_edges(n, edges)
        assert set(vecs(graph, enumerate_mis(graph))) == brute_mis(graph), edges


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        graph = random_graph(rng, rng.randint(1, 8), rng.random())
        assert set(vecs(graph, enumerate_mis(graph))) == brute_mis(graph)


@st.composite
def listed_graphs(draw):
    """A graph on up to 9 vertices with lists drawn from colors 1..4."""
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    colors = st.frozensets(st.integers(min_value=1, max_value=4))
    lists = draw(st.tuples(*[colors] * n))
    return graph_from_edges(n, edges), lists


@given(listed_graphs())
def test_color_families_match_brute_force(case):
    graph, lists = case
    families = color_mis_families(graph, lists)
    assert list(families) == sorted(set().union(*lists))
    for x, family in families.items():
        members = [v for v in range(graph.n) if x in lists[v]]
        assert vecs(graph, family) == tuple(sorted(brute_mis(graph, members)))


# P3 a-b-c: colors 1 and 4 at a and b, joined by an edge, share one
# enumeration; color 2 at a and c and color 3 at b alone are independent
@example((P3, (frozenset({1, 2, 4}), frozenset({1, 3, 4}), frozenset({2}))))
@given(listed_graphs())
def test_color_families_enumerate_only_colors_an_edge_joins(case):
    graph, lists = case
    masks = color_masks(lists)
    joined = {masks[c] for i, j in graph.edges for c in lists[i] & lists[j]}
    calls = []

    def counting_mis(graph, members=None):
        calls.append(members)
        return enumerate_mis(graph, members)

    with mock.patch.object(sys.modules["multicolor.wmax"], "enumerate_mis", counting_mis):
        color_mis_families(graph, lists)
    assert sorted(calls) == sorted(joined)
