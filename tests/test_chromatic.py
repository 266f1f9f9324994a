import random
from math import ceil

import multicolor.chromatic
from multicolor import (
    Instance,
    brute_chromatic,
    independence_number,
    is_valid_coloring,
    uniform_lists,
    weight_of,
    weighted_chromatic,
)
from multicolor.vectors import norm
from util import C5, K2, K3, P3, complete_graph, random_graph


def test_independence_numbers():
    assert independence_number(K2) == 1
    assert independence_number(P3) == 2
    assert independence_number(C5) == 2
    assert independence_number(complete_graph(6)) == 1


def test_edge_with_unit_demands_needs_two():
    assert weighted_chromatic(K2, (1, 1)).chi == 2


def test_odd_cycle_unit_demands():
    result = weighted_chromatic(C5, (1,) * 5)
    assert result.chi == 3
    assert result.lower_bound == 3


def test_odd_cycle_double_demands():
    assert weighted_chromatic(C5, (2,) * 5).chi == 5


def test_cliques_unit_demands():
    for n in range(1, 7):
        assert weighted_chromatic(complete_graph(n), (1,) * n).chi == n


def test_zero_demand():
    result = weighted_chromatic(K3, (0, 0, 0))
    assert result.chi == 0
    assert result.coloring == (frozenset(),) * 3


def test_witness_is_valid_and_within_palette():
    w = (2, 1, 2)
    result = weighted_chromatic(P3, w)
    inst = Instance(P3, uniform_lists(3, result.chi), w)
    assert is_valid_coloring(inst, result.coloring).ok
    assert weight_of(result.coloring) == w


def test_lower_bound_formula():
    rng = random.Random(17)
    for _ in range(30):
        graph = random_graph(rng, rng.randint(1, 6), rng.random())
        w = tuple(rng.randint(0, 3) for _ in range(graph.n))
        result = weighted_chromatic(graph, w)
        if norm(w):
            assert result.lower_bound == ceil(norm(w) / independence_number(graph))
        assert result.chi >= result.lower_bound


def test_matches_brute_force():
    rng = random.Random(19)
    for _ in range(25):
        graph = random_graph(rng, rng.randint(1, 5), rng.random())
        w = tuple(rng.randint(0, 2) for _ in range(graph.n))
        assert weighted_chromatic(graph, w).chi == brute_chromatic(graph, w)


def test_one_mis_enumeration_per_call(monkeypatch):
    calls = []
    real = multicolor.chromatic.enumerate_mis

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(multicolor.chromatic, "enumerate_mis", counting)
    for graph, w in ((C5, (2,) * 5), (P3, (2, 1, 2)), (K3, (1, 1, 1))):
        calls.clear()
        weighted_chromatic(graph, w)
        assert calls == [graph]
