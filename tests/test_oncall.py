import random
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multicolor import (
    Instance,
    WmaxSet,
    brute_oncall,
    find_coloring,
    is_valid_coloring,
    oncall_solutions,
    weight_of,
    wmax,
)
from multicolor.vectors import leq
from util import (
    K2,
    K2_LISTS,
    P3,
    P3_LISTS,
    demands_near,
    dense_sets,
    graph_from_edges,
    random_graph,
    random_lists,
    scan_oncall,
)


def test_edge_demand_split():
    sols = oncall_solutions(Instance(K2, K2_LISTS, (1, 1)))
    assert [v for v, _ in sols] == [(0, 1), (1, 0)]
    assert all(sum(v) == 1 for v, _ in sols)


def test_path_overload():
    sols = oncall_solutions(Instance(P3, P3_LISTS, (1, 2, 1)))
    assert {v for v, _ in sols} == {(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)}
    assert {sum(v) for v, _ in sols} == {2}


def test_permissible_demand_is_returned_as_is():
    sols = oncall_solutions(Instance(P3, P3_LISTS, (1, 0, 1)))
    assert [v for v, _ in sols] == [(1, 0, 1)]


def test_witnesses_meet_their_vectors():
    inst = Instance(P3, P3_LISTS, (1, 2, 1))
    for vec, witness in oncall_solutions(inst):
        assert weight_of(witness) == vec
        assert is_valid_coloring(inst.with_weights(vec), witness).ok
        assert leq(vec, (1, 2, 1))


def test_colorless_assignment_serves_nothing():
    sols = oncall_solutions(Instance(K2, (frozenset(), frozenset()), (1, 1)))
    assert sols == (((0, 0), (frozenset(), frozenset())),)


def test_matches_brute_force():
    rng = random.Random(23)
    for _ in range(20):
        graph = random_graph(rng, rng.randint(1, 5), rng.random())
        lists = random_lists(rng, graph.n, colors=3)
        w = tuple(rng.randint(0, 2) for _ in range(graph.n))
        inst = Instance(graph, lists, w)
        got = {v for v, _ in oncall_solutions(inst)}
        assert got == brute_oncall(inst)


@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=4),
    st.integers(min_value=0, max_value=4).filter(lambda d: d != 2),
    st.data(),
)
def test_rejects_wmax_set_of_wrong_dimension(vectors, other_dim, data):
    at = data.draw(st.integers(min_value=0, max_value=len(vectors)))
    odd = (1,) * other_dim
    mixed = (*vectors[:at], odd, *vectors[at:])
    # a set of mixed lengths is rejected when it is built, one of a single
    # wrong length by the scan: either way before any witness is built
    with patch("multicolor.oncall.from_certificate", side_effect=AssertionError):
        with pytest.raises(ValueError):
            ws = WmaxSet(vectors=mixed, certificates={})
            oncall_solutions(Instance(K2, K2_LISTS, (1, 1)), ws)


@st.composite
def oncall_cases(draw):
    """An instance on up to six vertices and its maximal set; half the
    demands are lowered below a maximal vector, so they are permissible."""
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graph = graph_from_edges(n, draw(st.sets(st.sampled_from(pairs))) if pairs else set())
    lists = tuple(draw(st.frozensets(st.integers(1, 3))) for _ in range(n))
    ws = wmax(graph, lists)
    w = draw(st.tuples(*[st.integers(min_value=0, max_value=3)] * n))
    if draw(st.booleans()):
        w = tuple(map(min, w, draw(st.sampled_from(ws.vectors))))
    return Instance(graph, lists, w), ws


EMPTY = graph_from_edges(0, set())


@given(oncall_cases())
@example((Instance(EMPTY, (), ()), wmax(EMPTY, ())))
@example((Instance(P3, P3_LISTS, (1, 0, 1)), wmax(P3, P3_LISTS)))
@example((Instance(P3, P3_LISTS, (1, 2, 1)), wmax(P3, P3_LISTS)))
def test_each_optimum_is_witnessed_as_find_coloring_witnesses_it(case):
    inst, ws = case
    w = inst.require_weights()
    sols = oncall_solutions(inst, ws)
    assert sols == tuple((u, find_coloring(inst.with_weights(u), ws)) for u, _ in sols)
    pairs = ws.vectors.best_minima(w)
    assert tuple(u for u, _ in pairs) == tuple(u for u, _ in sols)
    for u, m in pairs:
        assert m == ws.vectors.witness(u)
    if ws.vectors.witness(w) is not None:
        # already permissible: w alone, of the best total |w|
        assert [u for u, _ in sols] == [w]


def test_matches_the_loop_on_dense_sets():
    rng = random.Random(29)
    for graph, lists, ws in dense_sets():
        for w in demands_near(rng, ws.vectors, 12):
            inst = Instance(graph, lists, w)
            sols = oncall_solutions(inst, ws)
            assert tuple(v for v, _ in sols) == scan_oncall(w, ws.vectors), w
            for vec, witness in sols:
                assert weight_of(witness) == vec


def test_empty_wmax_set_is_named():
    ws = WmaxSet(vectors=(), certificates={})
    with pytest.raises(ValueError, match="vector set is empty"):
        oncall_solutions(Instance(K2, K2_LISTS, (1, 1)), ws)


def test_negative_weights_are_rejected():
    inst = Instance(K2, K2_LISTS, (1, -1))
    with pytest.raises(ValueError, match="^weights must be non-negative$"):
        oncall_solutions(inst)
    with pytest.raises(ValueError, match="^weights must be non-negative$"):
        oncall_solutions(inst, WmaxSet(vectors=((1, 0), (0, 1)), certificates={}))
