import random
import sys
import time
from math import ceil

import pytest

import multicolor.chromatic
import multicolor.mis
from graphgen import all_graphs
from multicolor import (
    Instance,
    ResourceLimitExceeded,
    brute_chromatic,
    enumerate_mis,
    extend_coloring,
    is_valid_coloring,
    uniform_lists,
    weight_of,
    weighted_chromatic,
    wmax_constrained,
)
from multicolor.chromatic import ChromaticSolver
from util import (
    C5,
    K2,
    K3,
    P3,
    complete_graph,
    graph_from_edges,
    independence_number,
    mask_to_vec,
    random_graph,
)


def _reference_compose(family, w, budget, start, acc, gain):
    """Indices of at most budget family members whose sum dominates w.

    The depth-first composition search the memoised solver replaced: it
    returns the lexicographically first non-decreasing index sequence.
    """
    deficit = sum(t - a for a, t in zip(acc, w) if t > a)
    if deficit == 0:
        return []
    if budget * gain < deficit:
        return None
    for idx in range(start, len(family)):
        nxt = tuple(a + b for a, b in zip(acc, family[idx]))
        if all(a + budget - 1 >= t for a, t in zip(nxt, w)):
            tail = _reference_compose(family, w, budget - 1, idx, nxt, gain)
            if tail is not None:
                return [idx] + tail
    return None


def reference_chromatic(graph, w):
    """(chi, lower_bound, coloring) by ascending one level at a time."""
    if sum(w) == 0:
        return 0, 0, tuple(frozenset() for _ in range(graph.n))
    family = tuple(mask_to_vec(s, graph.n) for s in enumerate_mis(graph))
    alpha = max(map(sum, family))
    lower = ceil(sum(w) / alpha)
    a = max(lower, max(w))
    while True:
        picks = _reference_compose(family, w, a, 0, (0,) * graph.n, alpha)
        if picks is not None:
            picks += [0] * (a - len(picks))
            sets = [set() for _ in range(graph.n)]
            for color, idx in enumerate(picks, start=1):
                for v, member in enumerate(family[idx]):
                    if member:
                        sets[v].add(color)
            for v, held in enumerate(sets):
                while len(held) > w[v]:
                    held.remove(max(held))
            return a, lower, tuple(frozenset(held) for held in sets)
        a += 1


def cycle(n):
    return graph_from_edges(n, {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)})


@pytest.fixture(params=["walk", "search"])
def route(request, monkeypatch):
    """Solve either way: walk first as shipped, or always by the exact search.

    With the optimistic walk switched off, every witness comes from the
    memoised search and the exact walk over its known covers.
    """
    if request.param == "search":
        walk = ChromaticSolver._walk

        def exact_only(self, d, a, known):
            return None if known is None else walk(self, d, a, known)

        monkeypatch.setattr(ChromaticSolver, "_walk", exact_only)
    return request.param


def as_triple(result):
    return result.chi, result.lower_bound, result.coloring


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
        if sum(w):
            assert result.lower_bound == ceil(sum(w) / independence_number(graph))
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


def test_matches_reference_on_random_graphs(route):
    rng = random.Random(23)
    for _ in range(300):
        graph = random_graph(rng, rng.randint(1, 9), rng.random())
        w = tuple(rng.randint(0, 3) for _ in range(graph.n))
        assert as_triple(weighted_chromatic(graph, w)) == reference_chromatic(graph, w)


@pytest.mark.parametrize("n", [9, 11, 13, 15])
def test_matches_reference_on_odd_cycles(route, n):
    for b in (2, 3):
        w = (b,) * n
        assert as_triple(weighted_chromatic(cycle(n), w)) == reference_chromatic(cycle(n), w)


def test_odd_cycle_closed_form():
    # chi(C_{2k+1}, b) = 2b + ceil(b/k)
    for n in range(9, 22, 2):
        k = n // 2
        for b in (2, 3):
            result = weighted_chromatic(cycle(n), (b,) * n)
            assert result.chi == 2 * b + ceil(b / k)
            assert weight_of(result.coloring) == (b,) * n


def test_large_demand_needs_no_recursion(route):
    result = weighted_chromatic(K2, (600, 600))
    assert result.chi == 1200
    assert result.coloring == (frozenset(range(601, 1201)), frozenset(range(1, 601)))


def test_branch_cap_names_the_palette_level():
    with pytest.raises(ResourceLimitExceeded, match="palette level 3: expanded 1 states, limit 0"):
        weighted_chromatic(C5, (1,) * 5, max_branches=0)


@pytest.mark.parametrize(
    "n, w, lower",
    [(1, (10**30,), 10**30), (2, (2**53 + 1, 0), 2**52 + 1)],
    ids=["one-vertex-10e30", "two-vertices-2e53"],
)
def test_bounds_are_exact_beyond_float_precision(n, w, lower):
    # two isolated vertices have alpha 2, so the lower bound is ceil(|w| / 2)
    assert ChromaticSolver(graph_from_edges(n, ()), w).bounds(w) == (lower, max(lower, max(w)))


def test_branch_cap_names_a_level_beyond_float_precision():
    with pytest.raises(ResourceLimitExceeded, match=rf"^chromatic search at palette level {10**30}: "):
        weighted_chromatic(graph_from_edges(1, ()), (10**30,), max_branches=10)


def test_branch_cap_counts_search_states(route):
    # a cap of exactly the states expanded passes, one fewer trips
    for graph, w in ((C5, (1,) * 5), (C5, (2,) * 5), (cycle(9), (3,) * 9)):
        solver = ChromaticSolver(graph, w)
        solver.solve(w)
        used = solver.expanded
        assert weighted_chromatic(graph, w, max_branches=used) == solver.solve(w)
        with pytest.raises(ResourceLimitExceeded, match=f"limit {used - 1}"):
            weighted_chromatic(graph, w, max_branches=used - 1)


def test_one_solver_answers_every_demand_below_its_bound(route):
    # the field width is set once from the bound; small demands share the memo
    rng = random.Random(5)
    cases = []
    for _ in range(20):
        graph = random_graph(rng, rng.randint(3, 8), 0.5)
        cases.append((graph, tuple(rng.randint(0, 4) for _ in range(graph.n))))
    # 10 bits keep 2 * 150 below the high bit, so fields are 10 bits wide; the demands drawn
    # below it would fit in fewer
    cases.append((C5, (150, 3, 150, 0, 12)))
    for graph, bound in cases:
        solver = ChromaticSolver(graph, bound)
        for _ in range(5):
            w = tuple(rng.randint(0, x) for x in bound)
            assert solver.solve(w) == weighted_chromatic(graph, w)
        assert solver.solve(bound) == weighted_chromatic(graph, bound)


def test_climb_through_infeasible_levels_stays_small(route):
    # chi sits 16 levels above the bound; every level below it is refuted
    graph = graph_from_edges(6, {(0, 2), (0, 3), (0, 5), (1, 4), (2, 3), (2, 5), (4, 5)})
    w = tuple(10 * x for x in (1, 1, 2, 2, 2, 2))
    result = weighted_chromatic(graph, w, max_branches=2_000)
    assert (result.chi, result.lower_bound) == (50, 34)
    assert weight_of(result.coloring) == w


def test_a_level_the_cap_cannot_walk_raises_before_walking():
    # level 10**30 fails the edge prune at no state; level 10**30 + 1 would
    # walk 10**30 + 1 positions, so it raises with the count the walk
    # would reach instead of walking the default cap of 10**7
    start = time.monotonic()
    message = rf"^chromatic search at palette level {10**30 + 1}: expanded 10000001 states, limit 10000000$"
    with pytest.raises(ResourceLimitExceeded, match=message):
        weighted_chromatic(C5, (10**30, 1, 1, 1, 1))
    assert time.monotonic() - start < 1


def test_huge_demand_meets_the_branch_cap():
    # fields widen to fit any demand, so only the cap stops the climb
    with pytest.raises(ResourceLimitExceeded, match="limit 1000"):
        weighted_chromatic(K2, (2**62, 1), max_branches=1000)


@pytest.mark.parametrize(
    "w, message",
    [((1,), "weight vector has wrong dimension"), ((1, -1), "weights must be non-negative")],
    ids=["wrong-length", "negative-entry"],
)
def test_weighted_chromatic_rejects_a_malformed_demand(w, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        weighted_chromatic(K2, w)


def test_solver_rejects_a_demand_above_its_bound():
    solver = ChromaticSolver(K2, (2, 2))
    with pytest.raises(ValueError, match="exceeds the solver's bound"):
        solver.solve((3, 0))


def test_extension_enumerates_mis_once_per_call_site(monkeypatch):
    calls = {"wmax": [], "chromatic": [], "extension": []}
    solved = []
    real_mis = multicolor.mis.enumerate_mis
    real_solve = ChromaticSolver.solve

    def counting(site):
        def counting_mis(graph, members=None):
            calls[site].append(members)
            return real_mis(graph, members)

        return counting_mis

    def counting_solve(self, w, ceiling=None):
        solved.append(w)
        return real_solve(self, w, ceiling)

    for site in calls:
        monkeypatch.setattr(sys.modules[f"multicolor.{site}"], "enumerate_mis", counting(site))
    monkeypatch.setattr(ChromaticSolver, "solve", counting_solve)
    ring = cycle(9)
    c0 = tuple(frozenset({1}) if v in (0, 4) else frozenset() for v in range(9))
    result = extend_coloring(ring, 2, c0, (3,) * 9)
    # the solver's whole-graph family is the only enumeration: the
    # constrained families are filters of it
    assert calls == {"wmax": [], "chromatic": [None], "extension": []}
    # of the 23 distinct residuals only the first is decided: no later one
    # starts its climb below that first chi, so none can win.  It is
    # solved once, and its solve's witness is the winner's: no further
    # solve follows
    assert len(solved) == 1
    monkeypatch.undo()
    residuals = {
        tuple(max(3 - y, 0) for y in w1) for w1 in wmax_constrained(ring, 2, c0).vectors
    }
    assert len(residuals) == 23 and set(solved) <= residuals
    assert result.bound == 2 + min(weighted_chromatic(ring, r).chi for r in residuals)


def test_solver_state_count_is_pinned():
    """The search expands exactly this many states on a fixed sweep.

    Seeds 40 and 41, 150 graphs each: n in 6..11, edge probability 0.3,
    0.5 or 0.7, demand 0..5 per vertex.  A change to the sum is a change
    to the search order or to the level the climb starts at, and must be
    declared.  It was 70 339 while the climb started at max(ceil(|w| /
    alpha), max w); the greedy clique start skips levels that the climb
    used to walk and refute, so it fell to 24 331 with every answer kept.
    """
    total = 0
    for seed in (40, 41):
        rng = random.Random(seed)
        for _ in range(150):
            n = rng.randint(6, 11)
            p = rng.choice((0.3, 0.5, 0.7))
            graph = random_graph(rng, n, p)
            w = tuple(rng.randint(0, 5) for _ in range(n))
            solver = ChromaticSolver(graph, w)
            solver.solve(w)
            total += solver.expanded
    assert total == 24_331


def digit_edges(n, edges):
    """The graph on n vertices whose edges are given as digit pairs, "01 12"."""
    return graph_from_edges(n, {(int(e[0]), int(e[1])) for e in edges.split()})


def test_a_clique_far_above_the_bound_starts_the_climb(route):
    # the K4 {0, 1, 4, 6} weighs 2 100 at 300 times (2, 2, 2, 2, 2, 2, 1),
    # chi itself; from the old start, 1 300, the climb took 893 951 states
    graph = digit_edges(7, "01 02 04 05 06 13 14 16 24 26 36 45 46")
    w = tuple(300 * x for x in (2, 2, 2, 2, 2, 2, 1))
    result = weighted_chromatic(graph, w, max_branches=10**5)
    assert (result.chi, result.lower_bound) == (2100, 1300)
    assert weight_of(result.coloring) == w


def test_a_triangle_start_answers_well_under_the_default_cap():
    # the triangles {0, 2, 3} and {0, 2, 5} weigh 1 200 at 300 times
    # (1, 1, 2, 2, 2, 2), above the old start of 1 000, from which the
    # climb took 4 819 501 states; from 1 200 it takes 49 051
    graph = digit_edges(6, "02 03 05 14 23 25 45")
    w = tuple(300 * x for x in (1, 1, 2, 2, 2, 2))
    result = weighted_chromatic(graph, w, max_branches=10**5)
    assert (result.chi, result.lower_bound) == (1500, 1000)
    assert weight_of(result.coloring) == w


def test_start_level_never_exceeds_the_chromatic_number():
    rng = random.Random(31)
    for n, edges in all_graphs(5):
        graph = graph_from_edges(n, edges)
        for _ in range(3):
            w = tuple(rng.randint(0, 2) for _ in range(n))
            assert ChromaticSolver(graph, w).bounds(w)[1] <= brute_chromatic(graph, w)


def test_start_level_is_the_heaviest_greedy_clique():
    # triangle 0-1-2 with a pendant 3 on vertex 2: the clique from 3 is the
    # edge {2, 3}, and 2 + 5 outweighs the triangle's 1 + 1 + 2 and |w| / 2
    graph = graph_from_edges(4, {(0, 1), (0, 2), (1, 2), (2, 3)})
    assert ChromaticSolver(graph, (1, 1, 2, 5)).bounds((1, 1, 2, 5)) == (5, 7)
    assert weighted_chromatic(graph, (1, 1, 2, 5)).chi == 7


def test_complete_multipartite_graph_sets_up_quickly():
    # parts of 3 give 3**4 maximal cliques but 4 MIS; the solver grows at
    # most one clique per vertex and enumerates none
    n = 12
    graph = graph_from_edges(n, {(i, j) for i in range(n) for j in range(i + 1, n) if i // 3 != j // 3})
    w = tuple(1 + v % 3 for v in range(n))
    start = time.monotonic()
    solver = ChromaticSolver(graph, w)
    result = solver.solve(w)
    assert time.monotonic() - start < 1
    assert len(solver._cliques) <= n
    # each part is one MIS, so chi is the sum of the parts' largest demands,
    # the weight of the clique that takes each part's heaviest vertex
    assert (result.chi, solver.bounds(w)[1]) == (12, 12)
