import tracemalloc
from time import perf_counter

import pytest

from multicolor import (
    Instance,
    ResourceLimitExceeded,
    brute_all_colorings,
    brute_chromatic,
    brute_colorable,
    brute_nonrecolor_chi,
    brute_oncall,
    uniform_lists,
)
from util import (
    C5,
    K2,
    K2_LISTS,
    K3,
    P3,
    P3_LISTS,
    SV,
    SV_LISTS,
    brute_is_permissible,
    coloring,
    complete_graph,
    graph_from_edges,
)


def test_first_witness_on_path():
    inst = Instance(P3, P3_LISTS, (1, 1, 0))
    assert brute_colorable(inst) == coloring({1}, {2}, set())


def test_conflicting_edge_has_no_witness():
    assert brute_colorable(Instance(K2, K2_LISTS, (1, 1))) is None


def test_zero_weight_witness_is_all_empty():
    inst = Instance(K3, uniform_lists(3, 2), (0, 0, 0))
    assert brute_colorable(inst) == coloring(set(), set(), set())


def test_all_colorings_single_vertex():
    inst = Instance(SV, SV_LISTS, (1,))
    assert brute_all_colorings(inst) == {coloring({1}), coloring({2})}


def test_all_colorings_path():
    inst = Instance(P3, P3_LISTS, (1, 1, 0))
    assert brute_all_colorings(inst) == {coloring({1}, {2}, set())}


def test_all_colorings_infeasible_is_empty():
    assert brute_all_colorings(Instance(K2, K2_LISTS, (1, 1))) == set()


def test_chromatic_cycle_unit_weights():
    assert brute_chromatic(C5, (1,) * 5) == 3


def test_chromatic_cycle_double_weights():
    assert brute_chromatic(C5, (2,) * 5) == 5


def test_chromatic_zero_weight():
    assert brute_chromatic(K3, (0, 0, 0)) == 0


def test_chromatic_accepts_instance():
    # the instance's lists play no part: the palette is {1..a}
    inst = Instance(C5, uniform_lists(5, 9), (1,) * 5)
    assert brute_chromatic(inst.graph, inst.weights) == 3


def test_oncall_edge():
    sols = brute_oncall(Instance(K2, K2_LISTS, (1, 1)))
    assert sols == {(1, 0), (0, 1)}


def test_oncall_permissible_weight_is_returned_unchanged():
    sols = brute_oncall(Instance(P3, P3_LISTS, (1, 0, 1)))
    assert sols == {(1, 0, 1)}


def test_oncall_path():
    sols = brute_oncall(Instance(P3, P3_LISTS, (1, 2, 1)))
    assert sols == {(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)}


def test_guard_trips_on_large_search():
    big = complete_graph(8)
    inst = Instance(big, uniform_lists(8, 8), (4,) * 8)
    # the message names the search that tripped
    estimate = r"estimated 576480100000000 branches exceeds limit 1000$"
    with pytest.raises(ResourceLimitExceeded, match=r"^colorable oracle: " + estimate):
        brute_colorable(inst, max_branches=1000)
    with pytest.raises(ResourceLimitExceeded, match=r"^all-colorings oracle: " + estimate):
        brute_all_colorings(inst, max_branches=1000)


def test_chromatic_climb_stops_before_a_palette_above_the_cap():
    """One vertex with demand 4 000: the climb starts at a palette of 4 000
    colors, so it raises at once, without building a palette.  (Demand
    10**30 is run through the CLI under a timeout in test_cli.py.)"""
    start = perf_counter()
    with pytest.raises(
        ResourceLimitExceeded, match=r"^chromatic oracle: palette of 4000 colors exceeds limit 10$"
    ):
        brute_chromatic(graph_from_edges(1, ()), (4000,), 10)
    assert perf_counter() - start < 0.1


def test_chromatic_climb_starts_at_the_largest_demand():
    """Every palette below max(w) is skipped; climbing from 1 would build
    8 000 palettes, which is quadratic in the demand."""
    start = perf_counter()
    assert brute_chromatic(graph_from_edges(1, ()), (8000,), 8000) == 8000
    assert brute_chromatic(K2, (1, 3), 100) == 4
    assert perf_counter() - start < 0.5


@pytest.mark.parametrize("cap", [0, 4**10 - 1])
def test_oncall_guard_trips_before_it_makes_a_candidate(cap):
    """A 10-vertex path with lists {1, 2, 3} and demand 3 has 4**10 candidate
    demands below w; a cap below that count trips before any is made."""
    path = graph_from_edges(10, {(i, i + 1) for i in range(9)})
    inst = Instance(path, uniform_lists(10, 3), (3,) * 10)
    tracemalloc.start()
    start = perf_counter()
    try:
        with pytest.raises(ResourceLimitExceeded, match=r"\b1048576 candidate demands"):
            brute_oncall(inst, cap)
        elapsed = perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 1 << 20


def test_oncall_scans_layers_below_a_cap_at_the_candidate_count():
    # (1, 2, 1) has 2 * 3 * 2 candidates; the answer is the norm-2 layer
    inst = Instance(P3, P3_LISTS, (1, 2, 1))
    assert brute_oncall(inst, 12) == {(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)}
    with pytest.raises(ResourceLimitExceeded, match=r"\b12 candidate demands exceed limit 11$"):
        brute_oncall(inst, 11)


def test_oncall_on_a_wide_instance_branches_only_on_positive_weights():
    """1 500 vertices, far more than the recursion limit, with weight 0 on
    all but three: both the layers and the search recurse only over those."""
    n = 1500
    wide = graph_from_edges(n, {(0, 1)})
    w = (1, 1, 1) + (0,) * (n - 3)
    inst = Instance(wide, uniform_lists(n, 1), w)
    assert brute_colorable(inst) is None
    assert brute_oncall(inst, 8) == {(1, 0, 1) + w[3:], (0, 1, 1) + w[3:]}
    witness = brute_colorable(inst.with_weights((0, 1, 1) + w[3:]))
    assert witness == (frozenset(), frozenset({1}), frozenset({1})) + (frozenset(),) * (n - 3)
    assert brute_all_colorings(inst.with_weights((1, 0, 1) + w[3:])) == {
        (frozenset({1}), frozenset(), frozenset({1})) + (frozenset(),) * (n - 3)
    }


def test_is_permissible_on_path():
    inst = Instance(P3, P3_LISTS, (1, 1, 1))
    for w in [(0, 0, 0), (0, 2, 0), (1, 1, 0), (1, 0, 1)]:
        assert brute_is_permissible(inst, w)
    assert not brute_is_permissible(inst, (1, 2, 1))


class TestBruteNonrecolorChi:
    def test_edge(self):
        assert brute_nonrecolor_chi(K2, 1, coloring({1}, set()), (1, 1)) == 2

    def test_covered_demand(self):
        assert brute_nonrecolor_chi(K2, 2, coloring({1}, {2}), (1, 1)) == 2

    def test_triangle(self):
        assert brute_nonrecolor_chi(K3, 2, coloring({1}, set(), set()), (1, 1, 1)) == 3

    def test_precolors_pin_the_palette(self):
        # uncolored, P3 needs 2 colors; v1 and v3 on distinct precolors force 3
        assert brute_chromatic(P3, (1, 1, 1)) == 2
        assert brute_nonrecolor_chi(P3, 2, coloring({1}, set(), {2}), (1, 1, 1)) == 3

    def test_empty_base_palette_is_the_chromatic_number(self):
        assert brute_nonrecolor_chi(K2, 0, coloring(set(), set()), (2, 1)) == 3
        assert brute_nonrecolor_chi(K2, 0, coloring(set(), set()), (0, 0)) == 0

    def test_rejects_demand_below_precoloring(self):
        with pytest.raises(ValueError):
            brute_nonrecolor_chi(K2, 1, coloring({1}, set()), (0, 0))

    @pytest.mark.parametrize(
        "a0, c0, w",
        [
            (-1, coloring(set(), set()), (1, 1)),
            (0, coloring({1}, set()), (1, 1)),
            (1, coloring({2}, set()), (1, 1)),
            (1, coloring({1}, {1}), (1, 1)),
            (1, coloring({1}), (1, 1)),
            (1, coloring({1}, set()), (1, 1, 1)),
        ],
        ids=[
            "negative-base",
            "color-in-empty",
            "precolor-outside-base",
            "precolor-shared-across-edge",
            "short-precoloring",
            "long-demand",
        ],
    )
    def test_rejects_invalid_precoloring_or_demand(self, a0, c0, w):
        with pytest.raises(ValueError):
            brute_nonrecolor_chi(K2, a0, c0, w)

    def test_guard_trips(self):
        with pytest.raises(ResourceLimitExceeded):
            brute_nonrecolor_chi(K3, 1, coloring(set(), set(), set()), (1, 1, 1), max_branches=0)

    def test_a_vertex_that_needs_no_color_gets_no_list(self):
        """Zero demand under a palette of a million colors builds no list of them."""
        empty = graph_from_edges(8, ())
        tracemalloc.start()
        try:
            chi = brute_nonrecolor_chi(empty, 10**6, coloring(*[set()] * 8), (0,) * 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chi == 10**6
        assert peak < 4 << 20
        # a vertex that does need colors still draws them around the precolors
        path = graph_from_edges(3, {(0, 1), (1, 2)})
        assert brute_nonrecolor_chi(path, 2, coloring({1}, set(), {2}), (1, 0, 1)) == 2
        assert brute_nonrecolor_chi(path, 2, coloring({1}, set(), {2}), (1, 1, 1)) == 3

    def test_climb_starts_at_the_largest_demand(self):
        start = perf_counter()
        assert brute_nonrecolor_chi(graph_from_edges(1, ()), 1, coloring({1}), (8000,), 8000) == 8000
        assert perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "a0, c0, w, a",
        [(0, coloring(set()), (4000,), 4000), (2, coloring({1}, {2}), (1, 1), 2)],
        ids=["large-demand", "base-above-cap"],
    )
    def test_climb_stops_before_a_palette_above_the_cap(self, a0, c0, w, a):
        graph = graph_from_edges(len(c0), {(0, 1)} if len(c0) == 2 else ())
        with pytest.raises(
            ResourceLimitExceeded,
            match=rf"^non-recoloring chromatic oracle: palette of {a} colors exceeds limit 1$",
        ):
            brute_nonrecolor_chi(graph, a0, c0, w, max_branches=1)
