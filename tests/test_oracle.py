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
from multicolor.oracle import brute_is_permissible
from util import C5, K2, K2_LISTS, K3, P3, P3_LISTS, SV, SV_LISTS, coloring, complete_graph


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
    with pytest.raises(ResourceLimitExceeded):
        brute_colorable(inst, max_branches=1000)


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
