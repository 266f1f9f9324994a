import json

import pytest

from multicolor import (
    Graph,
    InstanceFormatError,
    all_colors,
    load_instance,
    parse_dimacs,
    parse_instance,
    serialize_instance,
    uniform_lists,
)
from util import FIXTURES, P3, P3_LISTS, SV_LISTS


def doc(**overrides):
    base = {
        "vertices": ["v1", "v2", "v3"],
        "edges": [["v1", "v2"], ["v2", "v3"]],
        "lists": {"v1": [1], "v2": [1, 2], "v3": [2]},
        "weights": {"v1": 1, "v2": 0, "v3": 1},
    }
    base.update(overrides)
    return json.dumps(base)


def test_parse_basic_document():
    inst = parse_instance(doc())
    assert inst.graph.names == ("v1", "v2", "v3")
    assert inst.graph.edges == frozenset({(0, 1), (1, 2)})
    assert inst.lists == P3_LISTS
    assert inst.weights == (1, 0, 1)


def test_parse_weights_optional():
    inst = parse_instance(doc(weights=None))
    assert inst.weights is None
    with pytest.raises(InstanceFormatError):
        inst.require_weights()


def test_parse_missing_list_means_empty():
    inst = parse_instance(doc(lists={"v2": [1, 2]}))
    assert inst.lists == (frozenset(), frozenset({1, 2}), frozenset())


def test_parse_rejects_duplicate_vertices():
    with pytest.raises(InstanceFormatError):
        parse_instance(doc(vertices=["v1", "v1", "v3"]))


def test_parse_rejects_unknown_edge_endpoint():
    with pytest.raises(InstanceFormatError):
        parse_instance(doc(edges=[["v1", "zz"]]))


def test_parse_rejects_self_loop():
    with pytest.raises(InstanceFormatError):
        parse_instance(doc(edges=[["v1", "v1"]]))


@pytest.mark.parametrize("edges", [5, None, [[["a"], "b"]]])
def test_parse_rejects_malformed_edges(edges):
    with pytest.raises(InstanceFormatError):
        parse_instance(doc(edges=edges))


def test_parse_rejects_nonpositive_color():
    with pytest.raises(InstanceFormatError):
        parse_instance(doc(lists={"v1": [0]}))


def test_parse_rejects_negative_weight():
    with pytest.raises(InstanceFormatError):
        parse_instance(doc(weights={"v1": -1}))


def test_parse_rejects_malformed_json():
    with pytest.raises(InstanceFormatError):
        parse_instance("not json")


def test_round_trip_is_identity():
    inst = parse_instance(doc())
    again = parse_instance(serialize_instance(inst))
    assert again == inst
    assert serialize_instance(again) == serialize_instance(inst)


def test_all_colors_sorted_union():
    assert all_colors(P3_LISTS) == (1, 2)
    assert all_colors((frozenset(), frozenset())) == ()
    assert all_colors(SV_LISTS) == (1, 2)


def test_uniform_lists():
    assert uniform_lists(2, 3) == (frozenset({1, 2, 3}),) * 2


def test_graph_rejects_out_of_range_edge():
    # the range is checked before self-loops
    for edge in ((0, 5), (5, 5), (-1, -1)):
        with pytest.raises(InstanceFormatError, match="out of range"):
            Graph.build(("a", "b"), {edge})


def test_dimacs_parse():
    graph = parse_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert graph.names == ("1", "2", "3")
    assert graph.edges == frozenset({(0, 1), (1, 2)})


def test_dimacs_rejects_bad_header():
    with pytest.raises(InstanceFormatError):
        parse_dimacs("p edge x y\n")


def test_dimacs_rejects_negative_vertex_count():
    with pytest.raises(InstanceFormatError, match="line 1: negative vertex count"):
        parse_dimacs("p edge -3 0\n")


def test_dimacs_rejects_a_second_problem_line():
    with pytest.raises(InstanceFormatError, match="line 3: second problem line"):
        parse_dimacs("p edge 3 1\ne 1 2\np edge 2 0\n")


def test_load_dimacs_with_sidecar():
    inst = load_instance(
        str(FIXTURES / "path3.col"), str(FIXTURES / "path3_sidecar.json")
    )
    assert inst.graph.edges == frozenset({(0, 1), (1, 2)})
    assert inst.lists == P3_LISTS
    assert inst.weights == (1, 0, 1)


def test_load_json_fixture():
    inst = load_instance(str(FIXTURES / "fix_p3.json"))
    assert inst.weights == (1, 0, 1)
