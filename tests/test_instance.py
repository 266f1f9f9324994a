import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multicolor import (
    Graph,
    Instance,
    InstanceFormatError,
    brute_all_colorings,
    brute_colorable,
    brute_oncall,
    find_coloring,
    is_valid_coloring,
    iter_colorings,
    load_instance,
    oncall_solutions,
    parse_dimacs,
    parse_instance,
    uniform_lists,
)
from multicolor.instance import load_precoloring, spread, vertices_of
from util import (
    BAD_PRECOLORINGS,
    FIXTURES,
    K2,
    K3,
    P3,
    P3_LISTS,
    mask_to_vec,
    serialize_instance,
)


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


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"vertices": ["v1", 2, "v3"]}, '"vertices" must be a list of strings'),
        ({"edges": [["v1"]]}, "malformed edge ['v1']"),
        ({"lists": [["v1", 1]]}, '"lists" must be an object'),
        ({"weights": [1, 0, 1]}, '"weights" must be an object'),
        ({"weights": {"v1": 1, "zz": 1}}, "weight for unknown vertex 'zz'"),
    ],
    ids=["vertices-not-strings", "edge-of-one-name", "lists-not-object", "weights-not-object",
         "weight-for-unknown-vertex"],
)
def test_parse_names_the_malformed_part(overrides, message):
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        parse_instance(doc(**overrides))


def test_with_weights_rejects_the_wrong_length():
    with pytest.raises(ValueError, match="^weight vector has wrong dimension$"):
        Instance(P3, P3_LISTS).with_weights((1, 0))


NEGATIVE_DEMAND = Instance(K2, uniform_lists(2, 2), (-1, 2))


@pytest.mark.parametrize(
    "entry",
    [
        find_coloring,
        lambda inst: next(iter_colorings(inst)),
        oncall_solutions,
        lambda inst: is_valid_coloring(inst, (frozenset(), frozenset({1, 2}))),
        brute_colorable,
        brute_all_colorings,
        brute_oncall,
    ],
    ids=[
        "find_coloring",
        "iter_colorings",
        "oncall_solutions",
        "is_valid_coloring",
        "brute_colorable",
        "brute_all_colorings",
        "brute_oncall",
    ],
)
def test_a_negative_demand_is_rejected_by_every_entry_point(entry):
    with pytest.raises(ValueError, match="^weights must be non-negative$"):
        entry(NEGATIVE_DEMAND)


def test_round_trip_is_identity():
    inst = parse_instance(doc())
    again = parse_instance(serialize_instance(inst))
    assert again == inst
    assert serialize_instance(again) == serialize_instance(inst)


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("p edge 3\n", "line 1: malformed problem line"),
        ("c edges first\ne 1 2\np edge 2 1\n", "line 2: edge before problem line"),
        ("p edge 3 1\ne 1\n", "line 2: malformed edge line"),
        ("p edge 3 1\ne 1 4\n", "line 2: edge endpoint out of range"),
        ("p edge 3 1\ne 2 2\n", "line 2: self-loop at vertex 2"),
        ("c no problem line\n", "missing 'p edge n m' problem line"),
    ],
    ids=["short-problem-line", "edge-first", "short-edge-line", "endpoint-out-of-range",
         "self-loop", "no-problem-line"],
)
def test_dimacs_names_the_malformed_line(text, message):
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        parse_dimacs(text)


def test_load_dimacs_with_sidecar():
    inst = load_instance(
        str(FIXTURES / "path3.col"), str(FIXTURES / "path3_sidecar.json")
    )
    assert inst.graph.edges == frozenset({(0, 1), (1, 2)})
    assert inst.lists == P3_LISTS
    assert inst.weights == (1, 0, 1)


def test_load_json_rejects_a_sidecar():
    path = str(FIXTURES / "fix_p3.json")
    with pytest.raises(InstanceFormatError, match=r"a sidecar applies only to a \.col instance"):
        load_instance(path, str(FIXTURES / "path3_sidecar.json"))


def test_load_json_fixture():
    inst = load_instance(str(FIXTURES / "fix_p3.json"))
    assert inst.weights == (1, 0, 1)


def test_load_precoloring_reads_a_lists_object():
    got = load_precoloring(str(FIXTURES / "pre_k3.json"), K3)
    assert got == (frozenset({1}), frozenset(), frozenset())


@pytest.mark.parametrize("text, message", BAD_PRECOLORINGS.values(), ids=BAD_PRECOLORINGS)
def test_load_precoloring_rejects_malformed_documents(tmp_path, text, message):
    path = tmp_path / "pre.json"
    path.write_text(text)
    with pytest.raises(InstanceFormatError) as exc:
        load_precoloring(str(path), K3)
    assert message in str(exc.value)


@st.composite
def masks(draw):
    """n in 0..20 and a vertex mask on n vertices."""
    n = draw(st.integers(min_value=0, max_value=20))
    return n, draw(st.integers(min_value=0, max_value=(1 << n) - 1))


@given(masks(), st.integers(min_value=1, max_value=17))
def test_spread_matches_the_per_vertex_definition(case, width):
    n, mask = case
    vec = mask_to_vec(mask, n)
    expected = sum(1 << width * (n - 1 - v) for v in range(n) if vec[v])
    assert spread(mask, width) == expected
    assert vertices_of(mask, n) == [v for v in range(n) if vec[v]]


@given(st.integers(min_value=0, max_value=20).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(min_value=0, max_value=(1 << n) - 1)))
))
def test_sorted_masks_order_as_their_indicator_tuples(case):
    n, family = case
    assert [mask_to_vec(m, n) for m in sorted(family)] == sorted(mask_to_vec(m, n) for m in family)
