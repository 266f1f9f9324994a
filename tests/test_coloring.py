import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multicolor import (
    Instance,
    NotPermissibleError,
    brute_all_colorings,
    enumerate_colorings,
    find_coloring,
    is_valid_coloring,
    iter_colorings,
    uniform_lists,
    weight_of,
)
from multicolor.coloring import from_certificate
from util import (
    K2,
    K2_LISTS,
    K3,
    K3_LISTS,
    P3,
    P3_LISTS,
    SV,
    SV_LISTS,
    coloring,
    decompose,
    graph_from_edges,
    indicator,
    vec_to_mask,
    random_graph,
    random_lists,
    vec_add,
    zero,
)


def sort_key(c):
    return tuple(tuple(sorted(s)) for s in c)


def assert_sorted_without_repeats(stream):
    keys = [sort_key(c) for c in stream]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def p3_inst(w):
    return Instance(P3, P3_LISTS, w)


def test_valid_coloring_passes():
    result = is_valid_coloring(p3_inst((1, 1, 0)), coloring({1}, {2}, set()))
    assert result.ok
    assert result.violations == ()


def test_edge_conflict_reported():
    result = is_valid_coloring(
        Instance(K2, K2_LISTS, (1, 1)), coloring({1}, {1})
    )
    assert not result.ok
    assert any("v1-v2" in v for v in result.violations)


def test_all_violation_kinds_collected():
    result = is_valid_coloring(p3_inst((1, 1, 0)), coloring({2}, {2}, set()))
    assert not result.ok
    assert any("not in its list" in v for v in result.violations)
    assert any("shares colors" in v for v in result.violations)


def test_wrong_set_size_reported():
    result = is_valid_coloring(p3_inst((1, 1, 0)), coloring({1}, set(), set()))
    assert not result.ok
    assert any("demand" in v for v in result.violations)


def test_instance_without_an_entry_per_vertex_is_rejected():
    c = coloring({1}, set(), {1})
    for weights, lists, counts in [
        ((1, 0, 1, 0), P3_LISTS, "4 weights and 3 lists"),
        ((1, 0), P3_LISTS, "2 weights and 3 lists"),
        ((1, 0, 1), P3_LISTS[:2], "3 weights and 2 lists"),
    ]:
        with pytest.raises(ValueError, match=f"^instance has 3 vertices, {counts}$"):
            is_valid_coloring(Instance(P3, lists, weights), c)
    # a coloring of the wrong length is still reported first, as a violation
    short = is_valid_coloring(Instance(P3, P3_LISTS, (1, 0)), c[:2])
    assert short.violations == ("expected 3 vertex entries, got 2",)


def test_decompose_splits_by_color():
    parts = decompose(coloring({1}, {2}, set()))
    assert parts == {
        1: coloring({1}, set(), set()),
        2: coloring(set(), {2}, set()),
    }


def test_decompose_empty_coloring():
    assert decompose(coloring(set(), set())) == {}


def test_decompose_round_trip_and_weights():
    c = coloring({1, 2}, set(), {2})
    parts = decompose(c)
    rebuilt = tuple(
        frozenset().union(*(part[v] for part in parts.values()))
        for v in range(len(c))
    )
    assert rebuilt == c
    total = zero(len(c))
    for part in parts.values():
        total = vec_add(total, weight_of(part))
    assert total == weight_of(c)


def mask(members):
    """The P3 vertex mask of a set of vertex indices."""
    return vec_to_mask(indicator(members, 3))


def test_build_from_certificate():
    cert = {1: mask({0}), 2: mask({2})}
    assert from_certificate(3, cert, (1, 0, 1)) == coloring({1}, set(), {2})


def test_build_overlapping_certificate():
    cert = {1: mask({1}), 2: mask({1})}
    assert from_certificate(3, cert, (0, 2, 0)) == coloring(set(), {1, 2}, set())


def test_from_certificate_keeps_the_smallest_colors():
    cert = {1: mask({0}), 2: mask({2})}
    assert from_certificate(3, cert, (0, 0, 1)) == coloring(set(), set(), {2})
    assert from_certificate(1, {1: 1, 2: 1}, (1,)) == coloring({1})
    # colors are dealt in ascending order whatever the certificate's order
    assert from_certificate(1, {3: 1, 2: 1, 1: 1}, (2,)) == coloring({1, 2})


def test_from_certificate_full_target_is_the_certificate_coloring():
    # nothing to delete: the target is the weight of every set the certificate holds
    cert = {1: mask({0}), 2: mask({1})}
    assert from_certificate(3, cert, (1, 1, 0)) == coloring({1}, {2}, set())


def test_from_certificate_rejects_an_unreachable_target():
    with pytest.raises(ValueError, match="vertex 0: the certificate gives 2 colors, target 3"):
        from_certificate(1, {1: 1, 2: 1}, (3,))
    with pytest.raises(ValueError, match="vertex 0: the certificate gives 0 colors, target -1"):
        from_certificate(1, {1: 1, 2: 1}, (-1,))
    with pytest.raises(ValueError, match="target has 2 entries for 1 vertices"):
        from_certificate(1, {1: 1, 2: 1}, (1, 1))


def reference_shrink(c, target):
    """Delete the largest color until each vertex holds its target.

    None when some vertex cannot reach its target that way.
    """
    out = []
    for v, have in enumerate(c):
        held = set(have)
        while len(held) > target[v] and held:
            held.remove(max(held))
        if len(held) != target[v]:
            return None
        out.append(frozenset(held))
    return tuple(out)


@st.composite
def certificate_cases(draw):
    """A vertex count, a certificate of masks on it, and a target near each
    vertex's count of sets."""
    n = draw(st.integers(0, 5))
    cert = draw(st.dictionaries(st.integers(1, 6), st.integers(0, (1 << n) - 1)))
    sets = tuple(frozenset(x for x, m in cert.items() if m >> (n - 1 - v) & 1) for v in range(n))
    target = tuple(draw(st.integers(-1, len(have) + 1)) for have in sets)
    return n, cert, sets, target


@given(certificate_cases())
# a target one above the vertex's three sets
@example((1, {1: 1, 2: 1, 3: 1}, (frozenset({1, 2, 3}),), (4,)))
def test_from_certificate_matches_deleting_the_largest(case):
    n, cert, sets, target = case
    expected = reference_shrink(sets, target)
    if expected is None:
        with pytest.raises(ValueError):
            from_certificate(n, cert, target)
    else:
        assert from_certificate(n, cert, target) == expected


def test_find_coloring_exact_demand():
    assert find_coloring(p3_inst((1, 0, 1))) == coloring({1}, set(), {2})


def test_find_coloring_with_surplus():
    got = find_coloring(p3_inst((0, 1, 0)))
    assert is_valid_coloring(p3_inst((0, 1, 0)), got).ok


def test_find_coloring_not_permissible():
    with pytest.raises(NotPermissibleError) as info:
        find_coloring(Instance(K2, K2_LISTS, (1, 1)))
    assert info.value.weight == (1, 1)


def test_enumerate_single_vertex():
    got = set(enumerate_colorings(Instance(SV, SV_LISTS, (1,))))
    assert got == {coloring({1}), coloring({2})}


def test_enumerate_path():
    got = set(enumerate_colorings(p3_inst((1, 1, 0))))
    assert got == {coloring({1}, {2}, set())}


def test_enumerate_infeasible_is_empty():
    assert enumerate_colorings(Instance(K2, K2_LISTS, (1, 1))) == ()


def test_enumerate_limit_truncates():
    inst = Instance(K3, K3_LISTS, (1, 1, 0))
    full = enumerate_colorings(inst)
    assert len(full) == 2
    assert enumerate_colorings(inst, limit=1) == full[:1]


def test_enumerate_stream_is_deterministic():
    inst = Instance(K3, K3_LISTS, (1, 0, 1))
    assert list(iter_colorings(inst)) == list(iter_colorings(inst))


def test_enumerate_matches_brute_force():
    rng = random.Random(21)
    for _ in range(25):
        graph = random_graph(rng, rng.randint(1, 5), rng.random())
        lists = random_lists(rng, graph.n, colors=3)
        w = tuple(rng.randint(0, 2) for _ in range(graph.n))
        inst = Instance(graph, lists, w)
        got = enumerate_colorings(inst)
        assert_sorted_without_repeats(got)
        assert set(got) == brute_all_colorings(inst)
        for c in got:
            assert is_valid_coloring(inst, c).ok


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("k", range(2, 5))
def test_cycle_stream_counts_proper_colorings(n, k):
    cycle = graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    inst = Instance(cycle, uniform_lists(n, k), (1,) * n)
    stream = enumerate_colorings(inst)
    assert len(stream) == (k - 1) ** n + (-1) ** n * (k - 1)
    assert_sorted_without_repeats(stream)
    for m in (0, 1, 2, 7):
        assert enumerate_colorings(inst, limit=m) == stream[:m]


def test_enumerate_rejects_a_negative_limit():
    with pytest.raises(ValueError):
        enumerate_colorings(Instance(K2, uniform_lists(2, 2), (1, 1)), limit=-3)


def test_enumerate_outputs_have_exact_weight():
    inst = Instance(P3, uniform_lists(3, 2), (1, 1, 1))
    for c in enumerate_colorings(inst):
        assert weight_of(c) == (1, 1, 1)
