import dataclasses
import gc
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multicolor import (
    Graph,
    Instance,
    ResourceLimitExceeded,
    find_coloring,
    is_permissible,
    is_valid_coloring,
    prune_dominated,
    uniform_lists,
    wmax,
)
from multicolor.instance import color_masks
from multicolor.mis import enumerate_mis
from multicolor.vectors import PackedVectors, in_hyperrectangle, leq, sorted_distinct
from multicolor.wmax import DEFAULT_MAX_VECTORS, WmaxSet, vecsum_families, wmax_uniform
from util import (
    K2,
    K2_LISTS,
    K3,
    P3,
    P3_LISTS,
    SV,
    SV_LISTS,
    brute_is_permissible,
    dense_sets,
    is_maximal_independent,
    mask_to_vec,
    random_graph,
    random_lists,
    vec_add,
    zero,
)

P3_WMAX = {(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)}


def test_single_vertex_two_colors():
    assert wmax(SV, SV_LISTS).vectors == ((2,),)


def test_edge_single_color():
    assert set(wmax(K2, K2_LISTS).vectors) == {(1, 0), (0, 1)}


def test_path_two_colors():
    assert set(wmax(P3, P3_LISTS).vectors) == P3_WMAX


def test_colorless_assignment_permits_only_zero():
    ws = wmax(K2, (frozenset(), frozenset()))
    assert ws.vectors == ((0, 0),)
    assert dict(ws.certificates) == {(0, 0): {}}
    assert tuple(ws.families) == ()
    assert is_permissible(K2, (frozenset(), frozenset()), (0, 0), ws) == (0, 0)
    assert is_permissible(K2, (frozenset(), frozenset()), (1, 0), ws) is None


def test_empty_graph_permits_only_the_empty_vector():
    empty = Graph.build((), set())
    ws = wmax(empty, ())
    assert ws.vectors == ((),)
    assert dict(ws.certificates) == {(): {}}
    assert is_permissible(empty, (), (), ws) == ()


def test_vector_cap_trips():
    # the message names the color and its step in the fold
    with pytest.raises(
        ResourceLimitExceeded,
        match=r"^wmax fold at color 2 \(step 2 of 2\): more than 2 intermediate demand vectors$",
    ):
        wmax(P3, P3_LISTS, max_vectors=2)


def test_certificates_sum_to_their_vector():
    ws = wmax(P3, P3_LISTS)
    for v in ws.vectors:
        cert = ws.certificates[v]
        total = zero(P3.n)
        for x, part in cert.items():
            total = vec_add(total, mask_to_vec(part, P3.n))
            assert is_maximal_independent(P3, part, color_masks(P3_LISTS)[x])
        assert total == v


def test_uniform_triangle_two_colors():
    assert set(wmax_uniform(K3, 2).vectors) == {
        (2, 0, 0),
        (0, 2, 0),
        (0, 0, 2),
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
    }


def test_uniform_single_palette_color_is_mis_family():
    assert set(wmax_uniform(K2, 1).vectors) == {(1, 0), (0, 1)}


def test_uniform_path_two_colors():
    assert set(wmax_uniform(P3, 2).vectors) == {(2, 0, 2), (1, 1, 1), (0, 2, 0)}


def test_uniform_empty_palette():
    ws = wmax_uniform(K3, 0)
    assert ws.vectors == ((0, 0, 0),)
    assert ws.certificates == {(0, 0, 0): {}}


def test_uniform_rejects_negative_palette():
    with pytest.raises(ValueError):
        wmax_uniform(K3, -1)


def as_vectors(family, n):
    return tuple(mask_to_vec(s, n) for s in family)


def test_uniform_families_repeat_the_graph_family():
    ws = wmax_uniform(P3, 3)
    families = {c: as_vectors(f, P3.n) for c, f in ws.families.items()}
    assert families == {c: ((0, 1, 0), (1, 0, 1)) for c in (1, 2, 3)}
    for v in ws.vectors:
        cert = ws.certificates[v]
        assert sorted(cert) == [1, 2, 3]
        assert tuple(map(sum, zip(*as_vectors(cert.values(), P3.n)))) == v


def test_uniform_vector_cap_trips_only_past_the_final_size():
    rng = random.Random(5)
    for _ in range(20):
        graph = random_graph(rng, rng.randint(1, 6), rng.random())
        a = rng.randint(1, 3)
        size = len(wmax_uniform(graph, a).vectors)
        assert len(wmax_uniform(graph, a, max_vectors=size).vectors) == size
        with pytest.raises(ResourceLimitExceeded):
            wmax_uniform(graph, a, max_vectors=size - 1)


def test_uniform_agrees_with_general_construction():
    rng = random.Random(3)
    for _ in range(25):
        graph = random_graph(rng, rng.randint(1, 6), rng.random())
        a = rng.randint(0, 3)
        general = wmax(graph, uniform_lists(graph.n, a))
        uniform = wmax_uniform(graph, a)
        assert uniform.vectors == general.vectors
        assert dict(uniform.certificates) == dict(general.certificates)
        assert dict(uniform.families) == dict(general.families)


def test_uniform_lists_enumerate_once(monkeypatch):
    calls = []

    def counting_mis(graph, members=None):
        calls.append(members)
        return enumerate_mis(graph, members)

    monkeypatch.setattr(sys.modules["multicolor.wmax"], "enumerate_mis", counting_mis)
    ws = wmax(P3, uniform_lists(3, 4))
    assert calls == [0b111]
    families = {c: as_vectors(f, P3.n) for c, f in ws.families.items()}
    assert families == {c: ((0, 1, 0), (1, 0, 1)) for c in (1, 2, 3, 4)}


@pytest.mark.parametrize("count", [2, 4])
def test_lists_of_the_wrong_length_are_rejected(count):
    """P3 with one list too few or too many: a list per vertex is required,
    not numbered from the lists' own count."""
    lists = (frozenset({1}),) * count
    message = rf"^{count} color lists for 3 vertices$"
    with pytest.raises(ValueError, match=message):
        wmax(P3, lists)
    with pytest.raises(ValueError, match=message):
        is_permissible(P3, lists, (0, 0, 0))


def test_permissible_membership_witness():
    assert is_permissible(P3, P3_LISTS, (1, 0, 1)) == (1, 0, 1)


def test_permissible_rejection():
    assert is_permissible(P3, P3_LISTS, (1, 2, 1)) is None


def test_permissible_rejects_a_demand_of_the_wrong_length():
    with pytest.raises(ValueError, match="^weight vector has wrong dimension$"):
        is_permissible(P3, P3_LISTS, (1, 0))


def test_zero_weight_always_permissible():
    assert is_permissible(K2, K2_LISTS, (0, 0)) is not None


def test_permissible_agrees_with_brute_force():
    rng = random.Random(5)
    for _ in range(30):
        graph = random_graph(rng, rng.randint(1, 6), rng.random())
        lists = random_lists(rng, graph.n, colors=3)
        ws = wmax(graph, lists)
        inst = Instance(graph, lists)
        for _ in range(12):
            w = tuple(rng.randint(0, 2) for _ in range(graph.n))
            got = is_permissible(graph, lists, w, ws) is not None
            assert got == brute_is_permissible(inst, w)


def test_downward_closure():
    rng = random.Random(9)
    ws = wmax(P3, P3_LISTS)
    for _ in range(50):
        w = tuple(rng.randint(0, 2) for _ in range(3))
        if is_permissible(P3, P3_LISTS, w, ws) is not None:
            smaller = tuple(max(0, x - rng.randint(0, 1)) for x in w)
            assert is_permissible(P3, P3_LISTS, smaller, ws) is not None


def test_prune_keeps_incomparable_sets():
    vecs = {(2, 0, 2), (1, 1, 1), (0, 2, 0)}
    assert set(prune_dominated(vecs)) == vecs


def test_prune_drops_dominated():
    assert prune_dominated({(1, 0), (1, 1)}) == ((1, 1),)


def test_prune_empty():
    assert prune_dominated(set()) == ()


def test_prune_preserves_hyperrectangle():
    rng = random.Random(13)
    for _ in range(20):
        graph = random_graph(rng, rng.randint(1, 5), rng.random())
        lists = random_lists(rng, graph.n, colors=3)
        ws = wmax(graph, lists)
        pruned = prune_dominated(ws.vectors)
        assert all(any(leq(p, v) for v in ws.vectors) for p in pruned)
        for _ in range(10):
            w = tuple(rng.randint(0, 3) for _ in range(graph.n))
            full = is_permissible(graph, lists, w, ws) is not None
            via_pruned = any(leq(w, p) for p in pruned)
            assert full == via_pruned


def all_pairs_maxima(vecs):
    """The definition: members below no other member, sorted."""
    items = set(vecs)
    return tuple(
        sorted(
            x
            for x in items
            if not any(x != y and all(a <= b for a, b in zip(x, y)) for y in items)
        )
    )


# Small coordinates make dominance and duplicates common; the wide range
# reaches 2**40 and negative values, which set the packed field width.  The
# two narrow ranges straddle the byte boundaries at 127/128 and 255/256: a
# set inside 0..255 takes the prune's bytes path, any coordinate outside it
# the general path.
coords = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=125, max_value=130),
    st.integers(min_value=250, max_value=260),
    st.integers(min_value=-(2**40), max_value=2**40),
)


@st.composite
def vector_lists(draw):
    dim = draw(st.integers(min_value=0, max_value=7))
    pool = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=12))
    return draw(st.lists(st.sampled_from(pool), max_size=30))


@given(vector_lists())
def test_prune_equals_all_pairs_definition(vecs):
    expected = all_pairs_maxima(vecs)
    assert prune_dominated(vecs) == expected
    assert prune_dominated(iter(vecs)) == expected


def test_prune_equals_all_pairs_definition_at_workload_scale():
    """Sets of hundreds of vectors, so every bitset spans many machine words."""
    rng = random.Random(1)
    sizes = []
    for n in (10, 11, 10, 11):
        vecs = wmax(random_graph(rng, n, 0.5), random_lists(rng, n, colors=4)).vectors
        sizes.append(len(vecs))
        assert prune_dominated(vecs) == all_pairs_maxima(vecs)
    assert max(sizes) >= 500 and sum(sizes) >= 1_500

    # wide and negative coordinates, with dominated members and repeats
    rng = random.Random(2)
    pool = [tuple(rng.randint(-(2**40), 2**40) for _ in range(6)) for _ in range(200)]
    below = [tuple(a - rng.choice((0, 1, 2**39)) for a in rng.choice(pool)) for _ in range(80)]
    vecs = pool + below + rng.sample(pool, 20)
    expected = all_pairs_maxima(vecs)
    assert prune_dominated(vecs) == expected
    assert 0 < len(expected) < len(set(vecs))


@given(vector_lists().filter(bool), st.data())
def test_prune_rejects_mismatched_dimensions(vecs, data):
    dim = len(vecs[0])
    other_dim = data.draw(
        st.integers(min_value=0, max_value=8).filter(lambda d: d != dim)
    )
    odd = data.draw(st.tuples(*[coords] * other_dim))
    at = data.draw(st.integers(min_value=0, max_value=len(vecs)))
    mixed = [*vecs[:at], odd, *vecs[at:]]
    with pytest.raises(ValueError):
        prune_dominated(mixed)


def test_prune_at_the_byte_boundaries():
    # 0 and 255 alone fit in a byte; 256 sends the whole set down the general path
    inside = [(0, 255, 0), (255, 0, 0), (127, 128, 1), (128, 127, 1), (127, 127, 1), (0, 0, 0)]
    assert prune_dominated(inside) == ((0, 255, 0), (127, 128, 1), (128, 127, 1), (255, 0, 0))
    mixed = [*inside, (256, 0, 0)]
    assert prune_dominated(mixed) == ((0, 255, 0), (127, 128, 1), (128, 127, 1), (256, 0, 0))
    below = [(-1, 0), (0, -1), (-1, -1), (0, 0), (-1, 3)]
    assert prune_dominated(below) == ((-1, 3), (0, 0))
    assert prune_dominated([(-1, 0), (-1, -1)]) == ((-1, 0),)


def test_prune_of_a_closed_form_set_beyond_the_int_string_limit():
    """{0..5}^6 with sum <= 10: the maxima are exactly the vectors of sum 10.

    A vector of smaller sum has a coordinate below 5 to raise, and vectors
    of equal sum are incomparable.  6 748 vectors make every bitset longer
    than the 4 300 digits CPython's int-string limit allows decimal
    parsing, and the ANDs run over several blocks of rows.
    """
    vecs = tuple(v for v in itertools.product(range(6), repeat=6) if sum(v) <= 10)
    expected = tuple(v for v in vecs if sum(v) == 10)
    assert (len(vecs), len(expected)) == (6_748, 2_247)
    tracemalloc.start()
    try:
        assert prune_dominated(vecs) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks of rows: one N-bit accumulator per vector would take N * N bits
    assert peak < len(vecs) ** 2 // 8
    assert prune_dominated(vecs[::-1]) == expected
    # the same set shifted out of byte range, on the general path
    shifted = tuple(tuple(a + 256 for a in v) for v in vecs)
    assert prune_dominated(shifted) == tuple(tuple(a + 256 for a in v) for v in expected)


class _Vec(tuple):
    pass


def test_prune_takes_a_sorted_tuple_as_it_is():
    """Every input form gives the same maxima as the sorted tuple itself."""
    rng = random.Random(1)
    for n in (6, 10):
        vecs = wmax(random_graph(rng, n, 0.5), random_lists(rng, n, colors=4)).vectors
        expected = prune_dominated(vecs)
        assert expected == all_pairs_maxima(vecs)
        assert prune_dominated(list(vecs)) == expected
        assert prune_dominated(iter(vecs)) == expected
        assert prune_dominated(vecs[::-1]) == expected
        assert prune_dominated(vecs + vecs[:5]) == expected
        assert prune_dominated(tuple(map(_Vec, vecs))) == expected
        with pytest.raises(TypeError):
            prune_dominated(tuple(map(list, vecs)))


def test_prune_reports_the_same_mismatch_sorted_or_not():
    vecs = ((0, 1), (1, 0, 0), (1, 1), (2,))
    # the normaliser, the witness query and a hand-built set all normalise
    # the set the same way
    for build in (
        prune_dominated,
        sorted_distinct,
        lambda vs: in_hyperrectangle((0, 0), vs),
        lambda vs: WmaxSet(vectors=vs, certificates={}),
    ):
        for form in (vecs, vecs[::-1], list(vecs)):
            with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
                build(form)


def test_prune_sets_off_no_garbage_collection():
    """The prune makes no object per vector, so no collection starts in it.

    With the first generation's threshold at 100, far below the ~500
    objects a prune that made one per vector would leave alive, and above
    the few per column this one makes, a collection would show it.
    """
    rng = random.Random(1)  # the first set of the workload-scale test above
    vecs = wmax(random_graph(rng, 10, 0.5), random_lists(rng, 10, colors=4)).vectors
    assert len(vecs) >= 500
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    thresholds = gc.get_threshold()
    gc.set_threshold(100, *thresholds[1:])
    gc.collect()
    gc.callbacks.append(count)
    try:
        pruned = prune_dominated(vecs)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
    assert starts == []
    assert pruned == all_pairs_maxima(vecs)


# One coordinate range per group size of the prune's bytes path.  With B
# one more than the largest coordinate, the columns are taken g at a time,
# g the largest size with B**g <= 256 and B**g <= N: 0..1, 0..2, 0..5,
# 0..15 and 16..255 reach g = 8, 5, 3, 2 and 1 once the set has B**g
# distinct vectors.
GROUP_RANGES = {8: (0, 1), 5: (0, 2), 3: (0, 5), 2: (0, 15), 1: (16, 255)}


def grouped_set(rng, lo, hi, dim, size):
    """size vectors in lo..hi, one of them at hi, with lowered copies.

    A lowered copy is dominated, or a repeat where nothing was lowered.
    """
    pool = [tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(size)]
    if pool and dim:
        pool[0] = (hi,) * dim
    below = [tuple(max(lo, a - rng.randint(0, 2)) for a in rng.choice(pool)) for _ in range(size // 3)]
    return pool + below


@st.composite
def grouped_vector_lists(draw):
    lo, hi = draw(st.sampled_from(sorted(GROUP_RANGES.values())))
    dim = draw(st.integers(min_value=0, max_value=17))
    size = draw(st.integers(min_value=0, max_value=300))
    return grouped_set(random.Random(draw(st.integers(0, 2**32))), lo, hi, dim, size)


@settings(max_examples=60, deadline=None)
@given(grouped_vector_lists())
def test_prune_by_group_tables_equals_all_pairs_definition(vecs):
    expected = all_pairs_maxima(vecs)
    assert prune_dominated(vecs) == expected
    assert prune_dominated(tuple(sorted(set(vecs)))) == expected


@pytest.mark.parametrize("g", sorted(GROUP_RANGES, reverse=True))
@pytest.mark.parametrize("dim, size", [(11, 300), (17, 600)])
def test_prune_runs_every_group_size(g, dim, size):
    """Sets large enough for each group size, in dims that g does not divide.

    At 600 vectors, 2**9 and 3**6 are at most N, so only the 256 bound
    keeps a code in one byte.
    """
    lo, hi = GROUP_RANGES[g]
    vecs = grouped_set(random.Random(g * dim), lo, hi, dim, size)
    distinct = len(set(vecs))
    base = hi + 1
    # the set reaches g, and not g + 1
    assert base**g <= min(256, distinct) and not base ** (g + 1) <= min(256, distinct)
    expected = all_pairs_maxima(vecs)
    assert 1 <= len(expected) < distinct
    for form in (vecs, tuple(sorted(set(vecs))), tuple(sorted(set(vecs), reverse=True))):
        assert prune_dominated(form) == expected


def test_vecsum_families_deduplicates():
    pair = (0b10, 0b01)  # {v1}, {v2}
    assert vecsum_families({1: pair, 2: pair}, 2).vectors == ((0, 2), (1, 1), (2, 0))


def test_vecsum_families_identity():
    x = (0b110, 0b001)
    assert set(vecsum_families({1: (0b000,), 2: x}, 3).vectors) == {(1, 1, 0), (0, 0, 1)}
    assert vecsum_families({}, 3).certificates == {(0, 0, 0): {}}
    assert vecsum_families({1: x, 2: ()}, 3).certificates == {}
    # the sweep stops at an empty family, before it reaches the one-set
    # family whose mask lies outside n
    assert vecsum_families({1: (), 2: (0b1000,)}, 3).certificates == {}


def test_vecsum_families_pairing():
    left = (0b100, 0b010)
    right = (0b010, 0b001)
    assert set(vecsum_families({1: left, 2: right}, 3).vectors) == P3_WMAX


@pytest.mark.parametrize(
    "families, n, expected",
    [
        ({}, 0, ((),)),
        ({1: (0,), 2: (0,)}, 0, ((),)),
        ({1: (0b1, 0b0), 2: (0b1,), 3: (0b0, 0b1)}, 1, ((1,), (2,), (3,))),
        # 300 colors need two-byte fields
        ({c: (0b10, 0b01) for c in range(1, 301)}, 2, tuple((a, 300 - a) for a in range(301))),
    ],
    ids=["n0-no-colors", "n0", "n1", "two-byte-fields"],
)
def test_vecsum_families_cuts_vectors_as_plain_tuples_of_ints(families, n, expected):
    """The vectors are plain tuples of ints, in a PackedVectors for every field width."""
    ws = vecsum_families(families, n)
    assert ws.vectors == expected
    assert set(map(type, ws.vectors)) == {tuple}
    assert all(type(a) is int for v in ws.vectors for a in v)
    assert isinstance(ws.vectors, PackedVectors)
    if len(families) < 256:
        assert ws.vectors.fields == b"".join(map(bytes, expected))
    else:
        assert ws.vectors.fields == b""


def test_vecsum_families_cuts_each_vector_from_its_byte_fields():
    for _, _, ws in dense_sets():
        n = len(ws.vectors[0])
        fields = ws.vectors.fields
        rows = tuple(tuple(fields[i : i + n]) for i in range(0, len(fields), n))
        assert ws.vectors == rows
        assert set(map(type, ws.vectors)) == {tuple}


masks3 = st.integers(min_value=0, max_value=0b111)


@given(st.lists(st.lists(masks3, min_size=1, max_size=3), min_size=2, max_size=3))
def test_vecsum_families_is_commutative_in_color_order(fams):
    forward = vecsum_families(dict(enumerate(fams)), 3)
    backward = vecsum_families(dict(enumerate(reversed(fams))), 3)
    assert forward.vectors == backward.vectors


def tuple_fold(families, n, max_vectors):
    """The fold on plain tuples, the definition vecsum_families must meet."""
    acc = {(0,) * n: {}}
    for c in sorted(families):
        nxt = {}
        for s in sorted(acc):
            for r in families[c]:
                if len(r) != n:
                    raise ValueError("dimension mismatch")
                total = tuple(a + b for a, b in zip(s, r))
                if total not in nxt:
                    nxt[total] = {**acc[s], c: r}
                    if len(nxt) > max_vectors:
                        raise ResourceLimitExceeded("too many vectors")
        acc = nxt
    return acc


def ordered(sums):
    """Sums and certificates, both in insertion order."""
    return [(s, list(cert.items())) for s, cert in sums.items()]


@st.composite
def family_maps(draw, min_family=0):
    """n and up to four families of masks, from a pool so sums repeat."""
    n = draw(st.integers(min_value=0, max_value=6))
    pool = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=6))
    colors = draw(st.lists(st.integers(min_value=0, max_value=9), max_size=4, unique=True))
    family = st.lists(st.sampled_from(pool), min_size=min_family, max_size=4).map(tuple)
    return n, {c: draw(family) for c in colors}


@given(family_maps(), st.integers(min_value=0, max_value=40))
# a one-set color first, in the middle and last; the last one leaves the
# sweep order ascending, after a first step that left it descending
@example((3, {1: (0b100,), 2: (0b010, 0b001), 3: (0b011, 0b100)}), 40)
@example((3, {1: (0b100, 0b010), 2: (0b001,), 3: (0b011, 0b100)}), 40)
@example((3, {1: (0b100, 0b010, 0b001), 2: (0b101,)}), 40)
@example((3, {1: (0b100, 0b010, 0b001), 2: (0b011, 0b100), 3: (0b010,), 4: (0b101,)}), 40)
# the cap with a one-set color first: 0 trips at once, 1 at the next step
@example((2, {1: (0b10,), 2: (0b10, 0b01)}), 0)
@example((2, {1: (0b10,), 2: (0b10, 0b01)}), 1)
@example((2, {1: (0b10,), 2: (0b01,)}), 1)
# a one-set color after an empty family, which ends the sweep
@example((3, {1: (), 2: (0b001,)}), 40)
# equal masks make a two-set family, which takes the general step
@example((2, {1: (0b10, 0b10), 2: (0b01,), 3: (0b01, 0b01)}), 40)
# a multi-set last color leaves no offset to add; a one-set last color
# after a one-set color leaves the offset of both
@example((3, {1: (0b100,), 2: (0b110, 0b001), 3: (0b010, 0b001)}), 40)
@example((3, {1: (0b100, 0b001), 2: (0b010,), 3: (0b001,)}), 40)
# the cap at a last step's six distinct sums, whose last row adds one
@example((3, {1: (0b100, 0b010, 0b001), 2: (0b100, 0b010, 0b001)}), 6)
@example((3, {1: (0b100, 0b010, 0b001), 2: (0b100, 0b010, 0b001)}), 5)
def test_vecsum_families_equals_the_tuple_fold(case, max_vectors):
    n, families = case
    as_tuples = {c: as_vectors(f, n) for c, f in families.items()}
    try:
        expected = tuple_fold(as_tuples, n, max_vectors)
    except ResourceLimitExceeded:
        with pytest.raises(ResourceLimitExceeded):
            vecsum_families(families, n, max_vectors)
    else:
        got = vecsum_families(families, n, max_vectors)
        assert got.vectors == tuple(sorted(expected))
        certificates = {
            v: {c: mask_to_vec(r, n) for c, r in cert.items()}
            for v, cert in got.certificates.items()
        }
        assert ordered(certificates) == ordered(expected)
        assert dict(got.families) == families
        # at most four colors: every field is one byte
        assert got.vectors.fields == b"".join(map(bytes, got.vectors))


@given(family_maps(min_family=1).filter(lambda case: case[1]), st.data())
def test_vecsum_families_rejects_a_mask_outside_n(case, data):
    n, families = case
    c = data.draw(st.sampled_from(sorted(families)))
    at = data.draw(st.integers(min_value=0, max_value=len(families[c])))
    outside = data.draw(
        st.one_of(st.integers(min_value=1 << n, max_value=1 << (n + 3)), st.integers(max_value=-1))
    )
    families[c] = (*families[c][:at], outside, *families[c][at:])
    with pytest.raises(ValueError):
        vecsum_families(families, n)


@pytest.mark.parametrize(
    "families",
    [{1: (0b1000,)}, {1: (0b100, 0b010), 2: (0b1000,)}, {1: (0b100,), 2: (0b1000,), 3: ()}],
)
def test_vecsum_families_rejects_a_one_set_family_outside_n(families):
    with pytest.raises(ValueError):
        vecsum_families(families, 3)


def test_a_one_set_step_checks_its_mask_before_the_cap():
    with pytest.raises(ValueError):
        vecsum_families({1: (0b1000,)}, 3, max_vectors=0)
    with pytest.raises(
        ResourceLimitExceeded,
        match=r"^wmax fold at color 1 \(step 1 of 2\): more than 0 intermediate demand vectors$",
    ):
        vecsum_families({1: (0b100,), 2: (0b1000,)}, 3, max_vectors=0)


def test_the_fold_cap_passes_at_a_steps_distinct_count_and_trips_below_it():
    three = (0b100, 0b010, 0b001)
    # step 1 has 3 distinct sums and step 2 has 6, swept from (0,0,1),
    # (0,1,0) and (1,0,0): the rows add 3, 2 and 1, so the last row
    # overshoots a cap of 5 by one, fewer than the family's three sets
    assert len(vecsum_families({1: three, 2: three}, 3, max_vectors=6)) == 6
    for cap, c in ((5, 2), (2, 1)):
        message = rf"^wmax fold at color {c} \(step {c} of 2\): more than {cap} intermediate demand vectors$"
        with pytest.raises(ResourceLimitExceeded, match=message):
            vecsum_families({1: three, 2: three}, 3, max_vectors=cap)
    # at workload scale: the largest step, read from the folds of the
    # first k families, which prune nothing
    _, _, ws = dense_sets()[0]
    families, n = dict(ws.families), len(ws.vectors[0])
    colors = sorted(families)
    sizes = [len(vecsum_families({c: families[c] for c in colors[:k]}, n)) for k in range(1, len(colors) + 1)]
    largest = max(sizes)
    step = sizes.index(largest) + 1
    assert vecsum_families(families, n, max_vectors=largest).vectors == ws.vectors
    message = (
        rf"^wmax fold at color {colors[step - 1]} \(step {step} of {len(colors)}\): "
        rf"more than {largest - 1} intermediate demand vectors$"
    )
    with pytest.raises(ResourceLimitExceeded, match=message):
        vecsum_families(families, n, max_vectors=largest - 1)


def test_certificates_are_built_only_when_read():
    ws = vecsum_families({1: (0b100, 0b010, 0b001), 2: (0b011, 0b100), 3: (0b010,)}, 3)
    built = ws.certificates._cache  # the cache holds every certificate built
    assert len(ws.certificates) == len(ws.vectors)
    assert list(ws.certificates) == sorted(ws.certificates)
    assert (0, 1, 0) not in ws.certificates and "x" not in ws.certificates
    assert all(v in ws.certificates for v in ws.vectors)
    assert built == {}
    v = ws.vectors[-1]
    cert = ws.certificates[v]
    assert list(built) == [v]
    assert ws.certificates[v] is cert
    assert list(cert) == [1, 2, 3]
    with pytest.raises(KeyError):
        ws.certificates[(9, 9, 9)]


PATH_ABC = Graph.build(("a", "b", "c"), {(0, 1), (1, 2)})


def test_certificates_are_read_only():
    lists = uniform_lists(3, 2)
    ws = wmax(PATH_ABC, lists)
    v = ws.vectors[-1]
    assert v == (2, 0, 2)
    with pytest.raises(TypeError):
        ws.certificates[v][1] = 0b111
    with pytest.raises(TypeError):
        ws.certificates[v] = {}
    inst = Instance(PATH_ABC, lists, v)
    assert is_valid_coloring(inst, find_coloring(inst, ws)).ok


def test_hand_built_certificates_are_read_only():
    ws = WmaxSet(vectors=((1, 0),), certificates={(1, 0): {1: 0b10}})
    for built in (ws, dataclasses.replace(ws, vectors=((1, 0), (0, 1)))):
        with pytest.raises(TypeError):
            built.certificates[(1, 0)][1] = 0b11
        with pytest.raises(TypeError):
            built.certificates[(0, 1)] = {}
        assert built.certificates == {(1, 0): {1: 0b10}}
