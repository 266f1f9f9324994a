import copy
import importlib
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import multicolor
from multicolor import Graph, WmaxSet, is_permissible, wmax
from multicolor.vectors import (
    PackedVectors,
    cut,
    in_hyperrectangle,
    leq,
    pack,
    prune_dominated,
    sorted_distinct,
)
from multicolor.wmax import wmax_uniform
from util import (
    K2,
    SV,
    demands_near,
    dense_sets,
    indicator,
    random_graph,
    random_lists,
    scan_best_minima,
    scan_witness,
)

P3_WMAX = {(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)}

vecs3 = st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3).map(tuple)


def test_leq_zero_below_everything():
    assert leq((0, 0, 0), (1, 2, 1))


def test_leq_single_coordinate_failure():
    assert not leq((1, 1, 0), (1, 0, 1))


def test_leq_reflexive():
    assert leq((1, 0, 1), (1, 0, 1))


def test_leq_dimension_mismatch():
    with pytest.raises(ValueError):
        leq((1, 0), (1, 0, 0))


@given(vecs3, vecs3, vecs3)
def test_leq_is_a_partial_order(x, y, z):
    assert leq(x, x)
    if leq(x, y) and leq(y, x):
        assert x == y
    if leq(x, y) and leq(y, z):
        assert leq(x, z)


def test_indicator_examples():
    assert indicator({0, 2}, 3) == (1, 0, 1)
    assert indicator(set(), 3) == (0, 0, 0)
    assert indicator({1}, 3) == (0, 1, 0)


def test_indicator_rejects_out_of_range():
    with pytest.raises(ValueError):
        indicator({3}, 3)


def test_hyperrectangle_membership():
    assert in_hyperrectangle((1, 0, 1), P3_WMAX) == (1, 0, 1)


def test_hyperrectangle_rejection():
    assert in_hyperrectangle((1, 2, 1), P3_WMAX) is None


def test_hyperrectangle_zero_always_inside():
    assert in_hyperrectangle((0, 0, 0), P3_WMAX) is not None


def test_hyperrectangle_empty_set():
    assert in_hyperrectangle((0, 0), []) is None


def test_hyperrectangle_witness_is_lex_smallest():
    assert in_hyperrectangle((0, 1, 0), P3_WMAX) == (0, 1, 1)


@given(vecs3, st.sets(vecs3, min_size=1, max_size=6))
def test_hyperrectangle_downward_closed(w, xs):
    witness = in_hyperrectangle(w, xs)
    if witness is not None:
        assert leq(w, witness)
        smaller = tuple(max(0, c - 1) for c in w)
        assert in_hyperrectangle(smaller, xs) is not None


vec_lists3 = st.lists(vecs3, max_size=12)


@given(vecs3, vec_lists3)
def test_hyperrectangle_witness_is_smallest_dominating_member(w, xs):
    expected = min((x for x in xs if leq(w, x)), default=None)
    assert in_hyperrectangle(w, xs) == expected
    assert in_hyperrectangle(w, iter(xs)) == expected
    assert in_hyperrectangle(w, reversed(xs)) == expected


@given(vecs3, vec_lists3, st.integers(min_value=0, max_value=5).filter(lambda d: d != 3))
def test_hyperrectangle_rejects_mismatch_after_witness(w, xs, other_dim):
    members = [*xs, w, (0,) * other_dim]
    with pytest.raises(ValueError):
        in_hyperrectangle(w, members)


# -- the packed kernel against the scan and the on-call loop --------------


def test_witness_matches_the_scan_on_dense_sets():
    rng = random.Random(5)
    for graph, lists, ws in dense_sets():
        assert isinstance(ws.vectors, PackedVectors) and len(ws.vectors) >= 300
        demands = demands_near(rng, ws.vectors, 40)
        # w above every member, and w with negative entries
        demands += [tuple(a + 5 for a in ws.vectors[-1]), tuple(-a for a in ws.vectors[0])]
        for w in demands:
            expected = scan_witness(w, ws.vectors)
            assert ws.vectors.witness(w) == expected, w
            assert is_permissible(graph, lists, w, ws) == expected, w
            assert in_hyperrectangle(w, ws.vectors) == expected, w


def test_best_minima_match_the_loop_on_dense_sets():
    rng = random.Random(6)
    for _, _, ws in dense_sets():
        demands = demands_near(rng, ws.vectors, 40)
        demands.append(tuple(a + 5 for a in ws.vectors[-1]))
        for w in demands:
            assert ws.vectors.best_minima(w) == scan_best_minima(w, ws.vectors), w


def test_best_minima_probe_matches_the_loop_below_and_above_one_byte():
    # one-byte fields, whose best total is found by probes of the totals'
    # high nibbles and bytes down from min(|w|, 255): a best total several
    # units below |w|, in its nibble and below it, |w| above 255, and
    # fields clamped to 128
    vecs = [(3, 0, 1), (0, 2, 2), (1, 1, 0), (2, 2, 2)]
    packed = sorted_distinct(vecs)
    assert packed.layout[0] == 8
    for w in ((9, 9, 9), (3, 1, 9), (200, 100, 0), (300, 2**70, 5), (0, 0, 0), (2, 2, 2)):
        assert packed.best_minima(w) == scan_best_minima(w, vecs), w
    for _, _, ws in dense_sets():
        assert ws.vectors.layout[0] == 8
        top = ws.vectors[-1]
        for w in (tuple(a + 3 for a in top), tuple(a + 30 for a in top), (10**6,) * len(top)):
            assert ws.vectors.best_minima(w) == scan_best_minima(w, ws.vectors), w


# (n, smallest coordinate, largest coordinate, bytes per field): a field
# holds the largest coordinate below a guard bit, and n times it; for
# n >= 2 the total needs the wider field, for n = 1 the guard does
FIELD_WIDTHS = [
    (3, 0, 85, 1),
    (3, 0, 86, 2),
    (1, 0, 127, 1),
    (1, 0, 128, 2),
    (1, 0, 255, 2),
    (1, 0, 2**15, 3),
    (1, 0, 2**63, 9),
    (3, 5, 85, 1),
    (4, 0, 2**14 - 1, 2),
    (4, 0, 2**14, 3),
    (2, 0, 2**31 - 1, 4),
    (2, 0, 2**31, 5),
    (2, 0, 2**47 - 1, 6),
    (2, 0, 2**47, 7),
    (2, 0, 2**63 - 1, 8),
    (2, 0, 2**63, 9),
    (3, 0, 2**71, 10),
]


@pytest.mark.parametrize("n, lo, hi, size", FIELD_WIDTHS)
def test_every_field_width_matches_the_scan(n, lo, hi, size):
    rng = random.Random(f"{n}:{lo}:{hi}")
    for _ in range(30):
        # coordinates near both ends and the middle, with lo and hi present
        pool = [lo, lo + 1, hi, hi - 1, (lo + hi) // 2, max(lo, 1)]
        vecs = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(rng.randint(1, 12))]
        vecs += [(lo,) * n, (hi,) * n]
        packed = sorted_distinct(vecs)
        assert packed.layout[0] == 8 * size and hi < 2 ** (8 * size - 1)
        near = [a + d for a in pool for d in (-1, 0, 1)]
        demands = [tuple(rng.choice(near) for _ in range(n)) for _ in range(10)]
        demands += [(hi + 1,) * n, (lo - 1,) * n, (-1,) * n, (2**80,) * n]
        for w in demands:
            assert packed.witness(w) == scan_witness(w, vecs), (w, vecs)
            if min(w) >= 0:
                assert packed.best_minima(w) == scan_best_minima(w, vecs), (w, vecs)


def test_fold_bytes_without_room_for_a_guard_are_repacked():
    ws = wmax_uniform(SV, 200)
    assert ws.vectors == ((200,),) and ws.vectors.fields == bytes([200])
    assert ws.vectors.layout[0] == 16
    assert in_hyperrectangle((150,), ws.vectors) == (200,)
    assert in_hyperrectangle((201,), ws.vectors) is None
    assert ws.vectors.best_minima((250,)) == (((200,), (200,)),)


def test_zero_dimension_and_empty_sets():
    assert in_hyperrectangle((), []) is None
    assert in_hyperrectangle((), [()]) == ()
    assert in_hyperrectangle((), [(), ()]) == ()
    assert in_hyperrectangle((1, 2), []) is None
    assert sorted_distinct([(), ()]).best_minima(()) == (((), ()),)
    assert len(sorted_distinct([])) == 0
    with pytest.raises(ValueError, match="vector set is empty"):
        sorted_distinct([]).best_minima((1,))


def test_best_minima_reject_negative_or_mismatched_demands():
    packed = PackedVectors([(1, 2), (2, 0)])
    with pytest.raises(ValueError):
        packed.best_minima((1, -1))
    with pytest.raises(ValueError):
        packed.best_minima((1, 1, 1))
    with pytest.raises(ValueError):
        packed.witness((1,))


def test_hand_built_set_out_of_order_keeps_the_smallest_witness():
    ws = WmaxSet(vectors=((2, 2), (1, 3), (2, 2), (0, 5), (1, 3)), certificates={})
    assert ws.vectors == ((0, 5), (1, 3), (2, 2))
    assert in_hyperrectangle((1, 2), ws.vectors) == (1, 3)
    assert in_hyperrectangle((0, 2), ws.vectors) == (0, 5)
    assert in_hyperrectangle((2, 1), ws.vectors) == (2, 2)
    assert in_hyperrectangle((3, 0), ws.vectors) is None


def test_hand_built_set_holds_sorted_distinct_packed_vectors():
    vecs = ((2, 2), (1, 3), (2, 2), (0, 5))
    for ws in (
        WmaxSet(vectors=vecs, certificates={}),
        WmaxSet(vectors=iter(vecs), certificates={}),
        replace(wmax_uniform(K2, 3), vectors=list(vecs)),
    ):
        assert type(ws.vectors) is PackedVectors and ws.vectors.fields == b""
        assert ws.vectors == ((0, 5), (1, 3), (2, 2))
    # a set that is already one is kept as it is
    fold = wmax_uniform(K2, 3)
    assert replace(fold, families={}).vectors is fold.vectors
    for mixed in (((1, 0), (1,)), [(1, 0, 0), (0, 1)]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            WmaxSet(vectors=mixed, certificates={})
    with pytest.raises(TypeError):
        WmaxSet(vectors=[[1, 0], [0, 1]], certificates={})


def test_list_members_are_rejected():
    members = [[1, 2], [0, 3], [1, 2]]
    for build in (sorted_distinct, lambda vs: in_hyperrectangle((1, 1), vs), prune_dominated):
        with pytest.raises(TypeError):
            build(members)
    tuples = [tuple(m) for m in members]
    assert in_hyperrectangle((1, 1), tuples) == scan_witness((1, 1), tuples) == (1, 2)
    assert in_hyperrectangle((0, 3), tuples) == (0, 3)
    assert sorted_distinct(tuples).best_minima((1, 3)) == scan_best_minima((1, 3), tuples)


def test_byte_fields_come_only_from_the_fold():
    ws = wmax_uniform(SV, 2)
    assert isinstance(ws.vectors, PackedVectors) and ws.vectors.fields == bytes([2])
    hand_built = WmaxSet(vectors=((5,),), certificates={})
    grown = replace(ws, vectors=((5,),))
    for plain in (hand_built, grown):
        assert type(plain.vectors) is PackedVectors and plain.vectors.fields == b""
        assert in_hyperrectangle((4,), plain.vectors) == (5,)
        assert plain.vectors.best_minima((7,)) == (((5,), (5,)),)


def test_bytes_of_the_wrong_length_are_not_used():
    carrier = PackedVectors(((1, 2), (3, 4)), bytes([1, 2, 3]))
    assert carrier.witness((3, 3)) == (3, 4)
    assert prune_dominated(carrier) == ((3, 4),)


def fold_outputs():
    """Fold output with one-byte fields: the dense sets, small random
    folds, n = 0 and a coordinate of 200 (no room for a guard bit)."""
    rng = random.Random(31)
    sets = [ws for _, _, ws in dense_sets()]
    for _ in range(20):
        graph = random_graph(rng, rng.randint(1, 7), rng.random())
        sets.append(wmax(graph, random_lists(rng, graph.n, colors=rng.randint(1, 4))))
    sets += [wmax(Graph.build((), set()), ()), wmax_uniform(SV, 200), wmax_uniform(K2, 3)]
    return sets


def test_prune_of_fold_output_equals_the_prune_of_its_tuples():
    for ws in fold_outputs():
        assert isinstance(ws.vectors, PackedVectors)
        assert ws.vectors.fields == b"".join(map(bytes, ws.vectors))
        assert prune_dominated(ws.vectors) == prune_dominated(list(ws.vectors))


def test_prune_carrier_answers_queries_as_its_tuples_do():
    rng = random.Random(37)
    for ws in fold_outputs():
        carried, plain = ws.vectors, sorted_distinct(list(ws.vectors))
        assert carried.layout == plain.layout
        demands = demands_near(rng, ws.vectors, 10) if ws.vectors[0] else [()]
        for w in demands:
            assert carried.witness(w) == plain.witness(w), w
            assert carried.best_minima(w) == plain.best_minima(w), w



def test_copies_and_pickles_keep_the_fields_and_the_answers():
    rng = random.Random(41)
    for ws in fold_outputs():
        vecs = ws.vectors
        demands = demands_near(rng, vecs, 6) if vecs[0] else [()]
        # a copy of a set not yet queried, and one of a set whose layout is cached
        unqueried = PackedVectors(vecs, vecs.fields)
        vecs.witness(demands[0])
        for source in (unqueried, vecs):
            for twin in (copy.copy(source), copy.deepcopy(source), pickle.loads(pickle.dumps(source))):
                assert type(twin) is PackedVectors
                assert twin == vecs and twin.fields == vecs.fields
                for w in demands:
                    assert twin.witness(w) == vecs.witness(w), w
                    assert twin.best_minima(w) == vecs.best_minima(w), w
                assert twin.layout == vecs.layout

@pytest.mark.parametrize(
    "vecs, fields",
    [
        # bytes of the wrong length (one short: see the test above)
        (((1, 2), (3, 4)), bytes([1, 2, 3, 4, 0])),
        (((1, 2), (3, 4)), b""),
        # the right bytes, with a coordinate above min(127, 255 // n)
        (((0, 85), (40, 40), (86, 0)), bytes([0, 85, 40, 40, 86, 0])),
        (((128,),), bytes([128])),
        (((3,), (200,)), bytes([3, 200])),
    ],
)
def test_prune_carrier_with_unusable_bytes_packs_its_tuples(vecs, fields):
    packed = PackedVectors(vecs, fields)
    plain = sorted_distinct(list(vecs))
    # with the right bytes, the tuples need two-byte fields: the same width
    # shows the carried bytes were not used
    assert packed.layout == plain.layout
    assert prune_dominated(packed) == prune_dominated(list(vecs))
    for w in {*vecs, (0,) * len(vecs[0]), tuple(a + 1 for a in vecs[0])}:
        assert packed.witness(w) == scan_witness(w, vecs)
        assert packed.best_minima(w) == scan_best_minima(w, vecs)


# members are non-negative; demands may be negative, and clamp to 0
wide = st.integers(min_value=0, max_value=300)
wide_vecs = st.lists(st.tuples(wide, wide, wide), max_size=10)
signed = st.integers(min_value=-300, max_value=300)


@given(st.tuples(signed, signed, signed), wide_vecs, st.randoms(use_true_random=False))
def test_unsorted_duplicated_and_negative_members_match_the_scan(w, xs, rnd):
    members = [*xs, *xs[:2]]
    rnd.shuffle(members)
    ws = WmaxSet(vectors=tuple(members), certificates={})
    expected = scan_witness(w, members)
    assert in_hyperrectangle(w, ws.vectors) == expected
    assert in_hyperrectangle(w, members) == expected
    if members and min(w) >= 0:
        assert ws.vectors.best_minima(w) == scan_best_minima(w, members)
    with pytest.raises(ValueError, match="non-negative"):
        in_hyperrectangle(w, [*members, (0, -1, 0)])


# -- the layout: pack, cut and sorted_distinct ------------------------------


@given(st.data())
def test_cut_reads_back_what_pack_lays_out(data):
    size = data.draw(st.integers(min_value=1, max_value=3))
    n = data.draw(st.integers(min_value=1, max_value=7))
    coord = st.integers(min_value=0, max_value=256**size - 1)
    vs = data.draw(st.lists(st.tuples(*[coord] * n), max_size=12))
    raw = pack(vs, size)
    assert raw == b"".join(a.to_bytes(size, "big") for v in vs for a in v)
    assert cut(raw, n, size) == tuple(vs)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_pack_rejects_a_coordinate_that_does_not_fit(size):
    for a in (256**size, -1):
        with pytest.raises((ValueError, OverflowError)):
            pack([(0, 1), (2, a)], size)


def test_sorted_distinct_takes_a_sorted_tuple_as_it_is():
    vecs = ((0, 3), (1, 2), (2, 0))
    assert sorted_distinct(vecs) == vecs
    assert sorted_distinct([(2, 0), (0, 3), (1, 2), (0, 3)]) == vecs
    assert sorted_distinct(vecs[::-1]) == vecs
    assert sorted_distinct(vecs + vecs[-1:]) == vecs
    assert sorted_distinct(iter(vecs)) == vecs
    assert sorted_distinct(()) == ()
    assert type(sorted_distinct(vecs)) is PackedVectors
    packed = PackedVectors(vecs, bytes([0, 3, 1, 2, 2, 0]))
    assert sorted_distinct(packed) is packed


def test_prune_dominated_is_one_function_under_every_name():
    # the benchmark calls it as multicolor.wmax.prune_dominated
    wmax_module = importlib.import_module("multicolor.wmax")
    assert wmax_module.prune_dominated is prune_dominated is multicolor.prune_dominated
