import pytest
from hypothesis import given
from hypothesis import strategies as st

from multicolor.vectors import in_hyperrectangle, leq, norm, support, vec_min, vec_sub
from util import indicator, vec_add, zero

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


def test_norm_examples():
    assert norm((0, 0, 0)) == 0
    assert norm((1, 2, 1)) == 4
    assert norm((2, 0, 2)) == 4


@given(vecs3, vecs3)
def test_norm_additive(x, y):
    assert norm(vec_add(x, y)) == norm(x) + norm(y)


@given(vecs3, vecs3)
def test_norm_monotone(x, y):
    if leq(x, y):
        assert norm(x) <= norm(y)


def test_vec_min_examples():
    assert vec_min((1, 2, 1), (1, 1, 0)) == (1, 1, 0)
    assert vec_min((1, 2, 1), (1, 2, 1)) == (1, 2, 1)
    assert vec_min((1, 2, 1), (0, 2, 0)) == (0, 2, 0)


@given(vecs3, vecs3)
def test_vec_min_is_greatest_lower_bound(x, y):
    m = vec_min(x, y)
    assert leq(m, x) and leq(m, y)
    bigger = tuple(c + 1 for c in m)
    assert not (leq(bigger, x) and leq(bigger, y))


def test_vec_sub_requires_dominance():
    assert vec_sub((2, 1), (1, 1)) == (1, 0)
    with pytest.raises(ValueError):
        vec_sub((1, 0), (0, 1))


def test_indicator_examples():
    assert indicator({0, 2}, 3) == (1, 0, 1)
    assert indicator(set(), 3) == (0, 0, 0)
    assert indicator({1}, 3) == (0, 1, 0)


def test_indicator_rejects_out_of_range():
    with pytest.raises(ValueError):
        indicator({3}, 3)


def test_support_inverts_indicator():
    assert support((1, 0, 1)) == frozenset({0, 2})
    assert support(zero(4)) == frozenset()


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
