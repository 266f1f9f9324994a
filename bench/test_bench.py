"""Tests of the benchmark's own parts: corpus, checker and tracer."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import corpus  # noqa: E402
import reference as ref  # noqa: E402
from served import Library, Served  # noqa: E402
from speed import REFERENCE_LOOP_S, WINDOW_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_deterministic_for_a_seed(workload):
    first = corpus.generate(workload, 7)
    assert first == corpus.generate(workload, 7)
    assert first != corpus.generate(workload, 8)
    assert len(first.requests) >= 50
    names = {c.name for c in first.cases}
    assert len(names) == len(first.cases)
    assert all(r.case in names for r in first.requests)


def test_dense_demands_are_half_feasible():
    c = corpus.generate("dense-query", 3)
    cases = {x.name: x for x in c.cases}
    feasible = [
        ref.dominated(r.args[0], cases[r.case].wmax) for r in c.requests if r.kind == "permissible"
    ]
    assert sum(feasible) == len(feasible) // 2


def test_reference_matches_known_counts():
    for n in (5, 7, 8):
        adj = ref.adjacency(n, sorted(ref.cycle_edges(n)))
        perrin = {5: 5, 7: 7, 8: 10}[n]
        assert len(ref.maximal_independent_sets(adj, (1 << n) - 1)) == perrin
    assert ref.cycle_colorings(8, 4) == 6564
    assert ref.odd_cycle_chi(13, 3) == 7


def _ring_case():
    n = 6
    edges = tuple(sorted(ref.cycle_edges(n)))
    lists = (frozenset({1, 2}),) * n
    vectors = frozenset(ref.demand_vectors(n, ref.color_families(n, edges, lists)))
    return corpus.Case("ring", n, edges, lists, (1,) * n, vectors)


def test_checker_accepts_a_valid_coloring_and_rejects_corruptions():
    case = _ring_case()
    good = tuple(frozenset({1 + v % 2}) for v in range(case.n))
    req = corpus.Request("find", case.name, (case.weights,))
    assert checker.check(case, req, good) == []
    clash = (frozenset({2}),) + good[1:]  # vertex 0 now shares colour 2 with vertex 1
    assert any("shares" in p for p in checker.check(case, req, clash))
    short = (frozenset(),) + good[1:]
    assert any("demand" in p for p in checker.check(case, req, short))
    foreign = (frozenset({3}),) + good[1:]
    assert any("not allowed" in p for p in checker.check(case, req, foreign))


def test_checker_rejects_repeats_and_wrong_witnesses():
    case = _ring_case()
    one = tuple(frozenset({1 + v % 2}) for v in range(case.n))
    other = tuple(frozenset({2 - v % 2}) for v in range(case.n))
    stream = corpus.Request("stream", case.name, (2,))
    assert checker.check(case, stream, [one, other]) == []
    assert any("repeats" in p for p in checker.check(case, stream, [one, other, one]))
    witness = corpus.Request("permissible", case.name, ((2,) * case.n,))
    assert checker.check(case, witness, None) == []
    assert checker.check(case, witness, (2,) * case.n) != []
    chromatic = corpus.Request("chromatic", case.name, ((1,) * case.n,))
    assert checker.check(case, chromatic, (2, 2, one)) == []
    assert checker.check(case, chromatic, (1, 1, one)) != []


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    lib = Library()
    tracer = Tracer()
    originals = lib.wmax.enumerate_mis, lib.chromatic.enumerate_mis, lib.cli.wmax
    tracer.install()
    try:
        assert tracer.unwrapped() == []
        assert lib.wmax.enumerate_mis is not originals[0]
        assert lib.chromatic.enumerate_mis is not originals[1]
        c = corpus.generate("sparse-lists", 0)
        served = Served(lib, c, tmp_path)
        served.execute(c.requests[0])
    finally:
        tracer.uninstall()
    assert (lib.wmax.enumerate_mis, lib.chromatic.enumerate_mis, lib.cli.wmax) == originals
    layers = {s.layer for s in tracer.spans}
    assert {"cli", "instance", "wmax", "mis", "vectors"} <= layers
    own = tracer.self_times()
    assert all(t >= -1e-6 for t in own)
    assert all(s.parent is None or s.parent < i for i, s in enumerate(tracer.spans))



def test_speed_factor_is_reference_over_median_loop_time_nearby():
    probe = SpeedProbe()
    probe.times = [0.0, 0.25, 0.5, 10.0]
    probe.loops = [REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S, 4 * REFERENCE_LOOP_S]
    near_start, far_end = probe.factors([(0.1, 0.1), (10.0 + WINDOW_S + 1, 0.5)])
    assert near_start == 0.5  # median of 1x, 2x, 2x
    assert far_end == 0.25  # no sample in the window: the nearest one
