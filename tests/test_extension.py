import ast
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import multicolor.chromatic
import multicolor.extension
import multicolor.oracle
from multicolor import (
    ExtensionResult,
    Graph,
    Instance,
    NotPermissibleError,
    ResourceLimitExceeded,
    brute_nonrecolor_chi,
    extend_coloring,
    find_coloring,
    is_valid_coloring,
    uniform_lists,
    weighted_chromatic,
    wmax_constrained,
)
from multicolor.chromatic import ChromaticSolver
from multicolor.mis import enumerate_mis
from multicolor.wmax import vecsum_families, wmax, wmax_uniform
from util import (
    C5,
    K2,
    K3,
    P3,
    coloring,
    graph_from_edges,
    indicator,
    mask_to_vec,
    random_graph,
    vec_to_mask,
)

C0_K2 = coloring({1}, set())
C0_K3 = coloring({1}, set(), set())


def empty_precoloring(n):
    return tuple(frozenset() for _ in range(n))


def sample_precoloring(rng, graph, a0):
    """A valid precoloring over {1..a0}, possibly empty at every vertex."""
    w0 = tuple(rng.randint(0, 1) for _ in range(graph.n))
    try:
        return find_coloring(Instance(graph, uniform_lists(graph.n, a0), w0))
    except NotPermissibleError:
        return empty_precoloring(graph.n)


def random_precoloring(rng, graph, a0):
    """A valid precoloring over {1..a0} with 0 to 2 colors per vertex."""
    held = [frozenset()] * graph.n
    for v in range(graph.n):
        taken = set().union(*(held[i + j - v] for i, j in graph.edges if v in (i, j)))
        free = sorted(set(range(1, a0 + 1)) - taken)
        held[v] = frozenset(rng.sample(free, min(rng.randint(0, 2), len(free))))
    return tuple(held)


def reference_wmax_constrained(graph, a0, c0):
    """The constrained set by its definition: each color's family is the
    whole graph's maximal independent sets that hold that color's
    precolored vertices, and the families are folded as wmax folds them."""
    parent = enumerate_mis(graph)
    families = {}
    for x in range(1, a0 + 1):
        required = vec_to_mask(indicator((v for v in range(graph.n) if x in c0[v]), graph.n))
        families[x] = tuple(s for s in parent if not required & ~s)
    return vecsum_families(families, graph.n).certificates, families


def reduced_lists(graph, a0, c0):
    """The paper's reduction of an extension to a list problem: each vertex
    lists {1..a0} less its neighbors' precolors."""
    lists = [frozenset(range(1, a0 + 1))] * graph.n
    for i, j in graph.edges:
        lists[i] -= c0[j]
        lists[j] -= c0[i]
    return tuple(lists)


def in_order(ws):
    """A maximal set's vectors, its certificates and its families, each
    mapping as a list of items in its own order."""
    certificates = [(vec, list(cert.items())) for vec, cert in ws.certificates.items()]
    return ws.vectors, certificates, list(ws.families.items())


class TestWmaxConstrained:
    def test_edge_forced_color(self):
        assert wmax_constrained(K2, 1, C0_K2).vectors == ((1, 0),)

    def test_triangle_one_forced_color(self):
        got = wmax_constrained(K3, 2, C0_K3).vectors
        assert got == ((1, 0, 1), (1, 1, 0), (2, 0, 0))

    def test_empty_precoloring_is_unconstrained(self):
        for graph, a in ((P3, 2), (K3, 2), (K2, 3)):
            got = wmax_constrained(graph, a, empty_precoloring(graph.n))
            assert got.vectors == wmax_uniform(graph, a).vectors

    def test_subset_of_unconstrained(self):
        rng = random.Random(17)
        for _ in range(15):
            graph = random_graph(rng, rng.randint(1, 5), rng.random())
            a0 = rng.randint(1, 2)
            c0 = sample_precoloring(rng, graph, a0)
            constrained = set(wmax_constrained(graph, a0, c0).vectors)
            assert constrained <= set(wmax_uniform(graph, a0).vectors)

    def test_certificates_respect_the_precoloring(self):
        ws = wmax_constrained(K3, 2, C0_K3)
        for vec in ws.vectors:
            cert = ws.certificates[vec]
            assert mask_to_vec(cert[1], K3.n)[0] == 1

    def test_zero_palette_serves_only_zero(self):
        ws = wmax_constrained(K2, 0, coloring(set(), set()))
        assert ws.vectors == ((0, 0),)
        assert dict(ws.certificates) == {(0, 0): {}}

    def test_matches_the_filtered_whole_graph_family(self):
        rng = random.Random(31)
        for _ in range(400):
            graph = random_graph(rng, rng.randint(1, 9), rng.random())
            a0 = rng.randint(0, 4)
            c0 = random_precoloring(rng, graph, a0)
            got = wmax_constrained(graph, a0, c0)
            sums, families = reference_wmax_constrained(graph, a0, c0)
            assert got.vectors == tuple(sorted(sums)), (graph, a0, c0)
            assert dict(got.certificates) == sums
            assert dict(got.families) == families

    def test_equals_the_wmax_of_the_reduced_lists(self):
        """Every color of {1..a0} is listed somewhere once n >= 1, so the
        reduction's maximal set equals the constrained one: vectors,
        certificates and families, each in the same order."""
        cases = [
            alternating_ring(*ring)[:3]
            for ring in ((11, 3, 3, 0), (11, 3, 3, 3), (11, 3, 3, 6), (13, 3, 2, 0))
        ]
        rng = random.Random(37)
        for _ in range(300):
            graph = random_graph(rng, rng.randint(1, 8), rng.random())
            a0 = rng.randint(0, 4)
            cases.append((graph, a0, random_precoloring(rng, graph, a0)))
        for graph, a0, c0 in cases:
            got = in_order(wmax_constrained(graph, a0, c0))
            assert got == in_order(wmax(graph, reduced_lists(graph, a0, c0))), (graph, a0, c0)

    def test_empty_graph_serves_only_the_empty_vector(self):
        empty = Graph.build((), set())
        for a0 in range(3):
            sums, _ = reference_wmax_constrained(empty, a0, ())
            got = wmax_constrained(empty, a0, ())
            assert got.vectors == tuple(sums) == ((),)
            # no vertex lists a color, so no family is folded
            assert dict(got.families) == {}
            assert dict(got.certificates) == {(): {}}

    def test_rejects_negative_palette(self):
        with pytest.raises(ValueError):
            wmax_constrained(K2, -1, coloring(set(), set()))

    def test_rejects_out_of_range_precolor(self):
        with pytest.raises(ValueError, match=r"^precoloring on 1\.\.1: v1: colors \[2\] not in its list$"):
            wmax_constrained(K2, 1, coloring({2}, set()))

    def test_rejects_conflicting_precoloring(self):
        with pytest.raises(ValueError, match=r"^precoloring on 1\.\.1: edge v1-v2: shares colors \[1\]$"):
            wmax_constrained(K2, 1, coloring({1}, {1}))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match=r"^precoloring on 1\.\.1: expected 2 vertex entries, got 1$"):
            wmax_constrained(K2, 1, coloring({1},))


class TestExtendColoring:
    def test_edge_gets_a_second_color(self):
        result = extend_coloring(K2, 1, C0_K2, (1, 1))
        assert result.bound == 2
        assert result.coloring == coloring({1}, {2})

    def test_covered_demand_keeps_the_palette(self):
        c0 = coloring({1}, {2})
        result = extend_coloring(K2, 2, c0, (1, 1))
        assert result.bound == 2
        assert result.coloring == c0

    def test_triangle_needs_one_fresh_color(self):
        result = extend_coloring(K3, 2, C0_K3, (1, 1, 1))
        assert result.bound == 3
        inst = Instance(K3, uniform_lists(3, 3), (1, 1, 1))
        assert is_valid_coloring(inst, result.coloring).ok
        assert 1 in result.coloring[0]

    def test_zero_palette_is_the_weighted_chromatic_number(self):
        fresh = weighted_chromatic(K2, (2, 1))
        result = extend_coloring(K2, 0, coloring(set(), set()), (2, 1))
        assert result == ExtensionResult(bound=fresh.chi, coloring=fresh.coloring)
        assert result.bound == 3

    def test_rejects_demand_below_precoloring(self):
        with pytest.raises(ValueError):
            extend_coloring(K2, 1, C0_K2, (0, 1))

    def test_branch_cap_covers_the_residual_solves(self):
        with pytest.raises(ResourceLimitExceeded, match="chromatic search at palette level 1"):
            extend_coloring(K3, 2, C0_K3, (1, 1, 1), max_branches=0)
        assert extend_coloring(K3, 2, C0_K3, (1, 1, 1), max_branches=100).bound == 3

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            extend_coloring(K2, 1, C0_K2, (1,))

    def test_branch_cap_counts_the_decided_residuals_and_the_witness(self, monkeypatch):
        # a cap of exactly the states expanded passes, one fewer trips, also
        # where several residuals are decided: the count is the last solve's
        real_solve = ChromaticSolver.solve
        several = 0
        for graph, a0, c0, w in several_residual_cases():
            solved, used = [], []

            def recording_solve(self, w, ceiling=None):
                result = real_solve(self, w, ceiling)
                solved.append(w)
                used.append(self.expanded)
                return result

            monkeypatch.setattr(ChromaticSolver, "solve", recording_solve)
            result = extend_coloring(graph, a0, c0, w)
            monkeypatch.undo()
            # each decided residual is solved once, and the winner not again
            assert len(solved) == len(set(solved))
            several += len(solved) > 1
            expanded = used[-1]
            assert extend_coloring(graph, a0, c0, w, max_branches=expanded) == result
            with pytest.raises(ResourceLimitExceeded, match=f"limit {expanded - 1}$"):
                extend_coloring(graph, a0, c0, w, max_branches=expanded - 1)
        assert several >= 5, several

    def test_only_a_residual_that_beats_the_best_builds_a_witness(self, monkeypatch):
        # solve climbs a residual only below the best chi so far, so one
        # that can only tie returns None and builds no chromatic witness:
        # every witness belongs to a solve that returned, each beating the
        # last, and a call whose later residuals only tie builds exactly one
        real_solve = ChromaticSolver.solve
        real_witness = multicolor.chromatic.from_certificate
        several = one = 0
        for graph, a0, c0, w in several_residual_cases():
            results, built = [], []

            def recording_solve(self, w, ceiling=None):
                results.append(real_solve(self, w, ceiling))
                return results[-1]

            def counting_witness(*args):
                built.append(args)
                return real_witness(*args)

            monkeypatch.setattr(ChromaticSolver, "solve", recording_solve)
            monkeypatch.setattr(multicolor.chromatic, "from_certificate", counting_witness)
            extend_coloring(graph, a0, c0, w)
            monkeypatch.undo()
            chis = [r.chi for r in results if r is not None]
            assert len(built) == len(chis) >= 1
            assert chis == sorted(set(chis), reverse=True)
            if len(results) > 1:
                several += 1
                one += len(built) == 1
        assert several >= 5 and one >= 3, (several, one)

    def test_the_winner_is_solved_once_under_the_cap(self):
        # the one residual, (1, 1), is solved by a walk of one state at
        # level 1; walking the winner's level a second time would trip
        # the cap of 1
        graph = graph_from_edges(2, ())
        result = extend_coloring(graph, 1, coloring({1}, {1}), (2, 2), max_branches=1)
        assert result == ExtensionResult(bound=2, coloring=coloring({1, 2}, {1, 2}))

    def test_a_residual_level_the_cap_cannot_walk_raises_before_walking(self):
        # v1 precolored {1}: the first residual decided, (10**30 - 1, 1, 1,
        # 0, 1), is refuted by the edge prune at level 10**30 - 1, and level
        # 10**30 would walk 10**30 positions, so it raises with the count
        # that walk would reach instead of walking the default cap of 10**7
        c0 = coloring({1}, set(), set(), set(), set())
        message = rf"^chromatic search at palette level {10**30}: expanded 10000001 states, limit 10000000$"
        start = time.monotonic()
        with pytest.raises(ResourceLimitExceeded, match=message):
            extend_coloring(C5, 1, c0, (10**30, 1, 1, 1, 1))
        assert time.monotonic() - start < 1


def test_random_extensions_are_sound():
    rng = random.Random(71)
    for _ in range(25):
        graph = random_graph(rng, rng.randint(1, 5), rng.random())
        a0 = rng.randint(1, 2)
        c0 = sample_precoloring(rng, graph, a0)
        w = tuple(len(c0[v]) + rng.randint(0, 2) for v in range(graph.n))
        result = extend_coloring(graph, a0, c0, w)
        assert result.bound >= a0
        inst = Instance(graph, uniform_lists(graph.n, result.bound), w)
        assert is_valid_coloring(inst, result.coloring).ok
        assert all(c0[v] <= result.coloring[v] for v in range(graph.n))
        assert result.bound >= weighted_chromatic(graph, w).chi
        assert result.bound == brute_nonrecolor_chi(graph, a0, c0, w)


def several_residual_cases():
    """A palette-benchmark ring and 40 random extensions (seed 29), at
    least 5 of which decide more than one residual."""
    rng = random.Random(29)
    cases = [alternating_ring(11, 3, 3, 3)]
    for _ in range(40):
        graph = random_graph(rng, rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7)))
        a0 = rng.randint(1, 3)
        c0 = random_precoloring(rng, graph, a0)
        cases.append((graph, a0, c0, tuple(len(c0[v]) + rng.randint(1, 3) for v in range(graph.n))))
    return cases


def alternating_ring(n, a0, b, turn):
    """C_n with colors 1 and 2 alternating on all but one vertex, rotated
    by turn, and uniform demand b: the fixed rings of the palette benchmark."""
    alternating = [frozenset({1 + v % 2}) if v < n - 1 else frozenset() for v in range(n)]
    c0 = tuple(alternating[(v - turn) % n] for v in range(n))
    ring = graph_from_edges(n, {(min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n)})
    return ring, a0, c0, (b,) * n


def reference_extend(graph, a0, c0, w):
    """The extension by its first loop: every distinct residual solved, the
    first w1 whose residual has the strictly smallest chi, and the witness
    read from its certificate's masks: c0 plus the smallest other colors
    up to min(w, w1), then the residual's chromatic witness shifted above
    a0.  The constrained set is wmax of reduced_lists.  Also returns
    whether two distinct residuals tie at that chi."""
    constrained = wmax(graph, reduced_lists(graph, a0, c0))
    solved, best = {}, None
    for w1 in constrained.vectors:
        residual = tuple(max(x - y, 0) for x, y in zip(w, w1))
        if residual not in solved:
            solved[residual] = weighted_chromatic(graph, residual)
        if best is None or solved[residual].chi < best[0].chi:
            best = (solved[residual], w1)
    fresh, base = best
    cert = constrained.certificates[base]
    combined = []
    for v in range(graph.n):
        held = {x for x, m in cert.items() if mask_to_vec(m, graph.n)[v]}
        others = sorted(held - c0[v])[: min(w[v], base[v]) - len(c0[v])]
        combined.append(c0[v] | set(others) | {x + a0 for x in fresh.coloring[v]})
    tied = sum(r.chi == fresh.chi for r in solved.values()) > 1
    return ExtensionResult(a0 + fresh.chi, tuple(combined)), tied


def test_extension_equals_the_loop_over_every_residual():
    cases = [
        alternating_ring(*ring)
        for ring in ((11, 3, 3, 0), (11, 3, 3, 3), (11, 3, 3, 6), (11, 3, 3, 9), (13, 3, 2, 0))
    ]
    rng = random.Random(83)
    for _ in range(1000):
        graph = random_graph(rng, rng.randint(0, 8), rng.random())
        a0 = rng.randint(0, 3)
        c0 = random_precoloring(rng, graph, a0)
        w = tuple(len(c0[v]) + rng.randint(0, 3) for v in range(graph.n))
        cases.append((graph, a0, c0, w))
    ties = 0
    for case in cases:
        expected, tied = reference_extend(*case)
        assert extend_coloring(*case) == expected, case
        ties += tied
    assert ties >= 50, ties


@st.composite
def extension_cases(draw):
    """A graph on at most 6 vertices, a palette a0 <= 3, a valid
    precoloring over {1..a0} and a demand 0..2 above it."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    graph = graph_from_edges(n, edges)
    a0 = draw(st.integers(1, 3))
    held = [set() for _ in range(n)]
    for v in range(n):
        for x in range(1, a0 + 1):
            neighbours = {i + j - v for i, j in graph.edges if v in (i, j)}
            if all(x not in held[u] for u in neighbours) and draw(st.booleans()):
                held[v].add(x)
    c0 = tuple(frozenset(s) for s in held)
    w = tuple(len(c0[v]) + draw(st.integers(0, 2)) for v in range(n))
    return graph, a0, c0, w


def test_bound_equals_brute_force_optimum():
    """Cases past the oracle's guard are skipped; enough must remain."""
    compared = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(extension_cases())
    def check(case):
        graph, a0, c0, w = case
        try:
            exact = brute_nonrecolor_chi(graph, a0, c0, w, max_branches=200_000)
        except ResourceLimitExceeded:
            assume(False)
        assert extend_coloring(graph, a0, c0, w).bound == exact
        compared.append(case)

    check()
    assert len(compared) >= 250


def imported_modules(path):
    """Every module a source file imports, with `from . import x` as `.x`."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            if node.module is None:
                names.update(prefix + alias.name for alias in node.names)
            else:
                names.add(prefix)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def test_extension_does_not_import_the_oracle():
    imported = imported_modules(multicolor.extension.__file__)
    assert not any("oracle" in name for name in imported), imported


def test_oracle_imports_only_the_instance_model():
    # a standard-library submodule, collections.abc for one, counts by its package
    imported = imported_modules(multicolor.oracle.__file__)
    foreign = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert foreign <= {"__future__", ".errors", ".instance", ".vectors"}, foreign


def test_package_imports_only_itself_and_the_standard_library():
    package = Path(multicolor.__file__).parent
    for path in sorted(package.glob("*.py")):
        for name in imported_modules(path):
            top = name.split(".")[0]
            assert name.startswith(".") or top in sys.stdlib_module_names, (path.name, name)
