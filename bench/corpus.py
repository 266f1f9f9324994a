"""Seeded corpora for the benchmark workloads.

A corpus is plain data: instances (``Case``) and the request sequence one
client sends against them (``Request``).  It depends only on the workload
name and the seed, never on the program under test; demands are placed
relative to the reference wmax set computed in ``reference``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import reference as ref

Vec = tuple[int, ...]
Coloring = tuple[frozenset[int], ...]


@dataclass(frozen=True)
class Case:
    """One instance.  ``lists`` is None under a uniform palette."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    lists: tuple[frozenset[int], ...] | None = None
    weights: Vec | None = None
    wmax: frozenset[Vec] = field(default=frozenset(), compare=False, repr=False)


@dataclass(frozen=True)
class Request:
    """One request: what to run, on which case, with which arguments.

    kinds and args:
      cli          (subcommand, *flags)      multicolor.cli.main on the case file
      build        ()                        wmax(graph, lists), cached for the case
      prune        ()                        prune_dominated of the cached set
      permissible  (w,)                      is_permissible against the cached set
      find         (w,)                      find_coloring against the cached set
      oncall       (w,)                      oncall_solutions against the cached set
      chromatic    (w,)                      weighted_chromatic
      extend       (a0, c0, w)               extend_coloring
      stream       (a,)                      every coloring of demand 1 on {1..a}
    """

    kind: str
    case: str
    args: tuple = ()


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    cases: tuple[Case, ...]
    requests: tuple[Request, ...]


def _relabel(rng: random.Random, n: int, edges, *per_vertex):
    """A random vertex relabelling applied to edges and per-vertex data."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges))]
    for data in per_vertex:
        moved = [None] * n
        for v in range(n):
            moved[perm[v]] = data[v]
        out.append(tuple(moved))
    return out


def _greedy_demand(rng: random.Random, n: int, adj: list[int], lists) -> list[int]:
    """Weight of a random valid coloring: a feasible demand."""
    w = [0] * n
    colors = sorted(set().union(*lists))
    rng.shuffle(colors)
    for c in colors:
        holders = [v for v in range(n) if c in lists[v]]
        rng.shuffle(holders)
        taken = 0
        for v in holders:
            if not adj[v] & taken:
                taken |= 1 << v
                w[v] += 1
    return w


def _infeasible_above(rng: random.Random, base: Vec, lists, vectors) -> Vec | None:
    """base plus one unit at a vertex, outside the downward closure."""
    spots = [v for v in range(len(base)) if base[v] < len(lists[v])]
    rng.shuffle(spots)
    for v in spots:
        w = base[:v] + (base[v] + 1,) + base[v + 1 :]
        if not ref.dominated(w, vectors):
            return w
    return None


# sparse-lists: build-heavy, every request pays parsing and a cold wmax.
# C22 and C28 repeat so that the median and the 95th percentile fall inside
# a group of equal-cost requests, not in the gap between two sizes.
SPARSE_SIZES = (16, 17, 18, 19, 20, 21, 22, 22, 22, 23, 24, 25, 26, 27, 28, 28)


def sparse_lists(seed: int) -> Corpus:
    """Chorded cycles C16..C28, each colour listed by about three vertices.

    Chord spans are fixed per size so the parent graph's maximal-independent-
    set count (which sets the cost) is the same for every seed; the seed
    draws the vertex labelling, the lists and the demand.  Odd-indexed cases
    get a demand one unit above a feasible one, outside the permissible set
    when such a unit exists.
    """
    rng = random.Random(f"sparse-lists:{seed}")
    cases, requests = [], []
    for idx, n in enumerate(SPARSE_SIZES):
        ring = [(i, (i + 1) % n) for i in range(n)]
        (edges,) = _relabel(rng, n, ring + [(0, n // 2), (n // 4, n // 4 + n // 3)])
        slots = [v for v in range(n) for _ in range(2)]
        rng.shuffle(slots)
        lists = [set() for _ in range(n)]
        for c in range(-(-len(slots) // 3)):
            for v in slots[3 * c : 3 * c + 3]:
                lists[v].add(c + 1)
        lists = tuple(frozenset(s) for s in lists)
        vectors = frozenset(ref.demand_vectors(n, ref.color_families(n, edges, lists)))
        w = tuple(_greedy_demand(rng, n, ref.adjacency(n, edges), lists))
        if idx % 2:
            w = _infeasible_above(rng, w, lists, vectors) or w
        name = f"ring{n}-{idx}"
        cases.append(Case(name, n, edges, lists, w, vectors))
        requests += [
            Request("cli", name, ("check",)),
            Request("cli", name, ("color",)),
            Request("cli", name, ("oncall", "--with-colorings")),
            Request("cli", name, ("wmax",)),
        ]
    return Corpus("sparse-lists", seed, tuple(cases), tuple(requests))


# dense-query: build once, then many reads against the cached WmaxSet
DENSE_CASES = 8
DENSE_CANDIDATES = 40
DENSE_WMAX_BAND = (650, 750)
DENSE_DEMANDS = 4  # with 8 cases, prunes are 7% of requests: p95 falls among them


def _dense_draw(rng: random.Random, n: int):
    """Of DENSE_CANDIDATES draws, the first whose |wmax| is in the band.

    Failing that, the draw closest to the band's middle.  Every draw is
    made, so corpus generation costs the same for every seed.
    """
    middle = sum(DENSE_WMAX_BAND) / 2
    best = None
    for _ in range(DENSE_CANDIDATES):
        edges = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        )
        lists = tuple(
            frozenset(rng.sample(range(1, 5), rng.randint(1, 4))) for _ in range(n)
        )
        size = len(ref.packed_sums(n, ref.color_families(n, edges, lists)))
        inside = DENSE_WMAX_BAND[0] <= size <= DENSE_WMAX_BAND[1]
        key = (0, 0) if inside else (1, abs(size - middle))
        if best is None or key < best[0]:
            best = (key, edges, lists)
    return best[1], best[2]


def dense_query(seed: int) -> Corpus:
    """G(n, 0.5), n = 10 and 11, lists drawn from 4 colours.

    |wmax| is held in DENSE_WMAX_BAND (see ``_dense_draw``), which fixes the
    dominance work per case across seeds; unbanded, G(10, 0.5) ranges from
    about 70 to 2000 vectors.  Half the demands lie below a wmax vector,
    half one unit outside the downward closure.
    """
    rng = random.Random(f"dense-query:{seed}")
    cases, requests = [], []
    for k in range(DENSE_CASES):
        n = 10 + k % 2
        edges, lists = _dense_draw(rng, n)
        vectors = ref.demand_vectors(n, ref.color_families(n, edges, lists))
        name = f"gnp{k}"
        cases.append(Case(name, n, edges, lists, None, frozenset(vectors)))
        requests += [Request("build", name), Request("prune", name)]
        ordered = sorted(vectors)
        demands: list[Vec] = []
        while len(demands) < DENSE_DEMANDS:
            m = rng.choice(ordered)
            if len(demands) % 2 == 0:
                w = tuple(max(0, x - (rng.random() < 0.3)) for x in m)
            else:
                w = _infeasible_above(rng, m, lists, vectors)
            if w is not None:
                demands.append(w)
        for w in demands:
            requests += [Request(kind, name, (w,)) for kind in ("permissible", "find", "oncall")]
    return Corpus("dense-query", seed, tuple(cases), tuple(requests))


# palette: uniform palettes only; chromatic ascent, extension and enumeration
PALETTE_ODD_CYCLES = (9, 11, 13, 15)
# (n, a0, uniform demand, rotation of the precoloring); the four rotations
# of C11 cost the same, and the 95th percentile falls among them
PALETTE_FIXED_RINGS = ((11, 3, 3, 0), (11, 3, 3, 3), (11, 3, 3, 6), (11, 3, 3, 9), (13, 3, 2, 0))
PALETTE_STREAMS = ((7, 3), (8, 3), (7, 4), (8, 4))
PALETTE_RANDOM_GRAPHS = 55
PALETTE_RANDOM_RINGS = 40


def _cycle(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(ref.cycle_edges(n)))


def _random_precoloring(rng: random.Random, n: int, a0: int) -> Coloring:
    """A proper partial coloring of C_n from {1..a0}, one colour or none per vertex."""
    adj = ref.adjacency(n, _cycle(n))
    c0: list[frozenset[int]] = []
    for v in range(n):
        used = {c for u in range(v) if adj[v] >> u & 1 for c in c0[u]}
        free = sorted(set(range(1, a0 + 1)) - used)
        c0.append(frozenset(rng.sample(free, 1)) if free and rng.random() < 0.6 else frozenset())
    return tuple(c0)


def _light_pool():
    """The light palette instances, drawn once from a fixed seed.

    Each entry is (name, n, edges, request kind, leading arguments,
    per-vertex arguments): G(n, 0.5) with n = 6..8 and demands 1..2 for the
    chromatic solver, and rings C6..C11 with a random proper precoloring and
    up to one extra colour per vertex for extension.
    """
    rng = random.Random("palette-pool")
    pool = []
    for k in range(PALETTE_RANDOM_GRAPHS):
        n = 6 + k % 3
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        w = [rng.randint(1, 2) for _ in range(n)]
        pool.append((f"rand{k}", n, edges, "chromatic", (), (w,)))
    for k in range(PALETTE_RANDOM_RINGS):
        n, a0 = 6 + k % 6, 2 + k % 2
        c0 = _random_precoloring(rng, n, a0)
        w = [len(c) + rng.randint(0, 1) for c in c0]
        pool.append((f"ring{k}", n, _cycle(n), "extend", (a0,), (c0, w)))
    return pool


def palette(seed: int) -> Corpus:
    """Weighted chromatic, precoloring extension and full enumeration.

    The heavy requests are odd cycles C9..C15 at uniform demand 2 and 3,
    five precoloured odd rings, and the C7/C8 streams.  Around them the
    client sends many light requests from a fixed pool (``_light_pool``).
    The seed relabels every light instance and shuffles their order, so
    each seed sends different inputs of the same difficulty; a pool drawn
    per seed made the median latency depend on the seed by about 20%.
    """
    rng = random.Random(f"palette:{seed}")
    cases, requests = [], []
    for n in PALETTE_ODD_CYCLES:
        cases.append(Case(f"odd{n}", n, _cycle(n)))
        requests += [Request("chromatic", f"odd{n}", ((b,) * n,)) for b in (2, 3)]
    for n, a0, b, turn in PALETTE_FIXED_RINGS:
        name = f"alt{n}x{a0}r{turn}"
        alternating = [frozenset({1 + v % 2}) if v < n - 1 else frozenset() for v in range(n)]
        c0 = tuple(alternating[(v - turn) % n] for v in range(n))
        cases.append(Case(name, n, _cycle(n)))
        requests.append(Request("extend", name, (a0, c0, (b,) * n)))
    for n, a in PALETTE_STREAMS:
        name = f"stream{n}x{a}"
        cases.append(Case(name, n, _cycle(n)))
        requests.append(Request("stream", name, (a,)))
    light = []
    for name, n, edges, kind, head, per_vertex in _light_pool():
        edges, *moved = _relabel(rng, n, edges, *per_vertex)
        cases.append(Case(name, n, edges))
        light.append(Request(kind, name, (*head, *moved)))
    rng.shuffle(light)
    return Corpus("palette", seed, tuple(cases), tuple(requests + light))


WORKLOADS = {
    "sparse-lists": sparse_lists,
    "dense-query": dense_query,
    "palette": palette,
}


def generate(workload: str, seed: int) -> Corpus:
    return WORKLOADS[workload](seed)
