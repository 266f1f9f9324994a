"""Brute-force reference semantics, deliberately naive.

Everything here answers questions by exhaustive search straight from the
definition of a valid coloring, sharing no code with the solver path beyond
the instance model and the Vec type.  Any disagreement between this
module and the solvers is a bug in exactly one of them.

The colorings of an instance come from one lazy search, _colorings, that
backtracks on an explicit stack: brute_colorable takes its first item
and brute_all_colorings all of them.

Searches are guarded by an upfront estimate of the branch count
(product over vertices of C(|L(v)|, w(v)), default limit 1e7), the
on-call scan by its candidate count (product over vertices of w(v) + 1),
and the palette climbs by the palette size, checked before each palette
is built; the non-recoloring climb also estimates each probe's branches
before it builds the probe's lists.  So a stray large instance fails
fast instead of hanging.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate, combinations
from math import comb, prod

from .errors import DEFAULT_MAX_BRANCHES, ResourceLimitExceeded
from .instance import Graph, Instance, uniform_lists
from .vectors import Vec

BruteColoring = tuple[frozenset[int], ...]


def _branch_estimate(sizes: Iterable[int], w: Vec) -> int:
    """Product over vertices of C(|L(v)|, w(v)), given the sizes |L(v)|."""
    total = 1
    for size, need in zip(sizes, w):
        total *= comb(size, need)
        if total == 0:
            return 0
    return total


def _guard(sizes: Iterable[int], w: Vec, max_branches: int, search: str) -> bool:
    """True if lists of these sizes are searchable; False if trivially infeasible.

    search names the search in the ResourceLimitExceeded message.
    """
    estimate = _branch_estimate(sizes, w)
    if estimate > max_branches:
        raise ResourceLimitExceeded(
            f"{search} oracle: estimated {estimate} branches exceeds limit {max_branches}"
        )
    return estimate > 0


def _colorings(inst: Instance) -> Iterator[BruteColoring]:
    """Every valid coloring, lazily, in search order.

    Backtracks vertex by vertex over w(v)-subsets of L(v), keeping one
    iterator of subsets per placed vertex on an explicit stack, so the
    search needs no recursion however many vertices it places.  Subsets
    are tried in lexicographic order over ascending colors, so the first
    coloring is deterministic.  A vertex with w(v) = 0 keeps the empty
    set, which meets nothing, so only the others are placed.
    """
    w = inst.require_weights()
    placed = [i for i in range(inst.n) if w[i]]
    earlier = {i: [j for j in placed if j < i and (j, i) in inst.graph.edges] for i in placed}
    choices: dict[int, list[frozenset[int]]] = {
        i: [frozenset(c) for c in combinations(sorted(inst.lists[i]), w[i])] for i in placed
    }
    assigned: list[frozenset[int]] = [frozenset()] * inst.n
    if not placed:
        yield tuple(assigned)
        return
    stack = [iter(choices[placed[0]])]
    while stack:
        k = len(stack) - 1
        i = placed[k]
        for pick in stack[-1]:
            if not any(pick & assigned[j] for j in earlier[i]):
                break
        else:
            stack.pop()
            continue
        assigned[i] = pick
        if k + 1 < len(placed):
            stack.append(iter(choices[placed[k + 1]]))
        else:
            yield tuple(assigned)


def brute_colorable(inst: Instance, max_branches: int = DEFAULT_MAX_BRANCHES) -> BruteColoring | None:
    """First valid coloring in search order, or None if none exists."""
    if not _guard(map(len, inst.lists), inst.require_weights(), max_branches, "colorable"):
        return None
    return next(_colorings(inst), None)


def brute_all_colorings(inst: Instance, max_branches: int = DEFAULT_MAX_BRANCHES) -> set[BruteColoring]:
    """The complete set of valid colorings."""
    if not _guard(map(len, inst.lists), inst.require_weights(), max_branches, "all-colorings"):
        return set()
    return set(_colorings(inst))


def _palette_guard(oracle: str, a: int, max_branches: int) -> None:
    """Raise before a palette climb builds a palette of more than max_branches colors."""
    if a > max_branches:
        raise ResourceLimitExceeded(
            f"{oracle} oracle: palette of {a} colors exceeds limit {max_branches}"
        )


def brute_chromatic(graph: Graph, w: Vec, max_branches: int = DEFAULT_MAX_BRANCHES) -> int:
    """Smallest palette size a such that colors {1..a} satisfy the demand w.

    Climbs from max(w), since a vertex needs w(v) distinct colors.

    Raises:
        ResourceLimitExceeded: before its palette is built, if a palette
            size to probe exceeds max_branches; and if some probe's search
            space exceeds max_branches.
    """
    if sum(w) == 0:
        return 0
    a = max(w)
    while True:
        _palette_guard("chromatic", a, max_branches)
        probe = Instance(graph, uniform_lists(graph.n, a), tuple(w))
        if brute_colorable(probe, max_branches) is not None:
            return a
        a += 1


def _layer(w: Vec, total: int):
    """The vectors u <= w (coordinatewise, u >= 0) with sum(u) == total.

    Only the coordinates with w_v > 0 are branched on, so the recursion is
    as deep as they are many, at most log2 of prod(w_v + 1); each vector
    costs one copy of u.
    """
    free = [v for v, x in enumerate(w) if x]
    rest = [*accumulate((w[v] for v in reversed(free)), initial=0)][::-1]
    u = [0] * len(w)

    def fill(k: int, left: int):
        if k == len(free):
            if left == 0:
                yield tuple(u)
            return
        v = free[k]
        for x in range(max(0, left - rest[k + 1]), min(w[v], left) + 1):
            u[v] = x
            yield from fill(k + 1, left - x)

    return fill(0, total)


def brute_oncall(inst: Instance, max_branches: int = DEFAULT_MAX_BRANCHES) -> set[Vec]:
    """All satisfiable demands below the requested one with maximal total.

    Scans candidates w* <= w in descending-norm layers, each generated
    only when it is reached, and stops at the first layer containing a
    satisfiable vector; every solution shares that norm, so lower layers
    cannot contribute.  The last layer, total 0, holds only the zero
    vector, which is always satisfiable, so the scan always returns.

    Raises:
        ValueError: if a weight is negative.
        ResourceLimitExceeded: before any candidate is made, if the
            prod(w_v + 1) candidates exceed max_branches; and if some
            candidate's search space exceeds max_branches.
    """
    w = inst.require_weights()
    candidates = prod(x + 1 for x in w)
    if candidates > max_branches:
        raise ResourceLimitExceeded(
            f"on-call oracle: {candidates} candidate demands exceed limit {max_branches}"
        )
    for total in range(sum(w), -1, -1):
        hits = {
            cand
            for cand in _layer(w, total)
            if brute_colorable(inst.with_weights(cand), max_branches) is not None
        }
        if hits:
            return hits


def brute_nonrecolor_chi(
    graph: Graph,
    a0: int,
    c0: BruteColoring,
    w: Vec,
    max_branches: int = DEFAULT_MAX_BRANCHES,
) -> int:
    """Smallest palette admitting a weight-w coloring that contains c0.

    Ascends from max(a0, max(w)), since a vertex needs w(v) distinct
    colors.  Each palette size {1..a} is probed as an ordinary
    coloring problem for the extra colors: vertex v needs w(v) - |c0(v)|
    further colors drawn from {1..a} minus its own and its neighbors'
    precolors, and any such coloring unions with c0 into a valid
    extension.

    Raises:
        ValueError: if a0 < 0, c0 or w has the wrong length, c0 holds a
            color outside {1..a0} or shares a color across an edge, or
            w falls below c0's weight at some vertex.
        ResourceLimitExceeded: before its palette is built, if a palette
            size to probe exceeds max_branches; and before its lists are
            built, if some probe's search space exceeds max_branches before
            a witness is found.
    """
    if a0 < 0:
        raise ValueError("base palette size must be non-negative")
    if len(c0) != graph.n or len(w) != graph.n:
        raise ValueError("precoloring or demand has wrong dimension")
    for v in range(graph.n):
        if any(not 1 <= x <= a0 for x in c0[v]):
            raise ValueError(f"vertex {graph.names[v]}: precolor outside 1..{a0}")
        if w[v] < len(c0[v]):
            raise ValueError("target demand falls below the precoloring's weight")
    for i, j in graph.edges:
        if c0[i] & c0[j]:
            raise ValueError(f"edge {graph.names[i]}-{graph.names[j]}: precoloring shares a color")
    blocked = [frozenset(held) for held in c0]
    for i, j in graph.edges:
        blocked[i] |= c0[j]
        blocked[j] |= c0[i]
    extra = tuple(w[v] - len(c0[v]) for v in range(graph.n))
    a = max(a0, max(w, default=0))
    while True:
        _palette_guard("non-recoloring chromatic", a, max_branches)
        # estimate the probe before building its lists: blocked[v] lies
        # inside {1..a0}, so list v, {1..a} - blocked[v], has a - |blocked[v]|
        _guard([a - len(held) for held in blocked], extra, max_branches, "colorable")
        # a vertex that needs no extra color is never placed, so it needs no
        # list, and a probe where none needs one builds no palette
        palette = frozenset(range(1, a + 1)) if any(extra) else frozenset()
        lists = tuple(palette - held if need else frozenset() for held, need in zip(blocked, extra))
        if brute_colorable(Instance(graph, lists, extra), max_branches) is not None:
            return a
        a += 1
