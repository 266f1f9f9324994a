"""Weighted chromatic number: smallest uniform palette meeting a demand.

With every vertex drawing from the same palette {1..a}, the demand w is
satisfiable exactly when some multiset of at most a maximal independent
sets (MIS) has an indicator sum dominating w.  Deciding that is a covering
problem with multiplicities, the pricing side of branch-and-price for
graph multicoloring (Mehrotra and Trick, 2007).  The solver climbs from
the lower bound max(ceil(|w|/alpha), max(w)) one palette size at a time,
so the first level it can cover is optimal.  Every vertex lies in some
MIS, so the climb ends.

A state is a deficit d (the demand not yet covered, clipped at 0) and a
budget b (the picks left).  It is infeasible when some d[v] > b, when
b * alpha < |d| (one MIS covers at most alpha units), or when
d[u] + d[v] > b on an edge uv (an independent set holds at most one
endpoint).  The exact search branches on the lowest-index vertex with a
deficit, over only the MIS that contain it, since every cover uses one of
them.  It tries them in index order and skips an MIS whose overlap with
the deficit's support lies inside the overlap of one already tried.  A
deficit is one int of fixed-width bit fields, with vertex 0 in the most
significant field, the order of vertex masks, so an MIS mask widens into
its packed indicator vector by instance.spread and the lowest-index
deficient vertex is the top nonzero field.  A state's answer does not depend on w, so one memo serves every
palette level and every demand on the same graph.  The memo is monotone
in the budget: each deficit keeps the smallest budget known feasible,
with one pick that achieves it, and the largest known infeasible.  The
search runs on an explicit stack, so its depth is not bounded by
Python's recursion limit.

The witness is the lexicographically first non-decreasing sequence of MIS
indices whose sum dominates w; it has exactly as many picks as the
palette size, since the climb starts at a lower bound and passes only
refuted levels.
A greedy walk rebuilds it from any exact feasibility test: each position
takes the smallest index, no smaller than the previous pick, whose
remainder is still feasible with one pick fewer.  If a smaller index had
a feasible remainder, sorting the cover it completes would give a
sequence that is lexicographically smaller at or before this position.
So the order in which the search explores MIS never shows in the witness.
An index that lies in the cover already known for the remainder is
accepted without a search.  Each level first walks optimistically,
taking the first index that no prune or memo entry rules out; every index
it skips is infeasible, so a walk that reaches a zero deficit is the
witness, and the exact search runs only when the walk runs out of
indices.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from operator import lshift

from .coloring import Coloring, from_certificate
from .errors import DEFAULT_MAX_BRANCHES, ResourceLimitExceeded
from .instance import Graph, spread
from .mis import enumerate_mis
from .vectors import Vec, leq

__all__ = ["ChromaticResult", "weighted_chromatic"]


@dataclass(frozen=True)
class ChromaticResult:
    """Optimal palette size, the bound it was searched up from, a witness."""

    chi: int
    lower_bound: int
    coloring: Coloring


class ChromaticSolver:
    """Weighted chromatic numbers on one graph, sharing one MIS family and memo.

    chi decides the smallest palette size of a demand; solve also builds
    its witness.  The witness does not depend on the memo's state, so
    deciding other demands first never changes it.

    A deficit is one packed int with vertex v in field n-1-v, at bit
    (n-1-v) * width: vertex 0 is the most significant field, as in vertex
    masks and in the fold, so instance.spread turns an MIS mask into its
    packed indicator vector.  The width is the fewest bits that keep twice
    the largest demand below a field's high bit and the total demand below
    the field mask, so an edge sum never carries into the next field and
    each prune and the clipped subtraction of an MIS are a few int
    operations; a demand is packed by shifting each entry to its field.
    It is fixed by the largest demand the solver will see.

    Args:
        graph: the conflict graph.
        bound: a demand at least as large, at every vertex, as every
            demand passed to solve; it sets the field width.
        max_branches: cap on the states the walks and the search expand
            over the solver's life; one more raises ResourceLimitExceeded.
    """

    def __init__(
        self, graph: Graph, bound: Vec, max_branches: int = DEFAULT_MAX_BRANCHES
    ) -> None:
        self.n = graph.n
        self.family = enumerate_mis(graph)
        self.alpha = max(s.bit_count() for s in self.family)
        self.bound = bound
        self.max_branches = max_branches
        self.expanded = 0
        self.level = 0
        top, total = max(bound, default=0), sum(bound)
        # edge sums stay below the high bit, the total below 2**bits - 1
        self._bits = bits = max((2 * top).bit_length() + 1, (total + 1).bit_length())
        # vertex v's field starts at bit (n-1-v) * bits
        self._shifts = [bits * f for f in range(self.n - 1, -1, -1)]
        self._ones = spread((1 << self.n) - 1, bits)
        self._high = self._ones << (bits - 1)
        self._cap = (1 << (bits - 1)) - 1
        self._low = self._cap * self._ones
        self._masks = [spread(s, bits) for s in self.family]
        # per field f, the vertex n-1-f: (packed mask, index) of the MIS through it
        self._through = [
            [(m, i) for i, m in enumerate(self._masks) if m >> (bits * f) & 1]
            for f in range(self.n)
        ]
        # d + (d >> shift) puts d[i] + d[i + k] in field n-1-j, vertex j = i + k's;
        # ends marks the high bit of that field for each edge (i, j)
        pairs: dict[int, int] = {}
        for i, j in graph.edges:
            high = 1 << (bits * (self.n - j) - 1)
            pairs[bits * (j - i)] = pairs.get(bits * (j - i), 0) | high
        self._pairs = sorted(pairs.items())
        # deficit -> (smallest budget known feasible, a first pick that achieves it)
        self._feasible: dict[int, tuple[int, int]] = {}
        # deficit -> largest budget known infeasible
        self._infeasible: dict[int, int] = {}

    def bounds(self, w: Vec) -> tuple[int, int]:
        """ceil(|w| / alpha) and the level the climb starts at, max of it and max(w).

        Both are necessary, so chi(w) is at least the second.
        """
        total = sum(w)
        lower = -(-total // self.alpha) if total else 0
        return lower, max(lower, max(w, default=0))

    def chi(self, w: Vec) -> int:
        """Smallest palette size for demand w, decided without building a witness.

        Raises:
            ValueError: if w exceeds the solver's bound at some vertex.
        """
        return self._climb(self._pack(w), self.bounds(w)[1])[0]

    def solve(self, w: Vec) -> ChromaticResult:
        """Smallest palette size for demand w, its lower bound and the witness.

        Raises:
            ValueError: if w exceeds the solver's bound at some vertex.
        """
        d = self._pack(w)
        lower, start = self.bounds(w)
        a, picks = self._climb(d, start, walked=True)
        if picks is None:
            picks = self._walk(d, a, self._cover(d))
        cert = {color: self.family[idx] for color, idx in enumerate(picks, start=1)}
        return ChromaticResult(a, lower, from_certificate(self.n, cert, w))

    def _pack(self, w: Vec) -> int:
        """The deficit of w: one field per vertex, vertex 0 the most significant."""
        if not leq(w, self.bound):
            raise ValueError("demand exceeds the solver's bound")
        return sum(map(lshift, w, self._shifts))

    def _climb(self, d: int, a: int, walked: bool = False) -> tuple[int, list[int] | None]:
        """The first level from a up that covers d, and the optimistic walk's picks there.

        The picks are None when the walk got stuck and the exact search
        decided the level; the witness is then walked from the search's cover.

        walked says that the caller walks the level found, one state per
        position, as solve does.  A level of more positions than the cap
        has left can then not end the call, nor can any above it, so
        unless _known refutes it without a state it raises at once, with
        the count its walk would reach, the cap plus one.  chi is not
        walked: its optimistic walk may stop at the first position, and
        a memo hit then decides the level without another state.
        """
        while True:
            self.level = a
            if walked and a > self.max_branches - self.expanded and self._known(d, a) is not False:
                self.expanded = self.max_branches
                self._tick()
            picks = self._walk(d, a, None)
            if picks is not None or self._search(d, a):
                return a, picks
            a += 1

    def _support(self, d: int) -> int:
        """The lowest bit of every nonzero field of d."""
        return ((d + self._low) & self._high) >> (self._bits - 1)

    def _known(self, d: int, b: int) -> bool | None:
        """The verdict on (d, b) without expanding it, or None if unknown."""
        if not d:
            return True
        hit = self._feasible.get(d)
        if hit is not None and hit[0] <= b:
            return True
        if self._infeasible.get(d, -1) >= b:
            return False
        # the fields sum to less than 2**bits - 1, so this is |d|
        if b * self.alpha < d % ((1 << self._bits) - 1):
            return False
        if b < self._cap:
            # a field above b sets its high bit once cap - b is added
            over = (self._cap - b) * self._ones
            if (d + over) & self._high:
                return False
            for shift, ends in self._pairs:
                if (d + (d >> shift) + over) & ends:
                    return False
        return None

    def _tick(self) -> None:
        """Count one state expanded, by the search or the walk, against the cap."""
        self.expanded += 1
        if self.expanded > self.max_branches:
            raise ResourceLimitExceeded(
                f"chromatic search at palette level {self.level}: expanded "
                f"{self.expanded} states, limit {self.max_branches}"
            )

    def _branches(self, d: int) -> Iterator[tuple[int, int]]:
        """(pick, child) for the MIS through the lowest deficient vertex.

        Picks come in index order.  A pick whose overlap with d's support
        lies inside the overlap of an earlier pick is skipped: its child
        dominates the earlier child, which the search has already found
        infeasible.
        """
        self._tick()
        support = self._support(d)
        kept: list[int] = []
        for m, i in self._through[(support.bit_length() - 1) // self._bits]:
            r = m & support
            if all(r & ~k for k in kept):
                kept.append(r)
                yield i, d - r

    def _search(self, d: int, b: int) -> bool:
        """Whether at most b MIS cover the deficit d; records every expanded state."""
        verdict = self._known(d, b)
        if verdict is not None:
            return verdict
        known, branch, feasible = self._known, self._branches, self._feasible
        # frame: deficit, budget, untried (pick, child), the pick last tried
        stack: list[list] = [[d, b, branch(d), -1]]
        while stack:
            frame = stack[-1]
            d, b, branches, _ = frame
            if verdict:
                hit = feasible.get(d)
                if hit is None or b < hit[0]:
                    feasible[d] = (b, frame[3])
                stack.pop()
                continue
            for idx, child in branches:
                frame[3] = idx
                verdict = known(child, b - 1)
                if verdict is None:
                    stack.append([child, b - 1, branch(child), -1])
                    break
                if verdict:
                    break
            else:
                self._infeasible[d] = max(b, self._infeasible.get(d, -1))
                stack.pop()
                verdict = False
        return verdict

    def _cover(self, d: int) -> Counter:
        """The known cover of a feasible deficit, by following recorded picks."""
        out: Counter = Counter()
        while d:
            idx = self._feasible[d][1]
            out[idx] += 1
            d -= self._masks[idx] & self._support(d)
        return out

    def _walk(self, d: int, a: int, known: Counter | None) -> list[int] | None:
        """The lexicographically first non-decreasing cover of d by at most a MIS.

        Each position takes the smallest index, no smaller than the last,
        whose remainder is feasible with one pick fewer.  With known, a
        cover of d, feasibility is exact: an index in the known cover
        needs no search, and any other is searched.  Without it the walk
        is optimistic: it takes the first index that no prune or memo
        entry rules out, and returns None if it runs out of indices.  Every
        index it skipped was infeasible, so a walk that reaches a zero
        deficit has found the same sequence.
        """
        masks = self._masks
        picks: list[int] = []
        idx = 0
        for budget in range(a - 1, -1, -1):
            self._tick()
            support = self._support(d)
            for idx in range(idx, len(masks)):
                child = d - (masks[idx] & support)
                if known is None:
                    if self._known(child, budget) is not False:
                        break
                elif known[idx]:
                    known[idx] -= 1
                    break
                elif self._search(child, budget):
                    known = self._cover(child)
                    break
            else:
                return None
            picks.append(idx)
            d = child
        return picks


def weighted_chromatic(
    graph: Graph, w: Vec, max_branches: int = DEFAULT_MAX_BRANCHES
) -> ChromaticResult:
    """Smallest palette size a for which w is satisfiable, with a witness.

    The ascent starts at max(ceil(|w|/alpha), max(w)), both necessary; the
    reported lower_bound is the first of the two.  At each level a greedy
    walk looks for the witness directly, steered only by the prunes: a
    vertex, the total, or an edge's two endpoints needing more picks than
    remain.  If the walk gets stuck, an exact search decides whether a
    maximal independent sets can cover w.  It branches on the lowest
    deficient vertex over the MIS containing it, in index order, and
    memoises clipped deficits across levels, and the walk is then
    repeated with exact feasibility.  The witness at the first feasible
    level is the lexicographically first non-decreasing sequence of MIS
    indices whose sum dominates w, one per color, each color dealt in
    ascending order to the vertices of its set still short of w, so the
    weight is exactly w.  It does not depend on which route found it.

    Args:
        graph: the conflict graph.
        w: per-vertex demand, non-negative.
        max_branches: cap on the states the walks and the search may
            expand: one per walk position, one per search branching.

    Returns:
        ChromaticResult whose coloring uses colors from {1..chi} and has
        weight exactly w.

    Raises:
        ValueError: if w has the wrong length or a negative entry.
        ResourceLimitExceeded: if more than max_branches states are
            expanded, or as soon as a level's walk alone would expand
            them; the message names the palette level reached.
    """
    if len(w) != graph.n:
        raise ValueError("weight vector has wrong dimension")
    if any(x < 0 for x in w):
        raise ValueError("weights must be non-negative")
    return ChromaticSolver(graph, w, max_branches).solve(w)
