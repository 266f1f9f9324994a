"""Weighted chromatic number: smallest uniform palette meeting a demand.

With every vertex drawing from the same palette {1..a}, the demand w is
satisfiable exactly when some multiset of a maximal independent sets has
indicator sum dominating w.  The solver ascends from a lower bound and
searches for such a composition at each palette size, so the first success
is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .coloring import Coloring, _assemble, shrink, weight_of
from .instance import Graph
from .mis import enumerate_mis
from .vectors import Vec, norm, vec_sub

__all__ = ["ChromaticResult", "independence_number", "weighted_chromatic"]


def independence_number(graph: Graph) -> int:
    """Size of a largest independent set."""
    return max(norm(s) for s in enumerate_mis(graph))


@dataclass(frozen=True)
class ChromaticResult:
    """Optimal palette size, the bound it was searched up from, a witness."""

    chi: int
    lower_bound: int
    coloring: Coloring


def _compose(
    family: tuple[Vec, ...], w: Vec, budget: int, start: int, acc: Vec, gain: int
) -> list[int] | None:
    """Indices of at most budget family members whose sum dominates w."""
    deficit = sum(t - a for a, t in zip(acc, w) if t > a)
    if deficit == 0:
        return []
    # one pick serves at most gain units of outstanding demand
    if budget * gain < deficit:
        return None
    for idx in range(start, len(family)):
        nxt = tuple(a + b for a, b in zip(acc, family[idx]))
        # each later pick raises a coordinate by at most 1
        if all(a + budget - 1 >= t for a, t in zip(nxt, w)):
            tail = _compose(family, w, budget - 1, idx, nxt, gain)
            if tail is not None:
                return [idx] + tail
    return None


def weighted_chromatic(graph: Graph, w: Vec) -> ChromaticResult:
    """Smallest palette size a for which w is satisfiable, with a witness.

    The ascent starts at max(ceil(|w|/alpha), max(w)), both necessary; the
    reported lower_bound is the first of the two.  Composition search at
    each level prunes any partial multiset that leaves some vertex short
    even if every remaining pick served it.

    Args:
        graph: the conflict graph.
        w: per-vertex demand, non-negative.

    Returns:
        ChromaticResult whose coloring uses colors from {1..chi} and has
        weight exactly w.
    """
    if len(w) != graph.n:
        raise ValueError("weight vector has wrong dimension")
    if any(x < 0 for x in w):
        raise ValueError("weights must be non-negative")
    total = norm(w)
    if total == 0:
        return ChromaticResult(0, 0, tuple(frozenset() for _ in range(graph.n)))
    family = enumerate_mis(graph)
    alpha = max(map(norm, family))
    lower = ceil(total / alpha)
    a = max(lower, max(w))
    while True:
        picks = _compose(family, w, a, 0, tuple([0] * graph.n), alpha)
        if picks is not None:
            picks += [0] * (a - len(picks))
            cert = {color: family[idx] for color, idx in enumerate(picks, start=1)}
            full = _assemble(graph.n, cert)
            witness = shrink(full, vec_sub(weight_of(full), w))
            return ChromaticResult(a, lower, witness)
        a += 1
