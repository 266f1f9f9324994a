"""Best partial service when a demand vector is not satisfiable.

If the demand w cannot be met in full, the interesting fallbacks are the
satisfiable vectors u <= w of greatest total size.  Every such optimum is
the coordinatewise minimum of w with some maximal demand vector, so the
candidates are finitely many and scanned directly.
"""

from __future__ import annotations

from .coloring import Coloring, find_coloring
from .instance import Instance
from .vectors import Vec
from .wmax import DEFAULT_MAX_VECTORS, WmaxSet, wmax

__all__ = ["oncall_solutions"]


def oncall_solutions(
    inst: Instance,
    wmax_set: WmaxSet | None = None,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> tuple[tuple[Vec, Coloring], ...]:
    """Satisfiable vectors below the demand of maximum total size.

    Returns (vector, witness coloring) pairs in ascending lexicographic
    order of the vectors; the witness meets that vector's demand exactly.
    When the demand w is itself satisfiable the result is just w paired
    with one of its colorings: the minimum with a dominating maximal
    vector reproduces w, and nothing below it has larger norm.

    Args:
        inst: instance whose weights field holds the requested demand.
        wmax_set: optional precomputed maximal set for the same instance.

    Returns:
        The optimal vectors with witnesses; never empty.

    Raises:
        ValueError: if a weight is negative, or if wmax_set's vectors do
            not have the instance's dimension.
    """
    w = inst.require_weights()
    if any(x < 0 for x in w):
        raise ValueError("weights must be non-negative")
    if wmax_set is None:
        wmax_set = wmax(inst.graph, inst.lists, max_vectors)
    n = len(w)
    sums: dict[Vec, int] = {}
    for m in wmax_set.vectors:
        if len(m) != n:
            raise ValueError(f"dimension mismatch: {n} vs {len(m)}")
        u = tuple([a if a < b else b for a, b in zip(w, m)])
        if u not in sums:
            sums[u] = sum(u)
    best = max(sums.values())
    chosen = sorted(u for u, total in sums.items() if total == best)
    return tuple(
        (u, find_coloring(inst.with_weights(u), wmax_set)) for u in chosen
    )
