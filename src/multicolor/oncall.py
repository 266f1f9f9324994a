"""Best partial service when a demand vector is not satisfiable.

If the demand w cannot be met in full, the interesting fallbacks are the
satisfiable vectors u <= w of greatest total size.  Every such optimum is
the coordinatewise minimum of w with some maximal demand vector, so the
candidates are finitely many; the maximal set, packed into one int on its
first query, yields them all at once, each with the maximal vector whose
certificate witnesses it (PackedVectors.best_minima).
"""

from __future__ import annotations

from .coloring import Coloring, from_certificate
from .instance import Instance
from .vectors import Vec
from .wmax import WmaxSet, wmax

__all__ = ["oncall_solutions"]


def oncall_solutions(
    inst: Instance, wmax_set: WmaxSet | None = None
) -> tuple[tuple[Vec, Coloring], ...]:
    """Satisfiable vectors below the demand of maximum total size.

    Returns (vector, witness coloring) pairs in ascending lexicographic
    order of the vectors; the witness meets that vector's demand exactly.
    When the demand w is itself satisfiable the result is just w paired
    with one of its colorings: the minimum with a dominating maximal
    vector reproduces w, and nothing below it has larger norm.

    Method and cost: on the maximal set (WmaxSet.vectors, a
    vectors.PackedVectors, packed here if no query has packed it yet), one
    whole-set subtraction of w gives min(w, m) for every member m at once
    and one multiplication gives every total, with no loop over the
    vectors; only the members reaching the best total are visited (see
    PackedVectors.best_minima, which also gives the field widths).  That
    scan pairs each optimum u with the smallest maximal vector m above it,
    the one find_coloring would pick for u, so u's witness is dealt from
    m's certificate down to u (from_certificate), with no further
    dominance search.

    Args:
        inst: instance whose weights field holds the requested demand.
        wmax_set: optional precomputed maximal set for the same instance.

    Returns:
        The optimal vectors with witnesses; never empty.

    Raises:
        ValueError: if a weight is negative, if wmax_set's vectors do not
            all have the instance's dimension, or if wmax_set has none.
    """
    w = inst.require_weights()
    if wmax_set is None:
        wmax_set = wmax(inst.graph, inst.lists)
    n, certificates = inst.graph.n, wmax_set.certificates
    return tuple(
        (u, from_certificate(n, certificates[m], u))
        for u, m in wmax_set.vectors.best_minima(w)
    )
