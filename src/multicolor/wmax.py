"""Maximal demand vectors and the permissibility test.

The set of all satisfiable demand vectors of an instance is the downward
closure of one finite set: the coordinatewise sums, over the colors x of the
assignment, of indicator vectors of maximal independent sets of the x-color
subgraphs.  This module computes that generating set together with one
certificate per vector (the chosen maximal independent set for each color),
from which a coloring of that exact demand can be assembled directly.  The
x-color subgraph is a member mask, the vertices whose list holds x (see
instance.color_masks), and colors with the same mask share one
enumeration.  The uniform palette, and a precoloring to extend (see
extension.wmax_constrained), are list assignments folded the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ResourceLimitExceeded
from .instance import Graph, Lists, color_masks, uniform_lists
from .mis import enumerate_mis
from .vectors import Vec, in_hyperrectangle

DEFAULT_MAX_VECTORS = 1_000_000

Certificate = Mapping[int, Vec]


@dataclass(frozen=True)
class WmaxSet:
    """The maximal demand vectors of an instance, with certificates.

    Attributes:
        vectors: the set itself, sorted lexicographically.
        certificates: for each vector, one mapping color -> indicator vector
            of a maximal independent set of that color's subgraph whose sum
            is the vector (the first decomposition found; others may exist).
        families: per color, the full family of maximal-independent-set
            indicator vectors of its subgraph.
    """

    vectors: tuple[Vec, ...]
    certificates: Mapping[Vec, Certificate]
    families: Mapping[int, tuple[Vec, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "certificates", MappingProxyType(dict(self.certificates)))
        object.__setattr__(self, "families", MappingProxyType(dict(self.families)))

    @property
    def colors(self) -> tuple[int, ...]:
        return tuple(sorted(self.families))


def color_mis_families(graph: Graph, lists: Lists) -> dict[int, tuple[Vec, ...]]:
    """Maximal independent sets of every color subgraph, by ascending color.

    Each family is enumerated on its color's member mask, the vertices
    whose list holds that color, so its cost follows the subgraph and not
    the whole graph; colors with equal masks share one enumeration.  An
    assignment that lists no color has no families.
    """
    families: dict[int, tuple[Vec, ...]] = {}
    by_mask: dict[int, tuple[Vec, ...]] = {}
    for c, m in color_masks(lists).items():
        if m not in by_mask:
            by_mask[m] = enumerate_mis(graph, m)
        families[c] = by_mask[m]
    return families


def vecsum_families(
    families: Mapping[int, tuple[Vec, ...]],
    n: int,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> dict[Vec, dict[int, Vec]]:
    """Distinct sums of one vector per family, each with a first certificate.

    Folds the families together one color at a time in ascending color
    order, deduplicating after every step, so the certificate kept for a
    sum is the first one encountered in that deterministic sweep: at each
    step the sums so far are visited in ascending lexicographic order, and
    for each the family in its own order.

    Every vector is packed once into an int of n byte-aligned fields,
    coordinate 0 in the most significant.  A field holds the coordinate
    minus lo, the smallest coordinate of any family or 0 if none is
    negative, and is wide enough for one coordinate per family each up to
    hi - lo, hi the largest coordinate or 0, so sums never carry between
    fields and negative coordinates stay exact.  Every field of a sum is
    offset alike, so packed sums order as their vectors do.  Each distinct
    final sum is unpacked once.

    Raises:
        ResourceLimitExceeded: if an intermediate set outgrows max_vectors.
        ValueError: if a vector the fold reaches does not have length n.
    """
    coords = {0, *chain.from_iterable(chain.from_iterable(families.values()))}
    lo = min(coords)
    span = (max(coords) - lo) * len(families)
    size = max(1, (span.bit_length() + 7) // 8)  # bytes per field
    width = 8 * size
    acc: dict[int, dict[int, Vec]] = {0: {}}
    for c in sorted(families):
        if not acc:
            break
        packed = []
        for r in families[c]:
            if len(r) != n:
                raise ValueError(f"dimension mismatch: {n} vs {len(r)}")
            p = 0
            for a in r:
                p = (p << width) | (a - lo)
            packed.append((p, r))
        nxt: dict[int, dict[int, Vec]] = {}
        for s in sorted(acc):
            cert = acc[s]
            for p, r in packed:
                total = s + p
                if total not in nxt:
                    nxt[total] = {**cert, c: r}
                    if len(nxt) > max_vectors:
                        raise ResourceLimitExceeded(
                            f"more than {max_vectors} intermediate demand vectors"
                        )
        acc = nxt

    offset = lo * len(families)

    def unpack(s: int) -> Vec:
        raw = s.to_bytes(n * size, "big")
        if size == 1 and not offset:
            return tuple(raw)
        return tuple(
            int.from_bytes(raw[i : i + size], "big") + offset for i in range(0, len(raw), size)
        )

    return {unpack(s): cert for s, cert in acc.items()}


def wmax(graph: Graph, lists: Lists, max_vectors: int = DEFAULT_MAX_VECTORS) -> WmaxSet:
    """All demand vectors that admit a coloring saturating every color.

    The worst case is exponential in the number of colors; intermediate
    set size is capped by max_vectors.  When no vertex lists a color, the
    only satisfiable demand is zero: the set is the single zero vector,
    with an empty certificate.

    Raises:
        ResourceLimitExceeded: if an intermediate set outgrows max_vectors.
    """
    families = color_mis_families(graph, lists)
    acc = vecsum_families(families, graph.n, max_vectors)
    return WmaxSet(vectors=tuple(sorted(acc)), certificates=acc, families=families)


def wmax_uniform(graph: Graph, a: int, max_vectors: int = DEFAULT_MAX_VECTORS) -> WmaxSet:
    """Maximal demand vectors under the uniform assignment {1..a}.

    Every color subgraph is the graph itself, so its maximal-independent-set
    family is enumerated once and folded in a times.  A palette of size 0,
    or a graph with no vertex, folds nothing and leaves the zero vector.
    The max_vectors cap trips exactly when the final set outgrows it:
    adding one fixed set maps the k-fold sums injectively into the
    (k+1)-fold sums, so no intermediate set is larger than the final one.
    """
    if a < 0:
        raise ValueError("palette size must be non-negative")
    return wmax(graph, uniform_lists(graph.n, a), max_vectors)


def is_permissible(
    graph: Graph,
    lists: Lists,
    w: Vec,
    wmax_set: WmaxSet | None = None,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> Vec | None:
    """Dominating witness from the maximal set if the demand is satisfiable.

    Returns the lexicographically smallest maximal vector above w, or None
    when w is not satisfiable.  A precomputed WmaxSet for the same instance
    may be passed to avoid recomputation.
    """
    if len(w) != graph.n:
        raise ValueError("weight vector has wrong dimension")
    if wmax_set is None:
        wmax_set = wmax(graph, lists, max_vectors)
    return in_hyperrectangle(w, wmax_set.vectors)


def prune_dominated(vecs: Iterable[Vec]) -> tuple[Vec, ...]:
    """Drop every vector lying below another member; closure is unchanged.

    The maxima scan of Kung, Luccio and Preparata ("On finding the maxima
    of a set of vectors", J. ACM 1975): distinct vectors are visited in
    descending coordinate sum, and each is tested only against the maxima
    kept so far.  A vector can lie below another distinct one only if that
    one has a strictly larger sum, and whatever lies below a discarded
    vector lies below the kept vector that discarded it.

    Each test is one big-int operation.  A vector is packed into an int
    with coordinate 0 in the most significant field; every field is
    ``(hi - lo).bit_length() + 1`` bits wide, where hi and lo are the
    largest and smallest coordinates in the set, holds ``a - lo`` and
    keeps its top bit free as a guard.  With G the mask of all guard bits,
    x <= y iff ``((pack(y) | G) - pack(x)) & G == G``: a field whose
    guard survives the subtraction has ``a_y >= a_x``, and no field
    borrows from its neighbour.  The test is exact for any equal-length
    tuples of ints, negative or arbitrarily large coordinates included.

    Returns:
        The maxima, sorted lexicographically.

    Raises:
        ValueError: if the vectors do not all have the same length.
    """
    items = set(vecs)
    if not items:
        return ()
    dim = len(next(iter(items)))
    for x in items:
        if len(x) != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {len(x)}")
    lo = min(map(min, items)) if dim else 0
    hi = max(map(max, items)) if dim else 0
    width = (hi - lo).bit_length() + 1
    guards = 0
    for _ in range(dim):
        guards = (guards << width) | (1 << (width - 1))
    kept: list[Vec] = []
    kept_packed: list[int] = []  # each kept vector packed, guards set
    for x in sorted(items, key=lambda v: (-sum(v), v)):
        px = 0
        for a in x:
            px = (px << width) | (a - lo)
        for py in kept_packed:
            if (py - px) & guards == guards:
                break
        else:
            kept.append(x)
            kept_packed.append(px | guards)
    return tuple(sorted(kept))
