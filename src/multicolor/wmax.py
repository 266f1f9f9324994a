"""Maximal demand vectors and the permissibility test.

The set of all satisfiable demand vectors of an instance is the downward
closure of one finite set: the coordinatewise sums, over the colors x of the
assignment, of indicator vectors of maximal independent sets of the x-color
subgraphs.  This module computes that generating set together with one
certificate per vector (the chosen maximal independent set for each color),
from which a coloring of that exact demand can be assembled directly.  The
fold keeps, per color step, the index of the set each new sum added, which
leads back to the sum it came from, and a certificate is walked back out of
those steps when it is first read; a color with a single maximal
independent set shifts every sum by one offset instead.  The x-color
subgraph is a member mask, the vertices whose list holds x (see
instance.color_masks); when no edge has x at both ends that mask is its
single set, and otherwise colors with the same mask share one
enumeration.  Families and certificates hold the sets as vertex masks, as
enumerate_mis returns them; only the demand vectors are tuples.  The
uniform palette is a list assignment folded the same way; a precoloring
to extend (see extension.wmax_constrained) folds filters of the graph's
one family.  How the vectors are laid out in bytes, and every dominance
question against them (the witness, the on-call minima, the maxima that
prune_dominated keeps), belong to vectors.py.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from types import MappingProxyType

from .errors import ResourceLimitExceeded
from .instance import Graph, Lists, color_masks, spread, uniform_lists
from .mis import enumerate_mis
# prune_dominated lives in vectors.py; it is imported here so that
# wmax.prune_dominated stays the same function
from .vectors import PackedVectors, Vec, cut, in_hyperrectangle, prune_dominated, sorted_distinct

DEFAULT_MAX_VECTORS = 1_000_000

Certificate = Mapping[int, int]

# one color step of the fold: each new sum -> the index j of the family's mask
# it added; the sum it came from is the new sum less that mask's shift.  Small
# ints, unlike (sum, mask) tuples, cost no allocation and keep the tables out
# of the cyclic garbage collector's scans.
_Table = dict[int, int]


class _Certificates(Mapping[Vec, Certificate]):
    """The fold's certificates, each walked out of the fold's steps when read.

    ``keys[i]`` is vectors[i]'s sum as the fold left it, less the offsets
    of the one-set colors after the last table.  ``template`` maps every
    color folded, ascending, to its mask when it has a single set; each
    color with a table in ``tables``, beside its family and each member's
    shift, holds a placeholder there.  Reading a vector copies the
    template and walks the tables backwards once, from the vector's sum
    to the sum it came from at each, filling in their masks; the
    certificate is cached read-only.
    ``len`` and ``in`` build none.  The keys iterate in the order the
    sweep first reached them: ``order``, the last step's table, or
    ascending when that step had a single set (order None).
    """

    __slots__ = ("_vectors", "_keys", "_template", "_tables", "_order", "_cache")

    def __init__(
        self,
        vectors: tuple[Vec, ...],
        keys: list[int],
        template: dict[int, int],
        tables: list[tuple[int, _Table, tuple[int, ...], list[int]]],
        order: _Table | None,
    ) -> None:
        self._vectors = vectors
        self._keys = keys
        self._template = template
        self._tables = tables[::-1]
        self._order = order
        self._cache: dict[Vec, Certificate] = {}

    def _index(self, v) -> int:
        try:
            i = bisect_left(self._vectors, v)
        except TypeError:  # not comparable with a vector, so not a key
            return -1
        return i if i < len(self._vectors) and self._vectors[i] == v else -1

    def __getitem__(self, v: Vec) -> Certificate:
        cert = self._cache.get(v)
        if cert is None:
            i = self._index(v)
            if i < 0:
                raise KeyError(v)
            key = self._keys[i]
            chosen = self._template.copy()
            for c, table, family, shifts in self._tables:
                j = table[key]
                chosen[c] = family[j]
                key -= shifts[j]
            cert = self._cache[v] = MappingProxyType(chosen)
        return cert

    def __contains__(self, v) -> bool:
        return self._index(v) >= 0

    def __len__(self) -> int:
        return len(self._vectors)

    def __iter__(self) -> Iterator[Vec]:
        if self._order is None:
            return iter(self._vectors)
        at = dict(zip(self._keys, self._vectors))
        return map(at.__getitem__, self._order)


@dataclass(frozen=True)
class WmaxSet:
    """The maximal demand vectors of an instance, with certificates.

    Attributes:
        vectors: the set itself, a vectors.PackedVectors, sorted
            lexicographically and distinct, which packs itself for
            dominance queries on the first.  Any other vectors given, by
            hand or by dataclasses.replace, are made one by
            vectors.sorted_distinct.  A set from vecsum_families carries
            the bytes the fold cut its vectors from when the fold's fields
            are single bytes, so the prune and the packed layout start
            from those bytes instead of converting every tuple.
        certificates: for each vector, one mapping color -> mask of a
            maximal independent set of that color's subgraph (vertex v at
            bit n-1-v) whose indicator vectors sum to the vector (the first
            decomposition found; others may exist).  A read-only mapping
            with read-only values; in a set from vecsum_families each
            certificate is built on its first read.
        families: per color, the full family of maximal independent sets
            of its subgraph, as sorted masks.
    """

    vectors: tuple[Vec, ...]
    certificates: Mapping[Vec, Certificate]
    families: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "vectors", sorted_distinct(self.vectors))
        if not isinstance(self.certificates, _Certificates):
            frozen = {v: MappingProxyType(dict(c)) for v, c in self.certificates.items()}
            object.__setattr__(self, "certificates", MappingProxyType(frozen))
        object.__setattr__(self, "families", MappingProxyType(dict(self.families)))

    def __len__(self) -> int:
        return len(self.vectors)


def color_mis_families(graph: Graph, lists: Lists) -> dict[int, tuple[int, ...]]:
    """Maximal independent sets of every color subgraph, by ascending color.

    A color that no edge has at both ends has an independent member mask,
    the vertices whose list holds it, and that mask is its single set.
    Every other family is enumerated on its color's member mask, so its
    cost follows the subgraph and not the whole graph; colors with equal
    masks share one enumeration.  An assignment that lists no color has
    no families.

    Raises:
        ValueError: if there is not one list per vertex.
    """
    if len(lists) != graph.n:
        raise ValueError(f"{len(lists)} color lists for {graph.n} vertices")
    joined = set().union(*[lists[i] & lists[j] for i, j in graph.edges])
    families: dict[int, tuple[int, ...]] = {}
    by_mask: dict[int, tuple[int, ...]] = {}
    for c, m in color_masks(lists).items():
        # whether an edge joins c depends on m alone
        if m not in by_mask:
            by_mask[m] = enumerate_mis(graph, m) if c in joined else (m,)
        families[c] = by_mask[m]
    return families


def vecsum_families(
    families: Mapping[int, tuple[int, ...]],
    n: int,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> WmaxSet:
    """Distinct indicator sums of one set per family, each with a first certificate.

    Each family is a tuple of vertex masks on n vertices (vertex v at bit
    n-1-v).  Folds the families together one color at a time in ascending
    color order, deduplicating after every step, so the certificate kept
    for a sum is the first one encountered in that deterministic sweep: at
    each step the sums so far are visited in ascending lexicographic order,
    and for each the family in its own order.  The result is the WmaxSet of
    the sums, sorted, of their certificates, in the order the sweep first
    reached each sum, and of the families.

    A step records, for each new sum, only the index of the mask it added;
    the sum it came from is the new sum less that mask's spread, so a
    certificate is walked out of the steps when it is first read
    (WmaxSet.certificates), not copied at every step.  A color whose
    family has a single set maps every sum s to s + p, which is injective
    and keeps the order, so it changes neither which sums repeat nor the
    certificate each keeps: p joins one running offset, and the mask is
    recorded once for all sums.  When such a color is the last, the sweep
    order is ascending, as a general last step over the sorted sums would
    leave it; such a step checks its mask and the cap as a general one.

    Every sum is one int of n byte-aligned fields, coordinate 0 in the most
    significant: a mask is spread into those fields (instance.spread), and
    a field is wide enough for one unit per family, so sums never carry
    between fields and packed sums order as their vectors do.  The final
    sums are sorted as ints, the offset of the one-set colors after the
    last table is added when there is one, each sum is converted to its
    bytes once, and the joined bytes are cut into the vectors by
    vectors.cut, whatever the field width.  The vectors are a
    vectors.PackedVectors for every field width; when the fields are
    single bytes it keeps the joined bytes, for the prune and its packed
    layout to start from, and otherwise its fields are empty.  Nothing is
    packed here: the set packs itself on its first query.

    Raises:
        ResourceLimitExceeded: if an intermediate set outgrows max_vectors:
            when a step's distinct sums exceed it.  A general step checks
            the cap once per row, after each sum so far has met the whole
            family, so the step's table can overshoot the cap by at most
            one family's size before the raise.  The message names the
            color and its step in the fold.
        ValueError: if a mask the fold reaches has a bit at or above n.
    """
    size = max(1, (len(families).bit_length() + 7) // 8)  # bytes per field
    width = 8 * size
    # acc: the sums so far, each less the offset of the one-set colors since
    # the last table, in sweep order: the last table, or the zero sum
    acc: _Table = {0: 0}
    offset = 0
    template: dict[int, int] = {}
    tables: list[tuple[int, _Table, tuple[int, ...], list[int]]] = []
    order = None

    def too_many(step: int, c: int) -> ResourceLimitExceeded:
        return ResourceLimitExceeded(
            f"wmax fold at color {c} (step {step} of {len(families)}): "
            f"more than {max_vectors} intermediate demand vectors"
        )

    for step, c in enumerate(sorted(families), 1):
        if not acc:
            break
        family = families[c]
        for r in family:
            if r >> n:
                raise ValueError(f"vertex set {r:#b} does not fit {n} vertices")
        if len(family) == 1:
            if len(acc) > max_vectors:
                raise too_many(step, c)
            (r,) = family
            template[c] = r
            offset += spread(r, width)
            order = None
            continue
        shifts = [spread(r, width) + offset for r in family]
        pairs = list(enumerate(shifts))
        nxt: _Table = {}
        for s in sorted(acc):
            for j, p in pairs:
                total = s + p
                if total not in nxt:
                    nxt[total] = j
            if len(nxt) > max_vectors:
                raise too_many(step, c)
        template[c] = 0  # a placeholder, filled from the table when read
        tables.append((c, nxt, family, shifts))
        acc = order = nxt
        offset = 0

    keys = sorted(acc)
    sums = map(add, keys, repeat(offset)) if offset else keys
    data = b"".join(map(int.to_bytes, sums, repeat(n * size), repeat("big")))
    vectors = PackedVectors(cut(data, n, size) if n else ((),) * len(keys), data if size == 1 else b"")
    return WmaxSet(vectors, _Certificates(vectors, keys, template, tables, order), families)


def wmax(graph: Graph, lists: Lists, max_vectors: int = DEFAULT_MAX_VECTORS) -> WmaxSet:
    """All demand vectors that admit a coloring saturating every color.

    The worst case is exponential in the number of colors; intermediate
    set size is capped by max_vectors.  When no vertex lists a color, the
    only satisfiable demand is zero: the set is the single zero vector,
    with an empty certificate.

    Raises:
        ResourceLimitExceeded: if an intermediate set outgrows max_vectors.
    """
    return vecsum_families(color_mis_families(graph, lists), graph.n, max_vectors)


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
) -> Vec | None:
    """Dominating witness from the maximal set if the demand is satisfiable.

    Returns the lexicographically smallest maximal vector above w, or None
    when w is not satisfiable.  A precomputed WmaxSet for the same instance
    may be passed to avoid recomputation; without one, the set is built
    under the default cap (pass wmax(graph, lists, max_vectors) to set it).
    """
    if len(w) != graph.n:
        raise ValueError("weight vector has wrong dimension")
    if wmax_set is None:
        wmax_set = wmax(graph, lists)
    return in_hyperrectangle(w, wmax_set.vectors)
