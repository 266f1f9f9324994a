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
instance.color_masks), and colors with the same mask share one
enumeration.  Families and certificates hold the sets as vertex masks, as
enumerate_mis returns them; only the demand vectors are tuples.  The
uniform palette is a list assignment folded the same way; a precoloring
to extend (see extension.wmax_constrained) folds filters of the graph's
one family.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress, repeat
from operator import add, and_, eq, iconcat, lt
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import ResourceLimitExceeded
from .instance import Graph, Lists, color_masks, spread, uniform_lists
from .mis import enumerate_mis
from .vectors import PackedVectors, Vec, in_hyperrectangle

DEFAULT_MAX_VECTORS = 1_000_000

Certificate = Mapping[int, int]

# one color step of the fold: each new sum -> the index j of the family's mask
# it added; the sum it came from is the new sum less that mask's shift.  Small
# ints, unlike (sum, mask) tuples, cost no allocation and keep the tables out
# of the cyclic garbage collector's scans.
_Table = dict[int, int]

# prune_dominated's translate tables: _AT_LEAST[a] maps each byte value to
# ASCII "1" when it is >= a, else "0"; _HIGH maps it to its high nibble.
# _BYTE[a] is the one-byte string a, for ``in`` probes.
_AT_LEAST = tuple(b"0" * a + b"1" * (256 - a) for a in range(256))
_HIGH = bytes(a >> 4 for a in range(256))
_BYTE = tuple(bytes((a,)) for a in range(256))
# rows of vectors per block of prune_dominated's column-major ANDs: at most
# two N-bit accumulators per row are alive at once, so the block bounds them
# at 2 * _PRUNE_ROWS * N bits instead of 2 * N * N
_PRUNE_ROWS = 1024


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
        vectors: the set itself, sorted lexicographically.
        certificates: for each vector, one mapping color -> mask of a
            maximal independent set of that color's subgraph (vertex v at
            bit n-1-v) whose indicator vectors sum to the vector (the first
            decomposition found; others may exist).  A read-only mapping
            with read-only values; in a set from vecsum_families each
            certificate is built on its first read.
        families: per color, the full family of maximal independent sets
            of its subgraph, as sorted masks.
        byte_fields: the vectors' coordinates as bytes, joined in order,
            when the fold that built the set had them as one-byte fields;
            packing starts from them instead of converting every tuple.
            Only vecsum_families sets it, so it always matches the
            vectors; a set built by hand or by dataclasses.replace has
            None and packs from the tuples.
    """

    vectors: tuple[Vec, ...]
    certificates: Mapping[Vec, Certificate]
    families: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    byte_fields: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.certificates, _Certificates):
            frozen = {v: MappingProxyType(dict(c)) for v, c in self.certificates.items()}
            object.__setattr__(self, "certificates", MappingProxyType(frozen))
        object.__setattr__(self, "families", MappingProxyType(dict(self.families)))

    def __len__(self) -> int:
        return len(self.vectors)

    @cached_property
    def packed(self) -> PackedVectors:
        """The vectors packed for dominance queries, once, on the first."""
        return PackedVectors(self.vectors, self.byte_fields)


def color_mis_families(graph: Graph, lists: Lists) -> dict[int, tuple[int, ...]]:
    """Maximal independent sets of every color subgraph, by ascending color.

    Each family is enumerated on its color's member mask, the vertices
    whose list holds that color, so its cost follows the subgraph and not
    the whole graph; colors with equal masks share one enumeration.  An
    assignment that lists no color has no families.
    """
    families: dict[int, tuple[int, ...]] = {}
    by_mask: dict[int, tuple[int, ...]] = {}
    for c, m in color_masks(lists).items():
        if m not in by_mask:
            by_mask[m] = enumerate_mis(graph, m)
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
    sums are sorted as ints and each is converted to its bytes once.  When
    the fields are single bytes, those bytes are joined, handed on as
    WmaxSet.byte_fields, and cut into the vectors in C: zip over n
    references to one iterator of the joined bytes makes each vector a
    tuple of n ints.  Wider fields are read back one coordinate at a time.

    Raises:
        ResourceLimitExceeded: if an intermediate set outgrows max_vectors.
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
    too_many = f"more than {max_vectors} intermediate demand vectors"
    for c in sorted(families):
        if not acc:
            break
        family = families[c]
        for r in family:
            if r >> n:
                raise ValueError(f"vertex set {r:#b} does not fit {n} vertices")
        if len(family) == 1:
            if len(acc) > max_vectors:
                raise ResourceLimitExceeded(too_many)
            (r,) = family
            template[c] = r
            offset += spread(r, width)
            order = None
            continue
        shifts = [spread(r, width) + offset for r in family]
        nxt: _Table = {}
        for s in sorted(acc):
            for j, p in enumerate(shifts):
                total = s + p
                if total not in nxt:
                    nxt[total] = j
                    if len(nxt) > max_vectors:
                        raise ResourceLimitExceeded(too_many)
        template[c] = 0  # a placeholder, filled from the table when read
        tables.append((c, nxt, family, shifts))
        acc = order = nxt
        offset = 0

    keys = sorted(acc)
    raws = list(map(int.to_bytes, map(add, keys, repeat(offset)), repeat(n * size), repeat("big")))
    byte_fields = None
    if size == 1:
        byte_fields = b"".join(raws)
        vectors = tuple(zip(*[iter(byte_fields)] * n)) if n else ((),) * len(keys)
    else:
        at = range(0, n * size, size)
        vectors = tuple(tuple(int.from_bytes(raw[i : i + size], "big") for i in at) for raw in raws)
    out = WmaxSet(vectors, _Certificates(vectors, keys, template, tables, order), families)
    object.__setattr__(out, "byte_fields", byte_fields)
    return out


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
    return in_hyperrectangle(w, wmax_set.packed)


def prune_dominated(vecs: Iterable[Vec]) -> tuple[Vec, ...]:
    """Drop every vector lying below another member; closure is unchanged.

    The bitmap test of Tan, Eng and Ooi ("Efficient progressive skyline
    computation", VLDB 2001) checks every candidate against all members
    at once.  The N distinct vectors are sorted lexicographically (a tuple
    of plain tuples already strictly ascending, as WmaxSet.vectors is, is
    taken as it is), and vector j is bit N-1-j.  For each coordinate i and
    each value a occurring there, one int bitset ``above[i][a]`` has the
    bits of the vectors whose coordinate i is >= a.  The AND of
    ``above[i][x[i]]`` over all i holds exactly the members >= x, x itself
    included, so x is a maximum iff that AND has one bit.

    When every coordinate lies in 0..255, the vectors are laid end to end
    once as bytes, column i is the strided slice ``raw[i::dim]``, and all
    the per-vector work runs in C.  Let B be 1 + the largest coordinate,
    found by ``in`` probes of the bytes and of their high nibbles.  The
    columns are taken g at a time, g the largest group size with
    B**g <= 256 and B**g <= N.  A bitset is the column translated to
    ASCII "0"/"1" by a 256-byte table and parsed as a base-2 int (base 2
    is exempt from the int-string conversion limit), once per value that
    occurs in the column.  Each value a > 0 is found by an ``in`` probe
    of the column, value 0 holds every vector, and a value below B that
    does not occur gets 0, which no vector looks up.  A group's table has
    B**g entries (for g = 1, the column's bitsets themselves): entry
    d_1 * B**(g-1) + ... + d_g is the AND of its columns' bitsets for the
    values d_1, ..., d_g, built by nested comprehensions.  A vector's
    index into it is one byte, made for all vectors at once: each column
    is read as one int (``int.from_bytes``), the group's columns are
    combined as (c_1 * B + c_2) * B + ..., and the sum is written back as
    N bytes; no byte carries into the next, since each index is at most
    B**g - 1 <= 255.  A vector then costs ceil(dim/g) table lookups and
    one AND fewer, instead of dim of each.

    Coordinates outside 0..255, negative or arbitrarily large, take a
    general path with one group per column: the vectors are laid end to
    end as ints, each column is walked once into a dict of bits, then
    OR-accumulated over its distinct values in descending order.  Either
    way the ANDs run column-major, one ``map`` per group over a block of
    rows: each makes only its int result, which the cyclic garbage
    collector does not track, and no iterator or container is made per
    vector.

    Cost: B - 1 ``in`` probes and one N-byte translate and parse per
    occurring value of each column; B**g table entries per group, each
    one AND of N-bit ints when g > 1; and per vector ceil(dim/g)
    lookups, ceil(dim/g) - 1 ANDs of N-bit ints and one bit count.
    Memory: N bits per occurring value of each coordinate (the values
    that do not occur share the int 0); per group with g > 1,
    B**g <= min(256, N) N-bit table entries; the flat sequence; and at
    most two N-bit accumulators per row of a block of _PRUNE_ROWS rows.  In a wmax set, coordinate v counts the
    colors whose chosen set contains v, so a column holds at most
    |L(v)| + 1 distinct values.

    Returns:
        The maxima, sorted lexicographically.

    Raises:
        ValueError: if the vectors do not all have the same length.
    """
    items = vecs
    if not (
        isinstance(items, tuple)
        and set(map(type, items)) == {tuple}
        and all(map(lt, items, items[1:]))
    ):
        items = tuple(sorted(set(vecs)))
    if not items:
        return ()
    dim = len(items[0])
    if len(set(map(len, items))) > 1:
        other = next(filter(dim.__ne__, map(len, items)))
        raise ValueError(f"dimension mismatch: {dim} vs {other}")
    if not dim:
        return items
    n = len(items)
    flat = reduce(iconcat, items, [])
    try:
        raw = bytearray(flat)
    except (ValueError, TypeError):
        codes = [flat[i::dim] for i in range(dim)]
        lookups = []
        for column in codes:
            at: dict[int, int] = {}
            bit = 1 << n
            for a in column:
                bit >>= 1
                at[a] = at.get(a, 0) | bit
            acc = 0
            for a in sorted(at, reverse=True):
                acc |= at[a]
                at[a] = acc
            lookups.append(at.__getitem__)
    else:
        columns = [raw[i::dim] for i in range(dim)]
        high = raw.translate(_HIGH)
        h = next(h for h in range(15, -1, -1) if _BYTE[h] in high)
        base = 1 + next(a for a in range(16 * h + 15, 16 * h - 1, -1) if _BYTE[a] in raw)
        g = 1
        while g < dim and base ** (g + 1) <= min(256, n):
            g += 1
        everyone = (1 << n) - 1
        above = [
            [everyone] + [int(c.translate(_AT_LEAST[a]), 2) if _BYTE[a] in c else 0 for a in range(1, base)]
            for c in columns
        ]
        lookups, codes = [], []
        for k in range(0, dim, g):
            table, code = above[k], int.from_bytes(columns[k], "big")
            for i in range(k + 1, min(k + g, dim)):
                table = [x & y for x in table for y in above[i]]
                code = code * base + int.from_bytes(columns[i], "big")
            lookups.append(table.__getitem__)
            codes.append(code.to_bytes(n, "big"))
    kept: list[Vec] = []
    (first, head), *rest = zip(lookups, codes)
    for lo in range(0, n, _PRUNE_ROWS):
        hi = lo + _PRUNE_ROWS
        accs: Iterable[int] = map(first, head[lo:hi])
        for look, group in rest:
            accs = list(map(and_, accs, map(look, group[lo:hi])))
        kept += compress(items[lo:hi], map(eq, map(int.bit_count, accs), repeat(1)))
    return tuple(kept)
