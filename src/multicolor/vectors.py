"""Demand vectors: how a set of them is laid out, and every dominance question.

Vectors are plain tuples of ints, one coordinate per vertex in the
canonical order of the instance.  This module alone decides how a set of
them is laid out in byte fields and normalised: pack lays the
coordinates end to end, each a big-endian field of whole bytes, cut
reads the vectors back out, and sorted_distinct sorts and deduplicates a
set once, into the one type a vector set has, PackedVectors.  The fold
(wmax.vecsum_families) cuts its sums with cut and hands the vectors on
as a PackedVectors that also carries the bytes when its fields are
single bytes, so the prune and the packed layout start from them without
packing the set again.

Dominance is asked two ways.  Against one set, a witness or on-call
question runs on the set packed once, on its first query, into a single
int (PackedVectors.layout), as a few whole-set big-int operations, SIMD
within a register (Lamport, "Multiple byte processing with full-word
instructions", CACM 1975), with no loop over the vectors.  Within one
set, prune_dominated keeps the maxima by the bitmap skyline test of Tan,
Eng and Ooi ("Efficient progressive skyline computation", VLDB 2001).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from operator import and_, eq, iconcat

Vec = tuple[int, ...]

# translate tables: _AT_LEAST[a] maps each byte value to ASCII "1" when it
# is >= a, else "0", for prune_dominated; _HIGH maps it to its high nibble,
# for _largest_byte.  _BYTE[a] is the one-byte string a, for ``in`` probes.
_AT_LEAST = tuple(b"0" * a + b"1" * (256 - a) for a in range(256))
_HIGH = bytes(a >> 4 for a in range(256))
_BYTE = tuple(bytes((a,)) for a in range(256))
# rows of vectors per block of prune_dominated's column-major ANDs: at most
# two N-bit accumulators per row are alive at once, so the block bounds them
# at 2 * _PRUNE_ROWS * N bits instead of 2 * N * N
_PRUNE_ROWS = 1024


def _largest_byte(data: bytes, top: int = 255) -> int:
    """The largest byte in data, which is not empty and holds none above top.

    ``in`` probes of the bytes' high nibbles, counting down from top's,
    find the largest nibble; probes of the bytes within it, counting down,
    find the byte: at most 32 probes and one translate, in C.
    """
    high = data.translate(_HIGH)
    h = next(h for h in range(top >> 4, -1, -1) if _BYTE[h] in high)
    return next(a for a in range(min(16 * h + 15, top), 16 * h - 1, -1) if _BYTE[a] in data)


def leq(x: Vec, y: Vec) -> bool:
    """Componentwise partial order: every coordinate of x is <= that of y."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return all(a <= b for a, b in zip(x, y))


def pack(vecs: Iterable[Vec], size: int) -> bytes | bytearray:
    """The vectors' coordinates end to end, each a big-endian field of size bytes.

    The vectors are flattened into one list in C; one-byte fields are that
    list as a bytearray, which builds about twice as fast as bytes.

    Raises:
        ValueError: for size 1, if a coordinate is negative or above 255.
        OverflowError: for a wider size, if a coordinate is negative or
            does not fit in size bytes.
    """
    flat = reduce(iconcat, vecs, [])
    if size == 1:
        return bytearray(flat)
    return b"".join(map(int.to_bytes, flat, repeat(size), repeat("big")))


def cut(data: bytes, n: int, size: int) -> tuple[Vec, ...]:
    """The vectors of n coordinates that pack(vectors, size) laid out as data.

    zip over n references to one iterator of the coordinates makes each
    vector a tuple of n ints in C; fields wider than a byte are read as
    ints first.  With n = 0, data holds no field, so it gives no vector.
    """
    coords = data
    if size > 1:
        coords = [int.from_bytes(data[i : i + size], "big") for i in range(0, len(data), size)]
    return tuple(zip(*[iter(coords)] * n))


class PackedVectors(tuple):
    """Sorted, distinct vectors of one length, packed into one int on the first query.

    The tuple holds the vectors themselves; making one vouches that they
    are sorted, distinct and of one length, so sorted_distinct, which
    makes one from anything else, returns it as it is.  ``fields`` is
    meant to be pack(self, 1): the fold (wmax.vecsum_families) hands on
    the bytes it cut the vectors from when its fields are single bytes,
    so prune_dominated and the layout start from them instead of packing
    every tuple again; otherwise they are empty.  Fields that do not hold
    one byte per coordinate, empty ones included, are not used.  Slicing
    or concatenating one gives a plain tuple.

    Layout (``layout``, made on the first witness or best_minima and kept):
    vector j is a block of n fields, vector 0 in the most significant
    block and coordinate 0 first in its block; the big-endian byte fields
    of wmax.vecsum_families.  Members are non-negative, and a field holds
    its coordinate.  Its width is the smallest whole number of bytes that
    holds the largest coordinate below a guard bit, and also n times it,
    the largest total of a block.  So every field has its top bit free,
    and a block's total never carries.  Carried fields are the packed set
    as they are when every coordinate lies in 0..min(127, 255 // n);
    otherwise the tuples are laid out by pack.

    Queries repeat the query vector w in every block (w.rep) and subtract
    it from the packed set with every guard bit set:
    ``(X | guards) - w.rep`` keeps field i's guard exactly where
    m_i >= w_i, and no field borrows from the next.  Each query is a fixed
    number of big-int operations on |set| x n fields, linear in the set's
    bit length, with no Python loop over the vectors; best_minima then
    visits only the blocks that reach the best total.
    """

    # fields has a default because copy and pickle rebuild a tuple subclass
    # from its items alone, then restore the attribute (and a cached layout)
    def __new__(cls, vecs: Iterable[Vec], fields: bytes = b""):
        self = super().__new__(cls, vecs)
        self.fields = fields
        return self

    @cached_property
    def layout(self) -> tuple[int, int, int, int, int]:
        """(width, X, guards, unguarded, blocks): the packed set and its masks.

        width is the field width in bits, X the packed set, guards the top
        bit of every field, unguarded every other bit of X's length, and
        blocks a 1 in the low bit of every block.

        Raises:
            ValueError: if a coordinate is negative.
        """
        n = len(self[0]) if self else 0
        count = n * len(self)
        size, x = 1, int.from_bytes(self.fields, "big")
        ones = int.from_bytes(b"\1" * count, "big")
        top = min(127, 255 // max(n, 1))
        if len(self.fields) != count or (x | x + (127 - top) * ones) & ones << 7:
            low = min(chain.from_iterable(self), default=0)
            if low < 0:
                raise ValueError(f"vector coordinates must be non-negative, got {low}")
            largest = max(chain.from_iterable(self), default=0)
            size = (max(largest.bit_length() + 1, (n * largest).bit_length()) + 7) // 8
            ones = int.from_bytes((bytes(size - 1) + b"\1") * count, "big")
            x = int.from_bytes(pack(self, size), "big")
        width = 8 * size
        guards = ones << (width - 1)
        block = bytes(n * size - 1) + b"\1" if n else b""
        blocks = int.from_bytes(block * len(self), "big")
        return width, x, guards, (1 << count * width) - 1 ^ guards, blocks

    def _subtract(self, w: Vec) -> tuple[int, int]:
        """w.rep and (X | guards) - w.rep.

        w.rep holds w in every block, each field clamped to 0..2**(width-1);
        a clamped field compares with every member as w does, since members
        lie in 0..2**(width-1) - 1.  One-byte fields take the block as
        bytes(w), which the clamp keeps in 0..128; wider ones pack it.

        Raises:
            ValueError: if a member has a negative coordinate, or if the
                set is not empty and w's length is not its members'.
        """
        width, x, guards, _, _ = self.layout
        if self and len(w) != len(self[0]):
            raise ValueError(f"dimension mismatch: {len(w)} vs {len(self[0])}")
        half = 1 << (width - 1)
        if min(w, default=0) < 0 or max(w, default=0) > half:
            w = [min(max(a, 0), half) for a in w]
        block = bytes(w) if width == 8 else pack((w,), width // 8)
        rep = int.from_bytes(block * len(self), "big")
        return rep, (x | guards) - rep

    def witness(self, w: Vec) -> Vec | None:
        """The lexicographically smallest member m with w <= m, or None.

        Setting every bit but the guards in ``(X | guards) - w.rep`` leaves
        a block all ones exactly when its member dominates w.  Adding 1 to
        every block then carries out of exactly those blocks, into bit 0 of
        the block above: a block with a guard clear stays below
        2**(n*width) - 2**(width-1), so it cannot overflow even with a carry
        in.  The most significant carry comes from the first, so smallest,
        witness.

        Raises:
            ValueError: if a member has a negative coordinate, or if the
                set is not empty and w's length is not its members'.
        """
        _, d = self._subtract(w)
        if not self:
            return None
        if not self[0]:
            return self[0]
        width, _, _, unguarded, blocks = self.layout
        nb = len(self[0]) * width
        carries = (d | unguarded) + blocks & blocks << nb
        return self[-((carries.bit_length() - 1) // nb)] if carries else None

    def best_minima(self, w: Vec) -> tuple[tuple[Vec, Vec], ...]:
        """Each distinct min(w, m) of largest total, with its first such m.

        Returns (u, m) pairs sorted by u: u = min(w, m) over the members m
        whose minimum with w has the largest total, and m the first member
        in sorted order with min(w, m) = u.  That m is the smallest member
        that dominates u (witness(u)): a member m' >= u has
        min(w, m') >= u, and no minimum has a larger total than u.

        The guards that ``(X | guards) - w.rep`` keeps become a mask of the
        fields where m_i >= w_i, and ``X ^ ((X ^ w.rep) & mask)`` is
        min(w, m) for every member at once.  Multiplying it by one block of
        ones puts each block's total in the block's coordinate-0 field.
        With one-byte fields the best total is found by ``in`` probes of
        the totals' bytes and of their high nibbles, counting down from
        min(|w|, 255), as prune_dominated finds its B; wider totals take
        max.  When the best total is |w|, w itself is the only u, paired
        with the first block reaching it; otherwise each block reaching it
        contributes min(w, m), recomputed from its member, in block order.

        Raises:
            ValueError: if the set is empty, if w or a member has a
                negative coordinate, or if w's length is not the members'.
        """
        if not self:
            raise ValueError("the vector set is empty: there is no min(w, m) to take")
        if min(w, default=0) < 0:
            raise ValueError("weights must be non-negative")
        rep, d = self._subtract(w)
        n = len(self[0])
        if not n:
            return (((), self[0]),)
        width, x, guards, _, _ = self.layout
        keep = d & guards
        minima = x ^ (x ^ rep) & keep - (keep >> (width - 1))
        size = width // 8
        # times one block of ones, (2**(n*width) - 1) / (2**width - 1), as a
        # shift, a subtraction and an exact division by 2**width - 1, each
        # linear in the set's length; the product has n - 1 fields more than
        # the set, above vector 0's block, and vector j's total is field
        # n - 1 + j * n from the top
        summed = ((minima << n * width) - minima) // ((1 << width) - 1)
        raw = summed.to_bytes((n * len(self) + n - 1) * size, "big")
        step = n * size
        totals = (
            raw[n - 1 :: n]
            if size == 1
            else [int.from_bytes(raw[i - size : i], "big") for i in range(step, len(raw) + 1, step)]
        )
        whole = sum(w)
        # a total is at most |w|, and at most 255 in one byte
        best = _largest_byte(totals, min(whole, 255)) if size == 1 else max(totals)
        if best == whole:
            return ((tuple(w), self[totals.index(best)]),)
        found: dict[Vec, Vec] = {}
        j = -1
        for _ in range(totals.count(best)):
            j = totals.index(best, j + 1)
            m = self[j]
            found.setdefault(tuple(map(min, w, m)), m)
        return tuple(sorted(found.items()))


def sorted_distinct(vecs: Iterable[Vec]) -> PackedVectors:
    """The distinct vectors in ascending lexicographic order, of one length.

    A PackedVectors is returned as it is; anything else becomes
    PackedVectors(sorted(set(vecs))), with no fields.

    Raises:
        TypeError: if a member is unhashable, a list for one.
        ValueError: if the vectors do not all have one length, naming the
            first vector's length and the first other one.
    """
    if isinstance(vecs, PackedVectors):
        return vecs
    items = PackedVectors(sorted(set(vecs)))
    if len(set(map(len, items))) > 1:
        dim = len(items[0])
        other = next(filter(dim.__ne__, map(len, items)))
        raise ValueError(f"dimension mismatch: {dim} vs {other}")
    return items


def in_hyperrectangle(w: Vec, vecs: Iterable[Vec]) -> Vec | None:
    """Dominance witness: the smallest member x with w <= x, or None.

    Membership of w in the downward closure of `vecs` is equivalent to a
    witness existing.  Ties break to the lexicographically smallest witness
    so callers get deterministic output.  This is
    sorted_distinct(vecs).witness(w): a PackedVectors, such as every
    WmaxSet's vectors, is queried as it is, and packs itself on its first
    query; any other iterable is sorted and deduplicated first.  Method
    (see PackedVectors.witness): subtract w from every member at once,
    then find the first block with no failing field by one carry.  Cost:
    the first query lays the coordinates out in one pass (pack), which
    the fold's one-byte fields skip; every query is a fixed number of
    big-int operations on the packed set, whose field widths
    PackedVectors gives.  Members must be non-negative and hashable; w may
    have any coordinates.

    Raises:
        TypeError: if a member is unhashable, a list for one.
        ValueError: if the members do not all have one length, if one has
            a negative coordinate, or if w's length is not theirs (unless
            there are none).
    """
    return sorted_distinct(vecs).witness(w)


def prune_dominated(vecs: Iterable[Vec]) -> tuple[Vec, ...]:
    """Drop every vector lying below another member; closure is unchanged.

    The bitmap test of Tan, Eng and Ooi ("Efficient progressive skyline
    computation", VLDB 2001) checks every candidate against all members
    at once.  The N distinct vectors are sorted lexicographically
    (sorted_distinct), and vector j is bit N-1-j.  For each coordinate i and
    each value a occurring there, one int bitset ``above[i][a]`` has the
    bits of the vectors whose coordinate i is >= a.  The AND of
    ``above[i][x[i]]`` over all i holds exactly the members >= x, x itself
    included, so x is a maximum iff that AND has one bit.

    When every coordinate lies in 0..255, the vectors are laid end to end
    once as one-byte fields: a PackedVectors whose fields hold one byte
    per coordinate, as the fold's do when they are single bytes, brings
    them (and skips sorted_distinct's checks), anything else is laid out
    by pack.  Column i is the strided slice ``raw[i::dim]``, and
    all the per-vector work runs in C.  Let B be 1 + the largest coordinate,
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
    general path with one group per column: each column, taken by
    ``zip(*vectors)``, is walked once into a dict of bits, then
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
    B**g <= min(256, N) N-bit table entries; the laid-out bytes or the
    columns; and at most two N-bit accumulators per row of a block of
    _PRUNE_ROWS rows.  In a wmax set, coordinate v counts the colors whose
    chosen set contains v, so a column holds at most |L(v)| + 1 distinct
    values.

    Returns:
        The maxima, sorted lexicographically.

    Raises:
        TypeError: if a member is unhashable, a list for one.
        ValueError: if the vectors do not all have the same length.
    """
    items = sorted_distinct(vecs)
    if not items or not items[0]:
        return items
    dim, n = len(items[0]), len(items)
    try:
        raw = items.fields if len(items.fields) == dim * n else pack(items, 1)
    except (ValueError, TypeError):
        codes = list(zip(*items))
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
        base = 1 + _largest_byte(raw)
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
