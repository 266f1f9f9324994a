"""Integer vector arithmetic on demand vectors, and the dominance kernel.

Vectors are plain tuples of ints, one coordinate per vertex in the
canonical order of the instance.  The maximal set that dominance questions
are asked against is packed once into a single int (PackedVectors), and
each question is answered by a few whole-set big-int operations, SIMD
within a register (Lamport, "Multiple byte processing with full-word
instructions", CACM 1975), with no loop over the vectors.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, groupby

Vec = tuple[int, ...]


def leq(x: Vec, y: Vec) -> bool:
    """Componentwise partial order: every coordinate of x is <= that of y."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return all(a <= b for a, b in zip(x, y))


class PackedVectors:
    """A set of equal-length int vectors packed into one int.

    Layout: the distinct vectors in ascending lexicographic order, vector j
    a block of n fields, vector 0 in the most significant block and
    coordinate 0 first in its block; the big-endian byte fields of
    wmax.vecsum_families.  Members are non-negative, and a field holds its
    coordinate.  Its width is the smallest whole number of bytes that holds
    the largest coordinate below a guard bit, and also n times it, the
    largest total of a block.  So every field has its top bit free, and a
    block's total never carries.

    Queries repeat the query vector w in every block (w.rep) and subtract
    it from the packed set with every guard bit set:
    ``(X | guards) - w.rep`` keeps field i's guard exactly where
    m_i >= w_i, and no field borrows from the next.  Each query is a fixed
    number of big-int operations on |set| x n fields, linear in the set's
    bit length, with no Python loop over the vectors; best_minima then
    visits only the blocks that reach the best total.  Packing sorts and
    deduplicates the vectors and converts every coordinate once, unless
    the caller hands over their bytes as one-byte fields (the fold does,
    when every coordinate lies in 0..min(127, 255 // n)).
    """

    __slots__ = ("vectors", "n", "width", "x", "guards", "unguarded", "blocks")

    def __init__(self, vecs: Iterable[Vec], data: bytes | None = None):
        """Pack vecs.

        Args:
            vecs: the vectors, in any order, duplicates allowed.
            data: optionally, the vectors' coordinates as bytes, joined in
                order; passing it vouches that vecs are sorted, distinct and
                of one length.  It is used as the fields when it has one
                byte per coordinate and every byte is at most
                min(127, 255 // n); otherwise vecs are packed as if it
                were not given.

        Raises:
            ValueError: if the vectors do not all have one length, or if a
                coordinate is negative.
        """
        vectors = tuple(vecs)
        if data is not None:
            n = len(vectors[0]) if vectors else 0
            count = n * len(vectors)
            x = int.from_bytes(data, "big")
            ones = int.from_bytes(b"\1" * count, "big")
            top = min(127, 255 // max(n, 1))
            if len(data) == count and not (x | x + (127 - top) * ones) & ones << 7:
                self._set(vectors, n, 1, x, ones)
                return
        # sorted with the first of equal members kept, lists accepted
        vectors = tuple(next(g) for _, g in groupby(sorted(vectors, key=tuple), tuple))
        lengths = sorted(set(map(len, vectors)))
        if len(lengths) > 1:
            raise ValueError(f"dimension mismatch: {lengths[0]} vs {lengths[-1]}")
        n = lengths[0] if lengths else 0
        coords = set(chain.from_iterable(vectors))
        if min(coords, default=0) < 0:
            raise ValueError(f"vector coordinates must be non-negative, got {min(coords)}")
        largest = max(coords, default=0)
        size = (max(largest.bit_length() + 1, (n * largest).bit_length()) + 7) // 8
        fields = {a: int.to_bytes(a, size, "big") for a in coords}
        data = b"".join(map(fields.__getitem__, chain.from_iterable(vectors)))
        ones = int.from_bytes((bytes(size - 1) + b"\1") * (n * len(vectors)), "big")
        self._set(vectors, n, size, int.from_bytes(data, "big"), ones)

    def _set(self, vectors: tuple[Vec, ...], n: int, size: int, x: int, ones: int):
        """Keep the packed set x, with ones a 1 in the low bit of every field."""
        self.vectors, self.n, self.width, self.x = vectors, n, 8 * size, x
        self.guards = ones << (self.width - 1)
        self.unguarded = (1 << n * len(vectors) * self.width) - 1 ^ self.guards
        block = bytes(n * size - 1) + b"\1" if n else b""
        self.blocks = int.from_bytes(block * len(vectors), "big")

    def __len__(self) -> int:
        return len(self.vectors)

    def _subtract(self, w: Vec) -> tuple[int, int]:
        """w.rep and (X | guards) - w.rep.

        w.rep holds w in every block, each field clamped to 0..2**(width-1);
        a clamped field compares with every member as w does, since members
        lie in 0..2**(width-1) - 1.

        Raises:
            ValueError: if the set is not empty and w's length is not n.
        """
        if self.vectors and len(w) != self.n:
            raise ValueError(f"dimension mismatch: {len(w)} vs {self.n}")
        size = self.width // 8
        half = 1 << (self.width - 1)
        if size == 1 and 0 <= min(w, default=0) and max(w, default=0) <= half:
            block = bytes(w)  # nothing to clamp
        else:
            block = b"".join(int.to_bytes(min(max(a, 0), half), size, "big") for a in w)
        rep = int.from_bytes(block * len(self.vectors), "big")
        return rep, (self.x | self.guards) - rep

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
            ValueError: if the set is not empty and w's length is not n.
        """
        _, d = self._subtract(w)
        if not self.n:
            return self.vectors[0] if self.vectors else None
        nb = self.n * self.width
        carries = (d | self.unguarded) + self.blocks & self.blocks << nb
        return self.vectors[-((carries.bit_length() - 1) // nb)] if carries else None

    def best_minima(self, w: Vec) -> tuple[Vec, ...]:
        """The distinct min(w, m) over the members m of largest total, sorted.

        The guards that ``(X | guards) - w.rep`` keeps become a mask of the
        fields where m_i >= w_i, and ``X ^ ((X ^ w.rep) & mask)`` is
        min(w, m) for every member at once.  Multiplying it by one block of
        ones puts each block's total in the block's coordinate-0 field.
        When the best total is |w|, w itself is the answer; otherwise each
        block reaching it contributes min(w, m), recomputed from its member.

        Raises:
            ValueError: if the set is empty, if w has a negative
                coordinate, or if w's length is not n.
        """
        if not self.vectors:
            raise ValueError("the vector set is empty: there is no min(w, m) to take")
        if min(w, default=0) < 0:
            raise ValueError("weights must be non-negative")
        rep, d = self._subtract(w)
        n, width, x = self.n, self.width, self.x
        if not n:
            return ((),)
        keep = d & self.guards
        minima = x ^ (x ^ rep) & keep - (keep >> (width - 1))
        size = width // 8
        # times one block of ones, (2**(n*width) - 1) / (2**width - 1), as a
        # shift, a subtraction and an exact division by 2**width - 1, each
        # linear in the set's length; the product has n - 1 fields more than
        # the set, above vector 0's block, and vector j's total is field
        # n - 1 + j * n from the top
        summed = ((minima << n * width) - minima) // ((1 << width) - 1)
        raw = summed.to_bytes((n * len(self.vectors) + n - 1) * size, "big")
        step = n * size
        totals = (
            raw[n - 1 :: n]
            if size == 1
            else [int.from_bytes(raw[i - size : i], "big") for i in range(step, len(raw) + 1, step)]
        )
        best = max(totals)
        if best == sum(w):
            return (tuple(w),)
        found = set()
        j = -1
        for _ in range(totals.count(best)):
            j = totals.index(best, j + 1)
            found.add(tuple(map(min, w, self.vectors[j])))
        return tuple(sorted(found))


def in_hyperrectangle(w: Vec, vecs: Iterable[Vec]) -> Vec | None:
    """Dominance witness: the smallest member x with w <= x, or None.

    Membership of w in the downward closure of `vecs` is equivalent to a
    witness existing.  Ties break to the lexicographically smallest witness
    so callers get deterministic output, and the witness is the first such
    member as given, so a list member comes back as that list.  A
    PackedVectors is queried as it is; any other iterable is packed
    first.  Method (see
    PackedVectors.witness): subtract w from every member at once, then find
    the first block with no failing field by one carry.  Cost: packing
    sorts the members and converts each coordinate once, by one lookup
    among the distinct coordinates; the query is a fixed number of big-int
    operations on the packed set, whose field widths PackedVectors gives.
    Members must be non-negative; w may have any coordinates.

    Raises:
        ValueError: if the members do not all have one length, if one has
            a negative coordinate, or if w's length is not theirs (unless
            there are none).
    """
    packed = vecs if isinstance(vecs, PackedVectors) else PackedVectors(vecs)
    return packed.witness(w)
