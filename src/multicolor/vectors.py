"""Integer vector arithmetic on demand vectors.

Vectors are plain tuples of non-negative ints, one coordinate per vertex in
the canonical order of the instance.  Sets of vectors are ordinary Python
sets (tuples hash), deduplicated by construction.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import le

Vec = tuple[int, ...]


def _check_dims(x: Vec, y: Vec) -> None:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")


def leq(x: Vec, y: Vec) -> bool:
    """Componentwise partial order: every coordinate of x is <= that of y."""
    _check_dims(x, y)
    return all(a <= b for a, b in zip(x, y))


def norm(x: Vec) -> int:
    """Sum of coordinates."""
    return sum(x)


def vec_sub(x: Vec, y: Vec) -> Vec:
    """Componentwise difference x - y; requires y <= x."""
    if not leq(y, x):
        raise ValueError(f"{y} is not <= {x}")
    return tuple(a - b for a, b in zip(x, y))


def vec_min(x: Vec, y: Vec) -> Vec:
    """Componentwise minimum."""
    _check_dims(x, y)
    return tuple(min(a, b) for a, b in zip(x, y))


def support(x: Vec) -> frozenset[int]:
    """Indices of the nonzero coordinates."""
    return frozenset(i for i, a in enumerate(x) if a)


def in_hyperrectangle(w: Vec, vecs: Iterable[Vec]) -> Vec | None:
    """Dominance witness: some member x with w <= x, or None.

    Membership of w in the downward closure of `vecs` is equivalent to a
    witness existing.  Ties break to the lexicographically smallest witness
    so callers get deterministic output.

    Raises:
        ValueError: if some member's length differs from w's, also after a
            witness has been found.
    """
    n = len(w)
    best: Vec | None = None
    for x in vecs:
        if len(x) != n:
            raise ValueError(f"dimension mismatch: {n} vs {len(x)}")
        if (best is None or x < best) and all(map(le, w, x)):
            best = x
    return best
