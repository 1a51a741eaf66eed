"""Bundles as bit masks.

Item j (1-based) occupies bit j-1.  Bundles compare by mask as unsigned
integers; "lexicographically first" always means smallest mask.  m is
capped at 16 so dense 2^m tables stay cheap.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

MAX_ITEMS = 16


class DomainError(ValueError):
    """Input outside an operation's declared domain."""


def check_m(m: int) -> None:
    if not 1 <= m <= MAX_ITEMS:
        raise DomainError(f"item count must be in 1..{MAX_ITEMS}, got {m}")


def all_bundles(m: int) -> range:
    return range(1 << m)


def grand(m: int) -> int:
    return (1 << m) - 1


def bit(j: int) -> int:
    """Mask of the single item with 0-based index j."""
    return 1 << j


def size(mask: int) -> int:
    return mask.bit_count()


def contains(outer: int, inner: int) -> bool:
    return outer & inner == inner


def subsets(mask: int) -> Iterator[int]:
    """All submasks of mask, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def supersets(mask: int, m: int) -> Iterator[int]:
    """All supermasks of mask within m items, ascending."""
    full = grand(m)
    rest = full & ~mask
    for extra in subsets(rest):
        yield mask | extra


def bundles_of_size(m: int, k: int) -> list[int]:
    """All masks with exactly k items, ascending."""
    out = [sum(1 << j for j in combo) for combo in combinations(range(m), k)]
    return sorted(out)

