"""Bundles as bit masks.

Item j (1-based) occupies bit j-1.  Bundles compare by mask as unsigned
integers; "lexicographically first" always means smallest mask.  m is
capped at 16 so dense 2^m tables stay cheap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

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


def max_below(table: Sequence, s: int, floor):
    """The largest of floor and table[s minus one item] over s's items."""
    for j in range(s.bit_length()):
        if s & bit(j) and table[s & ~bit(j)] > floor:
            floor = table[s & ~bit(j)]
    return floor


def is_monotone(table: Sequence, m: int) -> bool:
    """No bundle is priced or valued above a superset with one more item:
    table[s] <= table[s | 2^j] for every s without item j."""
    for j in range(m):
        b = bit(j)
        if any(table[s] > table[s | b] for s in all_bundles(m) if not s & b):
            return False
    return True


def best_bundle(candidates: Iterable[tuple[int, Fraction]]) -> tuple[int, Fraction]:
    """The (mask, profit) candidate of largest profit, smallest mask among
    ties, with (0, 0) always competing; read in order, so a generator that
    queries as it goes keeps its query order."""
    best_mask, best_profit = 0, Fraction(0)
    for mask, profit in candidates:
        if profit > best_profit or (profit == best_profit and mask < best_mask):
            best_mask, best_profit = mask, profit
    return best_mask, best_profit


def subset_sums(weights: Sequence[int]) -> list[int]:
    """Total weight of every bundle, indexed by mask: the doubling DP
    sums[s | 2^j] = sums[s] + weights[j] for s < 2^j."""
    sums = [0]
    for q in weights:
        sums += [x + q for x in sums] if q else sums
    return sums
