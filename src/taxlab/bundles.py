"""Bundles as bit masks.

Item j (1-based) occupies bit j-1.  Bundles compare by mask as unsigned
integers; "lexicographically first" always means smallest mask.  m is
capped at 16 so dense 2^m tables stay cheap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import gt, itemgetter
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


@lru_cache(maxsize=64)
def bundles_of_size(m: int, k: int) -> tuple[int, ...]:
    """All masks with exactly k items, ascending; built once per (m, k)."""
    return tuple(sorted(sum(1 << j for j in combo) for combo in combinations(range(m), k)))


def monotone_closure(t: Sequence, m: int) -> list:
    """A copy of the table with each entry raised to the largest of itself
    and its subsets' entries: one pass per item j, in which each bundle
    holding j takes the entry without j where that is larger."""
    t = list(t)
    for j in range(m):
        b = bit(j)
        for s in range(len(t)):
            if s & b and t[s ^ b] > t[s]:
                t[s] = t[s ^ b]
    return t


def superset_min(t: Sequence, m: int) -> list:
    """A copy of the table with each entry lowered to the smallest of itself
    and its supersets' entries, one pass per item: the superset pass beside
    `monotone_closure`'s subset pass, on ints and `Fraction`/INF alike."""
    t = list(t)
    for j in range(m):
        b = bit(j)
        for s in range(len(t)):
            if not s & b and t[s | b] < t[s]:
                t[s] = t[s | b]
    return t


@lru_cache(maxsize=16)  # every m in 1..MAX_ITEMS
def monotone_layout(m: int) -> tuple[itemgetter, itemgetter]:
    """Getters of both sides of the m 2^(m-1) pairs (s, s | 2^j), s without
    item j, built once per m from one shared list of masks (list slots
    only: about 8 MB at m = 16).  A trailing (0, 0) pair, never a
    violation, keeps each getter's result a tuple at m = 1."""
    masks = list(all_bundles(m))
    pairs = [(s, s | bit(j)) for j in range(m) for s in masks if not s & bit(j)] + [(0, 0)]
    return (itemgetter(*[masks[s] for s, _ in pairs]),
            itemgetter(*[masks[u] for _, u in pairs]))


def is_monotone(table: Sequence, m: int) -> bool:
    """No bundle is priced or valued above a superset with one more item:
    table[s] <= table[s | 2^j] for every s without item j."""
    lows, highs = monotone_layout(m)
    return not any(map(gt, lows(table), highs(table)))


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
