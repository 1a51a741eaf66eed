"""Bundles as bit masks.

Item j (1-based) occupies bit j-1.  Bundles compare by mask as unsigned
integers; "lexicographically first" always means smallest mask.  m is
capped at 16 so dense 2^m tables stay cheap.
"""

from __future__ import annotations

from functools import lru_cache
from operator import gt, itemgetter
from typing import Iterable, Sequence

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


@lru_cache(maxsize=16)  # every m in 1..MAX_ITEMS
def sizes(m: int) -> tuple[int, ...]:
    """|S| per bundle S, by mask."""
    return tuple([size(s) for s in all_bundles(m)])


@lru_cache(maxsize=64)
def bundles_of_size(m: int, k: int) -> tuple[int, ...]:
    """All masks with exactly k items, ascending; built once per (m, k)."""
    return tuple([s for s, n in enumerate(sizes(m)) if n == k])


@lru_cache(maxsize=16)  # every m in 1..MAX_ITEMS
def monotone_pairs(m: int) -> tuple[list[int], list[int]]:
    """Both sides of the m 2^(m-1) pairs (s, s | 2^j), s without item j, in
    item order, as two lists of one shared list's masks (about 8 MB at
    m = 16)."""
    masks = list(all_bundles(m))
    pairs = [(s, s | bit(j)) for j in range(m) for s in masks if not s & bit(j)]
    return [masks[s] for s, _ in pairs], [masks[u] for _, u in pairs]


def flat_pairs(t: Sequence, m: int) -> list[tuple[int, int]]:
    """The pairs (s, s | 2^j) of `monotone_pairs` over which t does not
    rise, t[s] >= t[s | 2^j] (equality on a monotone table), in one pass."""
    return [(s, u) for s, u in zip(*monotone_pairs(m)) if t[s] >= t[u]]


def monotone_closure(t: Sequence, m: int) -> list:
    """A copy of the table with each entry raised to its subsets' largest:
    pass j of `monotone_pairs` raises each bundle with j to the one without
    it, reading one side and writing the other, so its order is free."""
    t = list(t)
    for s, u in zip(*monotone_pairs(m)):
        if t[s] > t[u]:
            t[u] = t[s]
    return t


def superset_min(t: Sequence, m: int) -> list:
    """A copy of the table with each entry lowered to its supersets'
    smallest, over the same pairs the other way; on ints, `Fraction`/INF
    and bools alike, as `monotone_closure` is."""
    t = list(t)
    for s, u in zip(*monotone_pairs(m)):
        if t[u] < t[s]:
            t[s] = t[u]
    return t


@lru_cache(maxsize=16)  # every m in 1..MAX_ITEMS
def monotone_layout(m: int) -> tuple[itemgetter, itemgetter]:
    """Getters of both sides of `monotone_pairs(m)`, each with a trailing
    read of the empty bundle, so that a getter returns a tuple at m = 1."""
    return tuple(itemgetter(*side, 0) for side in monotone_pairs(m))


def is_monotone(table: Sequence, m: int) -> bool:
    """No bundle is priced or valued above a superset with one more item:
    table[s] <= table[s | 2^j] for every s without item j."""
    lows, highs = monotone_layout(m)
    return not any(map(gt, lows(table), highs(table)))


@lru_cache(maxsize=16)  # every m in 1..MAX_ITEMS
def pair_layout(m: int) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """For every pair of items a < b: bit(a), bit(b), their union and the
    bundles holding neither, ascending.  A constant of m, built once per m
    from one shared list of masks (list slots only: about 16 MB at
    m = 16)."""
    masks = list(all_bundles(m))
    layout = []
    for a in range(m):
        for b in range(a + 1, m):
            ab = bit(a) | bit(b)
            layout.append((bit(a), bit(b), ab, tuple([s for s in masks if not s & ab])))
    return tuple(layout)


def is_submodular(t: Sequence, m: int) -> bool:
    """Submodularity by its local form (Fujishige 2005, ch. 2): t(S+a) +
    t(S+b) >= t(S+a+b) + t(S) for every S and two items a, b outside S,
    C(m,2) * 2^(m-2) comparisons in place of every pair's ~4^m / 2, one
    list comprehension per pair over its sets S from `pair_layout`."""
    for sa, sb, ab, outside in pair_layout(m):
        if any([t[s | sa] + t[s | sb] < t[s | ab] + t[s] for s in outside]):
            return False
    return True


def best_bundle(candidates: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The (mask, profit) candidate of largest profit, smallest mask among
    ties, with (0, 0) always competing; profits are ints over one
    denominator, read in order."""
    best_mask = best_profit = 0
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
