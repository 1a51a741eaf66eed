"""The two query oracles and the brute-force welfare optimizer."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .bundles import all_bundles, bit, subset_sums
from .rational import INF, Price, common_denominator, is_finite
from .valuations import DomainError, Valuation


class CapacityError(ValueError):
    """Instance too large for the exhaustive mode."""


def value_query(v: Valuation, s: int) -> Fraction:
    return v.value(s)


def bundle_price(prices: Sequence[Price], mask: int) -> Price:
    total = Fraction(0)
    for j, p in enumerate(prices):
        if mask & bit(j):
            if not is_finite(p):
                return INF
            total += p
    return total


def demand_query(v: Valuation, prices: Sequence[Price]) -> tuple[int, Fraction]:
    """Profit-maximizing bundle under per-item prices, smallest mask among
    ties; bundles holding an infinitely-priced item never win.  Returns the
    bundle and its value.

    Exact integer kernel: the table and the finite prices are scaled to one
    common denominator, an INF item weighs 0 and goes in the blocked mask,
    and `subset_sums` prices every bundle with one int addition."""
    if len(prices) != v.m:
        raise DomainError("price vector length must equal m")
    d, values = v.scaled_table
    blocked = sum(bit(j) for j, p in enumerate(prices) if not is_finite(p))
    dp, weights = common_denominator([p if is_finite(p) else 0 for p in prices])
    den = lcm(d, dp)
    scale, price_scale = den // d, den // dp
    cost = subset_sums([q * price_scale for q in weights])
    best_mask, best_profit = 0, 0
    for s in all_bundles(v.m):
        if s & blocked:
            continue
        profit = values[s] * scale - cost[s]
        if profit > best_profit:
            best_mask, best_profit = s, profit
    return best_mask, v.table[best_mask]


def optimal_welfare(vs: Sequence[Valuation]) -> tuple[tuple[int, ...], Fraction]:
    """Welfare-maximizing partition by enumerating all n^m item assignments;
    ties broken by smallest (mask_1, ..., mask_n)."""
    n = len(vs)
    if not 1 <= n <= 4:
        raise CapacityError("exhaustive welfare supports 1..4 players")
    m = vs[0].m
    if any(v.m != m for v in vs):
        raise DomainError("players must share m")
    best = None
    best_welfare = None
    for code in range(n ** m):
        masks = [0] * n
        c = code
        for j in range(m):
            masks[c % n] |= bit(j)
            c //= n
        welfare = sum((vs[i].table[masks[i]] for i in range(n)), Fraction(0))
        key = tuple(masks)
        if (best is None or welfare > best_welfare
                or (welfare == best_welfare and key < best)):
            best, best_welfare = key, welfare
    return best, best_welfare
