"""The two query oracles and the brute-force welfare optimizer."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .bundles import bit, subset_sums
from .rational import INF, Price, is_finite
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

    Exact integer kernel: the stored integer table and the finite prices go
    over one common denominator and `subset_sums` prices every bundle with
    one int addition.  An INF item weighs one more than the grand bundle's value,
    so by monotonicity (v(S + B) - v(S) <= v(grand)) a bundle holding it
    loses strictly to the same bundle without it, whatever the finite
    prices; the answer is the first maximizer, the empty bundle's 0
    competing."""
    if len(prices) != v.m:
        raise DomainError("price vector length must equal m")
    d, values = v.scaled_table
    ratios = [None if p is INF else p.as_integer_ratio() for p in prices]
    den = lcm(d, *[r[1] for r in ratios if r])
    scale = den // d
    blocked = values[-1] * scale + 1
    cost = subset_sums([blocked if r is None else r[0] * (den // r[1]) for r in ratios])
    profits = [x * scale - c for x, c in zip(values, cost)]
    best = profits.index(max(profits))
    return best, v.table[best]


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
