"""The two query oracles and the batched integer demand kernel behind the
demand oracle."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import sub
from typing import Iterable, Optional, Sequence

from .bundles import bit, subset_sums
from .rational import INF, Price, is_finite
from .valuations import DomainError, Valuation


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


def price_ints(prices: Sequence[Price]) -> tuple[int, tuple[Optional[int], ...]]:
    """A price vector over one common denominator P: (P, ints), p == ints[j] / P
    for each finite price and None marking each INF."""
    ratios = [None if p is INF else p.as_integer_ratio() for p in prices]
    den = lcm(*[r[1] for r in ratios if r])
    return den, tuple([None if r is None else r[0] * (den // r[1]) for r in ratios])


class PriceVector(tuple):
    """A fixed price vector (a tuple of `Fraction`/INF) keeping its
    `price_ints` form as `scaled`, for the demand kernel to read."""

    def __new__(cls, prices: Iterable[Price]):
        vec = super().__new__(cls, prices)
        vec.scaled = price_ints(vec)
        return vec


def demand_ints(vs: Sequence[Valuation], den: int,
                ints: Sequence[Optional[int]]) -> list[int]:
    """Each valuation's profit-maximizing bundle under the per-item price
    vector ints[j] / den (den > 0, None marking INF), smallest mask among
    ties; bundles holding an infinitely-priced item never win.

    Exact integer kernel: each valuation's values and the finite prices go
    over c = lcm(D, den), where `subset_sums` prices every bundle with one
    int addition.  The stored ints are scaled by c / D where they are
    ranked: the stored tuple itself when c == D, else each value as its
    profit is taken, the listed candidates' alone on the candidate scan.
    An INF item weighs one more than the grand bundle's scaled value, so by
    monotonicity (v(S + B) - v(S) <= v(grand)) a bundle holding it loses
    strictly to the same bundle without it, whatever the finite prices.
    The cost row depends on (c, blocked weight) only, so valuations sharing
    that pair share one row; the answer is the first maximizer of the
    profit list, the empty bundle's 0 competing.

    A valuation carrying its `candidates` is scanned on those masks alone
    when no price is negative, with the same answer: every item then weighs
    at least 0 (an INF one at least 1), so if v(u) == v(u - j) the smaller
    mask u - j profits at least as much as u, the dense scan's smallest-mask
    maximizer is a candidate, and it is the first maximum of the ascending
    candidates too.  A negative price breaks this (an item adding no value
    at a negative price is in every maximizer), so such a vector takes the
    dense scan."""
    if den <= 0:
        raise DomainError("price denominator must be positive")
    rows: dict[tuple[int, int], list[int]] = {}
    nonnegative = None  # tested once, at the first valuation with candidates
    out = []
    for v in vs:
        if len(ints) != v.m:
            raise DomainError("price vector length must equal m")
        d, vals = v.scaled_table
        c = lcm(d, den)
        k = c // d
        blocked = vals[-1] * k + 1
        cost = rows.get((c, blocked))
        if cost is None:
            up = c // den
            cost = rows[c, blocked] = subset_sums(
                [blocked if p is None else p * up for p in ints])
        cands = v.candidates
        if cands is not None:
            if nonnegative is None:
                nonnegative = all(p is None or p >= 0 for p in ints)
            if nonnegative:
                profits = [vals[u] * k - cost[u] for u in cands]
                out.append(cands[profits.index(max(profits))])
                continue
        profits = (list(map(sub, vals, cost)) if k == 1
                   else [x * k - p for x, p in zip(vals, cost)])
        out.append(profits.index(max(profits)))
    return out


def demand_query(v: Valuation, prices: Sequence[Price]) -> tuple[int, Fraction]:
    """`demand_ints` for one valuation on a `Fraction`/INF price vector,
    converted once, or on a `PriceVector`'s stored form: the bundle and its
    value, read from the stored ints."""
    best = demand_ints((v,), *(prices.scaled if isinstance(prices, PriceVector)
                               else price_ints(prices)))[0]
    d, ints = v.scaled_table
    return best, Fraction(ints[best], d)
