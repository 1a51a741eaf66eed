"""Exact price arithmetic: reduced rationals plus an infinity sentinel.

Prices are ``fractions.Fraction`` values (always reduced, exact) or the
singleton :data:`INF`.  INF absorbs addition and dominates every finite
price in comparisons; it is hashable and serializes as ``"inf"``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .bundles import DomainError


class Infinite:
    """Singleton infinity for menu prices."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, Infinite)

    def __hash__(self):
        return hash("taxlab-infinite")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinite)

    def __gt__(self, other):
        return not isinstance(other, Infinite)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    def __radd__(self, other):
        return self


INF = Infinite()

Price = Union[Fraction, Infinite]


def is_finite(x: Price) -> bool:
    return not isinstance(x, Infinite)


def price_key(p: Price) -> tuple:
    """Canonical price order: finite prices by (numerator, denominator), not
    by value (2 sorts before 3/2), then INF.  Menu indices and reconstruction
    traces depend on it, so value order would change the artifacts."""
    return (0, p.numerator, p.denominator) if is_finite(p) else (1,)


def common_denominator(xs: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """The rationals over their lcm: (D, ints) with xs[k] == ints[k] / D."""
    pairs = [x.as_integer_ratio() for x in xs]
    d = lcm(*[q for _, q in pairs])
    return d, tuple([p * (d // q) for p, q in pairs])


def top_above(finite: Sequence[int]) -> int:
    """The int for INF in a scaled price table: above every finite int, at least 1."""
    return max([0, *finite]) + 1


def reduced_prices(d: int, ints: Sequence[Optional[int]]) -> tuple[int, tuple[int, ...], int]:
    """Prices ints[s] / d (d > 0), None for INF, as (D, ints, top): divided
    by their gcd, INF entries holding `top_above` the finite ints."""
    g = gcd(d, *[x for x in ints if x is not None])
    ints = [None if x is None else x // g for x in ints]
    top = top_above([x for x in ints if x is not None])
    return d // g, tuple([top if x is None else x for x in ints]), top


def scaled_prices(table: Sequence[Price]) -> tuple[int, tuple[int, ...], int]:
    """An exact price table over one denominator, (D, ints, top): table[s]
    == ints[s] / D where finite (gcd 1), ints[s] == top where INF; entries
    neither `Fraction` nor INF are refused."""
    if any(not isinstance(x, Fraction) and x is not INF for x in table):
        raise DomainError("prices must be exact rationals or INF")
    finite = [is_finite(x) for x in table]
    d, ints = common_denominator([x if ok else 0 for x, ok in zip(table, finite)])
    return reduced_prices(d, [x if ok else None for x, ok in zip(ints, finite)])


def parse_price(s: str) -> Price:
    if not isinstance(s, str):
        raise DomainError(f'a price is a string such as "1/2" or "inf", got {s!r}')
    s = s.strip()
    if s == "inf":
        return INF
    return Fraction(s)
