"""Exact price arithmetic: reduced rationals plus an infinity sentinel.

Prices are ``fractions.Fraction`` values (always reduced, exact) or the
singleton :data:`INF`.  INF absorbs addition and dominates every finite
price in comparisons; it is hashable and serializes as ``"inf"``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union


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

    def __mul__(self, other):
        if other == 0:
            raise ValueError("0 * inf is undefined")
        return self

    __rmul__ = __mul__


INF = Infinite()

Price = Union[Fraction, Infinite]


def is_finite(x: Price) -> bool:
    return not isinstance(x, Infinite)


def sum_prices(xs: Iterable[Price]) -> Price:
    total: Price = Fraction(0)
    for x in xs:
        if isinstance(x, Infinite):
            return INF
        total = total + x
    return total


def parse_price(s: str) -> Price:
    s = s.strip()
    if s == "inf":
        return INF
    return Fraction(s)


def format_price(x: Price) -> str:
    if isinstance(x, Infinite):
        return "inf"
    return str(x)
