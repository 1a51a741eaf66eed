"""Menus: per-bundle price tables, their canonical form, and min-affine
representations.

A menu is the taxation-principle object: the price (possibly infinite) a
player faces for each bundle.  The canonical form is normalized (empty
bundle costs 0) and monotone (supersets never cheaper); menu equality is
exact table equality after normalization.

A `Menu` stores its integer form, `scaled == (D, ints, top)`, `top`
standing for INF; `menu(m, table)` is the entry for `Fraction`/INF tables
and `Menu.price` their view, built on first read.  `normalize_menu`,
`menu_complexity`, `profit_argmax_set` and `Menu.is_normalized` run on the
ints.  `verify.BaseFunction` is a normalized `Menu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .bundles import (all_bundles, bit, check_m, flat_pairs, is_monotone, subset_sums,
                      superset_min)
from .rational import (INF, Price, common_denominator, is_finite, price_key, reduced_prices,
                       scaled_prices, top_above)
from .valuations import DomainError, Valuation


class ContractError(ValueError):
    """A documented precondition was violated."""


@dataclass(frozen=True)
class Menu:
    """A price per bundle stored as scaled == (D, ints, top): price[s] ==
    ints[s] / D where finite (gcd 1), ints[s] == top (`top_above`) where
    INF; equal menus store equal triples, and the ints order like prices."""

    m: int
    scaled: tuple[int, tuple[int, ...], int]

    def __post_init__(self):
        check_m(self.m)
        d, ints, top = self.scaled
        if len(ints) != 1 << self.m:
            raise DomainError("a price table must cover all 2^m bundles")
        finite = [x for x in ints if x != top]
        if (type(ints) is not tuple or d <= 0 or gcd(d, *finite) != 1
                or top != top_above(finite)):
            raise DomainError("scaled prices must be reduced ints with top above them")

    @cached_property
    def price(self) -> tuple[Price, ...]:
        """The exact prices, INF included, built on first read."""
        d, ints, top = self.scaled
        exact = {x: INF if x == top else Fraction(x, d) for x in set(ints)}
        return tuple([exact[x] for x in ints])

    def is_normalized(self) -> bool:
        """The empty bundle free (INF's int is at least 1) and the prices
        monotone."""
        ints = self.scaled[1]
        return ints[0] == 0 and is_monotone(ints, self.m)

    def sort_key(self):
        return tuple(map(price_key, self.price))


def menu(m: int, table: Sequence[Price]) -> Menu:
    """The menu of an exact price table, where `Fraction`s and INF come in."""
    return Menu(m, scaled_prices(table))


def menu_price_grid(menus: Sequence[Menu]) -> tuple[Price, ...]:
    """Distinct prices appearing in the menus; the infinite price last."""
    prices = {p for menu in menus for p in menu.price}
    finite = sorted(p for p in prices if is_finite(p))
    return tuple(finite + [INF] if INF in prices else finite)


def normalize_menu(raw: Menu) -> Menu:
    """Canonical form: repair monotonicity by lowering each bundle to its
    cheapest superset price (never-winnable bundles inherit the cheapest
    superset), then shift so the empty bundle, now the cheapest, costs 0.
    Keeps the maximum profit and every previously profit-maximizing bundle
    intact for any valuation."""
    d, ints, top = raw.scaled
    if ints[0] == top:
        raise DomainError("menu price of the empty bundle must be finite")
    repaired = superset_min(ints, raw.m)
    shifted = [None if x == top else x - repaired[0] for x in repaired]
    return Menu(raw.m, reduced_prices(d, shifted))


def profit_argmax_set(menu: Menu, v: Valuation) -> list[int]:
    """All profit-maximizing bundles in ascending mask order, ranked by
    integer profits over the lcm of the menu's and the valuation's
    denominators.  Bundles with infinite price are excluded; the empty
    bundle guarantees nonemptiness."""
    if menu.m != v.m:
        raise DomainError("menu and valuation must share m")
    dv, values = v.scaled_table
    dm, prices, top = menu.scaled
    den = lcm(dv, dm)
    kv, km = den // dv, den // dm
    finite = [s for s, p in enumerate(prices) if p != top]
    profits = [x * kv - p * km for x, p in zip(values, prices)]
    best = max([profits[s] for s in finite], default=None)
    return [s for s in finite if profits[s] == best]


def menu_complexity(menu: Menu) -> tuple[int, tuple[int, ...]]:
    """Bundles "in the menu": finite, and every one-item superset strictly
    dearer, which on a monotone menu makes every strict superset dearer:
    the finite bundles that are no lower end of a `flat_pairs` pair.  The
    grand bundle qualifies iff its price is finite."""
    if not menu.is_normalized():
        raise ContractError("menu_complexity expects a normalized menu")
    _, ints, top = menu.scaled
    flat = {s for s, _ in flat_pairs(ints, menu.m)}
    out = tuple(s for s, x in enumerate(ints) if x != top and s not in flat)
    return len(out), out


def in_menu_rebuild(m: int, priced: dict[int, Fraction]) -> Menu:
    """Menu determined by its in-menu bundles: each bundle costs the cheapest
    in-menu superset, infinite when none exists."""
    return menu(m, superset_min([priced.get(s, INF) for s in all_bundles(m)], m))


@dataclass(frozen=True)
class MinAffineMenu:
    """Pointwise minimum of per-item price vectors plus offsets, with an
    exception table of arbitrarily priced bundles."""

    m: int
    vectors: tuple[tuple[Price, ...], ...]
    offsets: tuple[Fraction, ...]
    exceptions: tuple[tuple[int, Price], ...] = ()

    def __post_init__(self):
        check_m(self.m)
        if len(self.vectors) != len(self.offsets):
            raise DomainError("one offset per price vector")
        for vec in self.vectors:
            if len(vec) != self.m:
                raise DomainError("price vector length must equal m")
        if any(not is_finite(r) or r < 0 for r in self.offsets):
            raise DomainError("offsets must be finite and nonnegative")
        masks = [s for s, _ in self.exceptions]
        if len(set(masks)) != len(masks):
            raise DomainError("duplicate exception bundle")
        if any(not 0 <= s < (1 << self.m) for s in masks):
            raise DomainError("exception bundle out of range")

    @property
    def alpha(self) -> int:
        return len(self.vectors)

    @property
    def beta(self) -> int:
        return len(self.exceptions)

    @cached_property
    def affine_ints(self) -> tuple[int, tuple[Optional[int], ...]]:
        """Every bundle's cheapest affine term, one `subset_sums` per vector,
        as ints over the common denominator d of the finite vector entries
        and offsets; a term pricing an item of the bundle at INF is knocked
        out (None: no term left), and the empty bundle is free."""
        m, n = self.m, len(self.vectors) * self.m
        flat = [x if is_finite(x) else 0 for vec in self.vectors for x in vec]
        d, ints = common_denominator(flat + list(self.offsets))
        best: list = [None] * (1 << m)  # None: no finite term yet
        for q, vec in enumerate(self.vectors):
            blocked = sum(bit(j) for j, x in enumerate(vec) if not is_finite(x))
            r = ints[n + q]
            best = [b if s & blocked or (b is not None and b <= x + r) else x + r
                    for s, (x, b) in enumerate(zip(subset_sums(ints[q * m:q * m + m]), best))]
        best[0] = 0
        return d, tuple(best)

    @cached_property
    def price_table(self) -> tuple[Price, ...]:
        """Every bundle's price: its exception price if it has one, else its
        `affine_ints` price."""
        d, best = self.affine_ints
        exact = {x: Fraction(x, d) for x in set(best) if x is not None}
        table = [INF if x is None else exact[x] for x in best]
        for s, p in self.exceptions:
            table[s] = p
        return tuple(table)


def eval_min_affine(ma: MinAffineMenu, s: int) -> Price:
    """The min-affine price of bundle s (see `MinAffineMenu.price_table`)."""
    if not 0 <= s < (1 << ma.m):
        raise DomainError("bundle out of range")
    return ma.price_table[s]
