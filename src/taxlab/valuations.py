"""Valuations over bundles: reduced integer tables, exact on demand, and
the reader of the config's valuation JSON."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from typing import Optional, Sequence

from .bundles import (DomainError, all_bundles, bit, check_m, flat_pairs, is_monotone,
                      monotone_closure, size, subset_sums)
from .rational import common_denominator, parse_price
from .rng import below


@dataclass(frozen=True)
class Valuation:
    """Normalized monotone valuation stored as scaled_table == (D, ints),
    table[s] == ints[s] / D, gcd 1, so equal valuations store equal pairs.
    A `listed` valuation's construction stores `candidates`, its
    `demand_candidates(ints, m)`: the masks `demand_ints` scans at
    nonnegative prices (None when not listed).  `==`, `hash` and `repr`
    ignore both."""

    m: int
    scaled_table: tuple[int, tuple[int, ...]]
    listed: bool = field(default=False, compare=False, repr=False)
    candidates: Optional[tuple[int, ...]] = field(default=None, init=False, compare=False,
                                                  repr=False)

    def __post_init__(self):
        check_m(self.m)
        d, ints = self.scaled_table
        if len(ints) != 1 << self.m:
            raise DomainError("table must cover all 2^m bundles")
        if type(ints) is not tuple or d <= 0 or gcd(d, *ints) != 1:
            raise DomainError("scaled table must be a tuple of ints reduced over a positive int")
        if ints[0] != 0:
            raise DomainError("valuation must be normalized: v(empty) = 0")
        if not is_monotone(ints, self.m):
            raise DomainError("valuation must be monotone")
        if self.listed:
            object.__setattr__(self, "candidates", demand_candidates(ints, self.m))

    @cached_property
    def table(self) -> tuple[Fraction, ...]:
        """The exact table, built on first read, one `Fraction` per value."""
        d, ints = self.scaled_table
        exact = {x: Fraction(x, d) for x in set(ints)}
        return tuple([exact[x] for x in ints])

    def value(self, mask: int) -> Fraction:
        """v(mask), read from the stored ints: no `Fraction` table is built."""
        if not 0 <= mask < (1 << self.m):
            raise DomainError(f"bundle {mask} out of range for m={self.m}")
        d, ints = self.scaled_table
        return Fraction(ints[mask], d)

    def max_value(self) -> Fraction:
        d, ints = self.scaled_table
        return Fraction(ints[-1], d)


def demand_candidates(ints: Sequence[int], m: int) -> tuple[int, ...]:
    """The masks u, ascending, where no u - j (j in u) has u's value: the
    bundles that are no upper end of a `flat_pairs` pair of the monotone
    table.  At nonnegative prices the smallest-mask maximizer of profit is
    always one of them."""
    flat = {u for _, u in flat_pairs(ints, m)}
    return tuple([u for u in all_bundles(m) if u not in flat])


def valuation(m: int, table: Sequence[Fraction]) -> Valuation:
    """The valuation of an exact-rational table, where `Fraction`s come in."""
    if any(not isinstance(x, Fraction) for x in table):
        raise DomainError("valuation entries must be finite exact rationals")
    return Valuation(m, common_denominator(table))


def reduced_table(d: int, ints: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(d, ints) divided by its gcd (d > 0): the `scaled_table` of the
    valuation with table[s] == ints[s] / d."""
    g = gcd(d, *ints)
    if g > 1:
        return d // g, tuple([x // g for x in ints])
    return d, tuple(ints)


def valuation_from_ints(m: int, d: int, ints: Sequence[int]) -> Valuation:
    """The valuation with table[s] == ints[s] / d (d > 0), reduced by the gcd."""
    return Valuation(m, reduced_table(d, ints))


def valuation_from_values(m: int, pairs) -> Valuation:
    """Build a dense table from {mask: value}, each given entry as given;
    missing masks take the largest given value below them, or 0 (minimal
    monotone completion): one `monotone_closure`, 0 where a value is missing.
    A mask outside 0..2^m - 1 is refused."""
    table = [None] * (1 << m)
    for mask, val in dict(pairs).items():
        if not 0 <= mask < len(table):
            raise DomainError("valuation bundle out of range")
        table[mask] = Fraction(val)
    filled = monotone_closure([Fraction(0) if x is None else x for x in table], m)
    return valuation(m, tuple(y if x is None else x for x, y in zip(table, filled)))


def additive_valuation(per_item: Sequence) -> Valuation:
    items = [Fraction(x) for x in per_item]
    d, ints = common_denominator(items)
    return valuation_from_ints(len(items), d, subset_sums(ints))


def single_item_valuation(m: int, item_j: int, value) -> Valuation:
    """Monotone valuation worth `value` exactly when the bundle holds item_j
    (0-based), built as ints over the value's denominator."""
    x, d = Fraction(value).as_integer_ratio()
    return valuation_from_ints(m, d, [x if s & bit(item_j) else 0 for s in all_bundles(m)])


def layered_valuation(m: int, level: dict[int, Fraction], high: Fraction) -> Valuation:
    """`high` above half size, level.get(s, 0) on every other bundle s;
    `level` holds half-size bundles only.  Built as ints over the values'
    common denominator."""
    d, (top, *nums) = common_denominator([Fraction(high), *map(Fraction, level.values())])
    at = dict(zip(level, nums))
    return valuation_from_ints(m, d, [top if size(s) > m // 2 else at.get(s, 0)
                                      for s in all_bundles(m)])


def clause_max(m: int, ints: Sequence[int]) -> list[int]:
    """max_r a_r(S) for integer clauses a_r, laid end to end m entries
    each: each clause's additive table by `subset_sums`, then the
    elementwise max."""
    best = subset_sums(ints[:m])
    for r in range(m, len(ints), m):
        best = [x if x >= y else y for x, y in zip(best, subset_sums(ints[r:r + m]))]
    return best


@dataclass(frozen=True)
class ValuationCatalog:
    """Finite per-player valuation lists; the domain complexities are
    measured over."""

    players: tuple[tuple[Valuation, ...], ...]

    def __post_init__(self):
        if not self.players:
            raise DomainError("catalog needs at least one player")
        m = self.players[0][0].m if self.players[0] else None
        for vs in self.players:
            if not vs:
                raise DomainError("each player's catalog must be nonempty")
            if any(v.m != m for v in vs):
                raise DomainError("all catalog valuations must share m")
            if len(set(vs)) < len(vs):  # equal valuations store equal pairs
                raise DomainError("duplicate valuation in one player's catalog")

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def m(self) -> int:
        return self.players[0][0].m

    def profiles(self):
        """All valuation profiles, in row-major catalog order."""
        return product(*self.players)


def random_monotone_valuation(m: int, rng, grid=8, scale=Fraction(4)) -> Valuation:
    """Seeded random normalized monotone valuation with values on a small
    rational grid: every bundle draws a multiple k of scale / grid, k in
    0..grid, in mask order; each nonempty bundle takes the largest of its
    draw and its subsets' values, the empty one stays 0.  The multiples
    stay integer numerators over the step's denominator."""
    step, d = (Fraction(scale) / grid).as_integer_ratio()
    raw = [k * step for k in below(rng, grid + 1, 1 << m)]
    raw[0] = 0
    return valuation_from_ints(m, d, monotone_closure(raw, m))


def valuation_from_json(doc: dict) -> Valuation:
    """The config's valuation JSON, {"m": m, "values": {mask: price}}: m a
    JSON integer in 1..MAX_ITEMS and one price string per bundle, keyed by
    its mask in decimal.  A missing key, or any other key at either level,
    is refused."""
    for key in sorted(doc.keys() - {"m", "values"}):
        raise DomainError(f"valuation JSON has no key {key!r}; it takes ('m', 'values')")
    for key in sorted({"m", "values"} - doc.keys()):
        raise DomainError(f"valuation JSON lacks the key {key!r}")
    m, values = doc["m"], doc["values"]
    if type(m) is not int:
        raise DomainError(f"item count m must be an integer, got {m!r}")
    check_m(m)
    if not isinstance(values, dict):
        raise DomainError(f"values must be a JSON object, got {values!r}")
    masks = [str(s) for s in all_bundles(m)]
    for key in sorted(values.keys() - set(masks)):
        raise DomainError(f"values key {key!r} is not a bundle mask in 0..{len(masks) - 1}")
    for key in masks:
        if key not in values:
            raise DomainError(f"JSON table omits mask {key}")
    return valuation(m, tuple([parse_price(values[key]) for key in masks]))
