"""Helpers only the tests call: bundle enumeration, the valuation JSON
writer, XOS clauses and the class checks, builders of base functions,
probes, min-affine tables and deviation families, and the per-bundle
zero set of a useless valuation.  No run of the package
reaches them, so they live beside the tests that use them.

An XOS valuation keeps no clauses: a test that builds one from
`XOSClauses` holds the clauses next to it and hands them to
`classify_valuation`, which sets the xos flag only for that witness."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from taxlab.bundles import (DomainError, all_bundles, bit, check_m, grand, is_submodular,
                            subset_sums)
from taxlab.menus import Menu, MinAffineMenu, menu
from taxlab.rational import INF, Price, common_denominator, is_finite, scaled_prices
from taxlab.transforms import DeviationStrategy, TwoPlayerTables
from taxlab.valuations import Valuation, clause_max, valuation_from_ints
from taxlab.verify import BaseFunction, _staircase, draw_base_function, price_pool


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
    for extra in subsets(grand(m) & ~mask):
        yield mask | extra


def useless_zero_set(m: int, seeds: Sequence[int]) -> set[int]:
    """The bundles below some seed, one scan of the seeds per bundle: the
    zero set `value_reconstruct.useless_table` builds in one pass."""
    return {s for s in all_bundles(m) if any(s & t == s for t in seeds)}


def format_price(x: Price) -> str:
    return "inf" if x is INF else str(x)


def valuation_to_json(v: Valuation) -> dict:
    """Valuation JSON as a config's catalog holds it: m and every mask's
    value, which `valuations.valuation_from_json` reads back."""
    return {"m": v.m, "values": {str(s): format_price(x) for s, x in enumerate(v.table)}}


@dataclass(frozen=True)
class XOSClauses:
    """Additive clauses a_r; the induced valuation is v(S) = max_r a_r(S)."""

    m: int
    clauses: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        check_m(self.m)
        if not self.clauses:
            raise DomainError("XOS needs at least one clause")
        for cl in self.clauses:
            if len(cl) != self.m:
                raise DomainError("clause length must equal m")
            if any(not is_finite(a) or a < 0 for a in cl):
                raise DomainError("clause entries must be finite and nonnegative")


def xos_from_clauses(c: XOSClauses) -> Valuation:
    """v(S) = max_r a_r(S), over the clauses' common denominator."""
    d, ints = common_denominator([a for cl in c.clauses for a in cl])
    return valuation_from_ints(c.m, d, clause_max(c.m, ints))


def classify_valuation(v: Valuation, clauses: Optional[XOSClauses] = None) -> frozenset[str]:
    """Class flags {additive, submodular, xos, subadditive} by exhaustive
    checks over the integer table; xos is set only when `clauses` is a
    verified witness; subadditivity on disjoint splits, which suffice as t
    is monotone."""
    flags = set()
    m, t = v.m, v.scaled_table[1]
    if list(t) == subset_sums([t[bit(j)] for j in range(m)]):
        flags.add("additive")
    if is_submodular(t, m):
        flags.add("submodular")
    if all(t[s] + t[u ^ s] >= t[u] for u in all_bundles(m) for s in subsets(u) if s < u ^ s):
        flags.add("subadditive")
    if clauses is not None and xos_from_clauses(clauses) == v:
        flags.add("xos")
    return frozenset(flags)


def min_affine_table(ma: MinAffineMenu) -> Menu:
    return menu(ma.m, ma.price_table)


def base_function(m: int, table: Sequence[Price]) -> BaseFunction:
    """The base function of an exact price table, INF entries included."""
    return BaseFunction(m, scaled_prices(table))


def random_base_function(m: int, bound: Fraction, rng,
                         values: Optional[Sequence[Price]] = None) -> BaseFunction:
    """`draw_base_function` from the `price_pool` of the cap and values."""
    return draw_base_function(m, price_pool(bound, values), rng)


def submodular_probe(f: BaseFunction, bound: Fraction, k: int, w: Price) -> Valuation:
    """The staircase probe of the level set {|S| = k, f(S) = w} as a
    `Valuation`: below size k the value climbs by t per item; bundles
    covering a level-set member are worth exactly k*t; everything else
    falls short by t/2^|S|.  With t = 2^(m+1) B every entry is an integer
    multiple of B."""
    if not 1 <= k <= f.m:
        raise DomainError("level size out of range")
    level = f.level_ints.get((k, f.int_of(w)))
    if not level:
        raise DomainError("empty level set: skip this (k, w) pair")
    return valuation_from_ints(f.m, *_staircase(f.m, level, bound.as_integer_ratio()))


def deviation_family(tables: TwoPlayerTables, i: int) -> list[DeviationStrategy]:
    """Every menu-lie x bundle-lie x type-misreport available to player i."""
    out = []
    for idx in range(len(tables.presented[i])):
        for bundle in all_bundles(tables.spec.m):
            for inner in tables.catalog.players[i]:
                out.append(DeviationStrategy(idx, bundle, inner))
    return out
