"""Valuations over bundles: dense exact-rational tables plus class checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .bundles import DomainError, all_bundles, bit, check_m, grand
from .rational import format_price, parse_price


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
            if any(a < 0 for a in cl):
                raise DomainError("clause entries must be nonnegative")

    def clause_value(self, r: int, mask: int) -> Fraction:
        cl = self.clauses[r]
        return sum((cl[j] for j in range(self.m) if mask & bit(j)), Fraction(0))


@dataclass(frozen=True)
class Valuation:
    """Normalized monotone valuation as a dense table over all 2^m bundles."""

    m: int
    table: tuple[Fraction, ...]
    clauses: Optional[XOSClauses] = field(default=None, compare=False)

    def __post_init__(self):
        check_m(self.m)
        if len(self.table) != 1 << self.m:
            raise DomainError("table must cover all 2^m bundles")
        if any(not isinstance(x, Fraction) for x in self.table):
            raise DomainError("table entries must be exact rationals")
        if self.table[0] != 0:
            raise DomainError("valuation must be normalized: v(empty) = 0")
        for s in all_bundles(self.m):
            for j in range(self.m):
                if not s & bit(j) and self.table[s] > self.table[s | bit(j)]:
                    raise DomainError("valuation must be monotone")

    def value(self, mask: int) -> Fraction:
        if not 0 <= mask < (1 << self.m):
            raise DomainError(f"bundle {mask} out of range for m={self.m}")
        return self.table[mask]

    def max_value(self) -> Fraction:
        return self.table[grand(self.m)]


def valuation_from_values(m: int, pairs) -> Valuation:
    """Build a dense table from {mask: value}; missing masks default to the
    maximum value over their subsets (minimal monotone completion)."""
    table = [None] * (1 << m)
    for mask, val in dict(pairs).items():
        table[mask] = Fraction(val)
    table[0] = Fraction(0) if table[0] is None else table[0]
    for s in all_bundles(m):
        if table[s] is None:
            best = Fraction(0)
            for j in range(m):
                if s & bit(j):
                    prev = table[s & ~bit(j)]
                    if prev > best:
                        best = prev
            table[s] = best
    return Valuation(m, tuple(table))


def additive_valuation(per_item: Sequence) -> Valuation:
    items = [Fraction(x) for x in per_item]
    m = len(items)
    table = [sum((items[j] for j in range(m) if s & bit(j)), Fraction(0))
             for s in all_bundles(m)]
    return Valuation(m, tuple(table))


def single_item_valuation(m: int, item_j: int, value) -> Valuation:
    """Monotone valuation worth `value` exactly when the bundle holds item_j
    (0-based)."""
    v = Fraction(value)
    table = [v if s & bit(item_j) else Fraction(0) for s in all_bundles(m)]
    return Valuation(m, tuple(table))


def xos_from_clauses(c: XOSClauses) -> Valuation:
    table = []
    for s in all_bundles(c.m):
        table.append(max(c.clause_value(r, s) for r in range(len(c.clauses))))
    return Valuation(c.m, tuple(table), clauses=c)


def classify_valuation(v: Valuation) -> frozenset[str]:
    """Class flags {additive, submodular, xos, subadditive} by exhaustive
    pairwise checks; xos is set only for a verified clause witness."""
    flags = set()
    m, t = v.m, v.table
    additive = all(
        t[s] == sum((t[bit(j)] for j in range(m) if s & bit(j)), Fraction(0))
        for s in all_bundles(m)
    )
    submodular = True
    subadditive = True
    for s in all_bundles(m):
        for u in all_bundles(m):
            if u < s:
                continue
            vs, vu = t[s], t[u]
            if submodular and vs + vu < t[s | u] + t[s & u]:
                submodular = False
            if subadditive and vs + vu < t[s | u]:
                subadditive = False
        if not submodular and not subadditive:
            break
    if additive:
        flags.add("additive")
    if submodular:
        flags.add("submodular")
    if subadditive:
        flags.add("subadditive")
    if v.clauses is not None and xos_from_clauses(v.clauses).table == t:
        flags.add("xos")
    return frozenset(flags)


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
            tables = set()
            for v in vs:
                if v.m != m:
                    raise DomainError("all catalog valuations must share m")
                if v.table in tables:
                    raise DomainError("duplicate valuation in one player's catalog")
                tables.add(v.table)

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
    rational grid."""
    raw = [Fraction(rng.randrange(grid + 1), grid) * scale for _ in all_bundles(m)]
    table = [Fraction(0)] * (1 << m)
    for s in all_bundles(m):
        best = raw[s] if s else Fraction(0)
        for j in range(m):
            if s & bit(j):
                prev = table[s & ~bit(j)]
                if prev > best:
                    best = prev
        table[s] = best
    return Valuation(m, tuple(table))


def valuation_to_json(v: Valuation) -> dict:
    return {
        "m": v.m,
        "values": {str(s): format_price(v.table[s]) for s in all_bundles(v.m)},
    }


def valuation_from_json(doc: dict) -> Valuation:
    m = int(doc["m"])
    check_m(m)
    values = doc["values"]
    table = []
    for s in all_bundles(m):
        key = str(s)
        if key not in values:
            raise DomainError(f"valuation JSON omits mask {s}")
        x = parse_price(values[key])
        if not isinstance(x, Fraction):
            raise DomainError("valuation entries must be finite")
        table.append(x)
    return Valuation(m, tuple(table))


def xos_from_json(doc: dict) -> Valuation:
    m = int(doc["m"])
    clauses = tuple(
        tuple(Fraction(entry) for entry in clause) for clause in doc["clauses"]
    )
    return xos_from_clauses(XOSClauses(m, clauses))
