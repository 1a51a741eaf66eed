"""Mechanisms as instrumented deterministic protocols.

A mechanism is a program over a valuation profile that sends bits, makes
value/demand queries, and returns a disjoint allocation plus payments.
Every run is recorded in one RunResult: its tokens carry each atomic send
with its bit cost (a number from an alphabet of k symbols costs
ceil(log2 k) bits; in query modes the answers are the communication,
charged ANSWER_BITS each, plus m for a demand answer's bundle), and its
queries list every oracle call, which its query counts count.

extract_menu is the ground-truth menu oracle: it prices each bundle by
running the mechanism against an additive probe worth 3B on the bundle's
items, reading the payment off the allocation.

Session is the single oracle memo layer: one per (mechanism, catalog)
pair, it answers run, menu and price-run questions once each and holds
the complexity report, and every suite over that pair asks through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, Optional, Sequence

from .bundles import all_bundles, bit, contains, is_monotone, subset_sums
from .menus import (Menu, ContractError, menu, menu_complexity, menu_price_grid, normalize_menu,
                    profit_argmax_set)
from .queries import demand_query, value_query
from .rational import INF, Price, is_finite
from .valuations import (DomainError, Valuation, ValuationCatalog, reduced_table,
                         valuation_from_ints)


class MechanismBugError(RuntimeError):
    """The mechanism produced an overlapping allocation."""


class TaxationViolation(RuntimeError):
    """Extracted prices contradict the taxation principle."""


ANSWER_BITS = 6  # the charge for one queried number on the answer grid


def log2_ceil(count: int) -> int:
    return (count - 1).bit_length() if count > 0 else 0


class Recorder:
    """Execution context handed to mechanism programs."""

    def __init__(self, profile: Sequence[Valuation]):
        self.profile = tuple(profile)
        self.tokens: list[tuple] = []
        self.queries: list[tuple] = []

    def send_bit(self, player: int, b: int) -> None:
        self.tokens.append((player, "bit", int(b), 1))

    def send_number(self, player: int, value, alphabet: int) -> None:
        self.tokens.append((player, "num", value, log2_ceil(alphabet)))

    def value_query(self, player: int, s: int) -> Fraction:
        ans = value_query(self.profile[player], s)
        self.queries.append(("val", player, s, ans))
        self.tokens.append((player, "vans", (s, ans), ANSWER_BITS))
        return ans

    def demand_query(self, player: int, prices: Sequence[Price]) -> tuple[int, Fraction]:
        mask, val = demand_query(self.profile[player], prices)
        self.queries.append(("dem", player, tuple(prices), (mask, val)))
        m = self.profile[player].m
        self.tokens.append((player, "dans", (mask, val), m + ANSWER_BITS))
        return mask, val


@dataclass(frozen=True)
class PriceRun:
    """One run of the declared price protocol: the price of a bundle plus
    the transcript that produced it (one token per atomic announcement)."""

    price: Price
    tokens: tuple[tuple, ...]  # (player, payload, alphabet)

    @property
    def bits(self) -> int:
        return sum(log2_ceil(t[2]) for t in self.tokens)

    def transcript_id(self) -> tuple:
        return tuple((t[0], t[1]) for t in self.tokens)


Program = Callable[[Sequence[Valuation], Recorder], tuple[tuple[int, ...], tuple[Price, ...]]]


@dataclass(frozen=True)
class MechanismSpec:
    mech_id: str
    n: int
    m: int
    bound: Fraction  # B: declared maximum finite menu price
    mode: str  # "bit" | "value" | "demand"
    program: Program
    price_protocol: Callable[["MechanismSpec", int, Sequence[Valuation], int], PriceRun]
    tie_cost: Callable[[Sequence[Valuation]], int]  # the declared tie protocol's bits


@dataclass(frozen=True)
class RunResult:
    """One mechanism run: its outcome and the Recorder's two lists, frozen."""

    allocation: tuple[int, ...]
    payments: tuple[Price, ...]
    tokens: tuple[tuple, ...]  # (player, kind, payload, bits), one per send
    queries: tuple[tuple, ...]  # (kind, player, args, answer), one per oracle call

    @property
    def bits(self) -> int:
        return sum(t[3] for t in self.tokens)

    def query_count(self, kind: str, player: Optional[int] = None) -> int:
        """The number of `kind` ("val" or "dem") queries, to player when given."""
        return sum(q[0] == kind and (player is None or q[1] == player) for q in self.queries)


def run_mechanism(spec: MechanismSpec, profile: Sequence[Valuation]) -> RunResult:
    if len(profile) != spec.n:
        raise DomainError(f"{spec.mech_id} expects {spec.n} players")
    if any(v.m != spec.m for v in profile):
        raise DomainError(f"{spec.mech_id} expects m={spec.m}")
    rec = Recorder(profile)
    allocation, payments = spec.program(profile, rec)
    taken = 0
    for mask in allocation:
        if taken & mask:
            raise MechanismBugError(f"{spec.mech_id}: overlapping allocation")
        taken |= mask
    return RunResult(tuple(allocation), tuple(payments), tuple(rec.tokens), tuple(rec.queries))


def insert_player(v_minus: Sequence[Valuation], i: int, v: Valuation) -> tuple[Valuation, ...]:
    out = list(v_minus)
    out.insert(i, v)
    return tuple(out)


@lru_cache(maxsize=4096)
def additive_probe(m: int, bound: tuple[int, int], s: int) -> Valuation:
    """The additive probe worth 3B on each item of s, B == num / den for
    bound == (num, den), built once per (m, B, s): every menu extraction
    prices the same 2^m bundles.  Keyed by B's int pair, which hashes
    faster than the `Fraction`."""
    num, den = bound
    return valuation_from_ints(m, den, subset_sums([3 * num if s & bit(j) else 0
                                                    for j in range(m)]))


def extract_menu(spec: MechanismSpec, i: int, v_minus_i: Sequence[Valuation]) -> Menu:
    """Ground-truth menu presented to player i by v_minus_i, via one probe
    run per bundle.  The additive probe worth 3B per item of s
    (Prop-E.1-style) wins some superset of s at s's menu price whenever
    that price is finite, else nothing containing s."""
    if len(v_minus_i) != spec.n - 1:
        raise DomainError("v_minus_i must hold the other n-1 valuations")
    bound = spec.bound.as_integer_ratio()
    prices = []
    for s in all_bundles(spec.m):
        res = run_mechanism(spec, insert_player(v_minus_i, i, additive_probe(spec.m, bound, s)))
        prices.append(res.payments[i] if contains(res.allocation[i], s) else INF)
    check = menu(spec.m, prices)
    if not is_monotone(check.scaled[1], spec.m):
        raise TaxationViolation(
            f"{spec.mech_id}: extracted prices for player {i} are not monotone"
        )
    return normalize_menu(check)


def price_run(spec: MechanismSpec, i: int, v_minus_i: Sequence[Valuation], s: int) -> PriceRun:
    return spec.price_protocol(spec, i, v_minus_i, s)


REPORT_FIELDS = ("mechanism", "m", "n", "tax", "cc", "price", "tie",
                 "mc", "val", "dem", "d", "valid")


@dataclass(frozen=True)
class ComplexityReport:
    mechanism: str
    m: int
    n: int
    tax: int
    cc: int
    price: int
    tie: int
    mc: int
    val: int
    dem: int
    d: int
    valid: bool
    witness: Optional[str] = None
    menus: tuple[tuple[Menu, ...], ...] = field(default=(), compare=False, repr=False)

    @property
    def menu_counts(self) -> tuple[int, ...]:
        return tuple(len(ms) for ms in self.menus)

    def row(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_FIELDS}


class Session:
    """The memoized oracle layer over one (mechanism, catalog) pair.

    Every suite that studies a mechanism on its catalog asks the same
    questions (a run on a profile, the menu some v_minus presents, one
    price-protocol run, one run with a verification probe seated), so they
    share one Session and each answer is computed once.  Every memo keys a
    valuation by its `scaled_table`, the stored pair of its reduced
    denominator and integer table: equal valuations share an entry, and a
    tuple of ints hashes far faster than a tuple of Fractions.
    """

    def __init__(self, spec: MechanismSpec, catalog: ValuationCatalog):
        if catalog.n != spec.n or catalog.m != spec.m:
            raise DomainError("catalog shape must match the mechanism")
        self.spec = spec
        self.catalog = catalog
        self._runs: dict[tuple, RunResult] = {}
        self._menus: dict[tuple, Menu] = {}
        self._prices: dict[tuple, PriceRun] = {}
        self._probes: dict[tuple, tuple[int, Price, int]] = {}
        self._menu_lists: dict[int, tuple[Menu, ...]] = {}
        self._grid: Optional[tuple[Price, ...]] = None
        self._report: Optional[ComplexityReport] = None

    def run(self, profile: Sequence[Valuation]) -> RunResult:
        key = tuple(v.scaled_table for v in profile)
        hit = self._runs.get(key)
        if hit is None:
            hit = self._runs[key] = run_mechanism(self.spec, profile)
        return hit

    def menu(self, i: int, v_minus_i: Sequence[Valuation]) -> Menu:
        key = (i, *(v.scaled_table for v in v_minus_i))
        hit = self._menus.get(key)
        if hit is None:
            hit = self._menus[key] = extract_menu(self.spec, i, v_minus_i)
        return hit

    def price_run(self, i: int, v_minus_i: Sequence[Valuation], s: int) -> PriceRun:
        key = (i, s, *(v.scaled_table for v in v_minus_i))
        hit = self._prices.get(key)
        if hit is None:
            hit = self._prices[key] = price_run(self.spec, i, v_minus_i, s)
        return hit

    def probe_run(self, i: int, v_minus_i: Sequence[Valuation],
                  table: tuple[int, Sequence[int]]) -> tuple[int, Price, int]:
        """Player i's (won, paid) and the transcript bits of one run with the
        probe valuation table[1][s] / table[0] seated at i against v_minus_i.
        The table, reduced by its gcd, is the key, so equal probes share an
        entry; on a miss that reduced pair is the probe `Valuation`'s stored
        form, checked once by its constructor."""
        scaled = reduced_table(*table)
        key = (i, *scaled, *(v.scaled_table for v in v_minus_i))
        hit = self._probes.get(key)
        if hit is None:
            probe = Valuation(self.spec.m, scaled)
            res = run_mechanism(self.spec, insert_player(v_minus_i, i, probe))
            hit = self._probes[key] = (res.allocation[i], res.payments[i], res.bits)
        return hit

    def others(self, i: int) -> Iterator[tuple[Valuation, ...]]:
        """Every catalog v_minus_i, row-major."""
        return product(*self.catalog.players[:i], *self.catalog.players[i + 1:])

    def menus(self, i: int) -> tuple[Menu, ...]:
        """The distinct menus player i can face, in canonical order."""
        if i not in self._menu_lists:
            seen = {self.menu(i, v_minus) for v_minus in self.others(i)}
            self._menu_lists[i] = tuple(sorted(seen, key=Menu.sort_key))
        return self._menu_lists[i]

    def price_grid(self) -> tuple[Price, ...]:
        """The distinct prices of every menu any player faces, INF last."""
        if self._grid is None:
            self._grid = menu_price_grid([mn for i in range(self.spec.n) for mn in self.menus(i)])
        return self._grid

    def report(self) -> ComplexityReport:
        if self._report is None:
            self._report = measure_complexities(self.spec, self.catalog, self)
        return self._report


def measure_complexities(spec: MechanismSpec, catalog: ValuationCatalog,
                         session: Optional[Session] = None) -> ComplexityReport:
    """Enumerate all profiles: distinct menus, transcript and query maxima,
    declared price/tie costs, and the taxation-principle check of each run
    and each price-protocol answer against its menu, whose witness names
    each valuation by its catalog index.  Every run and menu comes from the
    session (a given one over the same spec and catalog lends its memos)."""
    if session is None:
        session = Session(spec, catalog)

    cc = 0
    val = 0
    dem = 0
    tie_bits = 0
    witness = None  # the first violation's; the report is valid without one
    for profile in catalog.profiles():
        res = session.run(profile)
        cc = max(cc, res.bits)
        val = max(val, res.query_count("val"))
        dem = max(dem, res.query_count("dem"))
        tie_bits = max(tie_bits, spec.tie_cost(profile))
        for i in range(spec.n):
            menu = session.menu(i, profile[:i] + profile[i + 1:])
            argmax = profit_argmax_set(menu, profile[i])
            ok = res.allocation[i] in argmax and res.payments[i] == menu.price[res.allocation[i]]
            if not ok and witness is None:
                at = tuple(map(tuple.index, catalog.players, profile))
                witness = f"player {i}, profile {at}"

    per_player_menus = tuple(session.menus(i) for i in range(spec.n))
    tax = max(log2_ceil(len(ms)) for ms in per_player_menus)
    mc = max(menu_complexity(menu)[0] for ms in per_player_menus for menu in ms)
    prices = [p for p in session.price_grid() if is_finite(p)]
    if prices and prices[-1] > spec.bound:
        raise ContractError(
            f"{spec.mech_id}: extracted price {prices[-1]} exceeds declared bound {spec.bound}")

    price_bits = 0
    for i in range(spec.n):
        opponents = catalog.players[:i] + catalog.players[i + 1:]
        for v_minus in session.others(i):
            menu = session.menu(i, v_minus)
            for s in all_bundles(spec.m):
                run = session.price_run(i, v_minus, s)
                price_bits = max(price_bits, run.bits)
                if run.price != menu.price[s] and witness is None:
                    at = tuple(map(tuple.index, opponents, v_minus))
                    witness = (f"player {i}, opponents {at}, bundle {s}: protocol price "
                               f"{run.price}, menu price {menu.price[s]}")

    return ComplexityReport(
        mechanism=spec.mech_id,
        m=spec.m,
        n=spec.n,
        tax=tax,
        cc=cc,
        price=price_bits,
        tie=tie_bits,
        mc=mc,
        val=val,
        dem=dem,
        d=len(prices),
        valid=witness is None,
        witness=witness,
        menus=per_player_menus,
    )
