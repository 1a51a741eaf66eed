"""Mechanisms as instrumented deterministic protocols.

A mechanism is a program over a valuation profile that sends bits, makes
value/demand queries, and returns a disjoint allocation plus payments.
Every run is recorded: the transcript carries each atomic send with its
bit cost (transmitted numbers cost ceil(log2 grid) bits; in query modes
the answers are the communication and are charged the same way), and the
query log counts oracle calls per player.

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
from itertools import product
from typing import Callable, Iterator, Optional, Sequence

from .bundles import all_bundles, bit, contains
from .menus import Menu, ContractError, menu_complexity, normalize_menu, profit_argmax_set
from .queries import demand_query, value_query
from .rational import INF, Price, is_finite
from .valuations import DomainError, Valuation, ValuationCatalog, additive_valuation


class MechanismBugError(RuntimeError):
    """The mechanism produced an overlapping allocation."""


class TaxationViolation(RuntimeError):
    """Extracted prices contradict the taxation principle."""


def bits_for(alphabet: int) -> int:
    return max(0, (alphabet - 1).bit_length())


@dataclass(frozen=True)
class Transcript:
    tokens: tuple[tuple, ...]

    @property
    def bits(self) -> int:
        return sum(t[3] for t in self.tokens)

    def token_stream(self) -> tuple[tuple, ...]:
        return tuple(t[:3] for t in self.tokens)

    def is_prefix_of(self, other: "Transcript") -> bool:
        a, b = self.token_stream(), other.token_stream()
        return len(a) < len(b) and b[: len(a)] == a


@dataclass
class QueryLog:
    n: int
    value_counts: list[int] = field(default_factory=list)
    demand_counts: list[int] = field(default_factory=list)
    trace: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        if not self.value_counts:
            self.value_counts = [0] * self.n
        if not self.demand_counts:
            self.demand_counts = [0] * self.n

    @property
    def total_value(self) -> int:
        return sum(self.value_counts)

    @property
    def total_demand(self) -> int:
        return sum(self.demand_counts)


class Recorder:
    """Execution context handed to mechanism programs."""

    def __init__(self, profile: Sequence[Valuation], grid_bits: int):
        self.profile = tuple(profile)
        self.grid_bits = grid_bits
        self._tokens: list[tuple] = []
        self.qlog = QueryLog(len(self.profile))

    def send_bit(self, player: int, b: int) -> None:
        self._tokens.append((player, "bit", int(b), 1))

    def send_number(self, player: int, value, alphabet: int) -> None:
        self._tokens.append((player, "num", value, bits_for(alphabet)))

    def value_query(self, player: int, s: int) -> Fraction:
        ans = value_query(self.profile[player], s)
        self.qlog.value_counts[player] += 1
        self.qlog.trace.append(("val", player, s, ans))
        self._tokens.append((player, "vans", (s, ans), self.grid_bits))
        return ans

    def demand_query(self, player: int, prices: Sequence[Price]) -> tuple[int, Fraction]:
        mask, val = demand_query(self.profile[player], prices)
        self.qlog.demand_counts[player] += 1
        self.qlog.trace.append(("dem", player, tuple(prices), (mask, val)))
        m = self.profile[player].m
        self._tokens.append((player, "dans", (mask, val), m + self.grid_bits))
        return mask, val

    def transcript(self) -> Transcript:
        return Transcript(tuple(self._tokens))


@dataclass(frozen=True)
class PriceRun:
    """One run of the declared price protocol: the price of a bundle plus
    the transcript that produced it (one token per atomic announcement)."""

    price: Price
    tokens: tuple[tuple, ...]  # (player, payload, alphabet)

    @property
    def bits(self) -> int:
        return sum(bits_for(t[2]) for t in self.tokens)

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
    grid_bits: int = 6
    price_protocol: Optional[Callable[["MechanismSpec", int, Sequence[Valuation], int], PriceRun]] = None
    tie_cost_fn: Optional[Callable[[Sequence[Valuation]], int]] = None
    price_query_cost: int = 1

    def tie_cost(self, profile: Sequence[Valuation]) -> int:
        if self.tie_cost_fn is None:
            return self.n * self.m
        return self.tie_cost_fn(profile)


@dataclass(frozen=True)
class RunResult:
    allocation: tuple[int, ...]
    payments: tuple[Price, ...]
    transcript: Transcript
    qlog: QueryLog


def run_mechanism(spec: MechanismSpec, profile: Sequence[Valuation]) -> RunResult:
    if len(profile) != spec.n:
        raise DomainError(f"{spec.mech_id} expects {spec.n} players")
    if any(v.m != spec.m for v in profile):
        raise DomainError(f"{spec.mech_id} expects m={spec.m}")
    rec = Recorder(profile, spec.grid_bits)
    allocation, payments = spec.program(profile, rec)
    taken = 0
    for mask in allocation:
        if taken & mask:
            raise MechanismBugError(f"{spec.mech_id}: overlapping allocation")
        taken |= mask
    return RunResult(tuple(allocation), tuple(payments), rec.transcript(), rec.qlog)


def probe_valuation(m: int, s: int, bound: Fraction) -> Valuation:
    """Additive probe worth 3B per item of s (Prop-E.1-style price probe)."""
    return additive_valuation([3 * bound if s & bit(j) else Fraction(0) for j in range(m)])


def insert_player(v_minus: Sequence[Valuation], i: int, v: Valuation) -> tuple[Valuation, ...]:
    out = list(v_minus)
    out.insert(i, v)
    return tuple(out)


def extract_menu(spec: MechanismSpec, i: int, v_minus_i: Sequence[Valuation]) -> Menu:
    """Ground-truth menu presented to player i by v_minus_i, via one probe
    run per bundle.  The probe on S wins some superset of S at S's menu
    price whenever that price is finite; otherwise it wins nothing
    containing S."""
    if len(v_minus_i) != spec.n - 1:
        raise DomainError("v_minus_i must hold the other n-1 valuations")
    raw: list[Price] = []
    for s in all_bundles(spec.m):
        probe = probe_valuation(spec.m, s, spec.bound)
        res = run_mechanism(spec, insert_player(v_minus_i, i, probe))
        won = res.allocation[i]
        raw.append(res.payments[i] if contains(won, s) else INF)
    check = Menu(spec.m, tuple(raw))
    if not all(
        check.price[s] <= check.price[s | bit(j)]
        for s in all_bundles(spec.m)
        for j in range(spec.m)
        if not s & bit(j)
    ):
        raise TaxationViolation(
            f"{spec.mech_id}: extracted prices for player {i} are not monotone"
        )
    return normalize_menu(check)


def default_price_run(spec: MechanismSpec, i: int, v_minus_i: Sequence[Valuation], s: int) -> PriceRun:
    """Fallback price protocol: a single probe run; its transcript is the
    mechanism's transcript on the probe profile."""
    probe = probe_valuation(spec.m, s, spec.bound)
    res = run_mechanism(spec, insert_player(v_minus_i, i, probe))
    won = res.allocation[i]
    price = res.payments[i] if contains(won, s) else INF
    tokens = tuple(
        (tok[0], (tok[1], tok[2]), 1 << tok[3]) for tok in res.transcript.tokens
    )
    return PriceRun(price, tokens)


def price_run(spec: MechanismSpec, i: int, v_minus_i: Sequence[Valuation], s: int) -> PriceRun:
    if spec.price_protocol is not None:
        return spec.price_protocol(spec, i, v_minus_i, s)
    return default_price_run(spec, i, v_minus_i, s)


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
    menu_counts: tuple[int, ...] = ()
    menus: tuple[tuple[Menu, ...], ...] = field(default=(), compare=False, repr=False)

    def row(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "m": self.m,
            "n": self.n,
            "tax": self.tax,
            "cc": self.cc,
            "price": self.price,
            "tie": self.tie,
            "mc": self.mc,
            "val": self.val,
            "dem": self.dem,
            "d": self.d,
            "valid": self.valid,
        }


def log2_ceil(count: int) -> int:
    return (count - 1).bit_length() if count > 0 else 0


class Session:
    """The memoized oracle layer over one (mechanism, catalog) pair.

    Every suite that studies a mechanism on its catalog asks the same
    questions (a run on a profile, the menu some v_minus presents, one
    price-protocol run), so they share one Session and each answer is
    computed once.  Memo keys hold valuations by object identity, not by
    their Fraction tables, which are slow to hash; every entry keeps its
    valuations alive, so an id in a key cannot be reused.  A valuation
    equal to but not the same object as a memoized one is only a miss.
    """

    def __init__(self, spec: MechanismSpec, catalog: ValuationCatalog):
        if catalog.n != spec.n or catalog.m != spec.m:
            raise DomainError("catalog shape must match the mechanism")
        self.spec = spec
        self.catalog = catalog
        self._runs: dict[tuple, tuple] = {}
        self._menus: dict[tuple, tuple] = {}
        self._prices: dict[tuple, tuple] = {}
        self._menu_lists: dict[int, tuple[Menu, ...]] = {}
        self._report: Optional[ComplexityReport] = None

    def run(self, profile: Sequence[Valuation]) -> RunResult:
        key = tuple(map(id, profile))
        hit = self._runs.get(key)
        if hit is None:
            hit = self._runs[key] = (tuple(profile), run_mechanism(self.spec, profile))
        return hit[1]

    def menu(self, i: int, v_minus_i: Sequence[Valuation]) -> Menu:
        key = (i, *map(id, v_minus_i))
        hit = self._menus.get(key)
        if hit is None:
            hit = self._menus[key] = (tuple(v_minus_i), extract_menu(self.spec, i, v_minus_i))
        return hit[1]

    def price_run(self, i: int, v_minus_i: Sequence[Valuation], s: int) -> PriceRun:
        key = (i, s, *map(id, v_minus_i))
        hit = self._prices.get(key)
        if hit is None:
            hit = self._prices[key] = (tuple(v_minus_i), price_run(self.spec, i, v_minus_i, s))
        return hit[1]

    def others(self, i: int) -> Iterator[tuple[Valuation, ...]]:
        """Every catalog v_minus_i, row-major."""
        return product(*self.catalog.players[:i], *self.catalog.players[i + 1:])

    def menus(self, i: int) -> tuple[Menu, ...]:
        """The distinct menus player i can face, in canonical order."""
        if i not in self._menu_lists:
            seen = {}
            for v_minus in self.others(i):
                menu = self.menu(i, v_minus)
                seen[menu.price] = menu
            self._menu_lists[i] = tuple(sorted(seen.values(), key=Menu.sort_key))
        return self._menu_lists[i]

    def report(self) -> ComplexityReport:
        if self._report is None:
            self._report = measure_complexities(self.spec, self.catalog, self)
        return self._report


def measure_complexities(spec: MechanismSpec, catalog: ValuationCatalog,
                         session: Optional[Session] = None) -> ComplexityReport:
    """Enumerate all profiles: distinct menus per player, transcript and
    query maxima, declared price/tie protocol costs, and the per-profile
    taxation-principle check.  A given session (over the same spec and
    catalog) lends its memos."""
    if session is None:
        session = Session(spec, catalog)

    cc = 0
    val = 0
    dem = 0
    tie_bits = 0
    valid = True
    witness = None
    for profile in catalog.profiles():
        res = run_mechanism(spec, profile)  # each profile runs once here
        cc = max(cc, res.transcript.bits)
        val = max(val, res.qlog.total_value)
        dem = max(dem, res.qlog.total_demand)
        tie_bits = max(tie_bits, spec.tie_cost(profile))
        for i in range(spec.n):
            menu = session.menu(i, profile[:i] + profile[i + 1:])
            argmax = profit_argmax_set(menu, profile[i])
            ok = res.allocation[i] in argmax and res.payments[i] == menu.price[res.allocation[i]]
            if not ok and valid:
                valid = False
                witness = f"player {i}, profile {[str(v.table) for v in profile]}"

    per_player_menus = [session.menus(i) for i in range(spec.n)]
    menu_counts = tuple(len(ms) for ms in per_player_menus)
    tax = max(log2_ceil(c) for c in menu_counts)

    mc = 0
    prices_seen = set()
    for ms in per_player_menus:
        for menu in ms:
            mc = max(mc, menu_complexity(menu)[0])
            for p in menu.price:
                if is_finite(p):
                    prices_seen.add(p)
                if is_finite(p) and p > spec.bound:
                    raise ContractError(
                        f"{spec.mech_id}: extracted price {p} exceeds declared bound {spec.bound}"
                    )

    price_bits = max(
        session.price_run(i, v_minus, s).bits
        for i in range(spec.n)
        for v_minus in session.others(i)
        for s in all_bundles(spec.m)
    )

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
        d=len(prices_seen),
        valid=valid,
        witness=witness,
        menu_counts=menu_counts,
        menus=tuple(per_player_menus),
    )
