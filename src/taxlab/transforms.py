"""Solution-concept transformations for two-player mechanisms.

to_dominant_run wraps a truthful mechanism in the announce-then-play
protocol: both players announce the menu they present and a profit-
maximizing bundle from the menu announced to them, then the inner
mechanism runs.  If the transcript is consistent with some pair of
catalog valuations the inner outcome stands; otherwise the player whose
message first broke consistency gets nothing and the other receives the
bundle they announced at its announced-menu price.

to_simultaneous compiles a precise mechanism (singleton profit argmax
everywhere) into a one-round algorithm: each player announces only their
presented-menu index and the center unions the possible winnings.
strictify manufactures preciseness by tilting values by size and adding
seeded grid noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Union

from .bundles import all_bundles, grand, size
from .menus import Menu, profit_argmax_set
from .protocol import MechanismSpec, RunResult, Session, log2_ceil
from .rational import Price, common_denominator, is_finite
from .rng import stream
from .valuations import DomainError, Valuation, ValuationCatalog

ZERO = Fraction(0)  # the payment of whoever wins nothing, shared by every verdict


class PrecisionError(ValueError):
    """The mechanism is not precise on the given catalogs."""


@dataclass(frozen=True)
class DeviationStrategy:
    """A non-truthful way to play the wrapper: lie about the presented
    menu, announce an arbitrary bundle, and run the inner mechanism as
    some catalog valuation would."""

    menu_index: int
    bundle: int
    inner: Valuation


Strategy = Union[str, DeviationStrategy]  # "truthful" or a deviation


@dataclass(frozen=True)
class TwoPlayerTables:
    """Public structure the wrapper needs: each player's possible presented
    menus (sorted canonically) and the map from valuation to menu index,
    over the session whose memoized runs the wrapper plays."""

    session: Session
    presented: tuple[tuple[Menu, ...], tuple[Menu, ...]]  # menus presented BY player i
    index_of: tuple[dict, dict]  # a valuation's scaled_table -> index into presented[i]
    tax_bits: int

    @property
    def spec(self) -> MechanismSpec:
        return self.session.spec

    @property
    def catalog(self) -> ValuationCatalog:
        return self.session.catalog

    @cached_property
    def truthful_prefixes(self) -> frozenset[tuple]:
        """Every nonempty prefix of a truthful wrapper transcript over the
        catalog pairs.  A run's culprit owns its first message whose prefix
        is not in here; an out-of-range menu index never is."""
        out = set()
        for profile in self.catalog.profiles():
            msgs = _messages(*_play(self, profile, ("truthful", "truthful")))
            out.update(tuple(msgs[:k]) for k in range(1, len(msgs) + 1))
        return frozenset(out)


def build_tables(session: Session) -> TwoPlayerTables:
    if session.spec.n != 2:
        raise DomainError("the transformation handles two-player mechanisms")
    presented = []
    index_of = []
    for i in (0, 1):
        other = 1 - i
        menus = session.menus(other)
        position = {menu.price: k for k, menu in enumerate(menus)}
        presented.append(menus)
        index_of.append({v.scaled_table: position[session.menu(other, (v,)).price]
                         for v in session.catalog.players[i]})
    tax_bits = max(log2_ceil(len(presented[0])), log2_ceil(len(presented[1])), 1)
    return TwoPlayerTables(session, (presented[0], presented[1]),
                           (index_of[0], index_of[1]), tax_bits)


@dataclass(frozen=True)
class WrapperOutcome:
    allocation: tuple[int, int]
    payments: tuple[Price, Price]
    bits_constructed: int  # 2(tax+m) + inner run bits
    bits_theorem: int      # 2(tax+m) + declared tie bits
    inconsistent: Optional[int]


def truthful_bundle(tables: TwoPlayerTables, i: int, v: Valuation, faced_idx: int) -> int:
    """The bundle player i announces truthfully as v when the other player
    announced menu index faced_idx: its profit argmax, or the empty bundle
    when the index is out of range."""
    menus = tables.presented[1 - i]
    return profit_argmax_set(menus[faced_idx], v)[0] if 0 <= faced_idx < len(menus) else 0


def _messages(menu_idx, bundles, inner: Optional[RunResult] = None) -> list[tuple]:
    """The wrapper transcript: the four announcements, then the inner run's
    tokens when it was played."""
    msgs = [("menu", 0, menu_idx[0]), ("menu", 1, menu_idx[1]),
            ("bundle", 0, bundles[0]), ("bundle", 1, bundles[1])]
    if inner is not None:
        msgs += [("inner", tok[0], tok[:3]) for tok in inner.transcript.tokens]
    return msgs


def _play(tables: TwoPlayerTables, profile, strategies):
    """Each player's announced menu index and bundle, and the inner run, as
    played."""
    menu_idx = tuple(tables.index_of[i][profile[i].scaled_table] if strategies[i] == "truthful"
                     else strategies[i].menu_index for i in (0, 1))
    bundles = tuple(truthful_bundle(tables, i, profile[i], menu_idx[1 - i])
                    if strategies[i] == "truthful" else strategies[i].bundle for i in (0, 1))
    inner = tables.session.run(tuple(
        profile[i] if strategies[i] == "truthful" else strategies[i].inner for i in (0, 1)))
    return menu_idx, bundles, inner


def settle(tables: TwoPlayerTables, menu_idx, bundles, inner: Optional[RunResult] = None):
    """The wrapper's verdict as (culprit, allocation, payments).  The
    culprit owns the first message whose prefix is on no truthful
    transcript; they get nothing, and the other player wins the bundle they
    announced at its price in the menu the culprit announced (nothing at an
    infinite or out-of-range price).  With no culprit the inner outcome
    stands.  Without `inner`, None when the four announcements stay on a
    truthful transcript, so that only the inner run can settle it."""
    msgs = _messages(menu_idx, bundles, inner)
    prefixes = tables.truthful_prefixes
    culprit = next((msg[1] for k, msg in enumerate(msgs)
                    if tuple(msgs[:k + 1]) not in prefixes), None)
    if culprit is None:
        return None if inner is None else (None, inner.allocation, inner.payments)
    winner = 1 - culprit
    menus = tables.presented[culprit]
    t_w = bundles[winner]
    price = menus[menu_idx[culprit]].price[t_w] if 0 <= menu_idx[culprit] < len(menus) else None
    allocation = [0, 0]
    payments = [ZERO, ZERO]
    if price is not None and is_finite(price):
        allocation[winner] = t_w
        payments[winner] = price
    return culprit, tuple(allocation), tuple(payments)


@dataclass(frozen=True)
class DominantRun:
    outcome: WrapperOutcome
    menu_idx: tuple[int, int]
    bundles: tuple[int, int]


def to_dominant_run(tables: TwoPlayerTables, profile, strategies) -> DominantRun:
    """One run of the wrapper under the given strategies ("truthful" or a
    DeviationStrategy per player), with both communication accountings."""
    spec = tables.spec
    for i in (0, 1):
        if strategies[i] != "truthful" and not isinstance(strategies[i], DeviationStrategy):
            raise DomainError("strategies are 'truthful' or DeviationStrategy")
    menu_idx, bundles, inner = _play(tables, profile, strategies)
    culprit, allocation, payments = settle(tables, menu_idx, bundles, inner)
    announce_bits = 2 * (tables.tax_bits + spec.m)
    outcome = WrapperOutcome(
        allocation=allocation,
        payments=payments,
        bits_constructed=announce_bits + inner.transcript.bits,
        bits_theorem=announce_bits + spec.tie_cost(profile),
        inconsistent=culprit,
    )
    return DominantRun(outcome, menu_idx, bundles)


def deviation_family(tables: TwoPlayerTables, i: int) -> list[DeviationStrategy]:
    """Every menu-lie x bundle-lie x type-misreport available to player i."""
    out = []
    for idx in range(len(tables.presented[i])):
        for bundle in all_bundles(tables.spec.m):
            for inner in tables.catalog.players[i]:
                out.append(DeviationStrategy(idx, bundle, inner))
    return out


@dataclass(frozen=True)
class AuditRow:
    player: int
    valuation: int
    opponent: str
    deviation: int
    truthful_utility: Fraction
    deviating_utility: Fraction

    @property
    def gap(self) -> Fraction:
        return self.deviating_utility - self.truthful_utility


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]
    max_gap: Fraction
    worst: Optional[AuditRow]

    @property
    def clean(self) -> bool:
        return self.max_gap <= 0


def _seated(i: int, mine, theirs) -> tuple:
    """The pair with `mine` in seat i and `theirs` in the other seat."""
    return (mine, theirs) if i == 0 else (theirs, mine)


class _Outcomes:
    """Player i's side of the audit: the distinct (won, paid) outcomes they
    meet, numbered by first occurrence, and the outcome each set of four
    announcements settles (None when only the inner run can)."""

    def __init__(self, tables: TwoPlayerTables, i: int):
        self.tables = tables
        self.i = i
        self.outcomes: list[tuple[int, Price]] = []
        self._ids: dict[tuple, int] = {}
        self._settled: dict[tuple, Optional[int]] = {}
        faced = range(len(tables.presented[1 - i]))
        self._truthful = [(tables.index_of[i][v.scaled_table],
                           [truthful_bundle(tables, i, v, k) for k in faced])
                          for v in tables.catalog.players[i]]

    def _id(self, allocation, payments) -> int:
        key = (allocation[self.i], payments[self.i])
        oid = self._ids.get(key)
        if oid is None:
            oid = self._ids[key] = len(self.outcomes)
            self.outcomes.append(key)
        return oid

    def announced(self, mine: tuple[int, int], theirs: tuple[int, int]) -> Optional[int]:
        """The outcome of four announcements, each side's (menu index,
        bundle), or None when they stay on a truthful transcript."""
        key = mine + theirs
        if key not in self._settled:
            verdict = settle(self.tables, _seated(self.i, mine[0], theirs[0]),
                             _seated(self.i, mine[1], theirs[1]))
            self._settled[key] = None if verdict is None else self._id(*verdict[1:])
        return self._settled[key]

    def played(self, profile, strategies) -> int:
        run = to_dominant_run(self.tables, profile, strategies).outcome
        return self._id(run.allocation, run.payments)

    def against(self, opp_strategy: Strategy, opp_valuation: Valuation):
        """Player i's outcomes against one opponent behavior: the truthful
        outcome per valuation, the outcome per (menu index, bundle) of the
        deviation family (one id when the announcements settle it, else one
        per inner valuation), and each outcome's first deviation."""
        i, tables = self.i, self.tables
        faced_by_them = range(len(tables.presented[i]))
        if opp_strategy == "truthful":
            opp_menu = tables.index_of[1 - i][opp_valuation.scaled_table]
            opp_bundles = [truthful_bundle(tables, 1 - i, opp_valuation, k) for k in faced_by_them]
        else:
            opp_menu = opp_strategy.menu_index
            opp_bundles = [opp_strategy.bundle for _ in faced_by_them]
        valuations = tables.catalog.players[i]
        n = len(valuations)
        truthful = []
        for (menu, bundles), v in zip(self._truthful, valuations):
            oid = self.announced((menu, bundles[opp_menu]), (opp_menu, opp_bundles[menu]))
            if oid is None:
                oid = self.played(_seated(i, v, opp_valuation),
                                  _seated(i, "truthful", opp_strategy))
            truthful.append(oid)
        layout: list = []
        first: dict[int, int] = {}
        for menu in faced_by_them:
            theirs = (opp_menu, opp_bundles[menu])
            for bundle in all_bundles(tables.spec.m):
                oid = self.announced((menu, bundle), theirs)
                if oid is None:
                    oid = [self.played(_seated(i, valuations[0], opp_valuation),
                                       _seated(i, DeviationStrategy(menu, bundle, inner),
                                               opp_strategy))
                           for inner in valuations]
                    for k, each in enumerate(oid):
                        first.setdefault(each, len(layout) * n + k)
                else:
                    first.setdefault(oid, len(layout) * n)
                layout.append(oid)
        return truthful, layout, first


def deviation_audit(tables: TwoPlayerTables, keep_rows: bool = False) -> AuditReport:
    """Dominance check over the deviation family: for every player, true
    valuation, opponent behavior (truthful as each catalog valuation, or
    any DeviationStrategy, which pins the opponent's play outright), and
    own deviation, truthful play must pay at least as much as deviating.

    A deviating player's outcome never depends on their own valuation, and
    when the four announcements already name a culprit it does not depend
    on the misreported inner valuation either: each (menu index, bundle)
    is settled once per opponent, and only deviations consistent with a
    truthful transcript play the inner mechanism.  Every valuation is then
    weighed once per distinct (won, paid) outcome, in integers over one
    denominator.  Rows and the worst row (the first deviation of the
    largest gap) follow (player, valuation, opponent, deviation) order."""
    rows: list[AuditRow] = []
    worst: Optional[AuditRow] = None
    for i in (0, 1):
        other = 1 - i
        valuations = tables.catalog.players[i]
        n = len(valuations)
        theirs = tables.catalog.players[other]
        side = _Outcomes(tables, i)
        opponents = [(f"truthful:{k}", "truthful", w) for k, w in enumerate(theirs)] + [
            (f"dev:{k}", dev, theirs[0]) for k, dev in enumerate(deviation_family(tables, other))]
        met = [(label, side.against(strategy, w)) for label, strategy, w in opponents]
        if not all(is_finite(paid) for _, paid in side.outcomes):
            raise DomainError("infinite payment cannot enter a utility")
        d_paid, paid = common_denominator([paid for _, paid in side.outcomes])
        for vi, v in enumerate(valuations):
            d_v, table = v.scaled_table
            d = lcm(d_v, d_paid)
            u = [table[won] * (d // d_v) - p * (d // d_paid)
                 for (won, _), p in zip(side.outcomes, paid)]
            top = None  # (gap, opponent, deviation, truthful and deviating utility)
            for label, (truthful, layout, first) in met:
                u_truth = u[truthful[vi]]
                gaps = {oid: u[oid] - u_truth for oid in first}
                for oid, dev in first.items():
                    if top is None or gaps[oid] > top[0]:
                        top = (gaps[oid], label, dev, u_truth, u[oid])
                if not keep_rows and max(gaps.values()) <= 0:
                    continue
                truth = Fraction(u_truth, d)
                for pos, oids in enumerate(layout):
                    for k, oid in enumerate(oids if isinstance(oids, list) else [oids] * n):
                        if keep_rows or gaps[oid] > 0:
                            rows.append(AuditRow(i, vi, label, pos * n + k,
                                                 truth, Fraction(u[oid], d)))
            row = AuditRow(i, vi, top[1], top[2], Fraction(top[3], d), Fraction(top[4], d))
            if worst is None or row.gap > worst.gap:
                worst = row
    return AuditReport(tuple(rows), worst.gap if worst is not None else Fraction(0), worst)


def size_tilt(v: Valuation, eps: Fraction) -> Valuation:
    """Add eps*|S|/(2m) to every bundle: subsets become strictly cheaper
    than supersets while staying within eps/2 of the original."""
    unit = eps / (2 * v.m)
    table = tuple(
        v.table[s] + unit * size(s) if s else Fraction(0) for s in all_bundles(v.m)
    )
    return Valuation(v.m, table)


def default_eps(v: Valuation) -> Fraction:
    top = v.max_value()
    return Fraction(1, 4) / top if top > 0 else Fraction(1, 4)


def strictify(v: Valuation, grid_l: int, seed: int, eps: Optional[Fraction] = None) -> Valuation:
    """Size tilt plus seeded per-bundle noise from the grid_l rationals in
    [0, eps/(2m)]: profit ties break while every value moves by at most
    eps."""
    if grid_l < 2:
        raise DomainError("the noise grid needs at least two points")
    if eps is None:
        eps = default_eps(v)
    if eps <= 0:
        raise DomainError("eps must be positive")
    tilted = size_tilt(v, eps)
    rng = stream(seed, "strictify")
    unit = eps / (2 * v.m)
    table = []
    for s in all_bundles(v.m):
        if s == 0:
            table.append(Fraction(0))
            continue
        noise = unit * Fraction(rng.randrange(grid_l), grid_l - 1)
        table.append(tilted.table[s] + noise)
    return Valuation(v.m, tuple(table))


def default_grid_l(m: int, tax_bits: int) -> int:
    return (1 << (2 * m + tax_bits)) + 1


def reachable_menus(tables: TwoPlayerTables, i: int) -> tuple[Menu, ...]:
    """Menus player i may face: those presented by the other player."""
    return tables.presented[1 - i]


def is_precise(tables: TwoPlayerTables) -> Optional[str]:
    """None when every catalog valuation has a singleton argmax against
    every reachable menu; else a description of the violation."""
    for i in (0, 1):
        for menu in reachable_menus(tables, i):
            for v in tables.catalog.players[i]:
                arg = profit_argmax_set(menu, v)
                if len(arg) != 1:
                    return (f"player {i} valuation {v.table} has "
                            f"{len(arg)} profit maximizers")
    return None


STRICTIFY_ROUNDS = 16  # menu re-extractions before the catalog must be stable
STRICTIFY_RESAMPLES = 100  # fresh strictifications per valuation and round


def strictify_catalog(spec: MechanismSpec, catalog: ValuationCatalog, seed: int = 0,
                      stats: Optional[dict] = None) -> TwoPlayerTables:
    """Strictify every catalog valuation until the mechanism is precise on
    the strictified catalog itself.  Menus are re-extracted each round
    (strictifying one side can move the menus the other side faces);
    collisions resample with derived seeds.  Returns the final round's
    tables, whose `catalog` is the strictified catalog."""
    grid_l = default_grid_l(spec.m, log2_ceil(max(len(g) for g in catalog.players)))
    attempts = [[0] * len(g) for g in catalog.players]

    def sample(i: int, idx: int) -> Valuation:
        s = stream(seed, "strictify-catalog", i, idx, attempts[i][idx]).randrange(1 << 30)
        return strictify(catalog.players[i][idx], grid_l, s)

    players = [[sample(i, idx) for idx in range(len(catalog.players[i]))]
               for i in (0, 1)]
    for _round in range(STRICTIFY_ROUNDS):
        cat = ValuationCatalog((tuple(players[0]), tuple(players[1])))
        tables = build_tables(Session(spec, cat))
        dirty = False
        for i in (0, 1):
            menus = reachable_menus(tables, i)
            for idx, v in enumerate(players[i]):
                if all(len(profit_argmax_set(menu, v)) == 1 for menu in menus):
                    continue
                for _ in range(STRICTIFY_RESAMPLES):
                    attempts[i][idx] += 1
                    cand = sample(i, idx)
                    if all(len(profit_argmax_set(menu, cand)) == 1 for menu in menus):
                        players[i][idx] = cand
                        dirty = True
                        break
                else:
                    raise PrecisionError("could not reach a singleton argmax by resampling")
        if not dirty:
            if stats is not None:
                stats["max_resamples"] = max(max(g) for g in attempts)
            return tables
    raise PrecisionError("strictified catalog did not stabilize")


@dataclass(frozen=True)
class SimultaneousTable:
    """For each (menu faced by player 1, menu presented by player 1):
    the union of bundles player 1 might win."""

    tables: TwoPlayerTables
    union_win: dict

    def run(self, profile) -> tuple[tuple[int, int], int]:
        t = self.tables
        idx1 = t.index_of[0][profile[0].scaled_table]  # menu player 1 presents
        idx2 = t.index_of[1][profile[1].scaled_table]  # menu player 2 presents
        s1 = self.union_win[(idx2, idx1)]
        return (s1, grand(t.spec.m) & ~s1), 2 * t.tax_bits


def to_simultaneous(tables: TwoPlayerTables) -> SimultaneousTable:
    """Compile a precise mechanism into the one-round protocol; the output
    allocation always contains the mechanism's allocation sidewise."""
    flaw = is_precise(tables)
    if flaw is not None:
        raise PrecisionError(flaw)
    union_win: dict = {}
    for faced_idx, faced in enumerate(tables.presented[1]):
        for shown_idx in range(len(tables.presented[0])):
            mask = 0
            for v in tables.catalog.players[0]:
                if tables.index_of[0][v.scaled_table] != shown_idx:
                    continue
                mask |= profit_argmax_set(faced, v)[0]
            union_win[(faced_idx, shown_idx)] = mask
    return SimultaneousTable(tables, union_win)
