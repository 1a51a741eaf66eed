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
from typing import Optional, Union

from .bundles import all_bundles, grand, size
from .menus import Menu, profit_argmax_set
from .protocol import MechanismSpec, Session, log2_ceil
from .rational import Price, is_finite
from .rng import stream
from .valuations import DomainError, Valuation, ValuationCatalog


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
    index_of: tuple[dict, dict]  # valuation table -> index into presented[i]
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
            msgs = _wrapper_messages(self, profile, ("truthful", "truthful"))[0]
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
        index_of.append({v.table: position[session.menu(other, (v,)).price]
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


def _wrapper_messages(tables: TwoPlayerTables, profile, strategies):
    """The four announcements plus the inner run, as played."""
    msgs = []
    menu_idx = []
    for i in (0, 1):
        s = strategies[i]
        if s == "truthful":
            menu_idx.append(tables.index_of[i][profile[i].table])
        else:
            menu_idx.append(s.menu_index)
        msgs.append(("menu", i, menu_idx[i]))
    bundles = []
    for i in (0, 1):
        s = strategies[i]
        other = 1 - i
        if s != "truthful":
            bundles.append(s.bundle)
        elif 0 <= menu_idx[other] < len(tables.presented[other]):
            bundles.append(profit_argmax_set(tables.presented[other][menu_idx[other]],
                                             profile[i])[0])
        else:
            bundles.append(0)  # the menu faced is out of range
        msgs.append(("bundle", i, bundles[i]))
    inner_profile = tuple(
        profile[i] if strategies[i] == "truthful" else strategies[i].inner
        for i in (0, 1)
    )
    inner = tables.session.run(inner_profile)
    for tok in inner.transcript.tokens:
        msgs.append(("inner", tok[0], tok[:3]))
    return msgs, menu_idx, bundles, inner


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
    msgs, menu_idx, bundles, inner = _wrapper_messages(tables, profile, strategies)
    prefixes = tables.truthful_prefixes
    culprit = next((msg[1] for k, msg in enumerate(msgs)
                    if tuple(msgs[:k + 1]) not in prefixes), None)

    m = spec.m
    announce_bits = 2 * (tables.tax_bits + m)
    bits_constructed = announce_bits + inner.transcript.bits
    bits_theorem = announce_bits + spec.tie_cost(profile)

    if culprit is None:
        allocation = inner.allocation
        payments = inner.payments
    else:
        winner = 1 - culprit
        faced = tables.presented[culprit][menu_idx[culprit]] \
            if 0 <= menu_idx[culprit] < len(tables.presented[culprit]) else None
        t_w = bundles[winner]
        price = faced.price[t_w] if faced is not None else None
        allocation = [0, 0]
        payments = [Fraction(0), Fraction(0)]
        if price is not None and is_finite(price):
            allocation[winner] = t_w
            payments[winner] = price
        allocation = tuple(allocation)
        payments = tuple(payments)

    outcome = WrapperOutcome(
        allocation=allocation,
        payments=payments,
        bits_constructed=bits_constructed,
        bits_theorem=bits_theorem,
        inconsistent=culprit,
    )
    return DominantRun(outcome, tuple(menu_idx), tuple(bundles))


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


def utility(v: Valuation, allocation: int, payment: Price) -> Fraction:
    if not is_finite(payment):
        raise DomainError("infinite payment cannot enter a utility")
    return v.value(allocation) - payment


def _seated(i: int, mine, theirs) -> tuple:
    """The pair with `mine` in seat i and `theirs` in the other seat."""
    return (mine, theirs) if i == 0 else (theirs, mine)


def deviation_audit(tables: TwoPlayerTables, keep_rows: bool = False) -> AuditReport:
    """Dominance check over the deviation family: for every player, true
    valuation, opponent behavior (truthful as each catalog valuation, or
    any DeviationStrategy, which pins the opponent's play outright), and
    own deviation, truthful play must pay at least as much as deviating.

    A deviating player's outcome depends on the opponent's behavior and
    the deviation, never on their own valuation: each is computed once and
    weighed by every valuation of theirs.  Rows and the worst row (the
    first of the largest gap) follow (player, valuation, opponent,
    deviation) order."""
    rows: list[AuditRow] = []
    worst: Optional[AuditRow] = None
    for i in (0, 1):
        other = 1 - i
        valuations = tables.catalog.players[i]
        my_devs = deviation_family(tables, i)
        opponents: list[tuple[str, Strategy, Valuation]] = [
            (f"truthful:{k}", "truthful", w)
            for k, w in enumerate(tables.catalog.players[other])
        ] + [
            (f"dev:{k}", dev, tables.catalog.players[other][0])
            for k, dev in enumerate(deviation_family(tables, other))
        ]
        kept: list[list[AuditRow]] = [[] for _ in valuations]
        top_gap: list[Optional[Fraction]] = [None] * len(valuations)
        top_row: list[Optional[AuditRow]] = [None] * len(valuations)
        for opp_label, opp_strategy, opp_valuation in opponents:
            deviated = []  # player i's (bundle, payment) per deviation
            for dev in my_devs:
                alt = to_dominant_run(tables, _seated(i, valuations[0], opp_valuation),
                                      _seated(i, dev, opp_strategy)).outcome
                deviated.append((alt.allocation[i], alt.payments[i]))
            for vi_idx, v_i in enumerate(valuations):
                base = to_dominant_run(tables, _seated(i, v_i, opp_valuation),
                                       _seated(i, "truthful", opp_strategy)).outcome
                u_truth = utility(v_i, base.allocation[i], base.payments[i])
                for dev_idx, (won, paid) in enumerate(deviated):
                    u_dev = utility(v_i, won, paid)
                    gap = u_dev - u_truth
                    new_top = top_gap[vi_idx] is None or gap > top_gap[vi_idx]
                    if keep_rows or gap > 0 or new_top:
                        row = AuditRow(i, vi_idx, opp_label, dev_idx, u_truth, u_dev)
                        if keep_rows or gap > 0:
                            kept[vi_idx].append(row)
                        if new_top:
                            top_gap[vi_idx] = gap
                            top_row[vi_idx] = row
        for part, gap, row in zip(kept, top_gap, top_row):
            rows.extend(part)
            if worst is None or gap > worst.gap:
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


def strictify_catalog(spec: MechanismSpec, catalog: ValuationCatalog, seed: int = 0,
                      max_rounds: int = 16, max_resamples: int = 100,
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
    for _round in range(max_rounds):
        cat = ValuationCatalog((tuple(players[0]), tuple(players[1])))
        tables = build_tables(Session(spec, cat))
        dirty = False
        for i in (0, 1):
            menus = reachable_menus(tables, i)
            for idx, v in enumerate(players[i]):
                if all(len(profit_argmax_set(menu, v)) == 1 for menu in menus):
                    continue
                for _ in range(max_resamples):
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
        idx1 = t.index_of[0][profile[0].table]  # menu player 1 presents
        idx2 = t.index_of[1][profile[1].table]  # menu player 2 presents
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
                if tables.index_of[0][v.table] != shown_idx:
                    continue
                mask |= profit_argmax_set(faced, v)[0]
            union_win[(faced_idx, shown_idx)] = mask
    return SimultaneousTable(tables, union_win)
