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
from itertools import product
from math import lcm
from operator import itemgetter
from typing import NamedTuple, Optional

from .bundles import grand, subset_sums
from .menus import Menu, profit_argmax_set
from .protocol import MechanismSpec, RunResult, Session, log2_ceil
from .rational import Price, common_denominator, is_finite
from .rng import below, stream
from .valuations import DomainError, Valuation, ValuationCatalog, valuation_from_ints

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
    def argmax(self) -> tuple:
        """Per player i, catalog index a and faced menu index k: the profit
        argmax set of catalog valuation a against presented[1 - i][k]."""
        return tuple(tuple(tuple(tuple(profit_argmax_set(menu, v))
                                 for menu in self.presented[1 - i])
                           for v in self.catalog.players[i]) for i in (0, 1))

    @cached_property
    def plays(self) -> TruthfulPlays:
        """The truthful plays over the catalog by index, built on first use:
        each argmax's first bundle and one session run per catalog profile."""
        players = self.catalog.players
        menus = tuple(tuple(self.index_of[i][v.scaled_table] for v in players[i]) for i in (0, 1))
        bundles = tuple(tuple(tuple(arg[0] for arg in row) for row in rows) for rows in self.argmax)
        profiles = {}
        for a, b in product(range(len(players[0])), range(len(players[1]))):
            run = self.session.run((players[0][a], players[1][b]))
            profiles[a, b] = TruthfulPlay(tuple(_inner_messages(run)), run.allocation,
                                          run.payments)
        return TruthfulPlays(menus, bundles, profiles)

    @cached_property
    def truthful_trie(self) -> dict:
        """The truthful wrapper transcripts over the catalog pairs as a
        nested dict, one level per message: the two menu indices, the two
        bundles, then the inner run's (player, kind, payload) tokens.  A
        run's culprit owns its first message with no child here; an
        out-of-range menu index never has one."""
        menus, bundles, profiles = self.plays.menus, self.plays.bundles, self.plays.profiles
        trie: dict = {}
        for (a, b), play in profiles.items():
            node = trie
            k, j = menus[0][a], menus[1][b]
            for key in (k, j, bundles[0][a][j], bundles[1][b][k],
                        *(key for _, key in play.messages)):
                node = node.setdefault(key, {})
        return trie


class TruthfulPlay(NamedTuple):
    """One catalog profile played truthfully: the inner run's (sender,
    token[:3]) messages and its outcome."""

    messages: tuple[tuple[int, tuple], ...]
    allocation: tuple[int, ...]
    payments: tuple[Price, ...]


@dataclass(frozen=True)
class TruthfulPlays:
    """Truthful play by catalog index: per player i and index a, the menu
    index a announces and the bundle a announces per faced menu index; per
    index pair (a, b), the profile's `TruthfulPlay`."""

    menus: tuple[tuple[int, ...], tuple[int, ...]]
    bundles: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
    profiles: dict[tuple[int, int], TruthfulPlay]


def build_tables(session: Session) -> TwoPlayerTables:
    if session.spec.n != 2:
        raise DomainError("the transformation handles two-player mechanisms")
    presented = []
    index_of = []
    for i in (0, 1):
        other = 1 - i
        menus = session.menus(other)
        position = {menu: k for k, menu in enumerate(menus)}
        presented.append(menus)
        index_of.append({v.scaled_table: position[session.menu(other, (v,))]
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
    bundles: tuple[int, int]  # the two announced bundles


def truthful_bundle(tables: TwoPlayerTables, i: int, v: Valuation, faced_idx: int) -> int:
    """The bundle player i announces truthfully as v when the other player
    announced menu index faced_idx: its profit argmax, or the empty bundle
    when the index is out of range."""
    menus = tables.presented[1 - i]
    return profit_argmax_set(menus[faced_idx], v)[0] if 0 <= faced_idx < len(menus) else 0


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


def _walk(node: dict, messages) -> tuple[Optional[int], dict]:
    """Follow (sender, key) messages down the trie: the sender of the first
    message with no child (None when every message has one), and the node
    reached."""
    for sender, key in messages:
        child = node.get(key)
        if child is None:
            return sender, node
        node = child
    return None, node


def _inner_messages(inner: RunResult):
    return ((tok[0], tok[:3]) for tok in inner.tokens)


def settle(tables: TwoPlayerTables, menu_idx, bundles, inner: RunResult):
    """The wrapper's verdict as (culprit, allocation, payments).  The
    culprit sends the first message that leaves the truthful-transcript
    trie; they get nothing, and the other player wins the bundle they
    announced at its price in the menu the culprit announced (nothing at an
    infinite or out-of-range price).  With no culprit the inner outcome
    stands."""
    culprit, node = _walk(tables.truthful_trie, zip((0, 1, 0, 1), (*menu_idx, *bundles)))
    if culprit is None:
        culprit, _ = _walk(node, _inner_messages(inner))
        if culprit is None:
            return None, inner.allocation, inner.payments
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


def to_dominant_run(tables: TwoPlayerTables, profile, strategies) -> WrapperOutcome:
    """One run of the wrapper under the given strategies ("truthful" or a
    DeviationStrategy per player), with both communication accountings."""
    spec = tables.spec
    for s in strategies:
        if s != "truthful" and not isinstance(s, DeviationStrategy):
            raise DomainError("strategies are 'truthful' or DeviationStrategy")
        if s != "truthful" and not 0 <= s.bundle < 1 << spec.m:
            raise DomainError(f"bundle {s.bundle} out of range for m={spec.m}")
    menu_idx, bundles, inner = _play(tables, profile, strategies)
    culprit, allocation, payments = settle(tables, menu_idx, bundles, inner)
    announce_bits = 2 * (tables.tax_bits + spec.m)
    return WrapperOutcome(
        allocation=allocation,
        payments=payments,
        bits_constructed=announce_bits + inner.bits,
        bits_theorem=announce_bits + spec.tie_cost(profile),
        inconsistent=culprit,
        bundles=bundles,
    )


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


PLAY = -1  # a layout position that only the inner run settles


class _Outcomes:
    """Player i's side of the audit: the distinct (won, paid) outcomes they
    can meet, one id each, keyed by (won, numerator, denominator), and the
    inner plays, memoised per four announcements and catalog index pair.
    Valuations are catalog indices throughout: a play walks the stored
    messages of the seated pair's truthful run."""

    def __init__(self, tables: TwoPlayerTables, i: int):
        self.tables = tables
        self.i = i
        self.outcomes: list[tuple[int, Price]] = []
        self._ids: dict[tuple[int, int, int], int] = {}
        self._plays: dict[tuple, int] = {}
        self._wins: dict[int, list[int]] = {}
        self.nothing = self._id(0, ZERO)
        self._nothing_row = [self.nothing] * (1 << tables.spec.m)
        plays = tables.plays
        self._profiles = plays.profiles
        self._truthful = list(zip(plays.menus[i], plays.bundles[i]))

    def _id(self, won: int, paid: Fraction) -> int:
        key = (won, paid.numerator, paid.denominator)
        oid = self._ids.get(key)
        if oid is None:
            oid = self._ids[key] = len(self.outcomes)
            self.outcomes.append((won, paid))
        return oid

    def _win_row(self, opp_menu: int) -> list[int]:
        """Per bundle, i's outcome when the opponent is the culprit: that
        bundle at its price in the menu the opponent announced."""
        row = self._wins.get(opp_menu)
        if row is None:
            row = self._wins[opp_menu] = [
                self._id(t, p) if is_finite(p) else self.nothing
                for t, p in enumerate(self.tables.presented[1 - self.i][opp_menu].price)]
        return row

    def _row(self, menu: int, opp_menu: int, opp_bundle: int) -> tuple[list[int], dict]:
        """i's outcome per bundle at own menu index `menu` against one
        opponent announcement, PLAY where the four announcements stay on the
        trie, and the node each PLAY bundle reached.  The trie's first four
        levels are seat 0's menu, seat 1's menu, seat 0's bundle and seat
        1's bundle.  Every pair of menu indices is on it (each presented
        menu is some catalog valuation's, and each player announces theirs
        alone), so only the bundles can leave it, and only the trie's
        bundles differ from nothing."""
        win, nothing = self._win_row(opp_menu), self._nothing_row
        seat0, seat1 = _seated(self.i, menu, opp_menu)
        node = self.tables.truthful_trie[seat0][seat1]
        if self.i == 0:
            reached = {bundle: child[opp_bundle] for bundle, child in node.items()
                       if opp_bundle in child}
        else:
            node = reached = node.get(opp_bundle)
            if node is None:
                return win, {}
        row = nothing.copy()
        for bundle in node:
            row[bundle] = PLAY if bundle in reached else win[bundle]
        return row, reached

    def _play(self, node: dict, key: tuple, u: int, w: int) -> int:
        """i's outcome when the four announcements `key` (own menu index and
        bundle, then the opponent's) reached `node` and the inner mechanism
        runs as catalog index u for i and w for the opponent."""
        memo = (*key, u, w)
        oid = self._plays.get(memo)
        if oid is None:
            play = self._profiles[_seated(self.i, u, w)]
            culprit, _ = _walk(node, play.messages)
            if culprit is None:
                won, paid = play.allocation[self.i], play.payments[self.i]
                if not is_finite(paid):
                    raise DomainError("infinite payment cannot enter a utility")
                oid = self._id(won, paid)
            elif culprit == self.i:
                oid = self.nothing
            else:
                oid = self._win_row(key[2])[key[1]]
            self._plays[memo] = oid
        return oid

    def on_trie(self, opp_menu: int) -> set[int]:
        """The bundles the opponent announces at menu index opp_menu on some
        truthful transcript, under any of i's menu indices.  Against any
        other bundle every position is settled by the four announcements,
        the same way for each such bundle and inner valuation."""
        trie, own = self.tables.truthful_trie, range(len(self.tables.presented[self.i]))
        if self.i == 0:
            return {bundle for menu in own for child in trie[menu][opp_menu].values()
                    for bundle in child}
        return {bundle for menu in own for bundle in trie[opp_menu][menu]}

    def against(self, opp_menu: int, opp_bundles: list[int], ws) -> list[tuple]:
        """Player i's outcomes against one opponent announcement (a menu
        index, and the bundle announced per menu index i announces), played
        as each inner valuation in ws, a catalog index each: per w, the
        truthful outcome per valuation, the outcome per (menu index, bundle)
        of the deviation family (one id when the announcements settle it,
        else one per inner valuation), and each outcome's first deviation,
        in that order.  With no position on the trie the result is one for
        every w, so one w stands for all."""
        n, width = len(self._truthful), len(self._nothing_row)
        layout: list = []
        reached = {}  # PLAY position -> (trie node, the four announcements)
        for menu, opp_bundle in enumerate(opp_bundles):
            row, nodes = self._row(menu, opp_menu, opp_bundle)
            for bundle, node in nodes.items():
                reached[len(layout) + bundle] = (node, (menu, bundle, opp_menu, opp_bundle))
            layout += row
        at = dict(zip(reversed(layout), range(len(layout) - 1, -1, -1)))  # first positions
        first = {oid: at[oid] * n for oid in dict.fromkeys(layout) if oid != PLAY}
        out = []
        for w in ws:
            truthful = []
            for v, (menu, bundles) in enumerate(self._truthful):
                pos = menu * width + bundles[opp_menu]
                truthful.append(layout[pos] if layout[pos] != PLAY
                                else self._play(*reached[pos], v, w))
            if not reached:
                out.append((truthful, layout, first))
                continue
            mine, met = layout.copy(), dict(first)
            for pos, (node, key) in reached.items():
                mine[pos] = oids = [self._play(node, key, u, w) for u in range(n)]
                for k, oid in enumerate(oids):
                    met[oid] = min(met.get(oid, pos * n + k), pos * n + k)
            out.append((truthful, mine, dict(sorted(met.items(), key=itemgetter(1)))))
        return out


def deviation_audit(tables: TwoPlayerTables, keep_rows: bool = False) -> AuditReport:
    """Dominance check over the deviation family: for every player, true
    valuation, opponent behavior (truthful as each catalog valuation, or
    any DeviationStrategy, which pins the opponent's play outright), and
    own deviation, truthful play must pay at least as much as deviating.

    A deviating player's outcome never depends on their own valuation, and
    when the four announcements already name a culprit it depends on no
    inner valuation either.  So the opponents are grouped into classes,
    each settled by one `against`: a truthful opponent is a class; per
    opponent menu index, each deviating bundle on the truthful-transcript
    trie is a class over every inner valuation, and every other bundle
    falls into one off-trie class, whose positions the announcements alone
    settle (an opponent-culprit win or an own-culprit nothing).  Each class
    settles each of the player's (menu index, bundle) once on the trie;
    only positions that stay on it play the inner mechanism, once per
    distinct announcements and inner pair.  Every valuation is then weighed
    once per class and distinct (won, paid) outcome, in integers over one
    denominator, the classes in the order of their first opponent label:
    with ties broken toward the first, only that label can be the worst.
    Rows expand per label, in (player, valuation, opponent, deviation)
    order, only with `keep_rows` or when some class shows a gain; the worst
    row is the first deviation of the largest gap."""
    rows: list[AuditRow] = []
    worst: Optional[AuditRow] = None
    width = 1 << tables.spec.m
    plays = tables.plays
    for i in (0, 1):
        other = 1 - i
        valuations = tables.catalog.players[i]
        n = len(valuations)
        theirs = range(len(tables.catalog.players[other]))
        n_opp = len(theirs)
        side = _Outcomes(tables, i)
        own_menus = range(len(tables.presented[i]))
        results = []  # each class's results, in order of their first labels
        for k in theirs:
            results += side.against(plays.menus[other][k], plays.bundles[other][k], [k])
        at = list(theirs)  # per opponent label, in label order, its result's index
        for opp_menu in range(len(tables.presented[other])):
            on, off_at = side.on_trie(opp_menu), None
            for bundle in range(width):
                if bundle in on:
                    at += range(len(results), len(results) + n_opp)
                    results += side.against(opp_menu, [bundle] * len(own_menus), theirs)
                    continue
                if off_at is None:
                    off_at = len(results)
                    results += side.against(opp_menu, [bundle] * len(own_menus), theirs[:1])
                at += [off_at] * n_opp
        lead = dict(zip(reversed(at), range(len(at) - 1, -1, -1)))  # result -> first label

        def label(pos: int) -> str:
            return f"truthful:{pos}" if pos < n_opp else f"dev:{pos - n_opp}"

        d_paid, paid = common_denominator([paid for _, paid in side.outcomes])
        for vi, v in enumerate(valuations):
            d_v, table = v.scaled_table
            d = lcm(d_v, d_paid)
            u = [table[won] * (d // d_v) - p * (d // d_paid)
                 for (won, _), p in zip(side.outcomes, paid)]
            top = None  # (gap, opponent, deviation, truthful and deviating utility)
            truths, gains = [], []
            for r, (truthful, _, first) in enumerate(results):
                u_truth = u[truthful[vi]]
                best = max(map(u.__getitem__, first))
                truths.append(u_truth)
                gains.append(best > u_truth)
                if top is None or best - u_truth > top[0]:
                    dev = next(dev for oid, dev in first.items() if u[oid] == best)
                    top = (best - u_truth, lead[r], dev, u_truth, best)
            if keep_rows or any(gains):
                for opp, r in enumerate(at):
                    if not (keep_rows or gains[r]):
                        continue
                    u_truth, layout = truths[r], results[r][1]
                    truth = Fraction(u_truth, d)
                    for pos, oids in enumerate(layout):
                        for k, oid in enumerate(oids if isinstance(oids, list) else [oids] * n):
                            if keep_rows or u[oid] > u_truth:
                                rows.append(AuditRow(i, vi, label(opp), pos * n + k,
                                                     truth, Fraction(u[oid], d)))
            row = AuditRow(i, vi, label(top[1]), top[2], Fraction(top[3], d), Fraction(top[4], d))
            if worst is None or row.gap > worst.gap:
                worst = row
    return AuditReport(tuple(rows), worst.gap if worst is not None else Fraction(0), worst)


def size_tilt(v: Valuation, eps: Fraction) -> Valuation:
    """Add eps*|S|/(2m) to every bundle: subsets become strictly cheaper
    than supersets while staying within eps/2 of the original.  In ints:
    with v == ints / D and eps/(2m) == u / w, over E = lcm(D, w) bundle S
    gets ints[S] * E/D + |S| * u * E/w."""
    d, ints = v.scaled_table
    u, w = (eps / (2 * v.m)).as_integer_ratio()
    e = lcm(d, w)
    k = e // d
    return valuation_from_ints(v.m, e, [x * k + t for x, t in
                                        zip(ints, subset_sums([u * (e // w)] * v.m))])


def default_eps(v: Valuation) -> Fraction:
    top = v.max_value()
    return Fraction(1, 4) / top if top > 0 else Fraction(1, 4)


def strictify(v: Valuation, grid_l: int, seed: int, eps: Optional[Fraction] = None) -> Valuation:
    """Size tilt plus seeded per-bundle noise from the grid_l rationals in
    [0, eps/(2m)]: profit ties break while every value moves by at most
    eps.  The noise r/(grid_l - 1) * u/w, r drawn per nonempty bundle in
    mask order, goes over E = lcm(D', w (grid_l - 1)) with the tilted
    table's ints / D'."""
    if grid_l < 2:
        raise DomainError("the noise grid needs at least two points")
    if eps is None:
        eps = default_eps(v)
    if eps <= 0:
        raise DomainError("eps must be positive")
    d, ints = size_tilt(v, eps).scaled_table
    rng = stream(seed, "strictify")
    u, w = (eps / (2 * v.m)).as_integer_ratio()
    e = lcm(d, w * (grid_l - 1))
    k, step = e // d, u * (e // (w * (grid_l - 1)))
    noise = [0] + [r * step for r in below(rng, grid_l, len(ints) - 1)]
    return valuation_from_ints(v.m, e, [x * k + r for x, r in zip(ints, noise)])


def default_grid_l(m: int, tax_bits: int) -> int:
    return (1 << (2 * m + tax_bits)) + 1


def is_precise(tables: TwoPlayerTables) -> Optional[str]:
    """None when every catalog valuation has a singleton argmax against
    every menu it may face; else a description of the first violation in
    (player, faced menu, valuation) order, naming the valuation by its
    catalog index."""
    for i in (0, 1):
        for k in range(len(tables.presented[1 - i])):
            for idx, row in enumerate(tables.argmax[i]):
                if len(row[k]) != 1:
                    return f"player {i} valuation {idx} has {len(row[k])} profit maximizers"
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
            menus = tables.presented[1 - i]
            for idx, row in enumerate(tables.argmax[i]):
                if all(len(arg) == 1 for arg in row):
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
    """For each (menu faced by player 1, menu presented by player 1): the
    union of bundles player 1 might win.  A run sends 2 * tax_bits."""

    tables: TwoPlayerTables
    union_win: dict

    def run(self, profile) -> tuple[int, int]:
        t = self.tables
        idx1 = t.index_of[0][profile[0].scaled_table]  # menu player 1 presents
        idx2 = t.index_of[1][profile[1].scaled_table]  # menu player 2 presents
        s1 = self.union_win[(idx2, idx1)]
        return s1, grand(t.spec.m) & ~s1


def to_simultaneous(tables: TwoPlayerTables) -> SimultaneousTable:
    """Compile a precise mechanism into the one-round protocol; the output
    allocation always contains the mechanism's allocation sidewise."""
    flaw = is_precise(tables)
    if flaw is not None:
        raise PrecisionError(flaw)
    union_win = dict.fromkeys(product(range(len(tables.presented[1])),
                                      range(len(tables.presented[0]))), 0)
    for v, row in zip(tables.catalog.players[0], tables.argmax[0]):
        shown_idx = tables.index_of[0][v.scaled_table]
        for faced_idx, arg in enumerate(row):
            union_win[faced_idx, shown_idx] |= arg[0]
    return SimultaneousTable(tables, union_win)
