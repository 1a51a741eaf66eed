"""The memoized oracle layer and the deviation audit built on it, each
checked against the direct computation it replaces."""

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from hypothesis import given, note, settings
from hypothesis import strategies as st

from taxlab import cli, menus, protocol, suites
from taxlab.bundles import all_bundles
from taxlab.cli import audit_work
from taxlab.demand_menus import extract_min_affine
from taxlab.menus import menu
from taxlab.protocol import (Session, extract_menu, measure_complexities, price_run,
                             run_mechanism)
from taxlab.rational import is_finite
from taxlab.reporting import audit_rows_to_csv
from taxlab.transforms import (AuditReport, AuditRow, DeviationStrategy, _Outcomes, _play,
                               _seated, build_tables, deviation_audit, settle, to_dominant_run,
                               truthful_bundle)
from taxlab.valuations import (DomainError, Valuation, ValuationCatalog, additive_valuation,
                               valuation, valuation_from_ints)

from references import STANDARD_BENCH, TWO_PLAYER_BENCH, deviation_family, unpriced_spec

_sessions: dict[int, Session] = {}


def bench_session(k: int) -> Session:
    if k not in _sessions:
        _sessions[k] = Session(*suites.bench_instance(*STANDARD_BENCH[k]))
    return _sessions[k]


@st.composite
def oracle_questions(draw):
    session = bench_session(draw(st.integers(0, len(STANDARD_BENCH) - 1)))
    profile = tuple(draw(st.sampled_from(group)) for group in session.catalog.players)
    i = draw(st.integers(0, session.spec.n - 1))
    s = draw(st.integers(0, (1 << session.spec.m) - 1))
    return session, profile, i, s


@settings(max_examples=60, deadline=None)
@given(oracle_questions())
def test_session_oracles_match_direct_calls(question):
    session, profile, i, s = question
    spec = session.spec
    v_minus = profile[:i] + profile[i + 1:]
    for _ in range(2):  # a miss, then a hit
        assert session.run(profile) == run_mechanism(spec, profile)
        assert session.menu(i, v_minus) == extract_menu(spec, i, v_minus)
        assert session.price_run(i, v_minus, s) == price_run(spec, i, v_minus, s)


def test_session_memoizes_by_content():
    session = Session(*suites.bench_instance("drop_tax", {"m": 4}))
    profile = tuple(group[1] for group in session.catalog.players)
    assert session.run(profile) is session.run(list(profile))
    assert session.menu(1, profile[:1]) is session.menu(1, profile[:1])
    assert session.price_run(1, profile[:1], 3) is session.price_run(1, profile[:1], 3)
    # an equal valuation that is another object is a hit on every memo
    twin = valuation(profile[0].m, profile[0].table)
    assert twin is not profile[0]
    assert session.run((twin, profile[1])) is session.run(profile)
    assert session.menu(1, (twin,)) is session.menu(1, profile[:1])
    assert session.price_run(1, (twin,), 3) is session.price_run(1, profile[:1], 3)
    probe = additive_valuation([1, 0, 2, 0])
    first = session.probe_run(1, profile[:1], probe.scaled_table)
    assert session.probe_run(1, (twin,), additive_valuation([1, 0, 2, 0]).scaled_table) is first
    # a twin from unreduced ints: comparing, hashing and keying it never builds its table
    d, ints = profile[0].scaled_table
    lean = valuation_from_ints(profile[0].m, 3 * d, [3 * x for x in ints])
    assert lean == twin == profile[0] and hash(lean) == hash(profile[0]) and {lean, twin} == {twin}
    assert session.run((lean, profile[1])) is session.run(profile)
    assert session.menu(1, (lean,)) is session.menu(1, profile[:1])
    assert session.price_run(1, (lean,), 3) is session.price_run(1, profile[:1], 3)
    assert session.probe_run(1, (lean,), probe.scaled_table) is first
    other = session.catalog.players[0][0]
    assert ValuationCatalog(((lean, other),)).players == ((lean, other),)
    assert "table" not in vars(lean) and "table" not in vars(twin)
    # a different table is a different key
    alice = session.catalog.players[0]
    assert session.run((alice[0], profile[1])) is not session.run((alice[2], profile[1]))


def test_report_is_measure_complexities_once():
    spec, catalog = suites.bench_instance("warmup_tightness", {"c": 2})
    session = Session(spec, catalog)
    first = session.report()
    assert first is session.report()
    plain = measure_complexities(spec, catalog)
    assert first == plain and first.menus == plain.menus
    assert list(session.menus(1)) == list(plain.menus[1])


def utility(v, allocation, payment):
    if not is_finite(payment):
        raise DomainError("infinite payment cannot enter a utility")
    return v.value(allocation) - payment


def reference_deviation_audit(tables, keep_rows=False) -> AuditReport:
    """The audit as a plain loop over (player, valuation, opponent,
    deviation), one wrapper run per comparison."""
    rows = []
    max_gap = None
    worst = None
    placeholder = {i: tables.catalog.players[i][0] for i in (0, 1)}
    for i in (0, 1):
        other = 1 - i
        my_devs = deviation_family(tables, i)
        opponents = [
            (f"truthful:{k}", "truthful", w)
            for k, w in enumerate(tables.catalog.players[other])
        ] + [
            (f"dev:{k}", dev, placeholder[other])
            for k, dev in enumerate(deviation_family(tables, other))
        ]
        for vi_idx, v_i in enumerate(tables.catalog.players[i]):
            for opp_label, opp_strategy, opp_valuation in opponents:
                profile = [None, None]
                profile[i] = v_i
                profile[other] = opp_valuation
                strategies = [None, None]
                strategies[other] = opp_strategy
                strategies[i] = "truthful"
                base = to_dominant_run(tables, tuple(profile), tuple(strategies))
                u_truth = utility(v_i, base.allocation[i], base.payments[i])
                for dev_idx, dev in enumerate(my_devs):
                    strategies[i] = dev
                    alt = to_dominant_run(tables, tuple(profile), tuple(strategies))
                    u_dev = utility(v_i, alt.allocation[i], alt.payments[i])
                    row = AuditRow(i, vi_idx, opp_label, dev_idx, u_truth, u_dev)
                    if keep_rows or row.gap > 0:
                        rows.append(row)
                    if max_gap is None or row.gap > max_gap:
                        max_gap = row.gap
                        worst = row
    return AuditReport(tuple(rows), max_gap if max_gap is not None else Fraction(0), worst)


def test_deviation_audit_matches_reference_loop():
    for mech_id, params in TWO_PLAYER_BENCH:
        tables = build_tables(Session(*suites.bench_instance(mech_id, params)))
        got = deviation_audit(tables, keep_rows=True)
        want = reference_deviation_audit(tables, keep_rows=True)
        assert got.rows == want.rows, mech_id
        assert got.max_gap == want.max_gap and got.worst == want.worst, mech_id
        assert deviation_audit(tables) == reference_deviation_audit(tables)


def test_a_valuation_at_two_catalog_indices_is_audited_at_each():
    """The audit keys plays by catalog index.  A player's catalog refuses a
    repeated valuation, so here player 1's catalog is player 0's rotated by
    one: each valuation sits at index a for player 0 and a - 1 for player
    1, and a play seated the wrong way round meets a different profile.
    Rows, gap and worst row are the reference loop's, with `keep_rows` on
    and off."""
    for mech_id, params in TWO_PLAYER_BENCH:
        spec, catalog = suites.bench_instance(mech_id, params)
        c0 = catalog.players[0]
        tables = build_tables(Session(spec, ValuationCatalog((c0, c0[1:] + c0[:1]))))
        for keep_rows in (False, True):
            got = deviation_audit(tables, keep_rows)
            want = reference_deviation_audit(tables, keep_rows)
            assert got.rows == want.rows, (mech_id, keep_rows)
            assert got.max_gap == want.max_gap and got.worst == want.worst, (mech_id, keep_rows)


def planted_tables():
    """Tables over a mechanism that is not truthful, so the audit finds
    gains.  Player 0's win and payment are looked up from their own report,
    and every truthful transcript is the same four empty-bundle
    announcements, so a misreport with the empty bundle plays the inner
    mechanism as that report.  For `victim` (truthful utility 1), reporting
    `cheap` or `twin` gives one outcome and reporting `bold` another, all
    worth 2: two deviations share the best outcome, and two distinct
    outcomes tie on the largest gap."""
    victim = additive_valuation([3, 1])
    cheap = additive_valuation([2, 1])
    bold = additive_valuation([1, 1])
    twin = additive_valuation([2, 0])
    looked_up = {victim.table: (0b11, Fraction(3)), cheap.table: (0b01, Fraction(1)),
                 bold.table: (0b11, Fraction(2)), twin.table: (0b01, Fraction(1))}

    def program(profile, rec):
        won, paid = looked_up.get(profile[0].table, (0, Fraction(0)))
        return (won, 0), (paid, Fraction(0))

    spec = unpriced_spec("planted", 2, 2, Fraction(4), "bit", program)
    catalog = ValuationCatalog(((victim, cheap, bold, twin), (additive_valuation([1, 1]),)))
    return build_tables(Session(spec, catalog))


def test_planted_gaps_expand_rows_and_pick_the_first_best_deviation():
    tables = planted_tables()
    for keep_rows in (False, True):
        got = deviation_audit(tables, keep_rows)
        want = reference_deviation_audit(tables, keep_rows)
        assert got.rows == want.rows
        assert got.max_gap == want.max_gap and got.worst == want.worst
    report = deviation_audit(tables)
    # deviations 1 (cheap) and 3 (twin) share the best outcome; 2 (bold)
    # ties it from a distinct outcome; the first of them is the worst row
    assert report.worst == AuditRow(0, 0, "truthful:0", 1, Fraction(1), Fraction(2))
    best = [(row.opponent, row.deviation) for row in report.rows
            if row.valuation == 0 and row.gap == report.max_gap]
    assert best[:3] == [("truthful:0", 1), ("truthful:0", 2), ("truthful:0", 3)]


def test_the_planted_audit_csv_keeps_each_utility_in_its_column():
    """The audit CSV of the planted tables, rendered as the transform suite
    renders it: the header, and the worst row with truthful utility 1 and
    deviating utility 2 in that order (every audit of the byte-identity
    sets is clean, so there the two columns are equal)."""
    report = deviation_audit(planted_tables())
    rows = list(report.rows)
    if report.worst not in rows:
        rows.append(report.worst)
    lines = audit_rows_to_csv("planted", rows).splitlines()
    assert lines[0] == ("mechanism,player,valuation,deviation,"
                        "truthful_utility,deviating_utility,gap")
    assert "planted,0,0,opp=truthful:0;own=1,1,2,1" in lines[1:]
    assert audit_rows_to_csv("planted", [report.worst]).splitlines()[1] == (
        "planted,0,0,opp=truthful:0;own=1,1,2,1")


def test_a_gain_in_the_off_trie_class_expands_its_labels_and_is_named_by_the_first():
    """The planted tables, with the wrapper announcing to player 0 a menu
    that charges 10 for every bundle, the empty one too.  A normalized
    menu never lets the off-trie class gain (truthful play wins the
    announced menu's most profitable bundle, a deviation one of its bundles
    or nothing), so this menu plants the gain there: against an opponent
    bundle off the trie, player 0 wins their truthful bundle at a loss,
    while a bundle of their own off the trie wins nothing.  The player-1
    catalog has one valuation announcing the empty bundle, so opponent
    bundles 1, 2 and 3 share one `against`; each gets its own rows, and the
    worst row names the first of them."""
    tables = planted_tables()
    tables = replace(tables, presented=(tables.presented[0], (menu(2, [Fraction(10)] * 4),)))
    for keep_rows in (False, True):
        got = deviation_audit(tables, keep_rows)
        want = reference_deviation_audit(tables, keep_rows)
        assert got.rows == want.rows
        assert got.max_gap == want.max_gap and got.worst == want.worst
    report = deviation_audit(tables)
    # bold and twin both lose 8 by truthful play (value 2 at price 10); bold
    # comes first, and deviation 0 (the empty bundle, off the trie) wins
    # nothing
    assert report.worst == AuditRow(0, 2, "dev:1", 0, Fraction(-8), Fraction(0))
    assert sorted({row.opponent for row in report.rows if row.valuation == 2
                   and row.gap == report.max_gap}) == ["dev:1", "dev:2", "dev:3"]


def test_the_audit_calls_against_once_per_opponent_class_on_the_m8_set(monkeypatch):
    """On every entry of configs/m8.json, the audit settles each truthful
    opponent, each deviating bundle on the truthful trie and, per opponent
    menu, the one class of all other bundles with one `against` each: 40
    calls for the deviating opponents over the set, where one per
    announced (menu index, bundle) would be 4,096."""
    calls = [0]
    against = _Outcomes.against

    def counting(self, *args):
        calls[0] += 1
        return against(self, *args)

    monkeypatch.setattr(_Outcomes, "against", counting)
    config = json.loads((Path(__file__).parents[1] / "configs" / "m8.json").read_text())
    deviating = announcements = 0
    for entry in config["mechanisms"]:
        tables = build_tables(Session(*suites.bench_instance(entry["id"], entry["params"])))
        calls[0] = 0
        deviation_audit(tables)
        classes = 0
        for i in (0, 1):
            theirs = tables.catalog.players[1 - i]
            for opp_menu in range(len(tables.presented[1 - i])):
                on = {truthful_bundle(tables, 1 - i, w, menu_idx) for w in theirs
                      if tables.index_of[1 - i][w.scaled_table] == opp_menu
                      for menu_idx in range(len(tables.presented[i]))}
                classes += len(on) + (len(on) < 1 << tables.spec.m)
                announcements += 1 << tables.spec.m
            calls[0] -= len(theirs)
        assert calls[0] == classes, entry["id"]
        deviating += classes
    assert (deviating, announcements) == (40, 4096)


AUDIT_ENTRIES = ("warmup_tightness", "value_tightness", "drop_tie", "drop_tax", "posted_prices")


def audit_entry_counts(monkeypatch, tmp_path, capsys, suite_names) -> dict[str, int]:
    """`Session.run`, `profit_argmax_set` and `run_mechanism` calls made by
    the given suites on the demo's five audit entries."""
    counts = {"Session.run": 0, "profit_argmax_set": 0, "run_mechanism": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, name in ((menus, "profit_argmax_set"), (protocol, "run_mechanism")):
        original, wrapped = getattr(owner, name), counting(name, getattr(owner, name))
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("taxlab") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(Session, "run", counting("Session.run", Session.run))
    demo = json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text())
    doc = dict(demo, suites=suite_names,
               mechanisms=[e for e in demo["mechanisms"] if e["id"] in AUDIT_ENTRIES])
    assert len(doc["mechanisms"]) == len(AUDIT_ENTRIES)
    config = tmp_path / "audit.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    return counts


def test_the_audit_entries_play_each_catalog_profile_once(monkeypatch, tmp_path, capsys):
    """The transform suite on the demo's five audit entries (warmup_tightness,
    value_tightness, drop_tie, drop_tax and posted_prices, the benchmark's
    `audit` workload) asks the session for one run per catalog profile
    (87), takes one profit argmax per (player, catalog index, faced menu
    index) (90), and runs the mechanism 511 times: the menu extractions
    and the 87 profiles."""
    assert audit_entry_counts(monkeypatch, tmp_path, capsys, ["transform"]) == \
        {"Session.run": 87, "profit_argmax_set": 90, "run_mechanism": 511}


def test_measure_and_transform_share_each_profile_run(monkeypatch, tmp_path, capsys):
    """`measure` takes each catalog profile's run from the session, so the
    transform suite after it on the five audit entries runs no profile
    again: 511 mechanism runs in all, as for the transform suite alone."""
    counts = audit_entry_counts(monkeypatch, tmp_path, capsys, ["measure", "transform"])
    assert counts["run_mechanism"] == 511


def reference_messages(menu_idx, bundles, inner=None) -> list[tuple]:
    """The wrapper transcript: the four announcements, then the inner run's
    tokens when it was played."""
    msgs = [("menu", 0, menu_idx[0]), ("menu", 1, menu_idx[1]),
            ("bundle", 0, bundles[0]), ("bundle", 1, bundles[1])]
    if inner is not None:
        msgs += [("inner", tok[0], tok[:3]) for tok in inner.tokens]
    return msgs


_prefix_sets: dict = {}


def truthful_prefixes(tables) -> frozenset:
    """Every nonempty prefix of a truthful wrapper transcript."""
    if id(tables) not in _prefix_sets:
        out = set()
        for profile in tables.catalog.profiles():
            msgs = reference_messages(*_play(tables, profile, ("truthful", "truthful")))
            out.update(tuple(msgs[:k]) for k in range(1, len(msgs) + 1))
        _prefix_sets[id(tables)] = (tables, frozenset(out))
    return _prefix_sets[id(tables)][1]


def reference_settle(tables, menu_idx, bundles, inner=None):
    """`settle` by the prefix-set rule: the culprit owns the first message
    whose prefix is on no truthful transcript."""
    msgs = reference_messages(menu_idx, bundles, inner)
    prefixes = truthful_prefixes(tables)
    culprit = next((msg[1] for k, msg in enumerate(msgs)
                    if tuple(msgs[:k + 1]) not in prefixes), None)
    if culprit is None:
        return None if inner is None else (None, inner.allocation, inner.payments)
    winner = 1 - culprit
    menus = tables.presented[culprit]
    t_w = bundles[winner]
    price = menus[menu_idx[culprit]].price[t_w] if 0 <= menu_idx[culprit] < len(menus) else None
    allocation = [0, 0]
    payments = [Fraction(0), Fraction(0)]
    if price is not None and is_finite(price):
        allocation[winner] = t_w
        payments[winner] = price
    return culprit, tuple(allocation), tuple(payments)


_settle_tables: dict = {}


def settle_tables(k: int):
    """TWO_PLAYER_BENCH entry k, or the planted tables for k past its end."""
    if k not in _settle_tables:
        _settle_tables[k] = (planted_tables() if k == len(TWO_PLAYER_BENCH) else
                             build_tables(Session(*suites.bench_instance(
                                 *TWO_PLAYER_BENCH[k]))))
    return _settle_tables[k]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(TWO_PLAYER_BENCH)), st.data())
def test_trie_settle_matches_the_prefix_set_rule(k, data):
    """A truthful transcript with one message perturbed: a menu index (in
    range, one past it, -1 or 99), a bundle, or one inner token replaced
    by, or extended with, a token of some catalog run or a lone bit."""
    tables = settle_tables(k)
    profile = tuple(data.draw(st.sampled_from(group)) for group in tables.catalog.players)
    menu_idx, bundles, inner = _play(tables, profile, ("truthful", "truthful"))
    menu_idx, bundles, tokens = list(menu_idx), list(bundles), list(inner.tokens)
    spot = data.draw(st.integers(0, 4 + len(tokens)))
    if spot < 2:
        menu_idx[spot] = data.draw(st.sampled_from(
            [-1, 99, *range(len(tables.presented[spot]) + 1)]))
    elif spot < 4:
        bundles[spot - 2] = data.draw(st.integers(0, (1 << tables.spec.m) - 1))
    else:
        pool = [(0, "bit", 1, 1), (1, "bit", 0, 1)] + sorted(
            {tok for p in tables.catalog.profiles()
             for tok in tables.session.run(p).tokens}, key=repr)
        tokens[spot - 4:spot - 3] = [data.draw(st.sampled_from(pool))]
    inner = replace(inner, tokens=tuple(tokens))
    note(f"menus {menu_idx}, bundles {bundles}, tokens {tokens}")
    got = settle(tables, tuple(menu_idx), tuple(bundles), inner)
    assert got == reference_settle(tables, tuple(menu_idx), tuple(bundles), inner)


class ReferenceOutcomes:
    """Player i's side of the audit with one `against` per opponent
    behavior: every (menu index, bundle) settled by the prefix-set rule
    against each opponent and inner valuation, outcomes keyed by (won,
    paid)."""

    def __init__(self, tables, i):
        self.tables = tables
        self.i = i
        self.outcomes = []
        self._ids = {}
        self._settled = {}
        faced = range(len(tables.presented[1 - i]))
        self._truthful = [(tables.index_of[i][v.scaled_table],
                           [truthful_bundle(tables, i, v, k) for k in faced])
                          for v in tables.catalog.players[i]]

    def _id(self, allocation, payments):
        key = (allocation[self.i], payments[self.i])
        if key not in self._ids:
            self._ids[key] = len(self.outcomes)
            self.outcomes.append(key)
        return self._ids[key]

    def announced(self, mine, theirs):
        key = mine + theirs
        if key not in self._settled:
            verdict = reference_settle(self.tables, _seated(self.i, mine[0], theirs[0]),
                                       _seated(self.i, mine[1], theirs[1]))
            self._settled[key] = None if verdict is None else self._id(*verdict[1:])
        return self._settled[key]

    def played(self, profile, strategies):
        run = to_dominant_run(self.tables, profile, strategies)
        return self._id(run.allocation, run.payments)

    def against(self, opp_strategy, opp_valuation):
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
        layout = []
        first = {}
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


def named(outcomes, result):
    """(truthful, layout, first) with each outcome id replaced by its
    outcome, and `first` as its ordered items."""
    truthful, layout, first = result
    return ([outcomes[oid] for oid in truthful],
            [[outcomes[oid] for oid in e] if isinstance(e, list) else outcomes[e]
             for e in layout],
            [(outcomes[oid], dev) for oid, dev in first.items()])


M6 = {"drop_tax": {"m": 6}, "mt_gadget": {"m": 6},
      "demand_tightness": {"m": 6, "alpha": 2, "count": 4}}
_m6_tables: dict = {}


def m6_tables(mech_id):
    if mech_id not in _m6_tables:
        _m6_tables[mech_id] = build_tables(Session(*suites.bench_instance(mech_id, M6[mech_id])))
    return _m6_tables[mech_id]


def opponent_group(tables, i, strategy, k):
    """The `against` arguments of the group an opponent behavior belongs
    to, the opponent's valuation given by catalog index k, and the
    behavior's place among the group's inner valuations."""
    theirs = tables.catalog.players[1 - i]
    own_menus = range(len(tables.presented[i]))
    if strategy == "truthful":
        w = theirs[k]
        return (tables.index_of[1 - i][w.scaled_table],
                [truthful_bundle(tables, 1 - i, w, menu) for menu in own_menus], [k]), 0
    return ((strategy.menu_index, [strategy.bundle] * len(own_menus), range(len(theirs))),
            theirs.index(strategy.inner))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(M6)), st.integers(0, 1), st.booleans(), st.data())
def test_grouped_against_matches_the_per_opponent_reference_at_m6(mech_id, i, truthful, data):
    """One opponent announcement, grouped over its inner valuations, gives
    per inner valuation the reference's outcomes, layout and `first`.  A
    deviating opponent's bundle is often one some catalog valuation
    announces, so that the group's positions reach the inner run."""
    tables = m6_tables(mech_id)
    theirs = tables.catalog.players[1 - i]
    if truthful:
        behaviors = [("truthful", data.draw(st.integers(0, len(theirs) - 1)))]
    else:
        menu = data.draw(st.integers(0, len(tables.presented[1 - i]) - 1))
        announced = sorted({truthful_bundle(tables, 1 - i, w, k) for w in theirs
                            for k in range(len(tables.presented[i]))})
        bundle = data.draw(st.sampled_from(announced) | st.integers(0, (1 << tables.spec.m) - 1))
        behaviors = [(DeviationStrategy(menu, bundle, w), 0) for w in theirs]
    group, _ = opponent_group(tables, i, *behaviors[0])
    side, reference = _Outcomes(tables, i), ReferenceOutcomes(tables, i)
    got = side.against(*group)
    assert len(got) == len(behaviors)
    for result, (strategy, k) in zip(got, behaviors):
        want = reference.against(strategy, theirs[k])
        assert named(side.outcomes, result) == named(reference.outcomes, want)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["drop_tax", "mt_gadget"]), st.integers(0, 1), st.booleans(), st.data())
def test_grouped_outcomes_match_wrapper_runs_at_m6(mech_id, i, consistent, data):
    """The audit's outcome for a sampled (player, opponent, deviation) is
    the wrapper run's, both where the four announcements settle it and
    where the deviation stays consistent to the end.  A truthful opponent
    always admits the latter: misreport a type with its menu and bundle."""
    tables = m6_tables(mech_id)
    theirs = tables.catalog.players[1 - i]
    opponents = [("truthful", k) for k in range(len(theirs))]
    if not consistent:
        opponents += [(dev, 0) for dev in deviation_family(tables, 1 - i)]
    strategy, k = data.draw(st.sampled_from(opponents))
    w = theirs[k]
    side = _Outcomes(tables, i)
    group, place = opponent_group(tables, i, strategy, k)
    truthful, layout, first = side.against(*group)[place]
    valuations = tables.catalog.players[i]
    n = len(valuations)
    devs = deviation_family(tables, i)

    def direct(profile, strategies):
        run = to_dominant_run(tables, profile, strategies)
        return run, (run.allocation[i], run.payments[i])

    for vi, v in enumerate(valuations):
        _, want = direct(_seated(i, v, w), _seated(i, "truthful", strategy))
        assert side.outcomes[truthful[vi]] == want
    if consistent:
        played = [d for d in range(len(devs)) if isinstance(layout[d // n], list)]
        candidates = [d for d in played if direct(_seated(i, valuations[0], w),
                                                  _seated(i, devs[d], strategy))[0].inconsistent
                      is None]
    else:
        candidates = [d for d in range(len(devs)) if not isinstance(layout[d // n], list)]
    dev = data.draw(st.sampled_from(candidates))
    note(f"deviation {dev}: {devs[dev]}")
    entry = layout[dev // n]
    oid = entry[dev % n] if isinstance(entry, list) else entry
    run, want = direct(_seated(i, valuations[0], w), _seated(i, devs[dev], strategy))
    assert side.outcomes[oid] == want
    assert (run.inconsistent is None) == consistent
    assert first[oid] <= dev


def test_audit_work_bounds_the_grouped_audit_on_the_m6_and_m8_sets(monkeypatch):
    """`cli.audit_work` bounds the walks (per class, the positions settled
    and the truthful positions read) and the wrapper plays the audit makes
    on every entry of configs/m6.json and configs/m8.json."""
    counted = {"walks": 0, "plays": 0}
    against, play = _Outcomes.against, _Outcomes._play

    def counting_against(self, opp_menu, opp_bundles, ws):
        out = against(self, opp_menu, opp_bundles, ws)
        counted["walks"] += len(out[0][1]) + len(out[0][0])
        return out

    def counting_play(self, *args):
        counted["plays"] += 1
        return play(self, *args)

    monkeypatch.setattr(_Outcomes, "against", counting_against)
    monkeypatch.setattr(_Outcomes, "_play", counting_play)
    configs = Path(__file__).parents[1] / "configs"
    for entry in [entry for name in ("m6.json", "m8.json")
                  for entry in json.loads((configs / name).read_text())["mechanisms"]]:
        session = Session(*suites.bench_instance(entry["id"], entry["params"]))
        counted.update(walks=0, plays=0)
        deviation_audit(build_tables(session))
        walks, plays = audit_work(session.spec.m, [len(g) for g in session.catalog.players])
        assert 0 < counted["walks"] <= walks and 0 < counted["plays"] <= plays, \
            (entry["id"], counted, walks, plays)


def test_m8_menus_probe_rounds_and_min_affine_build_no_fraction_table(monkeypatch):
    """On every entry of configs/m8.json, extracting every menu, verify-menu
    rounds of every class on a few base-function draws and the min-affine
    extraction of each demand-mode menu read valuations only through
    their integer tables: no `Valuation.table` is built."""
    built = []
    table = Valuation.table

    def counting(v):
        built.append(v)
        return table.func(v)

    monkeypatch.setattr(Valuation, "table", property(counting))
    assert additive_valuation([1]).table and len(built) == 1  # the wrapper counts
    built.clear()
    config = json.loads((Path(__file__).parents[1] / "configs" / "m8.json").read_text())
    modes = set()
    for entry in config["mechanisms"]:
        session = Session(*suites.bench_instance(entry["id"], entry["params"]))
        spec = session.spec
        assert spec.m == 8
        modes.add(spec.mode)
        for i in range(spec.n):
            assert session.menus(i)
        assert suites.verify_menu_trials(session, 2, seed=0).passed
        if spec.mode == "demand":
            for v_minus in session.others(1):
                extract_min_affine(session, 1, v_minus)
        assert built == [], entry["id"]
    assert modes == {"bit", "demand"}
