"""The announce-then-play wrapper, the deviation audit, strictification,
and the one-round compiler."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab import suites, transforms
from taxlab.bundles import all_bundles, bit, size
from taxlab.library import default_catalog, make_example, warmup_catalog
from taxlab.menus import profit_argmax_set
from taxlab.protocol import Session, run_mechanism
from taxlab.rational import is_finite
from taxlab.rng import stream
from taxlab.transforms import (DeviationStrategy, PrecisionError, _play,
                               build_tables, default_eps, deviation_audit, is_precise,
                               size_tilt, strictify,
                               strictify_catalog, to_dominant_run,
                               to_simultaneous)
from taxlab.valuations import (DomainError, ValuationCatalog, additive_valuation,
                               random_monotone_valuation, valuation,
                               valuation_from_values)

from references import TWO_PLAYER_BENCH

F = Fraction


def warmup_tables(c=1):
    spec = make_example("warmup_tightness", {"c": c})
    cat = warmup_catalog(c)
    return spec, cat, build_tables(Session(spec, cat))


def test_truthful_path_reproduces_mechanism():
    spec, cat, tables = warmup_tables(1)
    for profile in cat.profiles():
        run = to_dominant_run(tables, profile, ("truthful", "truthful"))
        base = run_mechanism(spec, profile)
        assert run.allocation == base.allocation
        assert run.payments == base.payments
        assert run.inconsistent is None
        assert run.bits_constructed == 2 * (tables.tax_bits + spec.m) + base.bits
        assert run.bits_theorem == 2 * (tables.tax_bits + spec.m) + spec.tie_cost(profile)


def test_menu_lie_makes_player_inconsistent():
    spec, cat, tables = warmup_tables(1)
    alice = cat.players[0][0]   # rounds to the first index
    bob = cat.players[1][2]
    wrong_idx = 1 - tables.index_of[0][alice.scaled_table]
    lie = DeviationStrategy(wrong_idx, 0, alice)
    run = to_dominant_run(tables, (alice, bob), (lie, "truthful"))
    assert run.inconsistent == 0
    # the truthful side wins its announced bundle at the announced menu
    announced_menu = tables.presented[0][wrong_idx]
    t_bob = run.bundles[1]
    assert run.allocation[1] == t_bob
    assert run.payments[1] == announced_menu.price[t_bob]
    assert run.allocation[0] == 0 and run.payments[0] == 0


def test_consistent_misreport_plays_as_that_type():
    spec, cat, tables = warmup_tables(2)
    alice, alias = cat.players[0][0], cat.players[0][3]
    bob = cat.players[1][4]
    pretend = DeviationStrategy(
        tables.index_of[0][alias.scaled_table],
        0,  # the bundle report does not matter for consistency here
        alias,
    )
    run = to_dominant_run(tables, (alice, bob), (pretend, "truthful"))
    base = run_mechanism(spec, (alias, bob))
    assert run.allocation == base.allocation
    assert run.payments == base.payments


def test_out_of_range_menu_index_is_inconsistency():
    spec, cat, tables = warmup_tables(1)
    alice, bob = cat.players[0][0], cat.players[1][1]
    rogue = DeviationStrategy(99, 0, alice)
    run = to_dominant_run(tables, (alice, bob), (rogue, "truthful"))
    assert run.inconsistent == 0


def test_out_of_range_deviation_bundle_is_refused():
    """Player 0 leaves the trie with their bundle, so player 1 would win
    theirs at its price in player 0's menu: at 2^m that index is missing,
    and at -1 it would read the grand bundle's price.  Both are refused."""
    spec, cat, tables = warmup_tables(2)
    alice, bob = cat.players[0][0], cat.players[1][0]
    off_trie = next(b for b in all_bundles(spec.m) if b not in tables.truthful_trie[0][0])
    for bad in (-1, 1 << spec.m):
        strategies = (DeviationStrategy(0, off_trie, alice), DeviationStrategy(0, bad, bob))
        with pytest.raises(DomainError, match="out of range"):
            to_dominant_run(tables, (alice, bob), strategies)


def transcript_messages(menu_idx, bundles, inner):
    """The wrapper transcript as a message list: the four announcements,
    then the inner run's tokens."""
    return [("menu", 0, menu_idx[0]), ("menu", 1, menu_idx[1]),
            ("bundle", 0, bundles[0]), ("bundle", 1, bundles[1])] + [
        ("inner", tok[0], tok[:3]) for tok in inner.tokens]


def reference_truthful_table(tables):
    """The per-pair truthful transcripts the wrapper once rebuilt per run."""
    return {(v1.table, v2.table):
            transcript_messages(*_play(tables, (v1, v2), ("truthful", "truthful")))
            for v1 in tables.catalog.players[0] for v2 in tables.catalog.players[1]}


def reference_outcome(tables, profile, strategies):
    """Culprit, allocation and payments by the out-of-range rule, then the
    scan that narrows the live truthful transcripts message by message."""
    menu_idx, bundles, inner = _play(tables, profile, strategies)
    msgs = transcript_messages(menu_idx, bundles, inner)
    out_of_range = [i for i in (0, 1) if not 0 <= menu_idx[i] < len(tables.presented[i])]
    culprit = min(out_of_range) if out_of_range else None
    if not out_of_range:
        live = list(reference_truthful_table(tables).values())
        for idx, msg in enumerate(msgs):
            live = [t for t in live if len(t) > idx and t[idx] == msg]
            if not live:
                culprit = msg[1]
                break
    if culprit is None:
        return None, inner.allocation, inner.payments
    winner = 1 - culprit
    allocation, payments = [0, 0], [F(0), F(0)]
    if 0 <= menu_idx[culprit] < len(tables.presented[culprit]):
        price = tables.presented[culprit][menu_idx[culprit]].price[bundles[winner]]
        if is_finite(price):
            allocation[winner], payments[winner] = bundles[winner], price
    return culprit, tuple(allocation), tuple(payments)


_two_player_tables: dict = {}


@st.composite
def wrapper_plays(draw):
    """(tables, profile, strategies) over TWO_PLAYER_BENCH: each player is
    truthful or deviates, with menu indices in range or 99."""
    k = draw(st.integers(0, len(TWO_PLAYER_BENCH) - 1))
    if k not in _two_player_tables:
        session = Session(*suites.bench_instance(*TWO_PLAYER_BENCH[k]))
        _two_player_tables[k] = build_tables(session)
    tables = _two_player_tables[k]
    profile, strategies = [], []
    for i in (0, 1):
        group = tables.catalog.players[i]
        profile.append(draw(st.sampled_from(group)))
        if draw(st.booleans()):
            strategies.append("truthful")
        else:
            index = draw(st.sampled_from(list(range(len(tables.presented[i]))) + [99]))
            strategies.append(DeviationStrategy(
                index, draw(st.integers(0, (1 << tables.spec.m) - 1)),
                draw(st.sampled_from(group))))
    return tables, tuple(profile), tuple(strategies)


@settings(max_examples=300, deadline=None)
@given(wrapper_plays())
def test_prefix_set_culprit_matches_transcript_table_scan(play):
    tables, profile, strategies = play
    got = to_dominant_run(tables, profile, strategies)
    want = reference_outcome(tables, profile, strategies)
    assert (got.inconsistent, got.allocation, got.payments) == want


def test_audit_examples():
    for mech_id, params in [("posted_prices", {"prices": ["1", "2"], "n": 2}),
                            ("warmup_tightness", {"c": 2, "m": 2})]:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, params)
        tables = build_tables(Session(spec, cat))
        report = deviation_audit(tables)
        assert report.clean, (mech_id, report.worst)
        assert report.max_gap <= 0


def test_truthful_vs_truthful_equal_utilities():
    spec, cat, tables = warmup_tables(1)
    for profile in cat.profiles():
        run = to_dominant_run(tables, profile, ("truthful", "truthful"))
        base = run_mechanism(spec, profile)
        for i in (0, 1):
            u_wrap = profile[i].value(run.allocation[i]) - run.payments[i]
            u_base = profile[i].value(base.allocation[i]) - base.payments[i]
            assert u_wrap == u_base


def test_size_tilt_example():
    v = valuation_from_values(2, {0b01: 1, 0b10: 1, 0b11: 1})
    tilted = size_tilt(v, F(1, 4))
    assert tilted.table == (F(0), 1 + F(1, 16), 1 + F(1, 16), 1 + F(1, 8))
    zero = additive_valuation([0, 0, 0])
    t0 = size_tilt(zero, F(1, 4))
    for s in all_bundles(3):
        for j in range(3):
            if not s & bit(j):
                assert t0.table[s] < t0.table[s | bit(j)]


def test_strictify_bounds_and_default_eps():
    rng = stream(31, "strict")
    for _ in range(40):
        m = rng.randrange(1, 4)
        v = random_monotone_valuation(m, rng)
        eps = default_eps(v)
        sv = strictify(v, grid_l=17, seed=rng.randrange(1 << 20), eps=eps)
        for s in all_bundles(m):
            assert abs(sv.table[s] - v.table[s]) <= eps
            for j in range(m):
                if not s & bit(j):
                    assert sv.table[s] <= sv.table[s | bit(j)]


def reference_size_tilt(v, eps):
    """The `Fraction` body `size_tilt` replaced, kept as its oracle."""
    unit = eps / (2 * v.m)
    table = tuple(
        v.table[s] + unit * size(s) if s else Fraction(0) for s in all_bundles(v.m)
    )
    return valuation(v.m, table)


def reference_strictify(v, grid_l, seed, eps=None):
    """The `Fraction` body `strictify` replaced, kept as its oracle."""
    if eps is None:
        top = v.table[-1]
        eps = Fraction(1, 4) / top if top > 0 else Fraction(1, 4)
    tilted = reference_size_tilt(v, eps)
    rng = stream(seed, "strictify")
    unit = eps / (2 * v.m)
    table = []
    for s in all_bundles(v.m):
        if s == 0:
            table.append(Fraction(0))
            continue
        noise = unit * Fraction(rng.randrange(grid_l), grid_l - 1)
        table.append(tilted.table[s] + noise)
    return valuation(v.m, tuple(table))


@st.composite
def strictify_questions(draw):
    """A valuation on its own grid and scale (the zero valuation included),
    a noise grid, a seed and eps: the default, or a drawn rational."""
    m = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([F(0), F(1), F(4), F(5, 3), F(1, 7)]))
    v = random_monotone_valuation(m, draw(st.randoms(use_true_random=False)),
                                  draw(st.sampled_from([1, 2, 3, 8])), scale or F(1))
    if not scale:
        v = additive_valuation([0] * m)
    eps = draw(st.one_of(st.none(), st.builds(F, st.integers(1, 9), st.integers(1, 12))))
    return v, draw(st.sampled_from([2, 3, 17, 1 << 10])), draw(st.integers(0, 1 << 20)), eps


@settings(max_examples=200, deadline=None)
@given(strictify_questions())
def test_integer_tilt_and_strictify_match_the_fraction_bodies(question):
    v, grid_l, seed, eps = question
    tilt = default_eps(v) if eps is None else eps
    got, tilted = strictify(v, grid_l, seed, eps), size_tilt(v, tilt)
    assert "table" not in vars(v) and "table" not in vars(got)  # before the oracles read it
    assert got == reference_strictify(v, grid_l, seed, eps)
    assert tilted == reference_size_tilt(v, tilt)


def test_strictified_catalog_is_precise():
    spec = make_example("warmup_tightness", {"c": 2})
    cat = warmup_catalog(2)
    stats = {}
    tables = strictify_catalog(spec, cat, seed=11, stats=stats)
    scat = tables.catalog
    assert stats["max_resamples"] <= 3
    assert is_precise(tables) is None
    for i in (0, 1):
        for menu in tables.presented[1 - i]:
            for v in scat.players[i]:
                assert len(profit_argmax_set(menu, v)) == 1


def test_simultaneous_single_menu_each():
    spec = make_example("posted_prices", {"prices": ["1", "2"], "n": 2})
    v0 = additive_valuation([2, 0])
    v1 = additive_valuation([0, 3])
    cat = ValuationCatalog(((v0,), (v1,)))
    table = to_simultaneous(build_tables(Session(spec, cat)))
    assert len(table.union_win) == 1
    alloc = table.run((v0, v1))
    base = run_mechanism(spec, (v0, v1))
    assert base.allocation[0] & ~alloc[0] == 0
    assert base.allocation[1] & ~alloc[1] == 0


def test_simultaneous_warmup_containment_and_welfare():
    spec = make_example("warmup_tightness", {"c": 2})
    cat = warmup_catalog(2)
    table = to_simultaneous(strictify_catalog(spec, cat, seed=12))
    scat = table.tables.catalog
    for profile in scat.profiles():
        base = run_mechanism(spec, profile)
        s1, s2 = table.run(profile)
        assert base.allocation[0] & ~s1 == 0
        assert base.allocation[1] & ~s2 == 0
        welfare_sim = profile[0].value(s1) + profile[1].value(s2)
        welfare_base = profile[0].value(base.allocation[0]) + \
            profile[1].value(base.allocation[1])
        assert welfare_sim >= welfare_base


def test_imprecise_catalog_rejected():
    spec = make_example("warmup_tightness", {"c": 2})
    cat = warmup_catalog(2)
    with pytest.raises(PrecisionError):
        to_simultaneous(build_tables(Session(spec, cat)))  # raw integer catalog ties everywhere


def test_imprecise_catalog_reports_the_first_menu_major_violation():
    spec = make_example("warmup_tightness", {"c": 2})
    tables = build_tables(Session(spec, warmup_catalog(2)))
    assert is_precise(tables) == "player 1 valuation 1 has 2 profit maximizers"


def bench_tables():
    """Raw tables for each two-player bench mechanism, plus one strictified
    catalog's."""
    out = [build_tables(Session(*suites.bench_instance(mech_id, params)))
           for mech_id, params in TWO_PLAYER_BENCH]
    spec, cat = suites.bench_instance("value_tightness", {"c": 2, "m": 2})
    return out + [strictify_catalog(spec, cat, seed=48)]


def test_argmax_table_holds_each_fresh_profit_argmax():
    for tables in bench_tables():
        for i in (0, 1):
            faced = tables.presented[1 - i]
            assert len(tables.argmax[i]) == len(tables.catalog.players[i])
            for v, row in zip(tables.catalog.players[i], tables.argmax[i]):
                assert row == tuple(tuple(profit_argmax_set(menu, v)) for menu in faced)


def reference_union_win(tables):
    """One catalog scan per (faced, shown) pair: the union of player 0's
    argmax bundles over the valuations that show that menu."""
    union_win = {}
    for faced_idx, faced in enumerate(tables.presented[1]):
        for shown_idx in range(len(tables.presented[0])):
            mask = 0
            for v in tables.catalog.players[0]:
                if tables.index_of[0][v.scaled_table] != shown_idx:
                    continue
                mask |= profit_argmax_set(faced, v)[0]
            union_win[(faced_idx, shown_idx)] = mask
    return union_win


def test_union_win_matches_the_per_pair_scan():
    for mech_id, params in TWO_PLAYER_BENCH:
        tables = strictify_catalog(*suites.bench_instance(mech_id, params), seed=48)
        union_win = to_simultaneous(tables).union_win
        assert list(union_win.items()) == list(reference_union_win(tables).items())


def test_compiler_reads_the_argmax_table_only(monkeypatch):
    spec = make_example("warmup_tightness", {"c": 2})
    tables = strictify_catalog(spec, warmup_catalog(2), seed=12)
    assert tables.argmax
    calls = []

    def counted(menu, v):
        calls.append(1)
        return profit_argmax_set(menu, v)

    monkeypatch.setattr(transforms, "profit_argmax_set", counted)
    to_simultaneous(tables)
    assert calls == []
