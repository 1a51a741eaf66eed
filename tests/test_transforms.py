"""The announce-then-play wrapper, the deviation audit, strictification,
and the one-round compiler."""

from fractions import Fraction

import pytest

from taxlab.bundles import all_bundles, bit, size
from taxlab.library import default_catalog, make_example, warmup_catalog
from taxlab.menus import profit_argmax_set
from taxlab.protocol import Session, run_mechanism
from taxlab.rng import stream
from taxlab.transforms import (DeviationStrategy, PrecisionError, build_tables,
                               default_eps, deviation_audit, is_precise,
                               reachable_menus, size_tilt, strictify,
                               strictify_catalog, to_dominant_run,
                               to_simultaneous)
from taxlab.valuations import (ValuationCatalog, additive_valuation,
                               random_monotone_valuation, single_item_valuation,
                               valuation_from_values)

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
        assert run.outcome.allocation == base.allocation
        assert run.outcome.payments == base.payments
        assert run.outcome.inconsistent is None
        assert run.outcome.bits_constructed == \
            2 * (tables.tax_bits + spec.m) + base.transcript.bits
        assert run.outcome.bits_theorem == \
            2 * (tables.tax_bits + spec.m) + spec.tie_cost(profile)


def test_menu_lie_makes_player_inconsistent():
    spec, cat, tables = warmup_tables(1)
    alice = cat.players[0][0]   # rounds to the first index
    bob = cat.players[1][2]
    wrong_idx = 1 - tables.index_of[0][alice.table]
    lie = DeviationStrategy(wrong_idx, 0, alice)
    run = to_dominant_run(tables, (alice, bob), (lie, "truthful"))
    assert run.outcome.inconsistent == 0
    # the truthful side wins its announced bundle at the announced menu
    announced_menu = tables.presented[0][wrong_idx]
    t_bob = run.bundles[1]
    assert run.outcome.allocation[1] == t_bob
    assert run.outcome.payments[1] == announced_menu.price[t_bob]
    assert run.outcome.allocation[0] == 0 and run.outcome.payments[0] == 0


def test_consistent_misreport_plays_as_that_type():
    spec, cat, tables = warmup_tables(2)
    alice, alias = cat.players[0][0], cat.players[0][3]
    bob = cat.players[1][4]
    pretend = DeviationStrategy(
        tables.index_of[0][alias.table],
        0,  # the bundle report does not matter for consistency here
        alias,
    )
    run = to_dominant_run(tables, (alice, bob), (pretend, "truthful"))
    base = run_mechanism(spec, (alias, bob))
    assert run.outcome.allocation == base.allocation
    assert run.outcome.payments == base.payments


def test_out_of_range_menu_index_is_inconsistency():
    spec, cat, tables = warmup_tables(1)
    alice, bob = cat.players[0][0], cat.players[1][1]
    rogue = DeviationStrategy(99, 0, alice)
    run = to_dominant_run(tables, (alice, bob), (rogue, "truthful"))
    assert run.outcome.inconsistent == 0


def test_audit_examples():
    for mech_id, params in [("posted_prices", {"prices": ["1", "2"], "n": 2}),
                            ("warmup_tightness", {"c": 2, "m": 2})]:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, spec, params)
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
            u_wrap = profile[i].value(run.outcome.allocation[i]) - run.outcome.payments[i]
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


def test_strictified_catalog_is_precise():
    spec = make_example("warmup_tightness", {"c": 2})
    cat = warmup_catalog(2)
    stats = {}
    scat = strictify_catalog(spec, cat, seed=11, stats=stats)
    assert stats["max_resamples"] <= 3
    tables = build_tables(Session(spec, scat))
    assert is_precise(tables) is None
    for i in (0, 1):
        for menu in reachable_menus(tables, i):
            for v in scat.players[i]:
                assert len(profit_argmax_set(menu, v)) == 1


def test_simultaneous_single_menu_each():
    spec = make_example("posted_prices", {"prices": ["1", "2"], "n": 2})
    v0 = additive_valuation([2, 0])
    v1 = additive_valuation([0, 3])
    cat = ValuationCatalog(((v0,), (v1,)))
    table = to_simultaneous(spec, cat)
    assert len(table.union_win) == 1
    (alloc, bits) = table.run((v0, v1))
    base = run_mechanism(spec, (v0, v1))
    assert base.allocation[0] & ~alloc[0] == 0
    assert base.allocation[1] & ~alloc[1] == 0


def test_simultaneous_warmup_containment_and_welfare():
    spec = make_example("warmup_tightness", {"c": 2})
    cat = warmup_catalog(2)
    scat = strictify_catalog(spec, cat, seed=12)
    table = to_simultaneous(spec, scat)
    for profile in scat.profiles():
        base = run_mechanism(spec, profile)
        (s1, s2), bits = table.run(profile)
        assert base.allocation[0] & ~s1 == 0
        assert base.allocation[1] & ~s2 == 0
        assert bits == 2 * table.tables.tax_bits
        welfare_sim = profile[0].value(s1) + profile[1].value(s2)
        welfare_base = profile[0].value(base.allocation[0]) + \
            profile[1].value(base.allocation[1])
        assert welfare_sim >= welfare_base


def test_imprecise_catalog_rejected():
    spec = make_example("warmup_tightness", {"c": 2})
    cat = warmup_catalog(2)
    with pytest.raises(PrecisionError):
        to_simultaneous(spec, cat)  # raw integer catalog ties everywhere
