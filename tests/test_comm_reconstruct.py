"""Shrinkage-step menu reconstruction over the price protocol."""

from fractions import Fraction

from taxlab.bundles import all_bundles, bit
from taxlab.comm_reconstruct import (build_disjointness_instance, menu_catalog, most_frequent_prices,
                                     reconstruct_menu_comm, representation_set,
                                     witness_bundles, within_log_budget)
from taxlab.disjointness import max_intersection, solve_z_disjointness
from taxlab.library import default_catalog, make_example, warmup_catalog
from taxlab.menus import Menu
from taxlab.protocol import Session, extract_menu
from taxlab.rational import INF
from taxlab.valuations import single_item_valuation

F = Fraction


def menu_of(m, entries):
    table = [INF] * (1 << m)
    table[0] = F(0)
    for s, p in entries.items():
        table[s] = p if p is INF else F(p)
    return Menu(m, tuple(table))


def test_majority_table_and_witnesses():
    menus = [menu_of(2, {0b01: 1}), menu_of(2, {0b01: 1}), menu_of(2, {0b01: 2})]
    p = most_frequent_prices(menus, 2)
    assert p[0b01] == 1
    assert witness_bundles(menus[2], p) == [0b01]
    assert witness_bundles(menus[0], p) == []


def test_within_log_budget_exact_compare():
    assert within_log_budget(8, 2, 8)
    assert not within_log_budget(9, 2, 8)
    assert within_log_budget(0, 1, 8)


def test_representation_set_clamped_case():
    menus = [menu_of(2, {0b01: 1}), menu_of(2, {0b01: 2})]
    p = most_frequent_prices(menus, 2)
    band = [mn for mn in menus if witness_bundles(mn, p)]
    sample = representation_set(menus, band, z=2, p_table=p, seed=0)
    # the sampling probability clamps to one: everything is in
    assert sample == set(all_bundles(2))
    for mn in band:
        assert any(s in sample for s in witness_bundles(mn, p))


def test_representation_sampling_never_exhausts():
    menus = [menu_of(3, {0b001: 1, 0b011: 2}),
             menu_of(3, {0b001: 2, 0b011: 2}),
             menu_of(3, {0b010: 1, 0b011: 3}),
             menu_of(3, {0b001: 1, 0b011: 4})]
    p = most_frequent_prices(menus, 3)
    band = [mn for mn in menus if witness_bundles(mn, p)]
    for seed in range(100):
        sample = representation_set(menus, band, z=4, p_table=p, seed=seed)
        for mn in band:
            assert any(s in sample for s in witness_bundles(mn, p))
        for mn in menus:
            hits = sum(1 for s in witness_bundles(mn, p) if s in sample)
            assert within_log_budget(hits, len(menus), 8)


def test_warmup_block_structure():
    spec = make_example("warmup_tightness", {"c": 2})
    cat = warmup_catalog(2)
    session = Session(spec, cat)
    live = menu_catalog(session, 1)
    p_table = most_frequent_prices(live, 2)
    actual = (single_item_valuation(2, 0, 3),)
    proof = build_disjointness_instance(
        session, 1, cat.players[:1], [bit(0)], p_table, len(live), actual
    )
    # one block for item a, one bit per announced index
    assert len(proof.blocks) == 1
    s, bits = proof.blocks[0]
    assert s == bit(0) and len(bits) == 4
    verdict = solve_z_disjointness(proof.instance)
    assert not verdict.disjoint
    # the single party's string flags exactly the transcript showing a
    # price off the majority
    truth = extract_menu(spec, 1, actual)
    assert truth.price[bit(0)] != p_table[bit(0)]


def test_every_block_carries_at_most_one_intersecting_bit():
    for mech_id, params in [("warmup_tightness", {"c": 2}),
                            ("drop_tax", {"m": 4}),
                            ("drop_price", {"m": 4})]:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, spec, params)
        for i in range(spec.n):
            session = Session(spec, cat)
            live = menu_catalog(session, i)
            if len(live) < 2:
                continue
            others = cat.players[:i] + cat.players[i + 1:]
            p_table = most_frequent_prices(live, spec.m)
            sample = sorted({
                s for menu in live for s in witness_bundles(menu, p_table)
            })
            actual = tuple(group[0] for group in others)
            proof = build_disjointness_instance(
                session, i, others, sample, p_table, len(live), actual
            )
            for s, bit_range in proof.blocks:
                mask = 0
                for k in bit_range:
                    mask |= 1 << k
                restricted = [
                    tuple(a & mask for a in strings)
                    for strings in proof.instance.allowed
                ]
                assert max_intersection(restricted, proof.instance.l) <= 1


def test_warmup_single_direct_check():
    spec = make_example("warmup_tightness", {"c": 2})
    cat = warmup_catalog(2)
    actual = (single_item_valuation(2, 0, 3),)
    rec = reconstruct_menu_comm(Session(spec, cat), 1, actual, seed=2)
    assert len(rec.steps) == 1 and rec.steps[0].branch == "direct"
    assert rec.steps[0].live_before == 4 and rec.steps[0].live_after == 1
    truth = extract_menu(spec, 1, actual)
    assert rec.menu.price == truth.price


def test_trivial_single_menu():
    spec = make_example("drop_tie", {"m": 4})
    cat = default_catalog("drop_tie", spec, {"m": 4})
    actual = (cat.players[0][0],)
    rec = reconstruct_menu_comm(Session(spec, cat), 1, actual, seed=2)
    assert rec.steps == () and rec.bits == 0


def test_rich_catalog_multi_step_shrinkage():
    from taxlab.library import drop_tax, encode_disjointness_string
    from taxlab.valuations import ValuationCatalog

    m = 4
    strings = ["000000", "111111", "101010", "010101", "110000", "001100",
               "000011", "111000", "100100", "011011", "111100", "001111",
               "100001", "010010", "110110", "011110"]
    p1 = tuple(encode_disjointness_string(m, s) for s in strings)
    p2 = tuple(encode_disjointness_string(m, s, high=2) for s in strings)
    cat = ValuationCatalog((p1, p2))
    spec = drop_tax(m)
    session = Session(spec, cat)
    pre = menu_catalog(session, 1)
    assert len(pre) == 16
    deepest = 0
    seen = set()
    for profile in cat.profiles():
        v_minus = profile[:1]
        key = v_minus[0].table
        if key in seen:
            continue
        seen.add(key)
        truth = extract_menu(spec, 1, v_minus)
        rec = reconstruct_menu_comm(session, 1, v_minus, seed=9, precomputed=pre)
        assert rec.menu.price == truth.price
        deepest = max(deepest, len(rec.steps))
        for st in rec.steps:
            if st.branch != "majority":
                assert 2 * st.live_after <= st.live_before
    assert deepest >= 3  # the live set needs several halvings from 16


def test_sweep_small_mechanisms():
    for mech_id, params in [("drop_tax", {"m": 4}),
                            ("drop_price", {"m": 4}),
                            ("posted_prices", {"prices": ["1", "1", "2"], "n": 3})]:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, spec, params)
        session = Session(spec, cat)
        for i in range(spec.n):
            pre = menu_catalog(session, i)
            seen = set()
            for profile in cat.profiles():
                v_minus = profile[:i] + profile[i + 1:]
                key = tuple(v.table for v in v_minus)
                if key in seen:
                    continue
                seen.add(key)
                truth = extract_menu(spec, i, v_minus)
                rec = reconstruct_menu_comm(session, i, v_minus, seed=3,
                                            precomputed=pre)
                assert rec.menu.price == truth.price
                for st in rec.steps:
                    if st.branch != "majority":
                        assert 2 * st.live_after <= st.live_before
                assert len(rec.steps) <= max(1, (len(pre) - 1).bit_length())
                assert rec.bits == rec.price_bits + rec.disjointness_bits + rec.bookkeeping_bits
