"""Shrinkage-step menu reconstruction over the price protocol."""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab.bundles import all_bundles, bit
import taxlab.comm_reconstruct as comm_reconstruct
from taxlab import suites
from taxlab.comm_reconstruct import (PRODUCT_CAP, ConstructionError, ProofInstance,
                                     SoundnessError, build_disjointness_instance,
                                     consistent_rectangle, menu_catalog, most_frequent_prices,
                                     reconstruct_menu_comm, representation_set, split_bundle,
                                     witness_bundles, within_log_budget)
from taxlab.disjointness import ZDisjointnessInstance, max_intersection, solve_z_disjointness
from taxlab.library import default_catalog, make_example, warmup_catalog
from taxlab.menus import menu
from taxlab.protocol import Session, extract_menu, price_run
from taxlab.rational import INF
from taxlab.valuations import single_item_valuation

from references import STANDARD_BENCH

F = Fraction


def menu_of(m, entries):
    table = [INF] * (1 << m)
    table[0] = F(0)
    for s, p in entries.items():
        table[s] = p if p is INF else F(p)
    return menu(m, tuple(table))


def test_majority_table_and_witnesses():
    menus = [menu_of(2, {0b01: 1}), menu_of(2, {0b01: 1}), menu_of(2, {0b01: 2})]
    p = most_frequent_prices(menus, 2)
    assert p[0b01] == 1
    assert witness_bundles(menus[2], p) == [0b01]
    assert witness_bundles(menus[0], p) == []


def test_majority_tie_goes_to_the_first_price_in_canonical_order():
    # a 1-1 tie between 3/2 and 2 goes to 2: numerator order, not value order
    p = most_frequent_prices([menu_of(1, {1: Fraction(3, 2)}), menu_of(1, {1: 2})], 1)
    assert p[1] == 2
    assert most_frequent_prices([menu_of(1, {}), menu_of(1, {1: 5})], 1)[1] == 5  # INF last


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
        cat = default_catalog(mech_id, params)
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
    cat = default_catalog("drop_tie", {"m": 4})
    actual = (cat.players[0][0],)
    rec = reconstruct_menu_comm(Session(spec, cat), 1, actual, seed=2)
    assert rec.steps == () and rec.bits == 0


def test_a_mispriced_bundle_is_a_soundness_error_and_a_fail_line():
    """A price protocol planted to misprice the bundle the reconstruction
    asks about empties the live set: `reconstruct_menu_comm` raises, and
    `comm_reconstruction_check` turns that into a FAIL line naming the
    player."""
    from dataclasses import replace

    params = {"c": 2}
    spec, cat = make_example("warmup_tightness", params), warmup_catalog(**params)
    v_minus = (cat.players[0][0],)
    [step] = reconstruct_menu_comm(Session(spec, cat), 1, v_minus).steps
    assert step.branch == "direct"

    def misprice(_spec, i, v_minus_i, s):
        run = price_run(spec, i, v_minus_i, s)
        return replace(run, price=spec.bound + 1) if s == step.bundle else run

    session = Session(replace(spec, price_protocol=misprice), cat)
    with pytest.raises(SoundnessError, match="the true menu was lost"):
        reconstruct_menu_comm(session, 1, v_minus)
    line, done = suites.comm_reconstruction_check(session, seed=0)
    assert line.render().startswith(f"reconstruct-comm[{spec.mech_id}]: FAIL")
    assert "player 1: the live set emptied" in line.detail
    assert all(i == 0 for i, _, _ in done)


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
        rec = reconstruct_menu_comm(session, 1, v_minus, seed=9)
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
        cat = default_catalog(mech_id, params)
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
                rec = reconstruct_menu_comm(session, i, v_minus, seed=3)
                assert rec.menu.price == truth.price
                for st in rec.steps:
                    if st.branch != "majority":
                        assert 2 * st.live_after <= st.live_before
                assert len(rec.steps) <= max(1, (len(pre) - 1).bit_length())
                assert rec.bits == rec.price_bits + rec.disjointness_bits + rec.bookkeeping_bits


def reference_disjointness_instance(session, i, cand, sample, p_table, zprime_size,
                                    actual_v_minus):
    """`build_disjointness_instance` before the one-pass rewrite: a scan
    over party x candidate x bit x price run, keyed by Fraction tables."""
    n_parties = len(cand)
    bundles = sorted(sample)

    all_runs = {}
    for s in bundles:
        per_combo = {}
        for combo in product(*cand):
            pr = session.price_run(i, combo, s)
            per_combo[tuple(v.table for v in combo)] = (pr.price, pr.transcript_id())
        all_runs[s] = per_combo

    bit_keys = []
    blocks = []
    for s in bundles:
        seen = {}
        for price, tid in all_runs[s].values():
            seen[repr(tid)] = tid
        start = len(bit_keys)
        for k in sorted(seen):
            bit_keys.append((s, seen[k]))
        blocks.append((s, tuple(range(start, len(bit_keys)))))
    l = len(bit_keys)

    strings = []
    for party in range(n_parties):
        table_map = {}
        for w in cand[party]:
            mask = 0
            for k, (s, tid) in enumerate(bit_keys):
                for combo_key, (price, run_tid) in all_runs[s].items():
                    if combo_key[party] == w.table and run_tid == tid and price != p_table[s]:
                        mask |= 1 << k
                        break
            table_map[w.table] = mask
        strings.append(table_map)

    allowed = tuple(
        tuple(strings[party][w.table] for w in cand[party]) for party in range(n_parties)
    )
    inputs = tuple(
        strings[party][actual_v_minus[party].table] for party in range(n_parties)
    )
    exact = max_intersection(allowed, l)
    if not within_log_budget(exact, max(2, zprime_size), 8):
        raise ConstructionError("promise validation failed")
    if exact >= 2 and comb(l, exact) > PRODUCT_CAP:
        raise ConstructionError("z-product exceeds desk scale")
    inst = ZDisjointnessInstance(n=n_parties, l=l, allowed=allowed, inputs=inputs, z=exact)
    return ProofInstance(inst, tuple(blocks), tuple(s for s, _ in bit_keys), tuple(strings))


def test_one_pass_instances_match_the_reference_scan(monkeypatch):
    built = build_disjointness_instance
    compared = []

    def checked(session, i, cand, sample, p_table, zprime_size, actual):
        proof = built(session, i, cand, sample, p_table, zprime_size, actual)
        want = reference_disjointness_instance(session, i, cand, sample, p_table,
                                               zprime_size, actual)
        assert proof.instance.allowed == want.instance.allowed
        assert proof.instance.inputs == want.instance.inputs
        assert proof.instance == want.instance
        assert proof.blocks == want.blocks
        assert proof.bit_bundle == want.bit_bundle
        for party, group in enumerate(cand):
            assert [proof.strings[party][w.scaled_table] for w in group] == \
                [want.strings[party][w.table] for w in group]
        compared.append(session.spec.mech_id)
        return proof

    monkeypatch.setattr(comm_reconstruct, "build_disjointness_instance", checked)
    for mech_id, params in STANDARD_BENCH:
        line, _ = suites.comm_reconstruction_check(
            Session(*suites.bench_instance(mech_id, params)), seed=0)
        assert line.passed, line.render()
    # six of the nine entries take at least one disjointness step
    assert len(set(compared)) == 6, sorted(set(compared))


@lru_cache(maxsize=None)
def bench_session(k):
    """One shared Session per `STANDARD_BENCH` entry: its memos only grow."""
    return Session(*suites.bench_instance(*STANDARD_BENCH[k]))


def reference_rectangle(session, i, cand, s, tid):
    """The rectangle filter as a per-party loop: party by party, keep each
    candidate that some choice of the others' current candidates turns
    into a price run for s with transcript tid."""
    cand = [list(group) for group in cand]
    for party in range(len(cand)):
        cand[party] = [
            w for w in cand[party]
            if any(session.price_run(i, combo, s).transcript_id() == tid
                   for combo in product(*cand[:party], (w,), *cand[party + 1:]))
        ]
    return cand


def reference_split_bundle(live, m):
    """The direct-branch search with every price recounted by `list.count`."""
    for s in all_bundles(m):
        prices_here = [menu.price[s] for menu in live]
        top = max(prices_here.count(p) for p in set(prices_here))
        if 2 * top < len(live):
            return s
    return None


def subsequence(draw, items):
    """A nonempty subsequence of items, order kept."""
    keep = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items))
                .filter(any))
    return [x for x, k in zip(items, keep) if k]


@st.composite
def rectangle_questions(draw):
    session = bench_session(draw(st.integers(0, len(STANDARD_BENCH) - 1)))
    i = draw(st.integers(0, session.spec.n - 1))
    players = session.catalog.players
    cand = [subsequence(draw, group) for group in players[:i] + players[i + 1:]]
    s = draw(st.sampled_from(all_bundles(session.spec.m)))
    if draw(st.booleans()):  # the transcript of a profile in the rectangle
        combo = tuple(draw(st.sampled_from(group)) for group in cand)
    else:  # any catalog profile's, possibly matching nothing here
        combo = tuple(draw(st.sampled_from(group)) for group in players[:i] + players[i + 1:])
    return session, i, cand, s, session.price_run(i, combo, s).transcript_id()


@settings(max_examples=300, deadline=None)
@given(rectangle_questions())
def test_one_pass_rectangle_matches_the_per_party_loop(question):
    session, i, cand, s, tid = question
    assert consistent_rectangle(session, i, cand, s, tid) == \
        reference_rectangle(session, i, cand, s, tid)


@st.composite
def live_sets(draw):
    session = bench_session(draw(st.integers(0, len(STANDARD_BENCH) - 1)))
    i = draw(st.integers(0, session.spec.n - 1))
    return session.spec.m, subsequence(draw, session.menus(i))


@settings(max_examples=300, deadline=None)
@given(live_sets())
def test_split_bundle_matches_the_recounting_search(question):
    m, live = question
    assert split_bundle(live, most_frequent_prices(live, m)) == reference_split_bundle(live, m)


def test_block_bound_check_skips_only_refused_constructions(monkeypatch):
    """A `ConstructionError` leaves an instance unchecked; any other error
    in the builder is a crash and propagates."""
    session = Session(*suites.bench_instance("drop_tax", {"m": 4}))
    assert suites.block_bound_check(session).render().endswith("[1 instances checked]")

    def refuse(*args):
        raise ConstructionError("outgrew desk scale")

    def crash(*args):
        raise ValueError("planted")

    monkeypatch.setattr(suites, "build_disjointness_instance", refuse)
    line = suites.block_bound_check(session)
    assert line.passed and line.render().endswith("[0 instances checked]")
    monkeypatch.setattr(suites, "build_disjointness_instance", crash)
    with pytest.raises(ValueError, match="planted"):
        suites.block_bound_check(session)
