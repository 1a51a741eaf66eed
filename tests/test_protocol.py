"""Mechanism runs, menu extraction, and complexity measurement."""

from dataclasses import MISSING, fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab.bundles import all_bundles, bit
from taxlab.library import (default_catalog, make_example, posted_prices,
                            warmup_catalog, warmup_tightness)
from taxlab.menus import ContractError
from taxlab.protocol import (MechanismSpec, MechanismBugError, PriceRun, additive_probe,
                             extract_menu, measure_complexities, price_run, run_mechanism)
from taxlab.rational import INF
from taxlab.valuations import (DomainError, ValuationCatalog, additive_valuation,
                               single_item_valuation)

from references import STANDARD_BENCH, unpriced_spec

F = Fraction

def test_warmup_minimal_example():
    spec = warmup_tightness(1)
    alice = single_item_valuation(2, 0, 1)
    bob = single_item_valuation(2, 0, 1)
    res = run_mechanism(spec, (alice, bob))
    assert res.allocation == (0, bit(0)) and res.payments[1] == 1


def test_query_log_counts_match_trace():
    spec = make_example("mt_gadget", {"m": 4})
    cat = default_catalog("mt_gadget", {"m": 4})
    for profile in cat.profiles():
        res = run_mechanism(spec, profile)
        for kind in ("val", "dem"):
            assert sum(res.query_count(kind, i) for i in range(spec.n)) == \
                res.query_count(kind) == sum(1 for t in res.queries if t[0] == kind)


def test_warmup_round_trip_trace():
    spec = warmup_tightness(2)
    alice = single_item_valuation(2, 0, F(12, 5))  # rounds to 2
    bob = single_item_valuation(2, 0, 3)
    res = run_mechanism(spec, (alice, bob))
    assert res.allocation == (0, bit(0))
    assert res.payments == (F(0), F(2))
    assert res.bits == 3  # two bits for the index, one to accept
    low_bob = single_item_valuation(2, 0, 1)
    res2 = run_mechanism(spec, (alice, low_bob))
    assert res2.allocation == (0, 0) and res2.payments[1] == 0
    assert res2.tokens[-1][2] == 0  # final refusal bit


def test_run_is_deterministic_and_disjoint():
    for mech_id, params in STANDARD_BENCH:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, params)
        profile = next(iter(cat.profiles()))
        a = run_mechanism(spec, profile)
        b = run_mechanism(spec, profile)
        assert a.tokens == b.tokens
        assert a.allocation == b.allocation and a.payments == b.payments
        taken = 0
        for mask in a.allocation:
            assert not taken & mask
            taken |= mask


def test_transcripts_prefix_free():
    for mech_id, params in STANDARD_BENCH[:6]:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, params)
        streams = [tuple(t[:3] for t in run_mechanism(spec, p).tokens) for p in cat.profiles()]
        for a in streams:
            for b in streams:
                assert not (len(a) < len(b) and b[:len(a)] == a), spec.mech_id


def test_all_zero_profile_pays_menu_prices():
    for mech_id, params in STANDARD_BENCH:
        spec = make_example(mech_id, params)
        zero = additive_valuation([0] * spec.m)
        profile = tuple(zero for _ in range(spec.n))
        res = run_mechanism(spec, profile)
        for i in range(spec.n):
            v_minus = profile[:i] + profile[i + 1:]
            menu = extract_menu(spec, i, v_minus)
            assert res.payments[i] == menu.price[res.allocation[i]]
            assert res.payments[i] == 0


def test_extract_menu_examples():
    spec = warmup_tightness(2)
    menu = extract_menu(spec, 1, (single_item_valuation(2, 0, 3),))
    assert menu.price == (F(0), F(3), INF, INF)
    posted = posted_prices([1, 1], n=2)
    zero = additive_valuation([0, 0])
    menu_p = extract_menu(posted, 1, (zero,))
    assert menu_p.price == (F(0), F(1), F(1), F(2))

    def never_alloc(profile, rec):
        return (0, 0), (F(0), F(0))

    lazy = unpriced_spec("never", 2, 2, F(1), "bit", never_alloc)
    menu_l = extract_menu(lazy, 1, (zero,))
    assert menu_l.price == (F(0), INF, INF, INF)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.builds(F, st.integers(0, 9), st.sampled_from([1, 2, 3, 7])))
def test_memoized_additive_probe_equals_a_fresh_build(m, bound):
    """The probe `extract_menu` reads from its memo, keyed by B's int pair,
    for every bundle, is the additive valuation worth 3B on each of the
    bundle's items."""
    for s in all_bundles(m):
        fresh = additive_valuation([3 * bound if s & bit(j) else F(0) for j in range(m)])
        got = additive_probe(m, bound.as_integer_ratio(), s)
        assert got.table == fresh.table and got.scaled_table == fresh.scaled_table
        assert additive_probe(m, bound.as_integer_ratio(), s) is got


def test_measure_warmup_canonical():
    spec = warmup_tightness(2)
    rep = measure_complexities(spec, warmup_catalog(2))
    assert rep.tax == 2 and rep.cc == 3
    assert rep.valid and rep.menu_counts == (1, 4)
    assert rep.mc == 2
    assert rep.row()["mechanism"].startswith("warmup_tightness")


def test_measure_value_tightness_counts():
    spec = make_example("value_tightness", {"c": 3, "m": 3})
    cat = default_catalog("value_tightness", {"c": 3, "m": 3})
    rep = measure_complexities(spec, cat)
    assert rep.val == 4  # one probe for the chooser plus one per listed bundle
    assert rep.mc == 4   # the empty bundle joins the three singletons
    assert rep.mc <= rep.val + 2


def test_measure_single_menu_posted_tax_zero():
    spec = posted_prices([1, 2], n=1)
    cat = ValuationCatalog((tuple(
        additive_valuation([x, x]) for x in (0, 1, 3)
    ),))
    rep = measure_complexities(spec, cat)
    assert rep.tax == 0 and rep.menu_counts == (1,)


def nothing_for_sale(spec, i, v_minus_i, s):
    """The price protocol of a menu that offers only the empty bundle."""
    return PriceRun(F(0) if s == 0 else INF, ())


def test_taxation_check_flags_bad_mechanism():
    def charge_for_nothing(profile, rec):
        return (0, 0), (F(0), F(1))

    spec = MechanismSpec("bad", 2, 2, F(10), "bit", charge_for_nothing, nothing_for_sale,
                         lambda profile: 0)
    zero = additive_valuation([0, 0])
    one = additive_valuation([1, 1])
    cat = ValuationCatalog(((zero,), (one,)))
    rep = measure_complexities(spec, cat)
    # every protocol answer matches its menu; player 1's run pays 1 for nothing
    assert not rep.valid and rep.witness == "player 1, profile (0, 0)"


def test_a_spec_without_its_price_protocol_or_tie_cost_is_refused():
    """Every mechanism declares both: there is no fallback to default to."""
    def never_alloc(profile, rec):
        return (0, 0), (F(0), F(0))

    shape = ("bare", 2, 2, F(1), "bit", never_alloc)
    with pytest.raises(TypeError, match="tie_cost"):
        MechanismSpec(*shape, price_protocol=nothing_for_sale)
    with pytest.raises(TypeError, match="price_protocol"):
        MechanismSpec(*shape, tie_cost=lambda profile: 0)
    assert all(f.default is MISSING and f.default_factory is MISSING
               for f in fields(MechanismSpec))


def test_an_extracted_price_above_the_declared_bound_is_refused():
    """drop_tax(m=4)'s menus price bundles at 0, 1 and INF: under a declared
    bound of 1/2 the measurement refuses, naming the largest price above it."""
    spec = make_example("drop_tax", {"m": 4})
    cat = default_catalog("drop_tax", {"m": 4})
    with pytest.raises(ContractError, match=r"extracted price 1 exceeds declared bound 1/2"):
        measure_complexities(replace(spec, bound=F(1, 2)), cat)


def test_library_measurements_are_valid():
    for mech_id, params in STANDARD_BENCH:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, params)
        rep = measure_complexities(spec, cat)
        assert rep.valid, (spec.mech_id, rep.witness)
        assert rep.tax <= rep.cc


def test_price_protocols_match_extracted_menus():
    for mech_id, params in STANDARD_BENCH:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, params)
        for i in range(spec.n):
            seen = set()
            for profile in cat.profiles():
                v_minus = profile[:i] + profile[i + 1:]
                key = tuple(v.table for v in v_minus)
                if key in seen:
                    continue
                seen.add(key)
                menu = extract_menu(spec, i, v_minus)
                for s in all_bundles(spec.m):
                    assert price_run(spec, i, v_minus, s).price == menu.price[s]


def test_mt_gadget_spec_examples():
    spec = make_example("mt_gadget", {"m": 4})
    from taxlab.demand_menus import hidden_problem_valuation
    t_mask = 0b0011
    v1 = hidden_problem_valuation(4, t_mask)
    zero = additive_valuation([0] * 4)
    res = run_mechanism(spec, (v1, zero))
    assert res.allocation[1] == 0  # nothing profitable for a zero buyer


def test_drop_tie_intersection_example():
    spec = make_example("drop_tie", {"m": 4})
    from taxlab.library import encode_disjointness_string
    x = "101010"  # six half-size bundles at m=4
    y = "110101"  # shares bit 0 with x and never both-zero
    res = run_mechanism(spec, (encode_disjointness_string(4, x),
                               encode_disjointness_string(4, y)))
    assert res.allocation[1] == bit(0)  # item a signals a common bundle


def test_make_example_unknown_id():
    with pytest.raises(DomainError):
        make_example("mystery", {})


def test_profile_shape_errors():
    spec = warmup_tightness(1)
    with pytest.raises(DomainError):
        run_mechanism(spec, (additive_valuation([1, 1]),))

    def overlapping(profile, rec):
        return (0b01, 0b01), (F(0), F(0))

    bad = unpriced_spec("overlap", 2, 2, F(1), "bit", overlapping)
    zero = additive_valuation([0, 0])
    with pytest.raises(MechanismBugError):
        run_mechanism(bad, (zero, zero))
