"""Bundles, exact prices, valuations, and the two query oracles."""

import random
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab.bundles import (all_bundles, best_bundle, bit, bundles_of_size, is_monotone,
                            monotone_closure, monotone_layout, size, sizes, subset_sums,
                            superset_min)
from taxlab.queries import bundle_price, demand_ints, demand_query, price_ints, value_query
from taxlab.rational import INF, Infinite, common_denominator, is_finite, parse_price
from taxlab.rng import stream
from taxlab.valuations import (DomainError, Valuation, ValuationCatalog,
                               additive_valuation, demand_candidates,
                               layered_valuation, random_monotone_valuation,
                               single_item_valuation, valuation,
                               valuation_from_ints, valuation_from_json,
                               valuation_from_values)

from references import (XOSClauses, classify_valuation, format_price, subsets, supersets,
                        valuation_to_json, xos_from_clauses)


def sum_prices(xs):
    """The sum of a price list, INF if any is INF: the `Fraction` sum the
    menu checks used before they ran on ints, kept as a reference."""
    total = Fraction(0)
    for x in xs:
        if isinstance(x, Infinite):
            return INF
        total = total + x
    return total


def test_infinite_sentinel_order_and_absorption():
    assert INF > Fraction(10**9) and not INF < Fraction(0)
    assert Fraction(1, 3) < INF and INF == INF and INF <= INF
    assert INF + Fraction(5) is INF and Fraction(5) + INF is INF
    for product in (lambda: INF * 2, lambda: 2 * INF, lambda: INF * Fraction(1, 2)):
        with pytest.raises(TypeError):  # no price is scaled: INF has no product
            product()
    assert sum_prices([Fraction(1), INF]) is INF
    assert sum_prices([Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 6)


def test_price_parsing_roundtrip():
    assert parse_price("inf") is INF
    assert parse_price("3/4") == Fraction(3, 4)
    assert format_price(INF) == "inf"
    assert format_price(Fraction(-2, 6)) == "-1/3"


def test_bundle_helpers():
    assert list(subsets(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(supersets(0b001, 2)) == [0b01, 0b11]
    assert bundles_of_size(4, 2)[0] == 0b0011
    for m in range(1, 9):
        for k in range(m + 1):
            sized = bundles_of_size(m, k)
            assert sized == tuple(s for s in all_bundles(m) if size(s) == k)  # ascending
            assert bundles_of_size(m, k) is sized  # built once per (m, k)
    assert size(0b1011) == 3
    assert sizes(3) == (0, 1, 1, 2, 1, 2, 2, 3) and sizes(3) is sizes(3)
    assert subset_sums([1, 10, 100]) == [0, 1, 10, 11, 100, 101, 110, 111]
    assert subset_sums([]) == [0]
    assert common_denominator([Fraction(1, 2), Fraction(2, 3), Fraction(0)]) == (6, (3, 4, 0))
    assert common_denominator([]) == (1, ())


def test_valuation_validation():
    with pytest.raises(DomainError):
        # not normalized
        valuation(1, (Fraction(1), Fraction(2)))
    with pytest.raises(DomainError):
        valuation(2, (Fraction(0), Fraction(2), Fraction(0), Fraction(1)))


def test_monotonicity_is_checked_across_denominators():
    F = Fraction
    # v({1}) = 1/2 > v({1, 2}) = 3/7, though the numerators rise 1 -> 3
    with pytest.raises(DomainError, match="monotone"):
        valuation(2, (F(0), F(1, 2), F(0), F(3, 7)))
    # v({1}) = 3/7 < v({1, 2}) = 1/2, though the numerators fall 3 -> 1
    ok = valuation(2, (F(0), F(3, 7), F(0), F(1, 2)))
    assert ok.scaled_table == (14, (0, 6, 0, 7))
    # equal values over different denominators are monotone
    assert valuation(2, (F(0), F(2, 4), F(1, 2), F(1, 2))).max_value() == F(1, 2)


def test_valuation_from_ints_refuses_as_the_constructor_does():
    F = Fraction
    cases = [
        (2, 2, [0, 1, 2], (F(0), F(1, 2), F(1))),                 # wrong length
        (1, 3, [1, 2], (F(1, 3), F(2, 3))),                        # nonzero empty bundle
        (2, 7, [0, 3, 0, 2], (F(0), F(3, 7), F(0), F(2, 7))),     # not monotone
        (0, 1, [0], (F(0),)),                                      # item count
    ]
    for m, d, ints, table in cases:
        with pytest.raises(DomainError) as direct:
            valuation(m, table)
        with pytest.raises(DomainError) as built:
            valuation_from_ints(m, d, ints)
        with pytest.raises(DomainError) as stored:
            Valuation(m, (d, tuple(ints)))
        assert str(built.value) == str(direct.value) == str(stored.value)
    # the stored pair itself must be the reduced form: the raw constructor's own refusals
    for pair in ((2, (0, 2)), (4, (0, 6)), (0, (0, 1)), (-1, (0, -1)), (1, [0, 1])):
        with pytest.raises(DomainError, match="reduced over a positive int"):
            Valuation(1, pair)


def test_valuation_from_ints_reduces_its_input():
    F = Fraction
    v = valuation_from_ints(2, 12, [0, 6, 4, 10])
    assert v.scaled_table == (6, (0, 3, 2, 5)) == common_denominator(v.table)
    assert v == valuation(2, (F(0), F(1, 2), F(1, 3), F(5, 6)))
    zero = valuation_from_ints(2, 8, [0, 0, 0, 0])
    assert zero.scaled_table == (1, (0, 0, 0, 0)) == common_denominator(zero.table)
    whole = valuation_from_ints(1, 4, (0, 8))
    assert whole.table == (F(0), F(2)) and all(type(x) is F for x in whole.table)
    assert whole.scaled_table == (1, (0, 2))


def test_int_or_float_entries_are_refused():
    # ints carry .numerator/.denominator too, so only the type check stops them
    for table in ((Fraction(0), 1), (0, Fraction(1)), (Fraction(0), 0.5),
                  (Fraction(0), True)):
        with pytest.raises(DomainError, match="exact rationals"):
            valuation(1, table)


def test_value_query_examples():
    v = additive_valuation([1, 2])
    assert value_query(v, 0b11) == 3
    assert value_query(v, 0) == 0
    v_count = valuation_from_values(3, {s: size(s) for s in all_bundles(3)})
    assert value_query(v_count, 0b101) == 2
    with pytest.raises(DomainError):
        value_query(v, 0b100)
    with pytest.raises(DomainError):
        value_query(v, -1)


def test_value_and_max_value_read_the_stored_ints():
    """Values come from the reduced ints as Fraction(ints[s], D): equal to
    the `Fraction` table entries, and no table is built for them."""
    rng = stream(22, "value-ints")
    for m in range(1, 7):
        v = random_monotone_valuation(m, rng, 8, Fraction(5, 3))
        got = [v.value(s) for s in all_bundles(m)] + [v.max_value()]
        assert "table" not in vars(v)
        assert got == [*v.table, v.table[-1]]
        assert all(type(x) is Fraction for x in got)
        for s in (-1, 1 << m):
            with pytest.raises(DomainError, match="out of range"):
                v.value(s)


def test_demand_query_examples():
    v = valuation_from_values(2, {0b01: 3, 0b10: 2, 0b11: 4})
    ans, val = demand_query(v, (Fraction(1), Fraction(1)))
    assert ans == 0b01 and val == 3  # profits 0,2,1,2; mask 1 precedes 3
    any_v = random_monotone_valuation(3, stream(0, "t"))
    assert demand_query(any_v, (INF, INF, INF)) == (0, Fraction(0))
    zero = additive_valuation([0, 0])
    assert demand_query(zero, (Fraction(0), Fraction(0))) == (0, Fraction(0))
    F = Fraction
    w = valuation_from_values(3, {0b001: 1, 0b010: 1, 0b100: 5, 0b111: 7})
    # item 3 is worth 5 but blocked; items 1 and 2 are paid to be taken
    assert demand_query(w, (F(-2), F(-3), INF)) == (0b011, F(1))
    assert demand_query(w, (F(-1, 3), INF, INF)) == (0b001, F(1))
    assert demand_query(w, (F(1, 2), F(1), F(5))) == (0b001, F(1))  # 1/2 ties 7 - 13/2


def test_demand_query_optimality_exhaustive():
    rng = stream(1, "demand-opt")
    price_pool = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]
    for _ in range(150):
        m = rng.randrange(1, 5)
        v = random_monotone_valuation(m, rng)
        prices = tuple(price_pool[rng.randrange(len(price_pool))] for _ in range(m))
        ans, val = demand_query(v, prices)
        assert val == v.value(ans)
        best = ans_profit = v.value(ans) - bundle_price(prices, ans)
        for s in all_bundles(m):
            cost = bundle_price(prices, s)
            if not is_finite(cost):
                continue
            profit = v.value(s) - cost
            assert profit <= ans_profit
            if profit == ans_profit:
                assert ans <= s  # mask minimality among maximizers


def reference_demand_query(v, prices):
    """The Fraction loop the integer kernel replaced: every bundle priced
    by an O(m) sum, strict improvement in ascending mask order."""
    best_mask, best_profit = 0, Fraction(0)
    for s in all_bundles(v.m):
        cost = bundle_price(prices, s)
        if not is_finite(cost):
            continue
        profit = v.table[s] - cost
        if profit > best_profit:
            best_mask, best_profit = s, profit
    return best_mask, v.table[best_mask]


# INF, zero, and finite prices over mixed denominators, negative ones included
DEMAND_PRICES = st.one_of(st.just(INF), st.just(Fraction(0)),
                          st.builds(Fraction, st.integers(-8, 16), st.sampled_from([1, 2, 3, 7, 8])))


@st.composite
def grid_demand_questions(draw):
    """Grid-valued valuations and mixed-denominator prices: many ties.
    Prices may be negative or zero, and a vector may be all INF."""
    m = draw(st.integers(1, 8))
    grid = draw(st.sampled_from([1, 2, 3, 4, 8]))
    scale = draw(st.sampled_from([Fraction(1), Fraction(4), Fraction(5, 3)]))
    v = random_monotone_valuation(m, draw(st.randoms(use_true_random=False)), grid, scale)
    if draw(st.booleans()) and draw(st.booleans()):
        return v, (INF,) * m
    return v, tuple(draw(st.lists(DEMAND_PRICES, min_size=m, max_size=m)))


@settings(max_examples=400, deadline=None)
@given(grid_demand_questions())
def test_demand_query_matches_fraction_reference(question):
    v, prices = question
    ans, val = demand_query(v, prices)
    assert (ans, val) == reference_demand_query(v, prices)
    assert isinstance(val, Fraction)
    d, ints = v.scaled_table
    assert tuple(Fraction(x, d) for x in ints) == v.table
    with pytest.raises(DomainError):
        demand_query(v, prices + (Fraction(0),))


@st.composite
def batched_demand_questions(draw):
    """A list of valuations on one m, each drawn on its own grid and scale,
    so denominators and grand values mix, and one price vector over INF,
    zero, negative and mixed-denominator prices, sometimes all INF."""
    m = draw(st.integers(1, 8))
    rng = draw(st.randoms(use_true_random=False))
    shapes = st.tuples(st.sampled_from([1, 2, 3, 8]),
                       st.sampled_from([Fraction(1), Fraction(4), Fraction(5, 3),
                                        Fraction(1, 7), Fraction(9, 2)]))
    vs = [random_monotone_valuation(m, rng, grid, scale)
          for grid, scale in draw(st.lists(shapes, max_size=5))]
    if draw(st.booleans()) and draw(st.booleans()):
        return vs, (INF,) * m
    return vs, tuple(draw(st.lists(DEMAND_PRICES, min_size=m, max_size=m)))


@settings(max_examples=300, deadline=None)
@given(batched_demand_questions())
def test_demand_bundles_match_the_fraction_reference(question):
    vs, prices = question
    assert demand_ints(vs, *price_ints(prices)) == [
        reference_demand_query(v, prices)[0] for v in vs]
    if vs:
        with pytest.raises(DomainError):
            demand_ints(vs, *price_ints(prices + (Fraction(0),)))
        with pytest.raises(DomainError):
            demand_ints(vs, *price_ints(prices[1:]))


@settings(max_examples=300, deadline=None)
@given(batched_demand_questions(), st.integers(1, 3))
def test_demand_ints_match_the_fraction_reference_over_any_common_denominator(question, k):
    """The integer kernel on the vector P * k, [x * k ...]: an unreduced
    denominator moves no answer.  A vector one item long or short is refused."""
    vs, prices = question
    den, ints = price_ints(prices)
    assert den > 0 and all(x is None or type(x) is int for x in ints)
    assert [None if x is None else Fraction(x, den) for x in ints] == [
        None if p is INF else p for p in prices]
    scaled = [None if x is None else x * k for x in ints]
    assert demand_ints(vs, den * k, scaled) == [reference_demand_query(v, prices)[0] for v in vs]
    if vs:
        for wrong in (scaled + [0], scaled[1:], scaled + [None]):
            with pytest.raises(DomainError, match="price vector length must equal m"):
                demand_ints(vs, den * k, wrong)
    else:
        assert demand_ints(vs, den * k, scaled[1:]) == []
    # a zero or negative denominator is refused, not divided by or flipping every sign
    for wrong_den in (0, -den * k):
        with pytest.raises(DomainError, match="denominator must be positive"):
            demand_ints(vs, wrong_den, scaled)


def listed(v):
    """A copy of v carrying its demand candidates."""
    return replace(v, candidates=demand_candidates(v.scaled_table[1], v.m))


@settings(max_examples=300, deadline=None)
@given(batched_demand_questions(), st.integers(1, 3), st.booleans())
def test_listed_valuations_answer_as_the_dense_scan_does(question, k, unsigned):
    """Copies carrying their candidates answer every vector as the plain
    valuations do, alone, all listed or mixed in one batch, over any
    common denominator; `unsigned` drops the signs, so the candidate scan
    runs on most vectors, not only the few with no negative price."""
    vs, prices = question
    if unsigned:
        prices = tuple(p if p is INF else abs(p) for p in prices)
    den, ints = price_ints(prices)
    scaled = [None if x is None else x * k for x in ints]
    dense = demand_ints(vs, den * k, scaled)
    assert dense == [reference_demand_query(v, prices)[0] for v in vs]
    mixed = [listed(v) if j % 2 else v for j, v in enumerate(vs)]
    assert demand_ints([listed(v) for v in vs], den * k, scaled) == dense
    assert demand_ints(mixed, den * k, scaled) == dense
    assert [demand_query(w, prices) for w in mixed] == [demand_query(v, prices) for v in vs]


def test_demand_candidates_are_the_bundles_no_proper_subset_matches():
    """The one-item-smaller test of `demand_candidates` equals the
    definition over every proper subset, on random tables at m = 1..8."""
    rng = stream(3, "demand-candidates")
    for m in range(1, 9):
        for grid in (1, 2, 8):
            ints = random_monotone_valuation(m, rng, grid).scaled_table[1]
            assert demand_candidates(ints, m) == tuple(
                u for u in all_bundles(m) if all(ints[s] != ints[u] for s in subsets(u) if s != u))
    assert demand_candidates((0, 0, 0, 0), 2) == (0,)
    assert demand_candidates(additive_valuation([1, 2, 3]).scaled_table[1], 3) == tuple(range(8))


def test_a_wrong_candidate_list_is_refused_and_the_field_is_ignored():
    v = random_monotone_valuation(3, random.Random(5), 2)
    good = demand_candidates(v.scaled_table[1], 3)
    assert 0 < len(good) < 8
    missing = next(u for u in all_bundles(3) if u not in good)
    for wrong in (good[:-1], good[1:], tuple(sorted(good + (missing,))), good[::-1], list(good),
                  ()):
        with pytest.raises(DomainError, match="demand candidates"):
            Valuation(3, v.scaled_table, candidates=wrong)
    w = listed(v)
    assert w.candidates == good and v.candidates is None
    assert w == v and hash(w) == hash(v) and repr(w) == repr(v) and len({v, w}) == 1


def test_a_negative_price_on_a_flat_item_takes_the_dense_scan():
    """Item 1 adds nothing to v, so no bundle holding it is a candidate; at
    price -1 every maximizer holds it, and the candidates alone would
    answer 0b01.  The vector has a negative price, so the kernel scans
    every bundle, and the listed copy answers 0b11 as the plain one does."""
    v = single_item_valuation(2, 0, 1)
    w = listed(v)
    assert w.candidates == (0, 0b01)
    den, ints = price_ints((Fraction(0), Fraction(-1)))
    row, cost = v.scaled_table[1], subset_sums(ints)
    pruned = [row[u] - cost[u] for u in w.candidates]
    assert w.candidates[pruned.index(max(pruned))] == 0b01  # the trap
    assert demand_ints([w], den, ints) == demand_ints([v], den, ints) == [0b11]
    assert demand_ints([v, w, w], den, ints) == [0b11] * 3
    # with item 1 priced 0, the candidate scan answers 0b01 as the dense one does
    assert demand_ints([w, v], *price_ints((Fraction(0), Fraction(0)))) == [0b01, 0b01]


def test_a_valuation_asked_at_two_denominators_answers_as_fresh_copies_do():
    """Asked alternately over 3 and 5 (D = 2), each answer equals a fresh
    copy's, and the valuation keeps no rescaled row: beside its fields it
    holds at most the lazily built `table`."""
    F = Fraction
    table = (F(0), F(3, 2), F(1, 2), F(2))
    v = valuation(2, table)
    thirds, fifths = (F(2, 3), F(4, 3)), (F(7, 5), F(2, 5))
    for prices in (thirds, fifths, thirds, fifths, (F(1, 2), F(1, 2)), thirds):
        fresh = valuation(2, table)
        scaled = price_ints(prices)
        assert demand_ints([v], *scaled) == demand_ints([fresh], *scaled) == [
            reference_demand_query(fresh, prices)[0]]
        assert demand_query(v, prices) == demand_query(valuation(2, table), prices)
    # read over 10, a thirds row (over 6) would answer 0 to fifths, not 0b11
    assert demand_ints([v], *price_ints(thirds)) == [0b01]
    assert demand_ints([v], *price_ints(fifths)) == [0b11]
    assert set(vars(v)) - {f.name for f in fields(v)} <= {"table"}


def test_demand_bundles_keep_each_valuations_own_blocked_weight_and_denominator():
    """A cost row is shared only by valuations with the same denominator and
    the same INF weight: a small valuation's INF weight would let a large one
    buy the INF item, and a row over another denominator misprices it."""
    F = Fraction
    small, large = additive_valuation([0, 0]), additive_valuation([5, 1])
    assert demand_ints([small, large], *price_ints((INF, F(1, 2)))) == [0, 0b10]
    thirds = additive_valuation([F(1, 3), F(2, 3)])
    halves = additive_valuation([F(1, 2), F(1, 2)])
    prices = (F(2, 5), F(1, 2))
    assert demand_ints([halves, thirds, large], *price_ints(prices)) == [0b01, 0b10, 0b11]
    # the same INF weight 4 over denominators 1 and 3
    whole, third = additive_valuation([1, 2]), additive_valuation([F(1, 3), F(2, 3)])
    assert demand_ints([whole, third], *price_ints((F(1), F(1)))) == [0b10, 0]
    assert demand_ints([], *price_ints(prices)) == demand_ints([], *price_ints((INF,))) == []


def max_below(table, s, floor):
    """The largest of floor and table[s minus one item] over s's items: the
    per-bundle step `monotone_closure` replaced, kept as a reference."""
    for j in range(s.bit_length()):
        if s & bit(j) and table[s & ~bit(j)] > floor:
            floor = table[s & ~bit(j)]
    return floor


def reference_random_monotone_valuation(m, rng, grid=8, scale=Fraction(4)):
    """The Fraction body `random_monotone_valuation` replaced: one draw
    and one Fraction monotone completion per bundle."""
    raw = [Fraction(rng.randrange(grid + 1), grid) * scale for _ in all_bundles(m)]
    table = [Fraction(0)] * (1 << m)
    for s in all_bundles(m):
        table[s] = max_below(table, s, raw[s] if s else Fraction(0))
    return valuation(m, tuple(table))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.sampled_from([1, 2, 3, 4, 8]),
       st.sampled_from([2, Fraction(4), Fraction(5, 3)]), st.integers(0, 2**32))
def test_random_valuations_match_the_fraction_builder(m, grid, scale, seed):
    rng, twin = random.Random(seed), random.Random(seed)
    v = random_monotone_valuation(m, rng, grid, scale)
    want = reference_random_monotone_valuation(m, twin, grid, scale)
    assert v.table == want.table and v == want
    assert all(type(x) is Fraction for x in v.table)
    assert v.scaled_table == common_denominator(v.table)
    assert rng.getstate() == twin.getstate()


def test_integer_form_leaves_equality_hash_and_repr_alone():
    v = valuation_from_values(2, {0b01: Fraction(1, 2), 0b10: Fraction(2, 3), 0b11: 1})
    before = repr(v)
    assert v.scaled_table == (6, (0, 3, 4, 6))
    twin = valuation_from_values(2, dict(enumerate(v.table)))
    assert v == twin and hash(v) == hash(twin) and repr(v) == before
    assert valuation_to_json(v) == valuation_to_json(twin)


@st.composite
def exact_tables(draw):
    """A monotone Fraction table, m 1..8, over mixed denominators with ties."""
    m = draw(st.integers(1, 8))
    raw = [draw(st.sampled_from([0, 1, 2])) * Fraction(1, draw(st.sampled_from([1, 2, 3, 7])))
           for _ in all_bundles(m)]
    return m, tuple(monotone_closure([Fraction(0)] + raw[1:], m))


@settings(max_examples=120, deadline=None)
@given(exact_tables(), st.integers(1, 6))
def test_integer_and_fraction_builders_agree(question, k):
    m, table = question
    exact = valuation(m, table)
    d, ints = common_denominator(table)
    lean = valuation_from_ints(m, k * d, [k * x for x in ints])  # unreduced on purpose
    assert lean == exact and hash(lean) == hash(exact) and repr(lean) == repr(exact)
    assert "table" not in vars(lean) and "table" not in vars(exact)
    assert lean.table == exact.table == table
    assert all(type(x) is Fraction for x in lean.table)
    assert [lean.value(s) for s in all_bundles(m)] == [exact.value(s) for s in all_bundles(m)]
    assert lean.max_value() == exact.max_value() == table[-1]
    doc = valuation_to_json(lean)
    assert doc == valuation_to_json(exact) and valuation_from_json(doc) == lean


def test_post_init_runs_once_per_construction(monkeypatch):
    """`Valuation.__post_init__` is the one validation, once per object
    whichever builder makes it; reading the table builds none."""
    seen = []
    check = Valuation.__post_init__

    def counted(v):
        seen.append(v)
        check(v)

    monkeypatch.setattr(Valuation, "__post_init__", counted)
    builders = [
        lambda: Valuation(2, (2, (0, 1, 1, 2))),
        lambda: valuation(2, (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1))),
        lambda: valuation_from_ints(2, 4, [0, 2, 2, 4]),
        lambda: additive_valuation([1, Fraction(1, 3)]),
        lambda: valuation_from_values(2, {0b11: 1}),
        lambda: single_item_valuation(2, 1, Fraction(3, 2)),
        lambda: layered_valuation(2, {0b01: Fraction(1, 4)}, Fraction(1)),
        lambda: random_monotone_valuation(3, stream(0, "once")),
        lambda: valuation_from_json({"m": 1, "values": {"0": "0", "1": "2/3"}}),
        lambda: xos_from_clauses(XOSClauses(1, ((Fraction(1),),))),
    ]
    for build in builders:
        seen.clear()
        v = build()
        assert seen == [v] and seen[0] is v
        assert v.value(0) == 0 and v.table[-1] == v.max_value() and valuation_to_json(v)
        assert len(seen) == 1


def all_pairs_subadditive(t, m):
    """The all-pairs generator `classify_valuation` ran before it checked
    disjoint splits only: t(S) + t(U) >= t(S | U) for every S <= U."""
    return all(t[s] + t[u] >= t[s | u] for s in all_bundles(m) for u in range(s, 1 << m))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.data())
def test_disjoint_split_subadditivity_matches_all_pairs(m, plant, data):
    t = [data.draw(st.integers(0, 4)) for _ in all_bundles(m)]
    t = monotone_closure([0] + t[1:], m)
    if plant and m > 1:
        # raise a bundle u of two or more items above one of its splits, then
        # its supersets to keep t monotone: the split's entries stay put
        u = data.draw(st.sampled_from([u for u in all_bundles(m) if size(u) > 1]))
        s = data.draw(st.sampled_from([s for s in subsets(u) if 0 < s < u]))
        t[u] = t[s] + t[u ^ s] + data.draw(st.integers(1, 3))
        t = monotone_closure(t, m)
    want = all_pairs_subadditive(t, m)
    if plant and m > 1:
        assert not want
    assert ("subadditive" in classify_valuation(valuation_from_ints(m, 1, t))) == want


def reference_additive_table(per_item):
    """The Fraction loop `additive_valuation` replaced: an O(m) sum per bundle."""
    items = [Fraction(x) for x in per_item]
    m = len(items)
    return tuple(sum((items[j] for j in range(m) if s & bit(j)), Fraction(0))
                 for s in all_bundles(m))


def reference_clause_value(c, r, mask):
    cl = c.clauses[r]
    return sum((cl[j] for j in range(c.m) if mask & bit(j)), Fraction(0))


def reference_xos_table(c):
    """The Fraction loop `xos_from_clauses` replaced: one clause sum per
    (bundle, clause)."""
    return tuple(max(reference_clause_value(c, r, s) for r in range(len(c.clauses)))
                 for s in all_bundles(c.m))


def reference_classify(v, clauses=None):
    """The Fraction loops `classify_valuation` replaced."""
    flags = set()
    m, t = v.m, v.table
    additive = all(
        t[s] == sum((t[bit(j)] for j in range(m) if s & bit(j)), Fraction(0))
        for s in all_bundles(m)
    )
    submodular = True
    subadditive = True
    for s in all_bundles(m):
        for u in all_bundles(m):
            if u < s:
                continue
            vs, vu = t[s], t[u]
            if submodular and vs + vu < t[s | u] + t[s & u]:
                submodular = False
            if subadditive and vs + vu < t[s | u]:
                subadditive = False
        if not submodular and not subadditive:
            break
    if additive:
        flags.add("additive")
    if submodular:
        flags.add("submodular")
    if subadditive:
        flags.add("subadditive")
    if clauses is not None and reference_xos_table(clauses) == t:
        flags.add("xos")
    return frozenset(flags)


# small numerators over mixed denominators: many ties, some across denominators
mixed_rationals = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3, 7, 8]))


@st.composite
def clause_sets(draw):
    m = draw(st.integers(1, 6))
    clause = st.lists(mixed_rationals, min_size=m, max_size=m).map(tuple)
    return XOSClauses(m, tuple(draw(st.lists(clause, min_size=1, max_size=5))))


@settings(max_examples=150, deadline=None)
@given(clause_sets())
def test_xos_and_additive_tables_match_fraction_reference(c):
    v = xos_from_clauses(c)
    assert v.table == reference_xos_table(c)
    assert all(type(x) is Fraction for x in v.table)
    assert classify_valuation(v, c) == reference_classify(v, c)
    a = additive_valuation(c.clauses[0])
    assert a.table == reference_additive_table(c.clauses[0])
    assert repr(a) == repr(valuation(c.m, reference_additive_table(c.clauses[0])))
    assert classify_valuation(a) == reference_classify(a)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1, 2, 3, 4, 8]),
       st.sampled_from([Fraction(1), Fraction(5, 3), Fraction(7, 8)]),
       st.randoms(use_true_random=False))
def test_classify_matches_fraction_reference(m, grid, scale, rnd):
    v = random_monotone_valuation(m, rnd, grid, scale)
    assert classify_valuation(v) == reference_classify(v)


def test_classify_examples():
    assert classify_valuation(additive_valuation([1, 1])) >= {"additive", "submodular", "subadditive"}
    v = valuation_from_values(2, {0b01: 1, 0b10: 1, 0b11: 1})
    flags = classify_valuation(v)
    assert "submodular" in flags and "subadditive" in flags and "additive" not in flags
    v_bad = valuation_from_values(2, {0b01: 1, 0b10: 1, 0b11: 3})
    assert classify_valuation(v_bad) == frozenset()


def independent_flags(v):
    """Marginal-based oracle, independent of the pairwise implementation."""
    m = v.m
    additive = all(
        v.value(s) == sum((v.value(bit(j)) for j in range(m) if s & bit(j)), Fraction(0))
        for s in all_bundles(m)
    )
    submodular = True
    for s in all_bundles(m):
        for t in all_bundles(m):
            if s & t == s and s != t:  # s strictly below t
                for j in range(m):
                    if not t & bit(j):
                        if v.value(s | bit(j)) - v.value(s) < v.value(t | bit(j)) - v.value(t):
                            submodular = False
    subadditive = all(
        v.value(s) + v.value(t) >= v.value(s | t)
        for s in all_bundles(m) for t in all_bundles(m)
    )
    out = set()
    if additive:
        out.add("additive")
    if submodular:
        out.add("submodular")
    if subadditive:
        out.add("subadditive")
    return out


def test_classify_against_independent_oracle():
    rng = stream(2, "classify")
    for trial in range(300):
        m = rng.randrange(1, 7) if trial % 3 else rng.randrange(4, 7)
        v = random_monotone_valuation(m, rng, grid=3, scale=Fraction(2))
        got = set(classify_valuation(v)) - {"xos"}
        assert got == independent_flags(v)


def test_xos_from_clauses_examples():
    single = xos_from_clauses(XOSClauses(2, ((Fraction(1), Fraction(2)),)))
    assert single.table == additive_valuation([1, 2]).table
    clauses = XOSClauses(2, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))))
    two = xos_from_clauses(clauses)
    assert two.value(0b01) == 2 and two.value(0b10) == 2 and two.value(0b11) == 2
    assert two.value(0) == 0
    assert "xos" in classify_valuation(two, clauses)
    assert "subadditive" in classify_valuation(two)
    with pytest.raises(DomainError):
        XOSClauses(2, ((Fraction(-1), Fraction(0)),))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_xos_always_subadditive(seed):
    rng = stream(seed, "xos-sub")
    m = rng.randrange(1, 4)
    clauses = tuple(
        tuple(Fraction(rng.randrange(5)) for _ in range(m))
        for _ in range(rng.randrange(1, 4))
    )
    v = xos_from_clauses(XOSClauses(m, clauses))
    assert "subadditive" in classify_valuation(v)


def test_catalog_validation():
    v = additive_valuation([1, 0])
    with pytest.raises(DomainError):
        ValuationCatalog(((v, v),))
    cat = ValuationCatalog(((v,), (additive_valuation([0, 1]),)))
    assert cat.n == 2 and cat.m == 2 and len(list(cat.profiles())) == 1


def test_valuation_json_roundtrip():
    v = valuation_from_values(2, {0b01: Fraction(1, 3), 0b11: Fraction(2)})
    doc = valuation_to_json(v)
    assert valuation_from_json(doc).table == v.table
    doc["values"].pop("2")
    with pytest.raises(DomainError):
        valuation_from_json(doc)
    for values in ("01", ["0", "1"]):
        with pytest.raises(DomainError, match="must be a JSON object"):
            valuation_from_json({"m": 1, "values": values})


def reference_is_monotone(table, m):
    """The per-item loop each table check spelled out before `is_monotone`."""
    for s in all_bundles(m):
        for j in range(m):
            if not s & bit(j) and not table[s] <= table[s | bit(j)]:
                return False
    return True


@st.composite
def bundle_tables(draw, entries):
    """A table over 2^m bundles: a monotone closure of drawn entries, then
    maybe one entry redrawn, so both answers are common."""
    m = draw(st.integers(1, 4))
    table = [draw(entries) for _ in all_bundles(m)]
    for s in all_bundles(m):
        for j in range(m):
            if s & bit(j) and table[s & ~bit(j)] > table[s]:
                table[s] = table[s & ~bit(j)]
    if draw(st.booleans()):
        table[draw(st.integers(0, (1 << m) - 1))] = draw(entries)
    return m, tuple(table)


@settings(max_examples=300, deadline=None)
@given(st.one_of(bundle_tables(st.integers(-3, 6)),
                 bundle_tables(st.builds(Fraction, st.integers(0, 9), st.integers(1, 4)))))
def test_is_monotone_matches_per_item_loop(question):
    m, table = question
    assert is_monotone(table, m) == reference_is_monotone(table, m)
    if table[0] == 0 and all(isinstance(x, Fraction) for x in table):
        if is_monotone(table, m):
            assert valuation(m, table).table == table
        else:
            with pytest.raises(DomainError, match="valuation must be monotone"):
                valuation(m, table)


def reference_generator_is_monotone(table, m):
    """The per-item generator `is_monotone` ran before its index layouts."""
    for j in range(m):
        b = bit(j)
        if any(table[s] > table[s | b] for s in all_bundles(m) if not s & b):
            return False
    return True


def mask_order_completion(raw, m):
    """Each entry raised to its subsets' largest, bundle by bundle in mask
    order: the `max_below` loop `monotone_closure` replaced."""
    table = list(raw)
    for s in all_bundles(m):
        table[s] = max_below(table, s, table[s])
    return table


PRICE_ENTRIES = {
    "int": lambda rnd: rnd.randrange(-3, 10),
    "fraction": lambda rnd: Fraction(rnd.randrange(10), rnd.randrange(1, 5)),
    "price": lambda rnd: INF if rnd.random() < 0.2 else Fraction(rnd.randrange(10),
                                                                 rnd.randrange(1, 5)),
}


@st.composite
def planted_tables(draw):
    """m in 1..8, entries of one kind (ints, Fractions, or Fractions and
    INF), monotonized in mask order; then, or not, one violation planted at
    a random (s, j), s without item j: table[s | 2^j] dropped below
    table[s]."""
    m = draw(st.integers(1, 8))
    entry = PRICE_ENTRIES[draw(st.sampled_from(sorted(PRICE_ENTRIES)))]
    rnd = random.Random(draw(st.integers(0, 2**32)))
    raw = [entry(rnd) for _ in all_bundles(m)]
    table = mask_order_completion(raw, m)
    planted = draw(st.booleans())
    if planted:
        j = rnd.randrange(m)
        s = rnd.choice([s for s in all_bundles(m) if not s & bit(j)])
        low = table[s]
        table[s | bit(j)] = low - 1 if is_finite(low) else Fraction(rnd.randrange(10))
    return m, raw, table, planted


@settings(max_examples=300, deadline=None)
@given(planted_tables())
def test_is_monotone_layout_matches_the_generator(question):
    m, _, table, planted = question
    for t in (table, tuple(table)):
        assert is_monotone(t, m) == reference_generator_is_monotone(t, m) == (not planted)


@settings(max_examples=300, deadline=None)
@given(planted_tables())
def test_monotone_closure_matches_the_mask_order_completion(question):
    m, raw, _, _ = question
    closed = monotone_closure(raw, m)
    assert closed == mask_order_completion(raw, m)
    assert is_monotone(closed, m)
    assert closed == monotone_closure(tuple(raw), m)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.sampled_from(["int", "price", "inf"]), st.integers(0, 2**32))
def test_superset_min_matches_the_per_bundle_superset_minimum(m, kind, seed):
    """Int tables with negative entries, Fraction tables with INF entries
    (negative ones too) and all-INF tables; on ints, negated in and out,
    it is the superset maximum."""
    rnd = random.Random(seed)
    entry = {"int": lambda: rnd.randrange(-5, 10),
             "price": lambda: INF if rnd.random() < 0.3 else Fraction(rnd.randrange(-6, 10),
                                                                      rnd.randrange(1, 5)),
             "inf": lambda: INF}[kind]
    table = [entry() for _ in all_bundles(m)]
    lowered = superset_min(table, m)
    assert lowered == [min(table[u] for u in supersets(s, m)) for s in all_bundles(m)]
    assert superset_min(tuple(table), m) == lowered
    if kind == "int":
        assert [-x for x in superset_min([-x for x in table], m)] == [
            max(table[u] for u in supersets(s, m)) for s in all_bundles(m)]


def reference_monotone_closure(t, m):
    """The per-item loop `monotone_closure` ran before its pair layout."""
    t = list(t)
    for j in range(m):
        b = bit(j)
        for s in range(len(t)):
            if s & b and t[s ^ b] > t[s]:
                t[s] = t[s ^ b]
    return t


def reference_superset_min(t, m):
    """The per-item loop `superset_min` ran before its pair layout."""
    t = list(t)
    for j in range(m):
        b = bit(j)
        for s in range(len(t)):
            if not s & b and t[s | b] < t[s]:
                t[s] = t[s | b]
    return t


CLOSURE_ENTRIES = {
    "int": lambda rnd: rnd.randrange(-5, 10),
    "price": lambda rnd: INF if rnd.random() < 0.2 else Fraction(rnd.randrange(-6, 10),
                                                                 rnd.randrange(1, 5)),
    "bool": lambda rnd: rnd.random() < 0.2,
}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.sampled_from(sorted(CLOSURE_ENTRIES)), st.integers(0, 2**32))
def test_closure_passes_match_the_per_item_loops(m, kind, seed):
    """Both passes over `monotone_pairs` give the per-item loops' lists,
    entry types included, on int, `Fraction`/INF and bool tables given as
    lists and as tuples, and leave their input alone; `monotone_layout`'s
    getters still judge the input and the closed table as the generator
    does."""
    rnd = random.Random(seed)
    table = [CLOSURE_ENTRIES[kind](rnd) for _ in all_bundles(m)]
    want_up, want_down = reference_monotone_closure(table, m), reference_superset_min(table, m)
    for given_table in (list(table), tuple(table)):
        for got, want in ((monotone_closure(given_table, m), want_up),
                          (superset_min(given_table, m), want_down)):
            assert type(got) is list and got == want
            assert list(map(type, got)) == list(map(type, want))
        assert list(given_table) == table
    for t in (table, want_up, want_down):
        assert is_monotone(t, m) == reference_generator_is_monotone(t, m)
    assert is_monotone(want_up, m) and is_monotone(want_down, m)


def reference_valuation_from_values(m, pairs):
    """The per-bundle `max_below` fill-in `valuation_from_values` ran before
    its one `monotone_closure`."""
    table = [None] * (1 << m)
    for mask, val in dict(pairs).items():
        table[mask] = Fraction(val)
    table[0] = Fraction(0) if table[0] is None else table[0]
    for s in all_bundles(m):
        if table[s] is None:
            table[s] = max_below(table, s, Fraction(0))
    return valuation(m, tuple(table))


def built_or_refused(build, *args):
    """The valuation built, or the message of its `DomainError`."""
    try:
        return build(*args)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(st.just(m), st.dictionaries(
    st.integers(0, (1 << m) - 1),
    st.sampled_from([0, 1, 1, 2, Fraction(1, 2), Fraction(3, 2), -1]), max_size=5))))
def test_valuation_from_values_matches_the_max_below_fill_in(question):
    """Given dicts with ties, non-monotone entries and nonzero empty
    bundles: the same valuation, or the same refusal."""
    m, pairs = question
    got = built_or_refused(valuation_from_values, m, pairs)
    assert got == built_or_refused(reference_valuation_from_values, m, pairs)
    assert type(got) is Valuation or got.startswith("valuation must be")


def test_valuation_from_values_ties_and_refusals():
    tied = {0b001: 1, 0b010: 1, 0b100: 1, 0b111: 1}
    assert valuation_from_values(3, tied).table == (0, 1, 1, 1, 1, 1, 1, 1)
    for pairs, message in [({0b01: 2, 0b11: 1}, "monotone"), ({0b11: -1}, "monotone"),
                           ({0: 1, 0b01: 2}, "normalized")]:
        assert message in built_or_refused(reference_valuation_from_values, 2, pairs)
        with pytest.raises(DomainError, match=message):
            valuation_from_values(2, pairs)


def test_valuation_from_values_refuses_a_mask_out_of_range():
    """A negative mask would index from the end and one past 2^m - 1 would
    raise a bare `IndexError`: both get the one range refusal."""
    for m, mask in [(2, -1), (2, 4), (1, 2), (3, -8), (3, 1 << 3)]:
        with pytest.raises(DomainError, match="bundle out of range"):
            valuation_from_values(m, {mask: 1})
    assert valuation_from_values(2, {3: 1}).table == (0, 0, 0, 1)


def test_bundles_of_size_matches_the_combinations_build():
    """The `sizes` filter gives the sorted `combinations` build, for every
    k, empty beyond m."""
    for m in range(1, 11):
        for k in range(m + 2):
            want = tuple(sorted(sum(1 << j for j in combo) for combo in combinations(range(m), k)))
            assert bundles_of_size(m, k) == want, (m, k)


def test_one_item_tables_and_layout():
    """At m = 1 the layout holds the pair (0, 1), and each getter still
    returns a tuple by its trailing read of the empty bundle."""
    lows, highs = monotone_layout(1)
    assert lows((5, 7)) == (5, 5) and highs((5, 7)) == (7, 5)
    for table, want in [((0, 1), True), ((1, 0), False), ((2, 2), True),
                        ((Fraction(1, 2), Fraction(1, 3)), False),
                        ((Fraction(0), INF), True), ((INF, Fraction(1)), False),
                        ((INF, INF), True)]:
        assert is_monotone(table, 1) == reference_generator_is_monotone(table, 1) == want
    assert monotone_closure([3, 1], 1) == [3, 3]
    assert monotone_closure([Fraction(0), INF], 1) == [Fraction(0), INF]
    assert monotone_closure([INF, Fraction(2)], 1) == [INF, INF]


def reference_best_bundle(candidates):
    """The `Fraction` best-profit loop the mechanism programs and optimizers
    each kept, and then shared as `best_bundle` until it ranked ints."""
    best_mask, best_profit = 0, Fraction(0)
    for mask, profit in candidates:
        if profit > best_profit or (profit == best_profit and mask < best_mask):
            best_mask, best_profit = mask, profit
    return best_mask, best_profit


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15),
                          st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3])))))
def test_best_bundle_matches_reference_loop(candidates):
    """The `Fraction` profits as ints over their common denominator pick
    the same bundle, at the same profit scaled, reading every candidate
    in order."""
    den, ints = common_denominator([p for _, p in candidates] or [Fraction(0)])
    scaled = [(mask, x) for (mask, _), x in zip(candidates, ints)]
    read = []

    def lazily():
        for c in scaled:
            read.append(c)
            yield c

    mask, profit = best_bundle(lazily())
    assert type(profit) is int
    assert (mask, Fraction(profit, den)) == reference_best_bundle(candidates)
    assert read == scaled  # every candidate, in order


def test_best_bundle_ties_negatives_and_no_candidates():
    assert best_bundle([]) == (0, 0)
    assert best_bundle([(3, -2), (5, -1)]) == (0, 0)  # the empty bundle wins
    assert best_bundle([(6, 2), (3, 2), (5, 1)]) == (3, 2)  # smallest mask
    assert best_bundle([(4, 0), (2, 0)]) == (0, 0)  # ties with the empty bundle
    assert best_bundle([(0, 0), (1, 0)]) == (0, 0)  # (0, 0) itself offered
    assert best_bundle([(5, -3), (2, -1), (2, -1)]) == (0, 0)
