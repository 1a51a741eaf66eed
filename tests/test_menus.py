"""Menu canonical form, profit maximization, menu complexity, min-affine."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab.bundles import all_bundles, bit, is_monotone
from taxlab.menus import (ContractError, Menu, MinAffineMenu, eval_min_affine, in_menu_rebuild,
                          menu, menu_complexity, normalize_menu, profit_argmax_set)
from taxlab.queries import bundle_price
from taxlab.rational import INF, is_finite, price_key
from taxlab.rng import stream
from taxlab.valuations import (DomainError, Valuation, demand_candidates,
                               random_monotone_valuation, valuation, valuation_from_values)

from references import min_affine_table, supersets

F = Fraction


def menu_of(m, entries):
    table = [INF] * (1 << m)
    table[0] = F(0)
    for s, p in entries.items():
        table[s] = p if p is INF else F(p)
    return menu(m, tuple(table))


def test_normalize_idempotent_and_shift():
    already = menu_of(2, {0b01: 1, 0b10: 2, 0b11: 3})
    assert normalize_menu(already).price == already.price
    raw = menu(1, (F(1), F(3)))
    fixed = normalize_menu(raw)
    assert fixed.price == (F(0), F(2))


def test_normalize_monotone_repair():
    raw = menu(2, (F(0), F(2), F(0), F(1)))
    fixed = normalize_menu(raw)
    assert fixed.price[0b01] == 1  # lowered to the cheapest superset
    assert fixed.is_normalized()
    with pytest.raises(DomainError):
        normalize_menu(menu(1, (INF, F(1))))
    # a raw empty price above the cheapest: repaired first, then shifted
    assert normalize_menu(menu(1, (F(1), F(0)))).price == (F(0), F(0))


def test_normalize_keeps_max_profit_and_old_argmax():
    rng = stream(4, "norm")
    prices = [F(0), F(1, 2), F(1), F(2), F(3), INF]
    for _ in range(120):
        m = rng.randrange(1, 5)
        table = [prices[rng.randrange(len(prices))] for _ in all_bundles(m)]
        table[0] = F(0)
        raw = menu(m, tuple(table))
        fixed = normalize_menu(raw)
        v = random_monotone_valuation(m, rng)
        old = profit_argmax_set(raw, v)
        new = profit_argmax_set(fixed, v)
        def best(menu, arg):
            return v.value(arg[0]) - menu.price[arg[0]]
        assert best(raw, old) == best(fixed, new)
        assert set(old) <= set(new)
        # every newcomer ties through an equal-valued superset in the old set
        for s in set(new) - set(old):
            assert any(t & s == s and v.value(t) == v.value(s) for t in old)


def test_profit_argmax_examples():
    only_empty = menu_of(2, {})
    v = random_monotone_valuation(2, stream(5, "pa"))
    assert profit_argmax_set(only_empty, v) == [0]
    menu = menu_of(1, {0b1: 2})
    v1 = valuation_from_values(1, {0b1: 3})
    assert profit_argmax_set(menu, v1) == [0b1]
    flat = menu_of(2, {0b01: 1, 0b10: 1, 0b11: 2})
    v_eq = valuation_from_values(2, {0b01: 1, 0b10: 1, 0b11: 2})
    assert profit_argmax_set(flat, v_eq) == [0, 0b01, 0b10, 0b11]


def test_menu_complexity_examples():
    warm = menu_of(2, {0b01: 3})
    count, bundles = menu_complexity(warm)
    assert count == 2 and bundles == (0, 0b01)
    allzero = menu(2, (F(0),) * 4)
    count, bundles = menu_complexity(allzero)
    assert count == 1 and bundles == (0b11,)
    droptie = menu_of(2, {0b01: 0, 0b10: 0})
    count, bundles = menu_complexity(droptie)
    assert count == 2 and bundles == (0b01, 0b10)
    with pytest.raises(ContractError):
        menu_complexity(menu(1, (F(1), F(0))))


def strictly_monotone_for(menu: Menu, target: int) -> Valuation:
    """Strictly monotone valuation whose unique profit maximizer is the
    given in-menu bundle."""
    m = menu.m
    q = menu.price[target]
    gaps = [menu.price[t] - q for t in supersets(target, m)
            if t != target and is_finite(menu.price[t])]
    gap = min(gaps) if gaps else F(1)
    delta = min(F(1), gap) / (2 * m + 2)
    gamma = (m + 1) * delta
    table = []
    for s in all_bundles(m):
        capped = menu.price[s] if is_finite(menu.price[s]) else None
        base = min(capped, q) if capped is not None else q
        bonus = gamma if s & target == target else F(0)
        table.append((base if s else F(0)) + delta * bin(s).count("1") + bonus)
    table[0] = F(0)
    return valuation(m, tuple(table))


def test_menu_complexity_matches_unique_winnability():
    rng = stream(6, "mc")
    prices = [F(0), F(1), F(2), INF]
    for _ in range(60):
        m = rng.randrange(1, 4)
        table = [prices[rng.randrange(len(prices))] for _ in all_bundles(m)]
        table[0] = F(0)
        canon = normalize_menu(menu(m, tuple(table)))
        count, bundles = menu_complexity(canon)
        for s in all_bundles(m):
            if s in bundles:
                v = strictly_monotone_for(canon, s)
                assert profit_argmax_set(canon, v) == [s]
            else:
                # not in the menu: infinite price or a no-pricier superset
                if is_finite(canon.price[s]):
                    assert any(
                        t != s and canon.price[t] <= canon.price[s]
                        for t in supersets(s, m)
                    )


def test_eval_min_affine_examples():
    ma = MinAffineMenu(2, ((F(1), F(1)),), (F(0),))
    assert eval_min_affine(ma, 0b11) == 2
    ma2 = MinAffineMenu(2, ((F(1), F(1)), (F(0), INF)), (F(0), F(1, 2)))
    assert eval_min_affine(ma2, 0b01) == F(1, 2)
    ma3 = MinAffineMenu(2, ((F(1), F(1)),), (F(0),), ((0b11, F(5, 2)),))
    assert eval_min_affine(ma3, 0b11) == F(5, 2)
    assert eval_min_affine(ma2, 0) == 0
    assert min_affine_table(ma2).is_normalized()


def test_min_affine_validation_and_json():
    with pytest.raises(DomainError):
        MinAffineMenu(2, ((F(1), F(1)),), (F(-1),))
    for mask in (-1, 0b100):
        with pytest.raises(DomainError, match="out of range"):
            MinAffineMenu(2, ((F(1), F(1)),), (F(0),), ((mask, F(1)),))


def reference_eval_min_affine(ma, s):
    """The per-bundle Fraction loop `MinAffineMenu.price_table` replaced."""
    exc = dict(ma.exceptions)
    if s in exc:
        return exc[s]
    if s == 0:
        return F(0)
    best = INF
    for vec, r in zip(ma.vectors, ma.offsets):
        term = bundle_price(vec, s)
        if is_finite(term):
            term = term + r
            if term < best:
                best = term
    return best


@st.composite
def min_affine_menus(draw):
    """m in 1..6, 0..4 vectors over mixed denominators (some entries INF or
    negative), nonzero offsets, and up to three exceptions (INF or not,
    the empty bundle among them at times)."""
    m = draw(st.integers(1, 6))
    finite = st.builds(F, st.integers(-2, 9), st.sampled_from([1, 2, 3, 4, 7]))
    entry = st.one_of(finite, finite, st.just(INF))
    alpha = draw(st.integers(0, 4))
    vectors = tuple(tuple(draw(entry) for _ in range(m)) for _ in range(alpha))
    offsets = tuple(draw(st.builds(F, st.integers(0, 9), st.sampled_from([1, 2, 5])))
                    for _ in range(alpha))
    masks = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=3, unique=True))
    exceptions = tuple(sorted((s, draw(st.one_of(finite, st.just(INF)))) for s in masks))
    return MinAffineMenu(m, vectors, offsets, exceptions)


@settings(max_examples=200, deadline=None)
@given(min_affine_menus())
def test_min_affine_table_matches_fraction_reference(ma):
    want = tuple(reference_eval_min_affine(ma, s) for s in all_bundles(ma.m))
    assert ma.price_table == want
    assert all(type(p) is F for p in ma.price_table if is_finite(p))
    assert min_affine_table(ma).price == want
    assert [eval_min_affine(ma, s) for s in all_bundles(ma.m)] == list(want)
    for s in (-1, 1 << ma.m):
        with pytest.raises(DomainError, match="out of range"):
            eval_min_affine(ma, s)


def test_in_menu_rebuild_and_json():
    rebuilt = in_menu_rebuild(2, {0: F(0), 0b01: F(1), 0b11: F(2)})
    assert rebuilt.price == (F(0), F(1), F(2), F(2))


prices = st.one_of(st.just(INF), st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3, 7])))


@st.composite
def price_tables(draw):
    """A menu-shaped table with INF entries over mixed denominators, made
    monotone by a running max over subsets and then maybe broken at one
    bundle."""
    m = draw(st.integers(1, 6))
    table = [draw(prices) for _ in all_bundles(m)]
    table[0] = draw(st.sampled_from([F(0), F(0), F(1), F(-1, 3), INF]))
    for s in all_bundles(m):
        for j in range(m):
            if s & bit(j) and table[s & ~bit(j)] > table[s]:
                table[s] = table[s & ~bit(j)]
    if draw(st.booleans()):
        table[draw(st.integers(0, (1 << m) - 1))] = draw(prices)
    return m, tuple(table)


@settings(max_examples=300, deadline=None)
@given(price_tables())
def test_is_normalized_matches_per_item_loop(question):
    m, table = question
    monotone = all(table[s] <= table[s | bit(j)]
                   for s in all_bundles(m) for j in range(m) if not s & bit(j))
    assert is_monotone(table, m) == monotone
    assert menu(m, table).is_normalized() == (table[0] == 0 and monotone)


def reference_profit_argmax_set(menu, v):
    """`profit_argmax_set` as it ranked `Fraction` profits."""
    best, arg = None, []
    for s in all_bundles(menu.m):
        p = menu.price[s]
        if not is_finite(p):
            continue
        profit = v.table[s] - p
        if best is None or profit > best:
            best, arg = profit, [s]
        elif profit == best:
            arg.append(s)
    return arg


@settings(max_examples=300, deadline=None)
@given(price_tables(), st.sampled_from([F(4), F(7, 3), F(5, 2)]), st.booleans(),
       st.integers(0, 2**32))
def test_integer_profit_argmax_matches_fraction_reference(question, scale, shift, seed):
    """Menus with INF entries (the empty bundle's included), raw or
    normalized, shifted to negative prices or not, against valuations over
    denominators 2, 24 and 16."""
    m, table = question
    if shift:
        table = tuple(p - F(5, 3) if is_finite(p) else p for p in table)
    v = random_monotone_valuation(m, stream(seed, "argmax"), scale=scale)
    for mn in (menu(m, table), normalize_menu(menu(m, table)) if is_finite(table[0]) else None):
        if mn is not None:
            assert profit_argmax_set(mn, v) == reference_profit_argmax_set(mn, v)
    assert profit_argmax_set(menu(m, (INF,) * (1 << m)), v) == []


def reference_cheapest_superset(priced, s):
    """The per-bundle scan `in_menu_rebuild` and the value_tightness price
    protocol each ran before `superset_min`."""
    best = INF
    for k, p in priced.items():
        if k & s == s and p < best:
            best = p
    return best


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.just(m),
    st.dictionaries(st.integers(0, (1 << m) - 1),
                    st.builds(F, st.integers(0, 6), st.integers(1, 3)), max_size=6))))
def test_cheapest_superset_and_rebuild_match_reference_scan(question):
    m, priced = question
    rebuilt = in_menu_rebuild(m, priced)
    for s in all_bundles(m):
        want = reference_cheapest_superset(priced, s)
        assert rebuilt.price[s] == want


def test_menu_sort_key_is_numerator_then_denominator_order():
    # 2 = 2/1 sorts before 3/2 by numerator, though it is larger; INF is last
    two, three_halves, inf = (menu_of(1, {1: p}) for p in (2, F(3, 2), INF))
    order = sorted([inf, three_halves, two], key=Menu.sort_key)
    assert [mn.price[1] for mn in order] == [F(2), F(3, 2), INF]


raw_prices = st.one_of(st.just(INF),
                       st.builds(F, st.integers(-4, 6), st.sampled_from([1, 2, 3, 7])))


@st.composite
def raw_tables(draw, max_m=6):
    """Raw menu tables, as a mechanism's probes read them: m in 1..max_m,
    INF and negative entries over mixed denominators anywhere, the empty
    bundle's included; now and then every entry INF."""
    m = draw(st.integers(1, max_m))
    if draw(st.integers(0, 9)) == 0:
        return m, (INF,) * (1 << m)
    return m, tuple(draw(raw_prices) for _ in all_bundles(m))


def reference_scaled(table):
    """A table's stored triple worked out per entry: the finite prices over
    the lcm of their denominators, INF one above them and at least 1."""
    finite = [p for p in table if is_finite(p)]
    d = 1
    for p in finite:
        d = d * p.denominator // gcd(d, p.denominator)
    ints = [p.numerator * (d // p.denominator) for p in finite]
    top = max([0] + ints) + 1
    at = iter(ints)
    return d, tuple(next(at) if is_finite(p) else top for p in table), top


@settings(max_examples=300, deadline=None)
@given(raw_tables())
def test_exact_and_raw_menu_entries_agree(question):
    m, table = question
    raw, exact = Menu(m, reference_scaled(table)), menu(m, table)
    assert raw == exact and hash(raw) == hash(exact) and raw.scaled == exact.scaled
    assert raw.price == exact.price == table
    assert all(type(p) is F for p in raw.price if is_finite(p))
    assert raw.sort_key() == exact.sort_key() == tuple(map(price_key, table))
    monotone = all(table[s] <= table[s | bit(j)]
                   for s in all_bundles(m) for j in range(m) if not s & bit(j))
    assert raw.is_normalized() == exact.is_normalized() == (table[0] == 0 and monotone)


def test_raw_and_exact_menu_refusals():
    for scaled in ((2, (0, 2), 3), (0, (0, 1), 2), (-1, (0, -1), 1), (1, [0, 1], 2),
                   (1, (0, 1), 3), (1, (0, 2), 1), (1, (-1, 0), 0), (2, (1, 1), 1)):
        with pytest.raises(DomainError, match="reduced ints with top above them"):
            Menu(1, scaled)
    with pytest.raises(DomainError, match="cover all"):
        Menu(2, (1, (0, 1), 2))
    # INF sits one above the finite prices and at least at 1
    assert menu(1, (F(-1), INF)).scaled == (1, (-1, 1), 1)
    assert menu(2, (INF,) * 4).scaled == (1, (1, 1, 1, 1), 1)
    for table in ((0.0, 0.5), (0, F(1)), (F(0), "1"), (F(0), True)):
        with pytest.raises(DomainError, match="exact rationals or INF"):
            menu(1, table)


def reference_normalize_menu(m, table):
    """`normalize_menu` as it shifted the raw `Fraction` table by its empty
    price and then lowered each bundle to its cheapest superset."""
    base = table[0]
    if not is_finite(base):
        raise DomainError("menu price of the empty bundle must be finite")
    repaired = [p - base if is_finite(p) else INF for p in table]
    for j in range(m):
        b = bit(j)
        for s in reversed(all_bundles(m)):
            if not s & b and repaired[s | b] < repaired[s]:
                repaired[s] = repaired[s | b]
    return tuple(repaired)


@settings(max_examples=300, deadline=None)
@given(raw_tables(max_m=5))
def test_normalize_menu_is_normalized_and_matches_the_old_loop_where_it_was(question):
    """The output is always normalized, and equals the old loop's wherever
    that was normalized; an INF empty price is refused by both."""
    m, table = question
    raw = menu(m, table)
    if not is_finite(table[0]):
        for normalize in (lambda: normalize_menu(raw), lambda: reference_normalize_menu(m, table)):
            with pytest.raises(DomainError, match="empty bundle must be finite"):
                normalize()
        return
    got = normalize_menu(raw)
    assert got.is_normalized()
    want = reference_normalize_menu(m, table)
    if menu(m, want).is_normalized():
        assert got.price == want
    assert normalize_menu(got) == got


def reference_menu_complexity(canon):
    """`menu_complexity` as it scanned every strict superset."""
    top = (1 << canon.m) - 1
    out = []
    for s in all_bundles(canon.m):
        if s == top:
            if is_finite(canon.price[s]):
                out.append(s)
        elif all(canon.price[s] < canon.price[t] for t in supersets(s, canon.m) if t != s):
            out.append(s)
    return len(out), tuple(out)


@settings(max_examples=300, deadline=None)
@given(raw_tables(max_m=5))
def test_one_item_menu_complexity_matches_the_superset_scan(question):
    m, table = question
    if is_finite(table[0]):
        canon = normalize_menu(menu(m, table))
        assert menu_complexity(canon) == reference_menu_complexity(canon)


def reference_per_item_menu_complexity(canon):
    """`menu_complexity` as it ran its own per-item loop."""
    _, ints, top = canon.scaled
    out = tuple(s for s, x in enumerate(ints) if x != top
                and all(x < ints[s | bit(j)] for j in range(canon.m) if not s & bit(j)))
    return len(out), out


def reference_pair_demand_candidates(ints, m):
    """`demand_candidates` as it read the equal pairs of `monotone_pairs`
    and skipped its (0, 0) pad, written per item."""
    flat = {s | bit(j) for j in range(m) for s in all_bundles(m)
            if not s & bit(j) and ints[s] == ints[s | bit(j)]}
    return tuple(u for u in all_bundles(m) if u not in flat)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10), st.integers(0, 2**32))
def test_the_one_item_rule_matches_the_per_item_loops(m, inf_tenths, seed):
    """`menu_complexity` (lower ends of `flat_pairs`) and
    `demand_candidates` (upper ends) against the loops they replaced, on
    normalized menus over mixed denominators whose INF entries hold the
    top int (every nonempty bundle INF at 10 tenths), and on random
    valuations' tables."""
    rnd = random.Random(seed)
    raw = [INF if s and rnd.randrange(10) < inf_tenths
           else Fraction(rnd.randrange(12), rnd.choice([1, 2, 3, 4])) for s in all_bundles(m)]
    canon = normalize_menu(menu(m, raw))
    assert menu_complexity(canon) == reference_per_item_menu_complexity(canon)
    ints = canon.scaled[1]
    assert demand_candidates(ints, m) == reference_pair_demand_candidates(ints, m)
    v = random_monotone_valuation(m, rnd, rnd.choice([1, 2, 8]))
    assert demand_candidates(v.scaled_table[1], m) == reference_pair_demand_candidates(
        v.scaled_table[1], m)
