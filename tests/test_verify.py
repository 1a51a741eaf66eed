"""Probe constructions and the verification decision bit."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab import suites
from taxlab.bundles import DomainError, all_bundles, bit, bundles_of_size, monotone_closure, size
from taxlab.library import default_catalog, make_example
from taxlab.menus import ContractError, menu, menu_price_grid
from taxlab.protocol import (Session, extract_menu, insert_player, measure_complexities,
                             run_mechanism)
from taxlab.rational import INF, common_denominator, is_finite
from taxlab.rng import stream
from taxlab.valuations import (Valuation, ValuationCatalog, additive_valuation, clause_max,
                               random_monotone_valuation, valuation, valuation_from_ints)
from taxlab.verify import (CLASSES, BaseFunction, VerificationResult, _over, _staircase,
                           _xos_round, _xos_rows, exceeds_somewhere, pairwise_submodular,
                           probe_rounds, probes_structural, upward_closure, verify_menu)
from references import (STANDARD_BENCH, XOSClauses, base_function, classify_valuation,
                        random_base_function, submodular_probe, unpriced_spec, xos_from_clauses)
from test_core import max_below

F = Fraction


def base(m, entries):
    table = [INF] * (1 << m)
    table[0] = F(0)
    for s, p in entries.items():
        table[s] = p if p is INF else F(p)
    return base_function(m, tuple(table))


def only_probe(f, bound, cls):
    """The one round of a general or subadditive protocol, its probe as a
    `Valuation`, and its test."""
    [(d, ints, beats)] = probe_rounds(f, bound, cls)
    return valuation_from_ints(f.m, d, ints), beats


def test_general_probe_examples():
    f = base(2, {0b01: 1, 0b10: 1, 0b11: 2})
    probe, beats = only_probe(f, F(2), "general")
    assert probe.table == (F(0), F(1), F(1), F(2))
    assert beats(0b11, F(3, 2)) and not beats(0b11, F(2)) and not beats(0, F(0))
    f_inf = base(1, {0b1: INF})
    probe1, _ = only_probe(f_inf, F(2), "general")
    assert probe1.table == (F(0), F(6))  # infinite entries lift to 3B


def test_subadditive_probe_shape():
    f = base(2, {0b01: 1, 0b10: INF, 0b11: INF})
    probe, beats = only_probe(f, F(1), "subadditive")
    shift = 3  # the lifted maximum
    assert probe.table[0] == 0 and probe.table[0b01] == 1 + shift
    assert "subadditive" in classify_valuation(probe)
    # the test reads the unshifted table: f({1}) = 1 against the price paid
    assert beats(0b01, F(1, 2)) and not beats(0b01, F(1)) and not beats(0, F(0))


def test_xos_probe_certified():
    """Each xos round's table is the reference clause build's, which
    carries a verified clause witness."""
    f = base(2, {0b01: 1, 0b10: 2, 0b11: 2})
    over = _over(f, F(2))
    for r in (1, 2):
        clauses = reference_xos_clauses(f, F(2), r)
        probe = xos_from_clauses(clauses)
        assert "xos" in classify_valuation(probe, clauses)
        d, ints, _ = _xos_round(f, over, r)
        assert tuple(F(x, d) for x in ints) == probe.table
    d, single, _ = _xos_round(f, over, 1)
    # supporting weight on item 1: f({1})/1 + 3B
    assert F(single[0b01], d) == F(1) + 6


def test_submodular_probe_three_cases():
    # level set {2} at size 1: outside members fall a half-power short,
    # anything covering a member is worth exactly k*t
    f = base(2, {0b01: 0, 0b10: 1, 0b11: 1})
    t = F(8)  # 2^(m+1) * B with B = 1
    probe = submodular_probe(f, F(1), k=1, w=F(1))
    assert probe.table[0] == 0
    assert probe.value(0b01) == t / 2     # not in the level set
    assert probe.value(0b10) == t         # a member
    assert probe.value(0b11) == t         # covers a member
    assert "submodular" in classify_valuation(probe)
    # spec-sized example: both singletons in the level set
    f_both = base(2, {0b01: 1, 0b10: 1, 0b11: 1})
    probe_b = submodular_probe(f_both, F(1), k=1, w=F(1))
    assert probe_b.value(0b11) in (t, t - t / 4)
    # empty level set is a construction error (callers skip the pair)
    with pytest.raises(DomainError, match="empty level set"):
        submodular_probe(f, F(1), k=1, w=F(5))


def test_submodular_probe_level_at_top():
    g = base(2, {0b01: 2, 0b10: 2, 0b11: 2})
    t = F(16)
    probe_g = submodular_probe(g, F(2), k=2, w=F(2))
    assert probe_g.value(0b11) == 2 * t
    assert probe_g.value(0b01) == t
    assert "submodular" in classify_valuation(probe_g)


def reference_pairwise_submodular(v):
    """The Fraction pair loop `pairwise_submodular` replaced."""
    t = v.table
    for s in all_bundles(v.m):
        for u in range(s, 1 << v.m):
            if t[s] + t[u] < t[s | u] + t[s & u]:
                return False
    return True


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.sampled_from([F(1), F(7, 8), F(5, 3)]),
       st.randoms(use_true_random=False))
def test_pairwise_submodular_matches_fraction_reference(m, bound, rnd):
    """Staircase probes (submodular) and random grid valuations (mostly
    not), with prices over mixed denominators."""
    values = [F(q, d) for q in range(3) for d in (1, 2, 3, 7, 8)] + [INF]
    f = random_base_function(m, bound, rnd, values=values)
    k = rnd.randrange(1, m + 1)
    for w in sorted({f.price[s] for s in all_bundles(m) if bin(s).count("1") == k}):
        probe = submodular_probe(f, bound, k, w)
        verdict = pairwise_submodular(m, probe.scaled_table[1])
        assert verdict == reference_pairwise_submodular(probe) is True
    other = random_monotone_valuation(m, rnd, rnd.choice([1, 2, 3, 8]), bound)
    assert pairwise_submodular(m, other.scaled_table[1]) == reference_pairwise_submodular(other)
    for r in range(1, m + 1):
        probe = reference_xos_probe(f, bound, r)
        assert pairwise_submodular(m, probe.scaled_table[1]) == reference_pairwise_submodular(probe)


@st.composite
def monotone_tables(draw):
    """m in 1..6 and a monotone integer table, 0 on the empty bundle: a
    budget-additive min(cap, sum of weights) (submodular), the same with
    one entry raised and the rise carried up to its supersets (either
    verdict), or a random monotone completion (mostly not submodular)."""
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["budget", "raised", "random"]))
    if kind == "random":
        table = [0] * (1 << m)
        for s in range(1, 1 << m):
            table[s] = max_below(table, s, draw(st.integers(0, 12)))
        return m, table
    weights = [draw(st.integers(0, 5)) for _ in range(m)]
    cap = draw(st.integers(0, 5 * m))
    table = [min(cap, sum(w for j, w in enumerate(weights) if s & bit(j)))
             for s in all_bundles(m)]
    if kind == "raised":
        s = draw(st.integers(1, (1 << m) - 1))
        table[s] += draw(st.integers(1, 3))
        for u in range(s + 1, 1 << m):
            table[u] = max_below(table, u, table[u])
    return m, table


@settings(max_examples=400, deadline=None)
@given(monotone_tables())
def test_local_submodularity_matches_the_pair_loop(question):
    """The local form (two items added to each S) against every pair
    (S, U), on submodular tables and on tables that are not."""
    m, table = question
    v = valuation_from_ints(m, 1, table)
    assert pairwise_submodular(m, v.scaled_table[1]) == reference_pairwise_submodular(v)


def test_the_pair_loop_oracle_sees_both_verdicts():
    rng = stream(11, "local-submodular")
    verdicts = set()
    for m in range(2, 7):
        for _ in range(30):
            weights = [rng.randrange(6) for _ in range(m)]
            cap = rng.randrange(5 * m)
            table = [min(cap, sum(w for j, w in enumerate(weights) if s & bit(j)))
                     for s in all_bundles(m)]
            table[-1] += rng.randrange(2)  # the grand bundle, raised or not
            v = valuation_from_ints(m, 1, table)
            verdicts.add(pairwise_submodular(m, v.scaled_table[1]))
            assert pairwise_submodular(m, v.scaled_table[1]) == reference_pairwise_submodular(v)
    assert verdicts == {True, False}


def test_probe_rounds_per_class():
    f = base(3, {0b001: 1, 0b010: 1, 0b100: 2, 0b011: 2, 0b101: 2, 0b110: 2, 0b111: 2})
    grid = (F(0), F(1), F(2), INF)
    counts = {cls: len(probe_rounds(f, F(2), cls, grid)) for cls in CLASSES}
    # submodular: one round per (k, w) level present in the grid, here
    # (1, 1), (1, 2), (2, 2) and (3, 2)
    assert counts == {"general": 1, "subadditive": 1, "xos": 3, "submodular": 4}
    assert len(probe_rounds(f, F(2), "submodular", (F(1),))) == 1
    with pytest.raises(ContractError, match="price grid"):
        probe_rounds(f, F(2), "submodular")
    with pytest.raises(ContractError, match="unknown verification class"):
        probe_rounds(f, F(2), "mystery", grid)
    with pytest.raises(DomainError, match="price cap"):
        probe_rounds(f, F(1), "general")


def test_verify_menu_decision_examples():
    spec = make_example("warmup_tightness", {"c": 2})
    cat = default_catalog("warmup_tightness", {"c": 2})
    v_minus = (cat.players[0][2],)  # the chooser values item a at 3
    truth = extract_menu(spec, 1, v_minus)
    grid = menu_price_grid([truth])
    session = Session(spec, cat)

    canonical = base_function(2, truth.price)
    for cls in ("general", "subadditive", "xos", "submodular"):
        res = verify_menu(session, 1, v_minus, canonical, cls, price_grid=grid)
        assert res.answer == 0, cls

    raised = list(truth.price)
    raised[0b01] = raised[0b01] + 1
    bumped = base_function(2, tuple(raised))
    for cls in ("general", "subadditive"):
        assert verify_menu(session, 1, v_minus, bumped, cls, price_grid=grid).answer == 1

    infd = list(truth.price)
    infd[0b01] = INF
    infd[0b11] = INF
    over = base_function(2, tuple(infd))
    assert verify_menu(session, 1, v_minus, over, "general").answer == 1


def test_a_non_submodular_staircase_probe_is_refused(monkeypatch):
    import taxlab.verify as verify

    spec = make_example("warmup_tightness", {"c": 2})
    cat = default_catalog("warmup_tightness", {"c": 2})
    v_minus = (cat.players[0][2],)
    truth = extract_menu(spec, 1, v_minus)
    grid = menu_price_grid([truth])
    f = base_function(2, truth.price)
    session = Session(spec, cat)
    assert verify_menu(session, 1, v_minus, f, "submodular", price_grid=grid).answer == 0
    # complements: the pair is worth more than its items together
    complements = valuation(2, (F(0), F(0), F(0), F(1)))
    assert not pairwise_submodular(2, complements.scaled_table[1])
    monkeypatch.setattr(verify, "_staircase", lambda *args: complements.scaled_table)
    with pytest.raises(ContractError, match="submodularity"):
        verify_menu(session, 1, v_minus, f, "submodular", price_grid=grid)


def test_verification_bits_cover_menu_count():
    # the fooling-set content: 2^(q-1) menus at most, q = one run plus a bit
    for mech_id, params in [("warmup_tightness", {"c": 2}),
                            ("drop_tax", {"m": 4}),
                            ("posted_prices", {"prices": ["1", "1"], "n": 2})]:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, params)
        rep = measure_complexities(spec, cat)
        grid = menu_price_grid([mn for ms in rep.menus for mn in ms])
        i = spec.n - 1
        v_minus = tuple(cat.players[j][0] for j in range(spec.n) if j != i)
        f = random_base_function(spec.m, spec.bound, stream(1, mech_id))
        res = verify_menu(Session(spec, cat), i, v_minus, f, "general", price_grid=grid)
        assert (1 << max(res.bits - 1, 0)) >= rep.menu_counts[i]


def test_verify_agrees_with_brute_force():
    rng = stream(9, "verify-unit")
    for mech_id, params in [("warmup_tightness", {"c": 2}),
                            ("drop_tax", {"m": 4})]:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, params)
        rep = measure_complexities(spec, cat)
        grid = menu_price_grid([mn for ms in rep.menus for mn in ms])
        i = spec.n - 1
        v_minus = tuple(cat.players[j][-1] for j in range(spec.n) if j != i)
        truth = extract_menu(spec, i, v_minus)
        session = Session(spec, cat)
        for _ in range(40):
            for cls in ("general", "subadditive", "xos", "submodular"):
                values = grid if cls == "submodular" else None
                f = random_base_function(spec.m, spec.bound, rng, values=values)
                want = int(exceeds_somewhere(f, truth))
                got = verify_menu(session, i, v_minus, f, cls, price_grid=grid)
                assert got.answer == want, (mech_id, cls, f.price)


# ---- the Fraction builders the integer ones replaced, kept as oracles ----

def reference_general_probe(f, bound):
    return valuation(f.m, tuple(x if is_finite(x) else 3 * bound for x in f.price))


def reference_subadditive_probe(f, bound):
    base = reference_general_probe(f, bound)
    shift = max(base.table)
    table = tuple(F(0) if s == 0 else base.table[s] + shift for s in all_bundles(f.m))
    return valuation(f.m, table), shift


def reference_xos_clauses(f, bound, r):
    clauses = []
    for t in bundles_of_size(f.m, r):
        ft = f.price[t]
        weight = (ft / r + 3 * bound) if is_finite(ft) else (2 * bound / r + 3 * bound)
        clauses.append(tuple(weight if t & bit(j) else F(0) for j in range(f.m)))
    return XOSClauses(f.m, tuple(clauses))


def reference_xos_probe(f, bound, r):
    return xos_from_clauses(reference_xos_clauses(f, bound, r))


def reference_submodular_probe(f, bound, k, w):
    level = [s for s in bundles_of_size(f.m, k) if f.price[s] == w]
    if not level:
        raise DomainError("empty level set: skip this (k, w) pair")
    t = (1 << (f.m + 1)) * bound
    table = []
    for s in all_bundles(f.m):
        if size(s) < k:
            table.append(size(s) * t)
        elif any(s & l == l for l in level):
            table.append(k * t)
        else:
            table.append((k - F(1, 1 << size(s))) * t)
    return valuation(f.m, tuple(table))


def reference_random_base_function(m, bound, rng, values=None):
    if values is None:
        steps = int(4 * bound) + 1
        values = [F(q, 4) for q in range(steps)] + [INF]
    pool = [x for x in values if not is_finite(x) or (0 <= x <= bound)]
    table = [F(0)] * (1 << m)
    for s in all_bundles(m):
        if s:
            table[s] = max_below(table, s, pool[rng.randrange(len(pool))])
    return base_function(m, tuple(table))


def assert_integer_form(v):
    assert all(type(x) is F for x in v.table)
    assert v.scaled_table == common_denominator(v.table)


@st.composite
def base_questions(draw):
    """m in 1..5, a cap over denominator 1, 2 or 3, and a price list over
    mixed denominators (some above the cap), with or without INF; None
    draws from the default quarter grid."""
    m = draw(st.integers(1, 5))
    bound = draw(st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(2, 3), F(5, 3)]))
    if draw(st.booleans()):
        values = None
    else:
        finite = st.builds(F, st.integers(0, 7), st.sampled_from([1, 2, 3, 4, 6]))
        values = draw(st.lists(finite, min_size=1, max_size=6))
        if draw(st.booleans()):
            values.insert(draw(st.integers(0, len(values))), INF)
        if not any(not is_finite(x) or x <= bound for x in values):
            values.append(F(0))
    return m, bound, values, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(base_questions())
def test_integer_builders_match_fraction_reference(question):
    m, bound, values, seed = question
    rng, twin = stream(seed, "base"), stream(seed, "base")
    f = random_base_function(m, bound, rng, values=values)
    want = reference_random_base_function(m, bound, twin, values=values)
    assert f.price == want.price  # the same draws for the same seed
    assert rng.getstate() == twin.getstate()  # and as many: later trials see the same stream
    assert f == want and f.scaled == want.scaled  # the drawn stored form is the entry path's
    d, ints, top = f.scaled
    finite = [x for x in f.price if is_finite(x)]
    assert d == common_denominator(finite)[0]
    assert all(ints[s] == top if not is_finite(x) else F(ints[s], d) == x
               for s, x in enumerate(f.price))
    assert top == max(ints[s] for s, x in enumerate(f.price) if is_finite(x)) + 1
    levels = {(k, w): tuple(s for s in bundles_of_size(m, k) if f.price[s] == w)
              for k in range(1, m + 1) for w in {f.price[s] for s in bundles_of_size(m, k)}}
    assert {(k, INF if x == top else F(x, d)): members
            for (k, x), members in f.level_ints.items()} == levels

    def tables(cls, grid=()):
        return [tuple(F(x, d) for x in ints) for d, ints, _ in probe_rounds(f, bound, cls, grid)]

    g = reference_general_probe(f, bound)
    assert tables("general") == [g.table]
    assert_integer_form(only_probe(f, bound, "general")[0])
    want_sub, _ = reference_subadditive_probe(f, bound)
    assert tables("subadditive") == [want_sub.table]
    assert_integer_form(only_probe(f, bound, "subadditive")[0])
    assert tables("xos") == [reference_xos_probe(f, bound, r).table for r in range(1, m + 1)]
    for r in range(1, m + 1):
        d_r, rows = _xos_rows(f, _over(f, bound), r)
        clauses = tuple(tuple(F(x, d_r) for x in rows[q:q + m]) for q in range(0, len(rows), m))
        assert clauses == reference_xos_clauses(f, bound, r).clauses
    grid = tuple({w for _, w in levels})
    assert tables("submodular", grid) == [reference_submodular_probe(f, bound, k, w).table
                                          for k in range(1, m + 1) for w in grid
                                          if (k, w) in levels]
    for (k, w) in levels:
        p = submodular_probe(f, bound, k, w)
        assert p.table == reference_submodular_probe(f, bound, k, w).table
        assert_integer_form(p)



@pytest.mark.parametrize("low, high, examples", [(1, 6, 150), (7, 8, 6)])
def test_closed_form_xos_table_matches_clause_max(low, high, examples):
    """Each XOS round's table, max over U within S of |U| D(U), equals the
    `clause_max` of its clauses, for every clause size r: base functions
    over mixed denominators with INF entries, caps over denominators 1, 2,
    3 and 8."""
    @settings(max_examples=examples, deadline=None)
    @given(st.integers(low, high), st.sampled_from([F(1), F(3, 2), F(2, 3), F(7, 8), F(5, 3)]),
           st.lists(st.builds(F, st.integers(0, 9), st.sampled_from([1, 2, 3, 4, 6, 7])),
                    min_size=1, max_size=6),
           st.integers(0, 2**32))
    def check(m, bound, finite, seed):
        f = random_base_function(m, bound, stream(seed, "xos"), values=finite + [INF])
        over = _over(f, bound)
        for r in range(1, m + 1):
            d, ints, _ = _xos_round(f, over, r)
            want_d, rows = _xos_rows(f, over, r)
            assert (d, ints) == (want_d, clause_max(m, rows))

    check()

def fraction_verdicts(f, bound):
    """Per general, subadditive and xos round, the `Fraction` test its
    integer `beats` replaced and the payment it is decided against: the
    lifted entry, or the xos probe's entry less the 3B r lift."""
    g = reference_general_probe(f, bound).table
    # general and subadditive both decide on the unshifted lifted table
    out = [(lambda won, paid: g[won] > paid, lambda won: g[won], lambda won: True)] * 2
    for r in range(1, f.m + 1):
        x = reference_xos_probe(f, bound, r).table
        lift = 3 * bound * r
        out.append((lambda won, paid, x=x, r=r, lift=lift: size(won) >= r and x[won] - lift > paid,
                    lambda won, x=x, lift=lift: x[won] - lift, lambda won, r=r: size(won) >= r))
    return out


@settings(max_examples=100, deadline=None)
@given(base_questions())
def test_integer_verdicts_match_the_fraction_tests_at_the_threshold(question):
    """A payment exactly at a round's threshold does not beat it, one just
    below does (on a bundle the round covers), and every payment, INF
    included, gets the old Fraction test's verdict."""
    m, bound, values, seed = question
    f = random_base_function(m, bound, stream(seed, "base"), values=values)
    rounds = [beats for cls in ("general", "subadditive", "xos")
              for _, _, beats in probe_rounds(f, bound, cls)]
    verdicts = fraction_verdicts(f, bound)
    assert len(rounds) == len(verdicts) == m + 2
    for beats, (want, threshold, covers) in zip(rounds, verdicts):
        for won in all_bundles(m):
            at = threshold(won)
            assert not beats(won, at)
            assert beats(won, at - F(1, 7)) == covers(won)
            for paid in (at, at - F(1, 7), at + F(1, 3), at - 1, F(0), F(-2), INF):
                assert beats(won, paid) == want(won, paid)


def reference_levels(f):
    """`BaseFunction.levels`, the `Fraction`-keyed view of `level_ints` that
    `BaseFunction.int_of` replaced."""
    d, _, top = f.scaled
    return {(k, INF if x == top else F(x, d)): members
            for (k, x), members in f.level_ints.items()}


grid_prices = st.one_of(st.just(INF), st.builds(F, st.integers(-3, 14),
                                                st.sampled_from([1, 2, 3, 4, 6, 8, 12])))


@settings(max_examples=150, deadline=None)
@given(base_questions(), st.lists(grid_prices, max_size=8))
def test_grid_prices_find_the_level_sets_the_fraction_keys_found(question, grid):
    """`f.level_ints.get((k, f.int_of(w)))` is the old `levels.get((k, w))`
    for every size and every price: f's own, off its denominator, negative,
    above its entries, and INF."""
    m, bound, values, seed = question
    f = random_base_function(m, bound, stream(seed, "base"), values=values)
    old = reference_levels(f)
    for w in [*grid, *(w for _, w in old)]:
        for k in range(1, m + 1):
            assert f.level_ints.get((k, f.int_of(w))) == old.get((k, w))


def reference_check_bound(f, bound):
    return all(x <= bound for x in f.price if is_finite(x))


@settings(max_examples=150, deadline=None)
@given(base_questions(), st.sampled_from([F(1, 3), F(1, 2), F(1), F(4, 3), F(7, 4), F(3)]))
def test_integer_bound_check_matches_fraction_reference(question, cap):
    m, bound, values, seed = question
    f = random_base_function(m, bound, stream(seed, "base"), values=values)
    if reference_check_bound(f, cap):
        f.check_bound(cap)
    else:
        with pytest.raises(DomainError, match="price cap"):
            f.check_bound(cap)


def test_an_empty_price_pool_is_refused():
    """No drawable price (all above the cap, or none given) is a one-line
    DomainError before any draw, not randrange's bare ValueError."""
    for values in ((F(5),), (), (F(-1), F(3))):
        rng = stream(2, "empty-pool")
        before = rng.getstate()
        with pytest.raises(DomainError, match="no drawable price"):
            random_base_function(2, F(2), rng, values=values)
        assert rng.getstate() == before
    f = random_base_function(2, F(2), stream(2, "inf"), values=(F(5), INF))
    assert f.price == (F(0), INF, INF, INF)


def test_base_function_refusals_and_infinite_top():
    with pytest.raises(DomainError, match="monotone"):
        base_function(2, (F(0), F(1, 2), F(0), F(3, 7)))
    with pytest.raises(DomainError, match="monotone"):
        base_function(2, (F(0), INF, F(0), F(1)))
    with pytest.raises(DomainError, match="vanish"):
        base_function(1, (INF, INF))
    with pytest.raises(DomainError, match="exact rationals or INF"):
        base_function(1, (0.0, 0.5))
    f = base_function(2, (F(0), F(1, 2), F(2, 3), INF))
    assert f.scaled == (6, (0, 3, 4, 5), 5)
    everything = base_function(2, (F(0), INF, INF, INF))
    assert everything.scaled == (1, (0, 1, 1, 1), 1)
    assert everything.level_ints == {(1, 1): (0b01, 0b10), (2, 1): (0b11,)}
    assert everything.int_of(INF) == 1 and everything.int_of(F(0)) == 0
    assert BaseFunction(2, (6, (0, 3, 4, 5), 5)) == f and "price" not in vars(f)
    # the stored triple itself must be the reduced form with top one above it
    for scaled in ((2, (0, 2), 3), (0, (0, 1), 2), (1, (0, 1), 3), (1, (0, 2), 1),
                   (1, [0, 1], 2)):
        with pytest.raises(DomainError, match="reduced ints with top above them"):
            BaseFunction(1, scaled)
    with pytest.raises(DomainError, match="cover all"):
        BaseFunction(2, (1, (0, 1), 2))


def test_base_function_validates_once_per_construction(monkeypatch):
    seen = []
    check = BaseFunction.__post_init__
    monkeypatch.setattr(BaseFunction, "__post_init__", lambda f: seen.append(f) or check(f))
    for build in (lambda: base_function(2, (F(0), F(1, 2), F(2, 3), INF)),
                  lambda: BaseFunction(1, (1, (0, 1), 2)),
                  lambda: random_base_function(3, F(2), stream(0, "once"))):
        seen.clear()
        f = build()
        assert seen == [f] and f.price[0] == 0 and f.level_ints and len(seen) == 1


@settings(max_examples=60, deadline=None)
@given(base_questions())
def test_the_tables_the_rounds_run_are_structural(question):
    m, bound, values, seed = question
    f = random_base_function(m, bound, stream(seed, "base"), values=values)
    grid = menu_price_grid([f])
    assert probes_structural(f, bound, grid)


def planted_verify_line(monkeypatch, name, perturb, trials):
    """The verify-menu line of drop_tax at m = 4 with `verify.<name>`'s
    table passed through `perturb`."""
    import taxlab.verify as verify

    built = getattr(verify, name)

    def planted(*args):
        d, ints, *rest = built(*args)
        return (d, perturb(list(ints)), *rest)

    monkeypatch.setattr(verify, name, planted)
    session = Session(*suites.bench_instance("drop_tax", {"m": 4}))
    return suites.verify_menu_trials(session, trials, 0).render()


def test_trials_on_an_unmeasured_session_run_no_price_protocol(monkeypatch):
    """The trials' price grid is read from the session's menus: on a
    session no `measure` has run they make no price-protocol run, and
    their line is a measured session's."""
    import taxlab.protocol as protocol

    measured = Session(*suites.bench_instance("drop_tax", {"m": 4}))
    measured.report()
    want = suites.verify_menu_trials(measured, 5, 0).render()
    calls = []
    run = protocol.price_run
    monkeypatch.setattr(protocol, "price_run", lambda *args: calls.append(args) or run(*args))
    fresh = Session(*suites.bench_instance("drop_tax", {"m": 4}))
    assert suites.verify_menu_trials(fresh, 5, 0).render() == want
    assert calls == []


def test_a_perturbed_xos_table_fails_the_structural_check(monkeypatch):
    """One xos round's table raised at the grand bundle (still a monotone
    probe, so the rounds run) is no longer its clauses' maximum."""
    line = planted_verify_line(monkeypatch, "_xos_round",
                               lambda ints: ints[:-1] + [ints[-1] + 1], 2)
    assert line == ("verify-menu[drop_tax(m=4)]: FAIL  "
                    "[8 trials, 0 mismatches, probes structural: False]")


def test_a_non_submodular_staircase_table_fails_the_structural_check(monkeypatch):
    """A staircase table whose grand bundle is worth more than twice its
    due breaks submodularity at every pair; with no trials, only the
    structural check reads it, and it reports rather than raises."""
    line = planted_verify_line(monkeypatch, "_staircase",
                               lambda ints: tuple(ints[:-1] + [2 * ints[-1] + 1]), 0)
    assert line == ("verify-menu[drop_tax(m=4)]: FAIL  "
                    "[0 trials, 0 mismatches, probes structural: False]")


def test_a_non_submodular_staircase_table_in_the_trials_is_a_fail_line(monkeypatch):
    """The same planted table with trials on: the submodular rounds refuse
    it, and the suite reports that as its FAIL line rather than raising."""
    line = planted_verify_line(monkeypatch, "_staircase",
                               lambda ints: tuple(ints[:-1] + [2 * ints[-1] + 1]), 2)
    assert line == ("verify-menu[drop_tax(m=4)]: FAIL  "
                    "[8 trials, 0 mismatches, probes structural: False]")


def reference_staircase(m, level, bound):
    """The per-mask builder `_staircase` ran before its one comprehension."""
    k = size(level[0])
    covered = upward_closure(m, level)
    ints = []
    for s in range(1 << m):
        n = size(s)
        if n < k:
            ints.append(n << (m + 1))
        elif covered[s]:
            ints.append(k << (m + 1))
        else:
            ints.append(((k << n) - 1) << (m + 1 - n))
    return bound.denominator, tuple([x * bound.numerator for x in ints])


def test_staircase_matches_the_per_mask_builder():
    rng = stream(7, "staircase")
    for m in range(1, 9):
        for _ in range(15):
            k = rng.randrange(1, m + 1)
            sized = bundles_of_size(m, k)
            level = tuple(s for s in sized if rng.random() < 0.4) or sized[-1:]
            bound = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
            assert _staircase(m, level, bound.as_integer_ratio()) == reference_staircase(
                m, level, bound)


def test_upward_closure_matches_member_scan():
    rng = stream(5, "closure")
    for m in range(1, 7):
        for _ in range(20):
            k = rng.randrange(1, m + 1)
            level = [s for s in bundles_of_size(m, k) if rng.random() < 0.4]
            assert upward_closure(m, level) == [any(s & l == l for l in level)
                                                for s in all_bundles(m)]


# ---- the Session's probe memo ----

def reference_verify_menu(spec, i, v_minus_i, f, cls, grid):
    """`verify_menu` before the probe memo: the Fraction probes, each round
    a fresh `run_mechanism`."""
    bound = spec.bound

    def run_with(probe):
        res = run_mechanism(spec, insert_player(tuple(v_minus_i), i, probe))
        return res.allocation[i], res.payments[i], res.bits

    if cls in ("general", "subadditive"):
        if cls == "general":
            probe, shift = reference_general_probe(f, bound), F(0)
        else:
            probe, shift = reference_subadditive_probe(f, bound)
        won, pay, used = run_with(probe)
        lifted = probe.table[won] - (shift if won else F(0))
        return VerificationResult(int(lifted > pay), 1, used + 1)
    answer = runs = bits = 0
    if cls == "xos":
        for r in range(1, spec.m + 1):
            probe = reference_xos_probe(f, bound, r)
            won, pay, used = run_with(probe)
            runs, bits = runs + 1, bits + used + 1
            if size(won) >= r and probe.table[won] - 3 * bound * r > pay:
                answer = 1
        return VerificationResult(answer, runs, bits)
    t = (1 << (spec.m + 1)) * bound
    for k in range(1, spec.m + 1):
        for w in grid:
            if not any(f.price[s] == w for s in bundles_of_size(spec.m, k)):
                continue
            probe = reference_submodular_probe(f, bound, k, w)
            won, pay, used = run_with(probe)
            runs, bits = runs + 1, bits + used + 1
            if probe.table[won] == k * t and pay < w:
                answer = 1
    return VerificationResult(answer, runs, bits)


@pytest.mark.parametrize("mech_id, params", STANDARD_BENCH)
def test_memoized_verification_matches_fresh_runs(mech_id, params):
    """Every class through one Session (so later rounds hit the memo) gives
    the answer, runs and bits of fresh unmemoized runs; each f is asked
    twice, the second time answered wholly from the memo."""
    spec, cat = suites.bench_instance(mech_id, params)
    session = Session(spec, cat)
    grid = menu_price_grid([mn for ms in session.report().menus for mn in ms])
    rng = stream(17, "memo", mech_id)
    i = spec.n - 1
    for v_minus in (tuple(g[0] for g in cat.players[:i]), tuple(g[-1] for g in cat.players[:i])):
        for cls in CLASSES:
            for _ in range(6):
                f = random_base_function(spec.m, spec.bound, rng,
                                         values=grid if cls == "submodular" else None)
                want = reference_verify_menu(spec, i, v_minus, f, cls, grid)
                for _ in range(2):
                    assert verify_menu(session, i, v_minus, f, cls, price_grid=grid) == want


def counting_spec(m, calls):
    """Two players, player 1 wins the grand bundle at price 1 when it values
    it above 1; every run is logged in `calls` by its tables."""
    def program(profile, rec):
        calls.append(tuple(v.table for v in profile))
        rec.send_bit(1, 1)
        if profile[1].max_value() > 1:
            return (0, (1 << m) - 1), (F(0), F(1))
        return (0, 0), (F(0), F(0))
    return unpriced_spec("counting", 2, m, F(1), "bit", program)


def test_probe_memo_runs_each_distinct_probe_once():
    m = 3
    calls = []
    spec = counting_spec(m, calls)
    others = (additive_valuation([F(1)] * m), additive_valuation([F(2)] * m))
    session = Session(spec, ValuationCatalog((others, others)))
    grid = (F(0), F(1, 2), F(1), INF)
    rng = stream(3, "counting")
    asked = set()
    charged = 0
    for _ in range(40):
        for v_minus in ((others[0],), (others[1],)):
            for cls in CLASSES:
                f = random_base_function(m, spec.bound, rng,
                                         values=grid if cls == "submodular" else None)
                res = verify_menu(session, 1, v_minus, f, cls, price_grid=grid)
                charged += res.runs
                asked |= {(v_minus[0].table, tuple(F(x, d) for x in ints))
                          for d, ints, _ in probe_rounds(f, spec.bound, cls, grid)}
    assert sorted(calls) == sorted(asked)  # one run per distinct (v_minus_i, probe table)
    assert charged > len(calls)  # repeats were charged though answered from the memo
    # an equal probe that is another object is a hit
    probe, _ = only_probe(random_base_function(m, spec.bound, rng), spec.bound, "general")
    first = session.probe_run(1, (others[0],), probe.scaled_table)
    before = len(calls)
    assert session.probe_run(1, (others[0],), valuation(m, probe.table).scaled_table) == first
    assert len(calls) == before
    # so is the same table over an unreduced denominator
    d, ints = probe.scaled_table
    for k in (2, 3, 12):
        assert session.probe_run(1, (others[0],), (k * d, [k * x for x in ints])) == first
    assert len(calls) == before


@pytest.mark.parametrize("cls", CLASSES)
def test_probes_become_valuations_only_on_memo_misses(cls, monkeypatch):
    """`verify_menu` builds a `Valuation` for each probe-memo miss and for
    nothing else: the staircase tables stay integer until a miss."""
    import taxlab.verify as verify

    m = 3
    calls = []
    spec = counting_spec(m, calls)
    others = (additive_valuation([F(1)] * m), additive_valuation([F(2)] * m))
    session = Session(spec, ValuationCatalog((others, others)))
    grid = (F(0), F(1, 2), F(1), INF)
    rng = stream(4, "constructions", cls)
    bases = [random_base_function(m, spec.bound, rng,
                                  values=grid if cls == "submodular" else None)
             for _ in range(20)]
    built = []
    check = Valuation.__post_init__

    def counted(v):
        built.append(v.table)
        check(v)

    monkeypatch.setattr(Valuation, "__post_init__", counted)
    verify._staircase.cache_clear()
    for f in bases:
        for v_minus in ((others[0],), (others[1],)):
            verify_menu(session, 1, v_minus, f, cls, price_grid=grid)
    assert len(built) == len(calls) > 0  # one run per memo miss


def reference_exceeds_somewhere(f, menu):
    """`exceeds_somewhere` as it compared the `Fraction` tables."""
    return any(f.price[s] > menu.price[s] for s in all_bundles(f.m))


entries = st.one_of(st.just(INF), st.builds(F, st.integers(0, 9), st.sampled_from([1, 2, 3, 7])))


@st.composite
def base_and_menu_tables(draw):
    """m in 1..6, a base function table (0 on the empty bundle, closed
    upward, INF entries) and a menu table (INF entries anywhere, raw or
    monotone), each over mixed denominators; the menu sometimes is the
    base function plus a draw from {-1, 0, 1/7} at one bundle."""
    m = draw(st.integers(1, 6))
    f = monotone_closure([F(0)] + [draw(entries) for _ in range(1, 1 << m)], m)
    if draw(st.booleans()):
        menu = list(f)
        s = draw(st.integers(0, (1 << m) - 1))
        if is_finite(menu[s]):
            menu[s] += draw(st.sampled_from([F(-1), F(0), F(1, 7)]))
    else:
        menu = [draw(entries) for _ in range(1 << m)]
        if draw(st.booleans()):
            menu = monotone_closure(menu, m)
    return m, f, tuple(menu)


@settings(max_examples=200, deadline=None)
@given(base_and_menu_tables())
def test_integer_exceeds_somewhere_matches_fraction_reference(question):
    m, table, prices = question
    priced = menu(m, prices)
    got = exceeds_somewhere(base_function(m, table), priced)
    assert got == reference_exceeds_somewhere(base_function(m, table), priced)


def test_bit_mode_probe_runs_and_menu_checks_build_no_fraction_table(monkeypatch):
    """Probe runs of a bit-mode mechanism read integer tables only: neither
    a seated probe nor the others' catalog valuations build a `Fraction`
    table; nor do a base function's rounds, its level sets included, or
    `exceeds_somewhere` build the base function's."""
    import taxlab.protocol as protocol

    spec = make_example("drop_tax", {"m": 4})
    cat = default_catalog("drop_tax", {"m": 4})
    session = Session(spec, cat)
    grid = menu_price_grid(session.menus(1))
    seated = []
    run = protocol.run_mechanism

    def spy(spec, profile):
        seated.append(profile)
        return run(spec, profile)

    monkeypatch.setattr(protocol, "run_mechanism", spy)
    rng = stream(12, "no-fraction-table")
    for cls in CLASSES:
        f = random_base_function(4, spec.bound, rng, values=grid if cls == "submodular" else None)
        for d, ints, _ in probe_rounds(f, spec.bound, cls, grid):
            for v_minus in session.others(1):
                session.probe_run(1, v_minus, (d, ints))
        assert "price" not in vars(f), cls
    assert "level_ints" in vars(f)  # the last rounds were the submodular ones
    assert len(seated) > 10
    assert not [v for profile in seated for v in profile if "table" in vars(v)]
    f = random_base_function(4, spec.bound, rng)
    for v_minus in session.others(1):
        exceeds_somewhere(f, session.menu(1, v_minus))
    assert "price" not in vars(f)


@pytest.mark.parametrize("mech_id, params", [
    ("mt_gadget", {"m": 4}),
    ("demand_tightness", {"m": 4, "alpha": 2, "count": 4}),
])
def test_demand_mode_probe_runs_build_no_fraction_table(monkeypatch, mech_id, params):
    """Demand answers are read from the stored ints: no probe seated at the
    buyer of a demand-mode mechanism builds its `Fraction` table, over every
    class's rounds against every catalog opponent."""
    import taxlab.protocol as protocol

    spec = make_example(mech_id, params)
    session = Session(spec, default_catalog(mech_id, params))
    grid = menu_price_grid(session.menus(1))
    seated = []
    run = protocol.run_mechanism

    def spy(spec, profile):
        seated.append(profile[1])
        return run(spec, profile)

    monkeypatch.setattr(protocol, "run_mechanism", spy)
    rng = stream(21, "demand-probe")
    for cls in CLASSES:
        f = random_base_function(4, spec.bound, rng, values=grid if cls == "submodular" else None)
        for d, ints, _ in probe_rounds(f, spec.bound, cls, grid):
            for v_minus in session.others(1):
                session.probe_run(1, v_minus, (d, ints))
    assert len(seated) > 10
    assert not [v for v in seated if "table" in vars(v)]
