"""Min-affine extraction, the few-query optimizer, and the hidden-bundle
gadget."""

import itertools
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab import suites, valuations
from taxlab.bundles import all_bundles, bundles_of_size, size
from taxlab.demand_menus import (CharacterizationViolation, brute_cover, canonical_valuation,
                                 demand_cover, extract_min_affine, hidden_bump_price,
                                 hidden_bump_profits, hidden_problem_valuation,
                                 min_affine_argmax, mt_gadget_argmax)
from taxlab.library import default_catalog, make_example
from taxlab.menus import MinAffineMenu, eval_min_affine
from taxlab.protocol import PriceRun, Session, extract_menu, insert_player
from taxlab.queries import bundle_price, demand_ints, demand_query, price_ints
from taxlab.rational import INF, is_finite
from taxlab.rng import stream
from taxlab.suites import COVER_DEN, cover_grid_check, cover_vector
from taxlab.valuations import (DomainError, Valuation, ValuationCatalog, additive_valuation,
                               demand_candidates, layered_valuation,
                               random_monotone_valuation, valuation_from_values)

from references import ACCEPTANCE_BENCH, cover_grid, min_affine_table, unpriced_spec

F = Fraction


def one_valuation_session(spec, v):
    """A session over the catalog holding v alone for every player."""
    return Session(spec, ValuationCatalog(((v,),) * spec.n))


def test_extract_posted_prices_example():
    spec = make_example("posted_prices", {"prices": ["1", "1"], "n": 2})
    zero = additive_valuation([0, 0])
    ma, _ = extract_min_affine(one_valuation_session(spec, zero), 1, (zero,))
    assert ma.vectors == ((F(1), F(1)),)
    assert ma.offsets == (F(0),)
    assert ma.exceptions == ()
    truth = extract_menu(spec, 1, (zero,))
    for s in all_bundles(2):
        assert eval_min_affine(ma, s) == truth.price[s]


def test_extract_degenerate_value_only():
    def peek_grand(profile, rec):
        rec.value_query(1, 0b11)
        return (0, 0), (F(0), F(0))

    spec = unpriced_spec("peek", 2, 2, F(1), "demand", peek_grand)
    zero = additive_valuation([0, 0])
    ma, _ = extract_min_affine(one_valuation_session(spec, zero), 1, (zero,))
    assert ma.alpha == 0 and ma.beta == 1
    assert ma.exceptions == ((0b11, INF),)


def silent(profile, rec):
    # allocates a priced bundle without ever querying the winner
    return (0, 0b01), (F(0), F(1))


SILENT = unpriced_spec("silent", 2, 2, F(2), "demand", silent)


def test_extract_flags_unrepresentable_trace():
    zero = additive_valuation([0, 0])
    with pytest.raises(CharacterizationViolation):
        extract_min_affine(one_valuation_session(SILENT, zero), 1, (zero,))


def test_min_affine_check_reports_an_unrepresentable_trace_as_a_fail_line():
    """The extractor's violation is the check's FAIL line, naming the
    player, not a traceback."""
    line = suites.min_affine_check(one_valuation_session(SILENT, additive_valuation([0, 0])))
    assert line.render().startswith("min-affine[silent]: FAIL  [2 menus; ['player 1: silent:")


def test_extracted_menus_meet_the_at_most_and_exactly_lemmas():
    """The `Fraction` cross-check of the menus `extract_min_affine` returns
    for every player and profile of each demand-mode acceptance entry:
    alpha and beta within the canonical run's query counts, and on each
    finite bundle outside the exceptions the price is at most every
    finite affine piece and, off the empty bundle, equal to one."""
    demand = [(mech_id, params) for mech_id, params in ACCEPTANCE_BENCH
              if make_example(mech_id, params).mode == "demand"]
    assert len(demand) >= 3
    for mech_id, params in demand:
        session = Session(*suites.bench_instance(mech_id, params))
        spec = session.spec
        errors = []
        count = 0
        for i in range(spec.n):
            for v_minus in session.others(i):
                truth = session.menu(i, v_minus)
                ma, res = extract_min_affine(session, i, v_minus)
                if ma.alpha > res.query_count("dem", i) or ma.beta > res.query_count("val", i):
                    errors.append(f"player {i}: alpha/beta exceed the trace")
                # at-most/exactly lemmas on the harvested pieces
                for s in all_bundles(spec.m):
                    price = truth.price[s]
                    if not is_finite(price) or s in dict(ma.exceptions):
                        continue
                    terms = []
                    for vec, r in zip(ma.vectors, ma.offsets):
                        t = bundle_price(vec, s)
                        if is_finite(t):
                            terms.append(t + r)
                    if any(price > t for t in terms):
                        errors.append(f"at-most fails at {s}")
                    if s and not any(price == t for t in terms):
                        errors.append(f"exactly fails at {s}")
                count += 1
        assert count > 0 and errors == [], (mech_id, errors[:2])


def test_extract_demand_tightness_alpha():
    spec = make_example("demand_tightness", {"m": 4, "alpha": 2, "count": 4})
    cat = default_catalog("demand_tightness", {"m": 4, "count": 4})
    ma, _ = extract_min_affine(Session(spec, cat), 1, (cat.players[0][0],))
    assert ma.alpha <= 2 and ma.beta == 0


def test_min_affine_check_runs_each_canonical_profile_once(monkeypatch):
    """`min_affine_check` reads the canonical run `extract_min_affine` made
    through the session: one run per player and profile of the others, on
    the canonical profile, and none of its own."""
    import taxlab.protocol as protocol

    params = {"m": 2, "alpha": 2, "count": 4}
    spec = make_example("demand_tightness", params)
    session = Session(spec, default_catalog("demand_tightness", params))
    profiles = [(i, v_minus) for i in range(spec.n) for v_minus in session.others(i)]
    canonical = [insert_player(v_minus, i, canonical_valuation(session.menu(i, v_minus),
                                                                spec.bound))
                 for i, v_minus in profiles]
    seated = []
    run = protocol.run_mechanism

    def spy(spec, profile):
        seated.append(profile)
        return run(spec, profile)

    monkeypatch.setattr(protocol, "run_mechanism", spy)
    monkeypatch.setattr(suites, "run_mechanism", None)
    assert suites.min_affine_check(session).passed
    assert seated == canonical and len(profiles) > 4


def test_min_affine_argmax_examples():
    ma = MinAffineMenu(2, ((F(1), F(1)),), (F(0),))
    v = valuation_from_values(2, {0b01: 3, 0b10: 2, 0b11: 4})
    calls = []

    def oracle(prices):
        calls.append(prices)
        return demand_query(v, prices)

    assert min_affine_argmax(ma, oracle) == 0b01
    assert len(calls) == 1

    zero = additive_valuation([0, 0])
    assert min_affine_argmax(ma, lambda p: demand_query(zero, p)) == 0

    ma2 = MinAffineMenu(2, ((F(1), F(1)), (F(0), INF)), (F(0), F(1, 2)))
    v2 = valuation_from_values(2, {0b01: 1})
    got = min_affine_argmax(ma2, lambda p: demand_query(v2, p))
    assert got == 0b01
    assert v2.value(got) - eval_min_affine(ma2, got) == F(1, 2)


def test_min_affine_argmax_matches_brute_force():
    rng = stream(17, "maa")
    for _ in range(80):
        m = rng.randrange(1, 4)
        alpha = rng.randrange(1, 4)
        vectors = []
        offsets = []
        for k in range(alpha):
            vectors.append(tuple(F(rng.randrange(5), 2) for _ in range(m)))
            offsets.append(F(0) if k == 0 else F(rng.randrange(3), 4))
        ma = MinAffineMenu(m, tuple(vectors), tuple(offsets))
        v = random_monotone_valuation(m, rng)
        got = min_affine_argmax(ma, lambda p: demand_query(v, p))
        profits = [v.value(s) - eval_min_affine(ma, s) for s in all_bundles(m)]
        assert v.value(got) - eval_min_affine(ma, got) == max(profits)


def reference_min_affine_argmax(ma, oracle):
    """The `Fraction` optimizer `min_affine_argmax` was before it ranked
    ints: each answer's profit d_val - price as it arrives, by the
    `Fraction` best-bundle loop, INF-priced answers skipped."""
    best_mask, best_profit = 0, F(0)
    for vec in ma.vectors:
        d_mask, d_val = oracle(vec)
        price = eval_min_affine(ma, d_mask)
        if is_finite(price) and (d_val - price > best_profit
                                 or (d_val - price == best_profit and d_mask < best_mask)):
            best_mask, best_profit = d_mask, d_val - price
    return best_mask


def reference_mt_gadget_argmax(m, oracle, price_check):
    """The `Fraction` gadget optimizer `mt_gadget_argmax` was before it
    ranked ints: (bundle, profit, price, demand queries)."""
    d0, v0 = oracle((F(1),) * m)
    if not (price_check(d0) and size(d0) == m // 2):
        return d0, v0 - size(d0), F(size(d0)), 2
    t_mask, queries = d0, 2
    candidates = [(t_mask, v0 - hidden_bump_price(t_mask, t_mask))]
    vectors = [tuple(INF if k == j else F(1) for k in range(m))
               for j in range(m) if t_mask >> j & 1]
    vectors += [tuple(F(0) if t_mask >> k & 1 else (F(1, 2) if k == j else F(1)) for k in range(m))
                for j in range(m) if not t_mask >> j & 1]
    for prices in vectors:
        d, dv = oracle(prices)
        queries += 1
        candidates.append((d, dv - hidden_bump_price(d, t_mask)))
    best_mask, best_profit = 0, F(0)
    for mask, profit in candidates:
        if profit > best_profit or (profit == best_profit and mask < best_mask):
            best_mask, best_profit = mask, profit
    return best_mask, best_profit, hidden_bump_price(best_mask, t_mask), queries


def logged(answer):
    """An oracle over `answer` and the list of the vectors it was asked,
    each as a plain tuple."""
    asked = []

    def oracle(prices):
        asked.append(tuple(prices))
        return answer(prices)
    return oracle, asked


@st.composite
def min_affine_questions(draw):
    """An exception-free min-affine menu over halves, thirds and INF
    entries with a buyer over a grid of thirds or halves."""
    m = draw(st.integers(1, 4))
    entry = st.one_of(st.just(INF), st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3])))
    vectors = draw(st.lists(st.tuples(*[entry] * m), min_size=1, max_size=4))
    offsets = [F(0)] + draw(st.lists(st.builds(F, st.integers(0, 4), st.sampled_from([1, 4])),
                                     min_size=len(vectors) - 1, max_size=len(vectors) - 1))
    rng = stream(draw(st.integers(0, 2**32)), "maa-oracle")
    v = random_monotone_valuation(m, rng, scale=draw(st.sampled_from([F(4), F(2, 3), F(5, 3)])))
    return MinAffineMenu(m, tuple(vectors), tuple(offsets)), v


@settings(max_examples=300, deadline=None)
@given(min_affine_questions())
def test_min_affine_argmax_ranks_ints_like_the_fraction_optimizer(question):
    """The same bundle and the same queries, in order, as the `Fraction`
    optimizer, on menus whose vectors price items at INF."""
    ma, v = question
    oracle, asked = logged(lambda p: demand_query(v, p))
    ref_oracle, ref_asked = logged(lambda p: demand_query(v, p))
    assert min_affine_argmax(ma, oracle) == reference_min_affine_argmax(ma, ref_oracle)
    assert asked == ref_asked == list(ma.vectors)


def test_min_affine_argmax_skips_inf_priced_answers_and_keeps_ties():
    """An answer the menu prices at INF never wins, even at a high value;
    ties go to the smaller mask, and a zero profit loses to the empty
    bundle."""
    ma = MinAffineMenu(2, ((F(1), INF), (F(2), F(0))), (F(0), F(1, 2)))
    answers = {(F(1), INF): (0b11, F(100)), (F(2), F(0)): (0b10, F(1))}
    assert eval_min_affine(ma, 0b11) == F(5, 2)  # finite through the second vector
    assert min_affine_argmax(ma, lambda p: answers[tuple(p)]) == 0b11
    blocked = MinAffineMenu(2, ((F(1), INF),), (F(0),))
    assert eval_min_affine(blocked, 0b10) is INF
    assert min_affine_argmax(blocked, lambda p: (0b10, F(100))) == 0
    tied = MinAffineMenu(2, ((F(1), F(1)), (F(1), F(1))), (F(0), F(0)))
    replies = iter([(0b10, F(2)), (0b01, F(2))])
    assert min_affine_argmax(tied, lambda p: next(replies)) == 0b01
    assert min_affine_argmax(tied, lambda p: (0b01, F(1))) == 0
    negative = iter([(0b10, F(1, 2)), (0b01, F(1, 3))])
    assert min_affine_argmax(tied, lambda p: next(negative)) == 0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.integers(0, 2**32),
       st.sampled_from([F(4), F(2, 3), F(5, 3), F(1)]), st.booleans())
def test_mt_gadget_argmax_ranks_ints_like_the_fraction_optimizer(m, seed, scale, bumped):
    """Bundle, profit, price and query count, and the queries in order, as
    the `Fraction` optimizer's, for buyers over odd and even denominators;
    the price check is asked the same bundles.  It answers for a hidden
    bundle, or (bumped) says every half-size bundle carries the bump, so
    the three-phase path runs whenever the opening answer is half-size."""
    rng = stream(seed, "gadget-int")
    sized = bundles_of_size(m, m // 2)
    hidden = hidden_problem_valuation(m, sized[rng.randrange(len(sized))])
    v = random_monotone_valuation(m, rng, scale=scale)
    runs = []
    for optimizer in (mt_gadget_argmax, reference_mt_gadget_argmax):
        oracle, asked = logged(lambda p: demand_query(v, p))
        checked = []

        def price_check(s):
            checked.append(s)
            return size(s) == m // 2 if bumped else hidden.value(s) == F(1, 4)

        got = optimizer(m, oracle, price_check)
        if optimizer is mt_gadget_argmax:
            got = (got.bundle, got.profit, got.price, got.demand_queries)
        runs.append((got, asked, checked))
    assert runs[0][0] == runs[1][0] and runs[0][1:] == runs[1][1:]
    assert all(type(x) is F for x in runs[0][0][1:3])


def run_gadget(m, t_mask, v):
    hidden = hidden_problem_valuation(m, t_mask)
    return mt_gadget_argmax(m, lambda prices: demand_query(v, prices),
                            lambda s: hidden.value(s) == F(1, 4))


def test_gadget_price_checks_once_and_counts_every_query():
    rng = stream(5, "gadget-count")
    for m in (2, 4, 6):
        sized = bundles_of_size(m, m // 2)
        # the zero buyer's opening answer is the empty bundle, not half-size
        buyers = [additive_valuation([0] * m), additive_valuation([2] * m)]
        buyers += [random_monotone_valuation(m, rng) for _ in range(20)]
        for v in buyers:
            t_mask = sized[rng.randrange(len(sized))]
            hidden = hidden_problem_valuation(m, t_mask)
            asked, checked = [], []

            def oracle(prices):
                asked.append(prices)
                return demand_query(v, prices)

            def price_check(s):
                checked.append(s)
                return hidden.value(s) == F(1, 4)

            got = mt_gadget_argmax(m, oracle, price_check)
            assert checked == [demand_query(v, asked[0])[0]]
            assert got.demand_queries == len(asked) + len(checked)
            assert got.price == hidden_bump_price(got.bundle, t_mask)
            assert got.profit == v.value(got.bundle) - got.price


def test_gadget_spec_cases():
    t_mask = 0b0011
    rich = valuation_from_values(4, {s: 2 * bin(s).count("1") for s in all_bundles(4)})
    got = run_gadget(4, t_mask, rich)
    assert got.bundle == 0b1111 and got.profit == 4
    assert got.demand_queries <= 6

    capped = valuation_from_values(4, {s: min(bin(s).count("1"), 3) for s in all_bundles(4)})
    got = run_gadget(4, t_mask, capped)
    brute = max(capped.value(s) - hidden_bump_price(s, t_mask) for s in all_bundles(4))
    assert got.profit == brute == 0  # every profit tops out at zero here

    zero = additive_valuation([0] * 4)
    assert run_gadget(4, t_mask, zero).bundle == 0


def reference_gadget_optimum(v, t_mask):
    """The `Fraction` brute `hidden_bump_profits` replaced in the gadget
    trials: the best profit against the hidden-bump menu."""
    return max(v.value(s) - hidden_bump_price(s, t_mask) for s in all_bundles(v.m))


def test_hidden_bump_profits_match_the_fraction_brute_for_every_hidden_bundle():
    """Every half-size T, m 2..8, on buyers over odd and even denominators
    (E = lcm(D, 2) then differs from D) and on the zero buyer."""
    rng = stream(21, "gadget-profits")
    for m in (2, 4, 6, 8):
        for t_mask in bundles_of_size(m, m // 2):
            buyers = [random_monotone_valuation(m, rng, grid, scale)
                      for grid, scale in ((8, F(4)), (3, F(5, 3)), (2, F(1)))]
            for v in buyers + [additive_valuation([0] * m)]:
                e, profits = hidden_bump_profits(v, t_mask)
                assert e % 2 == 0 and e % v.scaled_table[0] == 0
                assert [F(x, e) for x in profits] == [
                    v.value(s) - hidden_bump_price(s, t_mask) for s in all_bundles(m)]
                assert F(max(profits), e) == reference_gadget_optimum(v, t_mask)
                got = run_gadget(m, t_mask, v)
                assert got.profit == F(max(profits), e) and profits[got.bundle] == max(profits)


def test_gadget_hit_path():
    # a buyer whose opening answer is exactly the hidden bundle
    t_mask = 0b0011
    v = additive_valuation([2, 2, 0, 0])
    got = run_gadget(4, t_mask, v)
    brute = max(v.value(s) - hidden_bump_price(s, t_mask) for s in all_bundles(4))
    assert got.profit == brute
    assert got.demand_queries == 6  # the full three-phase budget


def cover(prices, m):
    """`demand_cover` of a `Fraction`/INF vector, converted by `price_ints`."""
    return demand_cover(price_ints(prices), m)


def test_demand_cover_examples():
    assert cover((F(1, 10), F(1, 10), F(1), F(1)), 4) == {0b0011}
    assert cover((F(1),) * 4, 4) == set()
    assert cover((F(1, 8), F(1, 8), F(1, 2), F(1, 2)), 4) == set()
    assert cover((F(1, 8), F(-1, 2), F(1), INF), 4) == {0b0011}
    # an item at exactly 1/4 joins the candidate, but dropping it leaves the
    # profit as it is, so the smaller bundle answers
    assert cover((F(1, 4), F(-1, 2), F(1), INF), 4) == set()
    assert cover((F(1, 8), F(-1, 2), F(1), F(1, 4)), 4) == set()
    # the same vectors over unreduced denominators: 1/4 is 2/8 and 3/12
    assert demand_cover((8, [1, -4, 8, None]), 4) == {0b0011}
    assert demand_cover((8, [2, -4, 8, None]), 4) == set()
    assert demand_cover((12, [2, -6, 12, None]), 4) == {0b0011}
    assert demand_cover((12, [3, -6, 12, None]), 4) == set()


def test_demand_cover_refuses_a_price_vector_of_the_wrong_length():
    for prices in ((F(1, 8),) * 8, (F(1, 8),) * 3):
        with pytest.raises(DomainError, match="price vector length must equal m"):
            cover(prices, 6)
        with pytest.raises(DomainError, match="price vector length must equal m"):
            brute_cover(price_ints(prices), 6)
    with pytest.raises(DomainError, match="even item count"):
        demand_cover((8, [1] * 5), 5)


@pytest.mark.parametrize("cover_set", [demand_cover, brute_cover])
def test_both_cover_sets_refuse_an_odd_m_and_a_nonpositive_denominator(cover_set):
    """An odd m has no half-size target; over P = 0 the kernel once divided
    by zero, and over P = -8 it flipped every price's sign."""
    for m in (1, 3, 5):
        with pytest.raises(DomainError, match="even item count"):
            cover_set((8, [8] * m), m)
    for den in (0, -8):
        with pytest.raises(DomainError, match="denominator must be positive"):
            cover_set((den, (0, 0, 8, 1)), 4)


@pytest.mark.parametrize("m", range(2, 11, 2))
def test_every_hidden_problem_valuation_carries_its_demand_candidates(m):
    """Every half-size target's valuation is the layered one it was built
    as before and is listed, so it carries its derived candidates: 6 of 16
    bundles at m = 4, 17 of 64 at m = 6, 58 of 256 at m = 8, 212 of 1,024
    at m = 10.  A target off half size is refused."""
    counts = {2: 3, 4: 6, 6: 17, 8: 58, 10: 212}
    for t in bundles_of_size(m, m // 2):
        v = hidden_problem_valuation(m, t)
        assert v == layered_valuation(m, {t: F(1, 4)}, F(1))
        assert v.listed and v.candidates == demand_candidates(v.scaled_table[1], m)
        assert len(v.candidates) == counts[m] and t in v.candidates
    for t in (0, bundles_of_size(m, m // 2 - 1)[-1], bundles_of_size(m, m // 2 + 1)[0]):
        with pytest.raises(DomainError):
            hidden_problem_valuation.__wrapped__(m, t)


def test_listed_hidden_problem_valuations_answer_as_plain_copies_do():
    """The targets' valuations, scanned on their candidates, answer the
    m = 4 grid and a sample of the m = 6 grid, and some negative vectors,
    as unlisted copies scanned densely do."""
    rng = stream(11, "listed-hidden")
    for m, sample in ((4, None), (6, 400)):
        targets = [hidden_problem_valuation(m, t) for t in bundles_of_size(m, m // 2)]
        plain = [Valuation(m, v.scaled_table) for v in targets]
        grid = cover_grid(m)
        vectors = grid if sample is None else [grid[rng.randrange(len(grid))]
                                               for _ in range(sample)]
        vectors = list(vectors) + [tuple(rng.choice((None, -2, -1, 0, 1, 2, 8)) for _ in range(m))
                                   for _ in range(50)]
        for ints in vectors:
            assert demand_ints(targets, COVER_DEN, ints) == demand_ints(plain, COVER_DEN, ints)


def reference_demand_cover(prices, m):
    """The Fraction candidate loop `demand_cover` replaced."""
    candidate = 0
    for j in range(m):
        p = prices[j]
        if is_finite(p) and p <= F(1, 4):
            candidate |= 1 << j
    if bin(candidate).count("1") != m // 2:
        return set()
    answer, _ = demand_query(hidden_problem_valuation(m, candidate), prices)
    return {candidate} if answer == candidate else set()


@st.composite
def cover_questions(draw):
    """Even m and prices at and around the 1/4 threshold, over mixed
    denominators, negative ones and INF included."""
    m = draw(st.sampled_from([2, 4, 6, 8]))
    near = st.sampled_from([F(1, 4), F(1, 4), F(0), F(1, 8), F(1, 3), F(1, 2), F(-1, 2)])
    finite = st.builds(F, st.integers(-2, 6), st.sampled_from([1, 2, 3, 4, 8, 12]))
    prices = draw(st.lists(st.one_of(st.just(INF), near, finite), min_size=m, max_size=m))
    return tuple(prices), m


@settings(max_examples=400, deadline=None)
@given(cover_questions())
def test_demand_cover_matches_the_fraction_candidate_loop(question):
    prices, m = question
    assert cover(prices, m) == reference_demand_cover(prices, m)


def test_hidden_bump_price_is_size_plus_a_half_on_the_bump():
    for m in range(1, 9):
        for t_mask in (*bundles_of_size(m, m // 2), None):
            for s in all_bundles(m):
                want = F(size(s)) + (F(1, 2) if s == t_mask else 0)
                got = hidden_bump_price(s, t_mask)
                assert got == want and type(got) is F


def test_hidden_problem_valuation_is_built_once_per_bundle():
    for m in (4, 6):
        for t_mask in bundles_of_size(m, m // 2):
            shared = hidden_problem_valuation(m, t_mask)
            assert hidden_problem_valuation(m, t_mask) is shared
            fresh = hidden_problem_valuation.__wrapped__(m, t_mask)
            assert fresh is not shared and fresh.table == shared.table


def test_a_hidden_problem_valuation_derives_its_candidates_once(monkeypatch):
    """Building one hidden-bundle valuation computes `demand_candidates`
    once, in the constructor, with one `flat_pairs` pass."""
    calls = {"demand_candidates": 0, "flat_pairs": 0}

    def counted(name):
        real = getattr(valuations, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(valuations, name, counted(name))
    builds = 0
    for m in (2, 4, 6, 8):
        for t in bundles_of_size(m, m // 2):
            hidden_problem_valuation.__wrapped__(m, t)
            builds += 1
    assert calls == {"demand_candidates": builds, "flat_pairs": builds}


def covers(prices, t_mask, m):
    """The per-target predicate `brute_cover` replaced, kept as its oracle:
    does this query reveal t_mask directly."""
    answer, _ = demand_query(hidden_problem_valuation(m, t_mask), prices)
    return answer == t_mask


def test_demand_cover_matches_covers_on_the_full_grid():
    grid = [F(0), F(1, 8), F(1, 4), F(1, 2), F(1), INF]
    targets = bundles_of_size(4, 2)
    for prices in itertools.product(grid, repeat=4):
        brute = {t for t in targets if covers(prices, t, 4)}
        assert len(brute) <= 1
        assert cover(prices, 4) == brute
        assert brute_cover(price_ints(prices), 4) == brute


def test_brute_cover_matches_the_per_target_loop_on_a_sample_of_the_m6_grid():
    """The cover-grid check's grid at m = 6, INF and a negative price added,
    on a seeded sample: one batched query over the 20 targets against 20
    single queries.  A negative price lets a target's valuation answer with
    another half-size bundle, which must not count."""
    grid = [F(0), F(1, 8), F(1, 4), F(1, 2), F(1), INF, F(-1, 8)]
    targets = bundles_of_size(6, 3)
    rng = stream(21, "cover-batch")
    hits = 0
    for _ in range(400):
        prices = tuple(grid[rng.randrange(len(grid))] for _ in range(6))
        brute = {t for t in targets if covers(prices, t, 6)}
        assert brute_cover(price_ints(prices), 6) == brute
        hits += bool(brute)
    assert hits  # the sample reaches covering vectors, not only empty sets
    # every target's valuation answers 0b000111 here; only that target counts
    cheap = (F(-1, 8),) * 3 + (F(1),) * 3
    assert brute_cover(price_ints(cheap), 6) == {t for t in targets
                                                 if covers(cheap, t, 6)} == {0b000111}
    with pytest.raises(DomainError):
        brute_cover(price_ints((F(0),) * 5), 6)


def test_demand_cover_matches_reference():
    rng = stream(18, "cover-unit")
    targets = bundles_of_size(4, 2)
    for _ in range(150):
        prices = tuple(F(rng.randrange(9), 8) for _ in range(4))
        brute = {t for t in targets if covers(prices, t, 4)}
        assert len(brute) <= 1
        assert cover(prices, 4) == brute


def test_the_int_cover_grid_is_the_fraction_grid_over_8_in_order():
    """`cover_grid` read as Fraction(x, 8) is the Fraction grid the check
    was built on, entry for entry, item 0 varying fastest, so the seeded
    cross-check samples the same vectors."""
    values = [F(0), F(1, 8), F(1, 4), F(1, 2), F(1)]
    for m in (2, 4, 6):
        old = [c[::-1] for c in itertools.product(values, repeat=m)]
        grid = cover_grid(m)
        assert COVER_DEN == 8 and len(grid) == len(old) == 5 ** m
        assert [tuple(F(x, COVER_DEN) for x in ints) for ints in grid] == old
        assert all(type(x) is int for ints in grid for x in ints)
        assert grid[1] == (1,) + (0,) * (m - 1)


def test_the_decoder_reads_each_grid_index_as_its_vector():
    """`cover_vector(q, m)` is `cover_grid(m)[q]` for every index, so the
    check's draws by index land on the vectors the grid lists."""
    for m in range(1, 7):
        grid = cover_grid(m)
        assert [cover_vector(q, m) for q in range(5 ** m)] == grid


@pytest.mark.parametrize("m", (2, 4, 6))
def test_demand_cover_is_brute_cover_on_every_vector_of_the_grid(m):
    """The hidden-bundle cover lemma on the whole grid: one demand query
    pins down at most one hidden bundle, and `demand_cover` finds exactly
    the bundles brute force finds.  The grid reaches covered vectors."""
    covered = 0
    for ints in cover_grid(m):
        brute = brute_cover((COVER_DEN, ints), m)
        assert len(brute) <= 1, ints
        assert demand_cover((COVER_DEN, ints), m) == brute, ints
        covered += len(brute)
    assert covered


def test_the_cover_grid_check_refuses_bad_arguments_before_any_draw(monkeypatch):
    """An odd m has no half-size bundle, m = 0 and m = 18 are off the item
    range, and a negative sample is no sample: each is refused before the
    seeded stream is drawn, even where no vector would be checked."""
    def no_draw(*args):
        raise AssertionError("drew from the stream")

    monkeypatch.setattr(suites, "stream", no_draw)
    for m in (1, 3, 5):
        with pytest.raises(DomainError, match="even item count"):
            cover_grid_check(m=m, sample_cross=0)
    for m in (0, 18):
        with pytest.raises(DomainError, match="item count must be in"):
            cover_grid_check(m=m, sample_cross=0)
    with pytest.raises(DomainError, match="got m = 4, sample_cross = -1"):
        cover_grid_check(m=4, sample_cross=-1)


def test_the_cover_grid_check_sizes_the_grid_without_building_it():
    """The grid is sampled by index: at m = 16 its 5^16 vectors are
    counted, not listed."""
    line = cover_grid_check(m=16, sample_cross=0)
    assert line.render() == "demand-cover-grid: PASS  [152587890625 grid vectors, 0 cross-checked]"


def reference_demand_tightness_program(menus):
    """The demand_tightness program as it was written inline, before it
    called min_affine_argmax."""
    def program(profile, rec):
        t = min(len(menus), max(1, int(rec.value_query(0, 1) + F(1, 2))))
        ma = menus[t - 1]
        best_mask, best_profit = 0, F(0)
        for vec in ma.vectors:
            d_mask, d_val = rec.demand_query(1, vec)
            p = eval_min_affine(ma, d_mask)
            if p == INF:
                continue
            if d_val - p > best_profit or (d_val - p == best_profit and d_mask < best_mask):
                best_mask, best_profit = d_mask, d_val - p
        pay = eval_min_affine(ma, best_mask) if best_mask else F(0)
        return (0, best_mask), (F(0), pay)
    return program


def reference_mt_gadget_program(m):
    """The mt_gadget program as it was written inline, before it called
    mt_gadget_argmax."""
    def program(profile, rec):
        d0, val0 = rec.demand_query(1, tuple(F(1) for _ in range(m)))
        check = tuple(F(0) if d0 >> j & 1 else INF for j in range(m))
        _, at_d0 = rec.demand_query(0, check)
        if not (bin(d0).count("1") == m // 2 and at_d0 == F(1, 4)):
            return (0, d0), (F(0), F(bin(d0).count("1")))
        t_mask = d0
        candidates = [(t_mask, val0 - hidden_bump_price(t_mask, t_mask)), (0, F(0))]
        for j in range(m):
            if t_mask >> j & 1:
                d, dv = rec.demand_query(1, tuple(INF if k == j else F(1) for k in range(m)))
                candidates.append((d, dv - hidden_bump_price(d, t_mask)))
        for j in range(m):
            if not t_mask >> j & 1:
                d, dv = rec.demand_query(1, tuple(
                    F(0) if t_mask >> k & 1 else (F(1, 2) if k == j else F(1))
                    for k in range(m)))
                candidates.append((d, dv - hidden_bump_price(d, t_mask)))
        best_mask, best_profit = 0, F(0)
        for mask, profit in candidates:
            if profit > best_profit or (profit == best_profit and mask < best_mask):
                best_mask, best_profit = mask, profit
        pay = hidden_bump_price(best_mask, t_mask) if best_mask else F(0)
        return (0, best_mask), (F(0), pay)
    return program


def reference_value_tightness_program(c):
    """The value_tightness program with its best-bundle loop written inline."""
    def program(profile, rec):
        t = min(c, max(1, int(rec.value_query(0, 1) + F(1, 2))))
        prices = {1 << j: F(1) + (F(1, 2) if j == t - 1 else F(0)) for j in range(c)}
        best_mask, best_profit = 0, F(0)
        for s in prices:
            profit = rec.value_query(1, s) - prices[s]
            if profit > best_profit or (profit == best_profit and s < best_mask):
                best_mask, best_profit = s, profit
        pay = prices[best_mask] if best_mask else F(0)
        return (0, best_mask), (F(0), pay)
    return program


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_value_tightness_buys_the_menu_argmax_at_its_menu_price(data):
    """The value_tightness program, against the menu t its rounded first
    value query picks, buys the first profit maximizer the menu offers
    (its in-menu bundles are the listed ones and the empty one) at that
    menu price.  In the c form every other bundle is INF, so that is
    profit_argmax_set(menu, v)[0]; in the bundles form an unlisted subset
    can tie a listed bundle at the same menu price."""
    from taxlab.library import value_tightness
    from taxlab.menus import in_menu_rebuild, menu_complexity, profit_argmax_set
    from taxlab.protocol import run_mechanism
    from taxlab.valuations import single_item_valuation

    m = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        listed = [1 << j for j in range(data.draw(st.integers(1, m)))]
        spec = value_tightness(m, c=len(listed))
    else:
        listed = data.draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=6,
                                    unique=True))
        spec = value_tightness(m, bundles=listed)
    t = data.draw(st.integers(1, len(listed)))
    menu_t = in_menu_rebuild(m, {0: F(0), **{s: F(2 * size(s) + (j == t - 1), 2)
                                             for j, s in enumerate(listed)}})
    assert set(menu_complexity(menu_t)[1]) == {0, *listed}
    rng = stream(data.draw(st.integers(0, 1 << 30)), "value-tightness-buyer")
    grid, scale = data.draw(st.sampled_from([(8, F(4)), (2, F(1)), (6, F(7, 3))]))
    v = random_monotone_valuation(m, rng, grid=grid, scale=scale)
    res = run_mechanism(spec, (single_item_valuation(m, 0, t), v))
    argmax = profit_argmax_set(menu_t, v)
    won = next(s for s in argmax if s in {0, *listed})
    if listed == [1 << j for j in range(len(listed))]:
        assert won == argmax[0]
    assert res.allocation == (0, won)
    assert res.payments == (F(0), menu_t.price[won])


def reference_drop_tax_program(m):
    """The drop_tax program with its best-value loop written inline."""
    def program(profile, rec):
        v1, v2 = profile
        offered = []
        for s in bundles_of_size(m, m // 2):
            rec.send_bit(0, int(v1.value(s) >= 1))
            if v1.value(s) >= 1:
                offered.append(s)
        best_mask, best_value = 0, None
        for s in offered:
            val = v2.value(s)
            if val >= 1 and (best_value is None or val > best_value
                             or (val == best_value and s < best_mask)):
                best_mask, best_value = s, val
        rec.send_number(1, best_mask, 1 << m)
        return (0, best_mask), (F(0), F(1) if best_mask else F(0))
    return program


def reference_round(x, lo, hi):
    """The rounding of a `Fraction` value every program and protocol did."""
    return min(hi, max(lo, floor(x + F(1, 2))))


def reference_warmup_program(c):
    """The warmup_tightness program as it read `Fraction` values."""
    top = 1 << c

    def program(profile, rec):
        v_alice, v_bob = profile
        t = reference_round(v_alice.value(1), 1, top)
        rec.send_number(0, t, top)
        if v_bob.value(1) >= t:
            rec.send_bit(1, 1)
            return (0, 1), (F(0), F(t))
        rec.send_bit(1, 0)
        return (0, 0), (F(0), F(0))
    return program


def reference_drop_tie_parts(m):
    """The drop_tie program and tie cost as they read `Fraction` values."""
    sized = bundles_of_size(m, m // 2)

    def binary_only(v):
        return all(x == 0 or x == 1 for x in v.table)

    def program(profile, rec):
        v1, v2 = profile
        a2, b2 = v2.value(1), v2.value(2)
        cmp_code = 0 if a2 > b2 else (1 if a2 < b2 else 2)
        rec.send_number(1, cmp_code, 3)
        if cmp_code == 0:
            won = 1
        elif cmp_code == 1:
            won = 2
        else:
            f1, f2 = not binary_only(v1), not binary_only(v2)
            rec.send_bit(0, int(f1))
            rec.send_bit(1, int(f2))
            if f1 or f2:
                won = 1
            else:
                for s in sized:
                    rec.send_bit(0, int(v1.value(s) == 1))
                equal = any(v1.value(s) == v2.value(s) for s in sized)
                rec.send_bit(1, int(equal))
                won = 1 if equal else 2
        return (0, won), (F(0), F(0))

    def tie_cost(profile):
        v1, v2 = profile
        if v2.value(1) != v2.value(2):
            return 2
        if not binary_only(v1) or not binary_only(v2):
            return 4
        return 4 + len(sized) + 1
    return program, tie_cost


def reference_drop_price_parts(m):
    """The drop_price program and price protocol as they read `Fraction`
    values."""
    sized = bundles_of_size(m, m // 2)

    def program(profile, rec):
        v1, v2, v3 = profile
        xbits = tuple(int(v1.value(s) == 1) for s in sized)
        for b in xbits:
            rec.send_bit(0, b)
        hit = any(x and v2.value(s) == 1 for x, s in zip(xbits, sized))
        rec.send_bit(1, int(hit))
        price = F(1) if hit else F(2)
        take = v3.value(1) > price
        rec.send_bit(2, int(take))
        if take:
            return (0, 0, 1), (F(0), F(0), price)
        return (0, 0, 0), (F(0), F(0), F(0))

    def protocol(spec, i, v_minus_i, s):
        if s == 0:
            return PriceRun(F(0), ())
        if s != 1:
            return PriceRun(INF, ())
        v1, v2 = v_minus_i
        xbits = tuple(int(v1.value(t) == 1) for t in sized)
        hit = any(x and v2.value(t) == 1 for x, t in zip(xbits, sized))
        return PriceRun(F(1) if hit else F(2), ((0, xbits, 1 << len(sized)), (1, int(hit), 2)))
    return program, protocol


def reference_posted_parts(prices, n):
    """The posted_prices program and price protocol as first written."""
    prices = tuple(F(p) for p in prices)
    m = len(prices)

    def offer(remaining):
        return tuple(prices[j] if remaining >> j & 1 else INF for j in range(m))

    def cost(mask):
        return sum((prices[j] for j in range(m) if mask >> j & 1), F(0))

    def program(profile, rec):
        remaining, allocation, payments = (1 << m) - 1, [], []
        for i in range(n):
            d_mask, _ = rec.demand_query(i, offer(remaining))
            allocation.append(d_mask)
            payments.append(cost(d_mask))
            remaining &= ~d_mask
        return tuple(allocation), tuple(payments)

    def protocol(spec, i, v_minus_i, s):
        remaining, tokens = (1 << m) - 1, []
        for j in range(i):
            d_mask, _ = demand_query(v_minus_i[j], offer(remaining))
            tokens.append((j, d_mask, 1 << m))
            remaining &= ~d_mask
        return PriceRun(cost(s) if s & remaining == s else INF, tuple(tokens))
    return program, protocol


def reference_buyer_protocol(mech_id, params, m):
    """The buyer's price protocol of a two-player mechanism as it read
    `Fraction` values through `value()`."""
    from taxlab.library import make_min_affine_family

    if mech_id == "warmup_tightness":
        top = 1 << params["c"]

        def protocol(spec, i, v_minus_i, s):
            t = reference_round(v_minus_i[0].value(1), 1, top)
            return PriceRun(F(0) if s == 0 else F(t) if s == 1 else INF, ((0, t, top),))
    elif mech_id == "value_tightness":
        c = params["c"]

        def protocol(spec, i, v_minus_i, s):
            t = reference_round(v_minus_i[0].value(1), 1, c)
            prices = {1 << j: F(1) + (F(1, 2) if j == t - 1 else F(0)) for j in range(c)}
            price = F(0) if s == 0 else min(
                (p for k, p in prices.items() if k & s == s), default=INF)
            return PriceRun(price, ((0, t, c),))
    elif mech_id == "demand_tightness":
        menus = make_min_affine_family(m, params["alpha"], params["count"])

        def protocol(spec, i, v_minus_i, s):
            t = reference_round(v_minus_i[0].value(1), 1, len(menus))
            return PriceRun(eval_min_affine(menus[t - 1], s), ((0, t, len(menus)),))
    elif mech_id == "mt_gadget":
        def protocol(spec, i, v_minus_i, s):
            hit = size(s) == m // 2 and v_minus_i[0].value(s) == F(1, 4)
            return PriceRun(hidden_bump_price(s, s if hit else None), ((0, int(hit), 2),))
    elif mech_id == "drop_tie":
        def protocol(spec, i, v_minus_i, s):
            return PriceRun(F(0) if s in (0, 1, 2) else INF, ())
    else:  # drop_tax
        sized = bundles_of_size(m, m // 2)

        def protocol(spec, i, v_minus_i, s):
            if s == 0:
                return PriceRun(F(0), ())
            if size(s) > m // 2:
                return PriceRun(INF, ())
            ok = any(t & s == s and v_minus_i[0].value(t) >= 1 for t in sized)
            return PriceRun(F(1) if ok else INF, ((0, int(ok), 2),))
    return protocol


def reference_spec(mech_id, params, spec):
    """The registry mechanism with today's `Fraction` program, price
    protocol and tie cost in place of the library's integer ones."""
    from dataclasses import replace

    from taxlab.library import buyer_only, make_min_affine_family

    m, n = spec.m, spec.n
    tie_cost = {"warmup_tightness": lambda profile: 1,
                "drop_price": lambda profile: 0,
                "posted_prices": lambda profile: n * m}.get(mech_id, lambda profile: m)
    if mech_id == "posted_prices":
        program, protocol = reference_posted_parts(params["prices"], n)
        return replace(spec, program=program, price_protocol=protocol, tie_cost=tie_cost)
    if mech_id == "drop_price":
        program, protocol = reference_drop_price_parts(m)
        return replace(spec, program=program, price_protocol=buyer_only(2, protocol),
                       tie_cost=tie_cost)
    if mech_id == "mt_gadget":
        program = reference_mt_gadget_program(m)
    elif mech_id == "value_tightness":
        program = reference_value_tightness_program(params["c"])
    elif mech_id == "drop_tax":
        program = reference_drop_tax_program(m)
    elif mech_id == "warmup_tightness":
        program = reference_warmup_program(params["c"])
    elif mech_id == "drop_tie":
        program, tie_cost = reference_drop_tie_parts(m)
    else:
        program = reference_demand_tightness_program(
            make_min_affine_family(m, params["alpha"], params["count"]))
    return replace(spec, program=program, tie_cost=tie_cost,
                   price_protocol=buyer_only(1, reference_buyer_protocol(mech_id, params, m)))


@pytest.mark.parametrize("mech_id, params", [
    ("demand_tightness", {"m": 2, "alpha": 2, "count": 4}),
    ("demand_tightness", {"m": 4, "alpha": 2, "count": 4}),
    ("mt_gadget", {"m": 2}),
    ("mt_gadget", {"m": 4}),
    ("mt_gadget", {"m": 6}),
    ("value_tightness", {"c": 3, "m": 3}),
    ("value_tightness", {"c": 2, "m": 4}),
    ("drop_tax", {"m": 2}),
    ("drop_tax", {"m": 4}),
    ("drop_tax", {"m": 6}),
    ("warmup_tightness", {"c": 2}),
    ("warmup_tightness", {"c": 3, "m": 3}),
    ("drop_tie", {"m": 2}),
    ("drop_tie", {"m": 4}),
    ("drop_price", {"m": 2}),
    ("drop_price", {"m": 4}),
    ("posted_prices", {"prices": ["1", "1/2", "2"]}),
    ("posted_prices", {"prices": ["1", "3/2"], "n": 3}),
])
def test_library_programs_match_their_inline_reference(mech_id, params):
    """Every registry mechanism's program, price protocol and tie cost
    against its `Fraction` reference, on the default catalog plus random
    valuations over denominators 2 (scale 4, and scale 1 with values 0, 1/2
    and 1 only) and 24 (scale 7/3): the same
    allocation, payments (and their types), query trace and transcript per
    profile, the same price run per player, profile of the others and
    bundle."""
    from taxlab.protocol import price_run, run_mechanism

    spec = make_example(mech_id, params)
    reference = reference_spec(mech_id, params, spec)
    m, buyer = spec.m, spec.n - 1
    rng = stream(7, "program-reference", mech_id, m)
    players = []
    for i, listed in enumerate(default_catalog(mech_id, params).players):
        k = 12 if i == buyer else 2
        drawn = [random_monotone_valuation(m, rng) for _ in range(k)]
        drawn += [random_monotone_valuation(m, rng, scale=F(7, 3)) for _ in range(k // 2 or 1)]
        drawn += [random_monotone_valuation(m, rng, grid=2, scale=F(1)) for _ in range(2)]
        players.append(listed + tuple(drawn))
    assert any(v.scaled_table[0] > 2 for v in players[buyer])
    for profile in itertools.product(*players):
        got = run_mechanism(spec, profile)
        want = run_mechanism(reference, profile)
        assert (got.allocation, got.payments) == (want.allocation, want.payments)
        assert list(map(type, got.payments)) == list(map(type, want.payments))
        assert got.queries == want.queries
        assert got.tokens == want.tokens
        assert spec.tie_cost(profile) == reference.tie_cost(profile)
    for i in range(spec.n):
        for v_minus in itertools.product(*players[:i], *players[i + 1:]):
            for s in all_bundles(m):
                got, want = price_run(spec, i, v_minus, s), price_run(reference, i, v_minus, s)
                assert got == want and type(got.price) is type(want.price)


def test_min_affine_family_members_are_distinct_and_normalized():
    """What `make_min_affine_family` no longer checks at build time: item 1
    alone costs t/2 in menu t, and no price or offset is negative."""
    from taxlab.library import make_min_affine_family

    for m in range(2, 9):
        for alpha in (1, 2, 3, 8):
            for count in (1, 4, 9, 64):
                tables = [min_affine_table(ma)
                          for ma in make_min_affine_family(m, alpha, count)]
                assert len({t.price for t in tables}) == count, (m, alpha, count)
                assert all(t.is_normalized() for t in tables), (m, alpha, count)
                assert [t.price[1] for t in tables] == [Fraction(t, 2)
                                                        for t in range(1, count + 1)]
