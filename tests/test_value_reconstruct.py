"""The maximal-zero-bundle learner and the price-ladder reconstruction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab.library import default_catalog, make_example
from taxlab.menus import menu, menu_complexity
from taxlab.protocol import extract_menu
from taxlab.rational import INF
from taxlab.rng import stream
from taxlab.value_reconstruct import (BoundViolation, OracleError, PriceOracle,
                                      learn_useless, reconstruct_menu_value,
                                      useless_query_budget, useless_table)

from references import useless_zero_set

F = Fraction


def useless_oracle(m, maximal):
    zeros = useless_zero_set(m, maximal)
    return lambda s: 0 if s in zeros else 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_useless_table_is_zero_on_the_seeds_downward_closure(data):
    """One `superset_min` pass over the seeds' indicator gives the 0/1
    table whose zero set is the per-bundle scan's, at m = 1..8 with 1..8
    seeds, repeats allowed."""
    m = data.draw(st.integers(1, 8))
    seeds = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=8))
    table = useless_table(m, seeds)
    assert len(table) == 1 << m and set(table) <= {0, 1}
    assert {s for s, x in enumerate(table) if x == 0} == useless_zero_set(m, seeds)


def test_learn_examples():
    found, q, _ = learn_useless(useless_oracle(2, [0]), 2, 1)
    assert found == {0}
    found, q, _ = learn_useless(useless_oracle(2, [0b01]), 2, 1)
    assert found == {0b01}
    found, q, _ = learn_useless(useless_oracle(3, [0b011, 0b100]), 3, 2)
    assert found == {0b011, 0b100}
    assert q <= useless_query_budget(3, 2)  # 72 with m=3, k=2


def test_learner_visit_structure():
    m, maximal = 4, [0b0110, 0b1001]
    found, q, trace = learn_useless(useless_oracle(m, maximal), m, 2)
    assert found == set(maximal)
    # visits form a tree rooted at the empty bundle
    assert trace.visited[0] == 0 and trace.parents[0] is None
    order = {s: k for k, s in enumerate(trace.visited)}
    for s in trace.visited[1:]:
        parent = trace.parents[s]
        assert parent is not None and order[parent] < order[s]
    # nodes on paths to the found bundles stay within the m^2 k envelope
    path_nodes = set()
    for leaf in trace.found:
        node = leaf
        while node is not None:
            path_nodes.add(node)
            node = trace.parents[node]
    assert len(path_nodes) <= m * m * len(maximal)


def test_learner_oracle_errors():
    with pytest.raises(OracleError):
        learn_useless(lambda s: 2, 2, 1)
    with pytest.raises(OracleError):
        learn_useless(lambda s: 1, 2, 1)  # nonzero on the empty bundle
    with pytest.raises(BoundViolation):
        learn_useless(useless_oracle(2, [0b01, 0b10]), 2, 1)


def test_ladder_hand_trace():
    hidden = menu(2, (F(0), F(1), F(2), INF))
    rec = reconstruct_menu_value(PriceOracle(hidden), mc_bound=4)
    assert rec.menu.price == hidden.price
    assert [st.threshold for st in rec.steps] == [0, 1, 2]
    assert [st.new_bundles for st in rec.steps] == [(0,), (0b01,), (0b10,)]


def test_ladder_degenerate_and_warmup():
    lonely = menu(2, (F(0), INF, INF, INF))
    rec = reconstruct_menu_value(PriceOracle(lonely), mc_bound=4)
    assert rec.menu.price == lonely.price and len(rec.steps) == 1

    warm = menu(2, (F(0), F(3), INF, INF))
    rec = reconstruct_menu_value(PriceOracle(warm), mc_bound=4)
    assert rec.menu.price == warm.price
    assert [st.threshold for st in rec.steps] == [0, 3]


def test_ladder_budget_and_bound_violation():
    hidden = menu(3, tuple(F(s % 4) if s % 3 else F(s % 4) for s in range(8)))
    hidden = menu(3, (F(0), F(1), F(1), F(2), F(2), F(3), F(3), F(4)))
    po = PriceOracle(hidden, cost_per_call=2)
    mc = menu_complexity(hidden)[0]
    rec = reconstruct_menu_value(po, mc_bound=mc)
    assert rec.menu.price == hidden.price
    assert rec.value_queries == 2 * rec.oracle_calls
    budget = mc * useless_query_budget(3, mc) + mc
    assert rec.oracle_calls <= budget
    with pytest.raises(BoundViolation):
        reconstruct_menu_value(PriceOracle(hidden), mc_bound=1)


def test_reconstruction_matches_mechanism_menus():
    spec = make_example("value_tightness", {"c": 3, "m": 3})
    cat = default_catalog("value_tightness", {"c": 3, "m": 3})
    for i in range(spec.n):
        seen = set()
        for profile in cat.profiles():
            v_minus = profile[:i] + profile[i + 1:]
            key = tuple(v.table for v in v_minus)
            if key in seen:
                continue
            seen.add(key)
            truth = extract_menu(spec, i, v_minus)
            mc = menu_complexity(truth)[0]
            po = PriceOracle(truth)
            rec = reconstruct_menu_value(po, mc_bound=max(1, mc))
            assert rec.menu.price == truth.price


def test_random_k_useless_budget():
    rng = stream(13, "useless-unit")
    for _ in range(150):
        m = rng.randrange(2, 8)
        k = rng.randrange(1, 6)
        seeds = [rng.randrange(1 << m) for _ in range(k)]
        maximal = {s for s in seeds if not any(s != t and s & t == s for t in seeds)}
        found, q, _ = learn_useless(useless_oracle(m, seeds), m, k)
        assert found == maximal
        assert q <= useless_query_budget(m, k)
