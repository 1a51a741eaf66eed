"""Probe constructions and the verification decision bit."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab.bundles import all_bundles
from taxlab.library import default_catalog, make_example
from taxlab.protocol import extract_menu, measure_complexities
from taxlab.rational import INF
from taxlab.rng import stream
from taxlab.valuations import classify_valuation, random_monotone_valuation
from taxlab.verify import (BaseFunction, build_probe, exceeds_somewhere,
                           general_probe, menu_price_grid, pairwise_submodular,
                           random_base_function, submodular_probe, subadditive_probe,
                           verify_menu, xos_probe)

F = Fraction


def base(m, entries):
    table = [INF] * (1 << m)
    table[0] = F(0)
    for s, p in entries.items():
        table[s] = p if p is INF else F(p)
    return BaseFunction(m, tuple(table))


def test_general_probe_examples():
    f = base(2, {0b01: 1, 0b10: 1, 0b11: 2})
    probe = general_probe(f, F(2))
    assert probe.table == (F(0), F(1), F(1), F(2))
    f_inf = base(1, {0b1: INF})
    probe1 = general_probe(f_inf, F(2))
    assert probe1.table == (F(0), F(6))  # infinite entries lift to 3B


def test_subadditive_probe_shape():
    f = base(2, {0b01: 1, 0b10: INF, 0b11: INF})
    probe, shift = subadditive_probe(f, F(1))
    assert shift == 3  # the lifted maximum
    assert probe.table[0] == 0 and probe.table[0b01] == 1 + shift
    assert "subadditive" in classify_valuation(probe)


def test_xos_probe_certified():
    f = base(2, {0b01: 1, 0b10: 2, 0b11: 2})
    for r in (1, 2):
        probe = xos_probe(f, F(2), r)
        assert "xos" in classify_valuation(probe)
    single = xos_probe(f, F(2), 1)
    # supporting weight on item 1: f({1})/1 + 3B
    assert single.value(0b01) == F(1) + 6


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
    with pytest.raises(Exception):
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
    for w in sorted({f.table[s] for s in all_bundles(m) if bin(s).count("1") == k}):
        probe = submodular_probe(f, bound, k, w)
        assert pairwise_submodular(probe) == reference_pairwise_submodular(probe) is True
    other = random_monotone_valuation(m, rnd, rnd.choice([1, 2, 3, 8]), bound)
    assert pairwise_submodular(other) == reference_pairwise_submodular(other)
    for r in range(1, m + 1):
        probe = xos_probe(f, bound, r)
        assert pairwise_submodular(probe) == reference_pairwise_submodular(probe)


def test_build_probe_dispatch():
    f = base(2, {0b01: 1, 0b10: 1, 0b11: 1})
    assert build_probe("general", f, F(1)).table == general_probe(f, F(1)).table
    probes = build_probe("xos", f, F(1))
    assert isinstance(probes, list) and len(probes) == 2
    with pytest.raises(Exception):
        build_probe("submodular", f, F(1))
    with pytest.raises(Exception):
        build_probe("mystery", f, F(1))


def test_verify_menu_decision_examples():
    spec = make_example("warmup_tightness", {"c": 2})
    cat = default_catalog("warmup_tightness", spec, {"c": 2})
    v_minus = (cat.players[0][2],)  # the chooser values item a at 3
    truth = extract_menu(spec, 1, v_minus)
    grid = menu_price_grid([truth])

    canonical = BaseFunction(2, truth.price)
    for cls in ("general", "subadditive", "xos", "submodular"):
        res = verify_menu(spec, 1, v_minus, canonical, cls, price_grid=grid)
        assert res.answer == 0, cls

    raised = list(truth.price)
    raised[0b01] = raised[0b01] + 1
    bumped = BaseFunction(2, tuple(raised))
    for cls in ("general", "subadditive"):
        assert verify_menu(spec, 1, v_minus, bumped, cls, price_grid=grid).answer == 1

    infd = list(truth.price)
    infd[0b01] = INF
    infd[0b11] = INF
    over = BaseFunction(2, tuple(infd))
    assert verify_menu(spec, 1, v_minus, over, "general").answer == 1


def test_verification_bits_cover_menu_count():
    # the fooling-set content: 2^(q-1) menus at most, q = one run plus a bit
    for mech_id, params in [("warmup_tightness", {"c": 2}),
                            ("drop_tax", {"m": 4}),
                            ("posted_prices", {"prices": ["1", "1"], "n": 2})]:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, spec, params)
        rep = measure_complexities(spec, cat)
        grid = menu_price_grid([mn for ms in rep.menus for mn in ms])
        i = spec.n - 1
        v_minus = tuple(cat.players[j][0] for j in range(spec.n) if j != i)
        f = random_base_function(spec.m, spec.bound, stream(1, mech_id))
        res = verify_menu(spec, i, v_minus, f, "general", price_grid=grid)
        assert (1 << max(res.bits - 1, 0)) >= rep.menu_counts[i]


def test_verify_agrees_with_brute_force():
    rng = stream(9, "verify-unit")
    for mech_id, params in [("warmup_tightness", {"c": 2}),
                            ("drop_tax", {"m": 4})]:
        spec = make_example(mech_id, params)
        cat = default_catalog(mech_id, spec, params)
        rep = measure_complexities(spec, cat)
        grid = menu_price_grid([mn for ms in rep.menus for mn in ms])
        i = spec.n - 1
        v_minus = tuple(cat.players[j][-1] for j in range(spec.n) if j != i)
        truth = extract_menu(spec, i, v_minus)
        for _ in range(40):
            for cls in ("general", "subadditive", "xos", "submodular"):
                values = grid if cls == "submodular" else None
                f = random_base_function(spec.m, spec.bound, rng, values=values)
                want = int(exceeds_somewhere(f, truth))
                got = verify_menu(spec, i, v_minus, f, cls, price_grid=grid)
                assert got.answer == want, (mech_id, cls, f.table)
