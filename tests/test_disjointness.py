"""Promise disjointness: the neighborhood protocol and the product
recursion."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab.disjointness import (PromiseError, ZDisjointnessInstance, announce_cost,
                                 brute_force_verdict, combination_unrank, lowest_bit,
                                 max_intersection, neighbourhood, run_one_disjointness,
                                 solve_z_disjointness, z_product_mask)
from taxlab.rng import stream
from taxlab.suites import random_promise_instance


def combination_rank(combo, l, z):
    """Index of an ascending z-tuple in lexicographic combination order:
    at position i the tuples that hold a smaller item than c_i after the
    previous one, sum of C(l - 1 - v, z - i - 1) over prev < v < c_i,
    which the hockey-stick identity sums to C(l - 1 - prev, z - i) -
    C(l - c_i, z - i)."""
    rank = 0
    prev = -1
    for i, c in enumerate(combo):
        rank += comb(l - 1 - prev, z - i) - comb(l - c, z - i)
        prev = c
    return rank


def reference_z_product_mask(a, l, z):
    """The per-tuple loop `z_product_mask` ran before its block recursion:
    one bit per z-tuple of the string's own bits, at the tuple's rank."""
    bits = [k for k in range(l) if a >> k & 1]
    out = 0
    for combo in combinations(bits, z):
        out |= 1 << combination_rank(combo, l, z)
    return out


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 16).flatmap(lambda l: st.tuples(
    st.just(l), st.integers(0, (1 << l) - 1), st.integers(0, 3))))
def test_z_product_mask_matches_the_per_tuple_loop(question):
    l, a, z = question
    assert z_product_mask(a, l, z) == reference_z_product_mask(a, l, z)


def test_z_product_mask_edges():
    """The empty tuple is every string's one 0-tuple; a string with fewer
    than z bits, or z above l, has no z-tuple; all l bits set every one."""
    for l in range(1, 9):
        assert z_product_mask(0, l, 0) == 1 == reference_z_product_mask(0, l, 0)
        assert z_product_mask((1 << l) - 1, l, l + 1) == 0
        for z in range(l + 1):
            assert z_product_mask((1 << l) - 1, l, z) == (1 << comb(l, z)) - 1
            assert z_product_mask(1, l, z) == int(z <= 1)


def test_combination_rank_is_the_lexicographic_index():
    """The rank of each ascending z-tuple is its index in
    `combinations(range(l), z)`, and `combination_unrank` inverts it."""
    for l in range(1, 17):
        for z in range(min(l, 4) + 1):
            for index, combo in enumerate(combinations(range(l), z)):
                assert combination_rank(combo, l, z) == index
                assert combination_unrank(index, l, z) == combo


def test_spec_examples():
    assert announce_cost(4) == 3  # a bit index or "none" among five symbols
    shared = (0b0000, 0b0001, 0b0010)
    inst = ZDisjointnessInstance(2, 4, (shared, shared), (0b0001, 0b0001), 1)
    v = solve_z_disjointness(inst)
    assert v.intersecting_bit == 0

    zeros = ZDisjointnessInstance(2, 4, ((0,), (0,)), (0, 0), 1)
    assert solve_z_disjointness(zeros).disjoint

    apart = ZDisjointnessInstance(2, 4, ((0b0001, 0), (0b0010, 0)),
                                  (0b0001, 0b0010), 1)
    assert solve_z_disjointness(apart).disjoint

    pair = ZDisjointnessInstance(2, 4, ((0b0011, 0),) * 2, (0b0011, 0b0011), 2)
    got = solve_z_disjointness(pair)
    assert got.intersecting_bit in (0, 1)

    one_side_zero = ZDisjointnessInstance(2, 4, ((0b0011, 0),) * 2, (0b0011, 0), 2)
    assert solve_z_disjointness(one_side_zero).disjoint


def test_single_common_bit_found_at_recursion_bottom():
    # declared promise 2, but the inputs share exactly one bit
    a = (0b0110, 0b0011)
    b = (0b0101, 0b0011)
    inst = ZDisjointnessInstance(2, 4, (a, b), (0b0110, 0b0101), 2)
    got = solve_z_disjointness(inst)
    assert got.intersecting_bit == 2  # the single shared bit


def test_promise_validation():
    with pytest.raises(PromiseError):
        ZDisjointnessInstance(2, 4, ((0b0111,), (0b0111,)), (0b0111, 0b0111), 2)
    inst = ZDisjointnessInstance(2, 4, ((0b0111,), (0b0011,)), (0b0111, 0b0011), 2)
    assert max_intersection(inst.allowed, inst.l) == 2


def test_max_intersection_dp():
    allowed = [(0b1100, 0b0011), (0b1111,), (0b1010, 0b0101)]
    assert max_intersection(allowed, 4) == 1
    assert max_intersection([(0b1100,), (0b1101,)], 4) == 2


def test_random_instances_against_brute_force():
    rng = stream(23, "unit-zdis")
    for _ in range(250):
        inst = random_promise_instance(rng)
        got = solve_z_disjointness(inst)
        want = brute_force_verdict(inst)
        assert (got.intersecting_bit is None) == (want is None)
        if got.intersecting_bit is not None:
            common = inst.inputs[0]
            for a in inst.inputs:
                common &= a
            assert common >> got.intersecting_bit & 1


def test_round_shrink_factor():
    rng = stream(24, "shrink")
    seen_rounds = 0
    for _ in range(200):
        inst = random_promise_instance(rng, z_max=1)
        run = run_one_disjointness(inst.n, inst.l, inst.allowed, inst.inputs)
        for before, after in zip(run.live_sizes, run.live_sizes[1:]):
            assert 2 * inst.n * after <= (2 * inst.n - 1) * before
            seen_rounds += 1
    assert seen_rounds > 0


def test_bits_nonincreasing_under_tighter_promise():
    rng = stream(25, "tighten")
    compared = 0
    for _ in range(300):
        inst = random_promise_instance(rng, z_max=3)
        exact = max_intersection(inst.allowed, inst.l)
        if exact >= inst.z:
            continue
        loose = solve_z_disjointness(inst)
        tight = solve_z_disjointness(ZDisjointnessInstance(
            inst.n, inst.l, inst.allowed, inst.inputs, exact))
        assert tight.bits <= loose.bits
        assert (tight.intersecting_bit is None) == (loose.intersecting_bit is None)
        compared += 1
    assert compared > 20


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 40) - 1))
def test_lowest_bit_matches_reference(a):
    want = (a & -a).bit_length() - 1 if a else None
    assert lowest_bit(a) == want
    assert want is None or (a >> want & 1 and a & ((1 << want) - 1) == 0)


@st.composite
def neighbourhood_questions(draw):
    l = draw(st.integers(1, 12))
    strings = draw(st.lists(st.integers(0, (1 << l) - 1), max_size=8))
    live = draw(st.integers(1, (1 << l) - 1))
    k = draw(st.sampled_from([j for j in range(l) if live >> j & 1]))
    return strings, k, live


@settings(max_examples=300, deadline=None)
@given(neighbourhood_questions())
def test_neighbourhood_matches_reference_loop(question):
    """Against the loop `small_candidate` and the window update each kept."""
    strings, k, live = question
    nb = 0
    for a in strings:
        a_live = a & live
        if a_live & (1 << k):
            nb |= a_live
    assert neighbourhood(strings, k, live) == nb
