"""Demand-query menu structure: min-affine extraction from query traces,
the few-query optimizer, and the hidden-bundle gadget machinery.

extract_min_affine realizes the structural characterization: run the
mechanism on the canonical valuation mirroring the ground-truth menu
(infinite prices lifted to (m+1)B), harvest each demand query as an
affine piece (price vector clamped at B, offset = the answer's profit),
keep each value-queried bundle as an exception, and check that the
resulting min-affine menu evaluates to the ground truth everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Optional, Sequence

from .bundles import (MAX_ITEMS, all_bundles, best_bundle, bit, bundles_of_size, size,
                      subset_sums)
from .menus import Menu, MinAffineMenu, eval_min_affine
from .protocol import RunResult, Session, insert_player
from .queries import PriceVector, bundle_price, demand_ints
from .rational import INF, Price, is_finite
from .valuations import DomainError, Valuation, demand_candidates, valuation

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
SIZES = tuple(Fraction(k) for k in range(MAX_ITEMS + 1))  # SIZES[k] == k
BUMPED = tuple(k + HALF for k in SIZES)  # BUMPED[k] == k + 1/2
UNIT_PRICES = tuple(PriceVector((ONE,) * m) for m in range(MAX_ITEMS + 1))


class CharacterizationViolation(RuntimeError):
    """The harvested min-affine menu fails to reproduce the ground truth."""


def canonical_valuation(menu: Menu, bound: Fraction) -> Valuation:
    """Valuation mirroring the menu; infinite entries lifted to (m+1)B."""
    lift = (menu.m + 1) * bound
    table = tuple(p if is_finite(p) else lift for p in menu.price)
    return valuation(menu.m, table)


def extract_min_affine(session: Session, i: int,
                       v_minus_i: Sequence[Valuation]) -> tuple[MinAffineMenu, RunResult]:
    """The min-affine form of the menu v_minus_i presents to player i, from
    the session's menu and its run on the canonical profile, and that run."""
    spec = session.spec
    if spec.mode != "demand":
        raise DomainError("min-affine extraction applies to demand-mode mechanisms")
    truth = session.menu(i, v_minus_i)
    res = session.run(insert_player(v_minus_i, i, canonical_valuation(truth, spec.bound)))

    vectors: list[tuple[Price, ...]] = []
    offsets: list[Fraction] = []
    exceptions: list[tuple[int, Price]] = []
    for kind, player, args, answer in res.queries:
        if player != i:
            continue
        if kind == "dem":
            prices = args
            d_mask, d_val = answer
            offset = d_val - bundle_price(prices, d_mask)
            clamped = tuple(
                p if is_finite(p) and p <= spec.bound else INF for p in prices
            )
            if offset > spec.bound:
                clamped = tuple(INF for _ in prices)
            vectors.append(clamped)
            offsets.append(offset)
        else:
            s = args
            exceptions.append((s, truth.price[s]))

    ma = MinAffineMenu(spec.m, tuple(vectors), tuple(offsets), tuple(sorted(set(exceptions))))
    for s in all_bundles(spec.m):
        if eval_min_affine(ma, s) != truth.price[s]:
            raise CharacterizationViolation(
                f"{spec.mech_id}: min-affine evaluation differs from the menu "
                f"at bundle {s}"
            )
    return ma, res


def best_answer(answers: Sequence[tuple[int, Fraction]], d: int,
                prices: Sequence[Optional[int]] | dict[int, int]) -> tuple[int, int, int]:
    """(mask, profit, den) of the (mask, value) answer of largest profit
    value - prices[mask] / d, as `best_bundle` ranks, skipping answers
    priced None (INF); profits are ints over den = lcm(d, value dens)."""
    den = lcm(d, *[value.denominator for _, value in answers])
    up = den // d
    mask, profit = best_bundle((mask, value.numerator * (den // value.denominator)
                                - prices[mask] * up)
                               for mask, value in answers if prices[mask] is not None)
    return mask, profit, den


def min_affine_argmax(ma: MinAffineMenu, oracle: Callable[[Sequence[Price]], tuple[int, Fraction]]) -> int:
    """Profit-maximizing bundle against an exception-free min-affine menu:
    one demand query per vector, in order, answered with (bundle, value),
    and the `best_answer` against the menu's integer prices."""
    if ma.beta != 0:
        raise DomainError("the few-query optimizer needs an exception-free menu")
    return best_answer([oracle(vec) for vec in ma.vectors], *ma.affine_ints)[0]


@dataclass(frozen=True)
class GadgetResult:
    bundle: int
    profit: Fraction
    price: Fraction  # the menu price of `bundle`
    demand_queries: int


def hidden_bump_price(s: int, t_mask: Optional[int]) -> Fraction:
    """Menu price of s: its size, plus a half on t_mask (None: no bump)."""
    return (BUMPED if s == t_mask else SIZES)[size(s)]


def hidden_bump_profits(v: Valuation, t_mask: int) -> tuple[int, list[int]]:
    """v's profit against the hidden-bump menu on every bundle, as ints over
    E = lcm(D, 2): ints[s] * E/D - |s| * E, less E/2 on t_mask.  profits[s] / E
    == v(s) - hidden_bump_price(s, t_mask)."""
    d, ints = v.scaled_table
    e = lcm(d, 2)
    k = e // d
    profits = [x * k - c for x, c in zip(ints, subset_sums([e] * v.m))]
    profits[t_mask] -= e // 2
    return e, profits


@lru_cache(maxsize=256)
def gadget_vectors(m: int, t_mask: int) -> tuple[PriceVector, ...]:
    """The gadget's queries about the bump t_mask: per item j of t_mask, unit
    prices with j at INF; per j outside it, t_mask free, j at a half."""
    return tuple(PriceVector(INF if k == j else ONE for k in range(m))
                 for j in range(m) if t_mask & bit(j)) + tuple(
        PriceVector(ZERO if t_mask & bit(k) else (HALF if k == j else ONE) for k in range(m))
        for j in range(m) if not t_mask & bit(j))


def mt_gadget_argmax(m: int, oracle: Callable[[Sequence[Price]], tuple[int, Fraction]],
                     price_check: Callable[[int], bool]) -> GadgetResult:
    """Profit maximization against the size-priced menu with one half-unit
    bump on an unknown half-size bundle.

    Phase 1 queries uniform unit prices; if the answer is off the bump it
    is already optimal.  Otherwise the `gadget_vectors` cover the off-bump
    and strict-superset candidates, and `best_answer` ranks them at prices
    over 2 of 2|s| + [s = t_mask].
    price_check tells whether a bundle carries the bump, at one demand
    query; it is asked once per run, about the phase-1 answer."""
    if m % 2:
        raise DomainError("the gadget needs an even item count")
    d0, v0 = oracle(UNIT_PRICES[m])
    if not (price_check(d0) and size(d0) == m // 2):
        price = SIZES[size(d0)]
        return GadgetResult(d0, v0 - price, price, 2)

    t_mask = d0
    answers = [(t_mask, v0)] + [oracle(vec) for vec in gadget_vectors(m, t_mask)]
    best_mask, best_profit, den = best_answer(
        answers, 2, {mask: 2 * size(mask) + (mask == t_mask) for mask, _ in answers})
    return GadgetResult(best_mask, Fraction(best_profit, den),
                        hidden_bump_price(best_mask, t_mask), 1 + len(answers))


@lru_cache(maxsize=256)
def hidden_problem_valuation(m: int, t_mask: int) -> Valuation:
    """0 below half size, 1/4 on the hidden bundle alone, 1 above, as ints
    over 4 (a t_mask off half size is refused), carrying its
    `demand_candidates` (17 of 64 bundles at m = 6), which `demand_ints`
    scans alone at nonnegative prices.

    Memoized: the valuation is immutable, so every caller shares the one
    built (and validated) per (m, t_mask).  256 entries hold every
    half-size bundle for m <= 10 without keeping thousands of 2^m tables
    at larger m."""
    ints = tuple([4 if size(s) > m // 2 else int(s == t_mask) for s in all_bundles(m)])
    return Valuation(m, (4, ints), candidates=demand_candidates(ints, m))


def demand_cover(scaled: tuple[int, Sequence[Optional[int]]], m: int) -> set[int]:
    """Bundles a demand query pins down in the hidden-bundle problem, for
    the price vector scaled == (P, ints) that `price_ints` returns: the
    only candidate is the set of items priced at most a quarter
    (4 * ints[j] <= P, P > 0), and it counts only if the hidden-bundle
    valuation actually answers with it."""
    if m % 2:
        raise DomainError("even item count required")
    den, ints = scaled
    if len(ints) != m:
        raise DomainError("price vector length must equal m")
    if den <= 0:
        raise DomainError("price denominator must be positive")
    candidate = 0
    for j, x in enumerate(ints):
        if x is not None and 4 * x <= den:
            candidate |= 1 << j
    if size(candidate) != m // 2:
        return set()
    answer = demand_ints((hidden_problem_valuation(m, candidate),), den, ints)[0]
    return {candidate} if answer == candidate else set()


def brute_cover(scaled: tuple[int, Sequence[Optional[int]]], m: int) -> set[int]:
    """Brute-force reference for `demand_cover`: the half-size bundles t
    whose own hidden-bundle valuation answers this query with t, from one
    batched demand query over every target."""
    if m % 2:
        raise DomainError("even item count required")
    targets = bundles_of_size(m, m // 2)
    answers = demand_ints([hidden_problem_valuation(m, t) for t in targets], *scaled)
    return {t for t, answer in zip(targets, answers) if answer == t}
