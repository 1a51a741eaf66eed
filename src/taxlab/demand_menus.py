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
from typing import Callable, Optional, Sequence

from .bundles import all_bundles, bit, size
from .menus import Menu, MinAffineMenu, eval_min_affine
from .protocol import MechanismSpec, extract_menu, insert_player, run_mechanism
from .queries import bundle_price, demand_query
from .rational import INF, Price, is_finite
from .valuations import DomainError, Valuation

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class CharacterizationViolation(RuntimeError):
    """The harvested min-affine menu fails to reproduce the ground truth."""


def canonical_valuation(menu: Menu, bound: Fraction) -> Valuation:
    """Valuation mirroring the menu; infinite entries lifted to (m+1)B."""
    lift = (menu.m + 1) * bound
    table = tuple(p if is_finite(p) else lift for p in menu.price)
    return Valuation(menu.m, table)


def extract_min_affine(spec: MechanismSpec, i: int, v_minus_i: Sequence[Valuation],
                       truth: Optional[Menu] = None) -> MinAffineMenu:
    """`truth` is the menu v_minus_i presents, extracted here when not given."""
    if spec.mode != "demand":
        raise DomainError("min-affine extraction applies to demand-mode mechanisms")
    if truth is None:
        truth = extract_menu(spec, i, v_minus_i)
    v_i = canonical_valuation(truth, spec.bound)
    res = run_mechanism(spec, insert_player(tuple(v_minus_i), i, v_i))

    vectors: list[tuple[Price, ...]] = []
    offsets: list[Fraction] = []
    exceptions: list[tuple[int, Price]] = []
    for kind, player, args, answer in res.qlog.trace:
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
    return ma


def min_affine_argmax(ma: MinAffineMenu, oracle: Callable[[Sequence[Price]], tuple[int, Fraction]]) -> int:
    """Profit-maximizing bundle against an exception-free min-affine menu,
    with one demand query per price vector.  The oracle answers a per-item
    price vector with (bundle, value)."""
    if ma.beta != 0:
        raise DomainError("the few-query optimizer needs an exception-free menu")
    best_mask, best_profit = 0, Fraction(0)
    for vec in ma.vectors:
        d_mask, d_val = oracle(vec)
        price = eval_min_affine(ma, d_mask)
        if not is_finite(price):
            continue
        profit = d_val - price
        if profit > best_profit or (profit == best_profit and d_mask < best_mask):
            best_mask, best_profit = d_mask, profit
    return best_mask


@dataclass(frozen=True)
class GadgetResult:
    bundle: int
    profit: Fraction
    demand_queries: int


def hidden_bump_price(s: int, t_mask: int) -> Fraction:
    return Fraction(size(s)) + (HALF if s == t_mask else Fraction(0))


def mt_gadget_argmax(m: int, oracle: Callable[[Sequence[Price]], tuple[int, Fraction]],
                     price_check: Callable[[int], bool]) -> GadgetResult:
    """Profit maximization against the size-priced menu with one half-unit
    bump on an unknown half-size bundle.

    Phase 1 queries uniform unit prices; if the answer is off the bump it
    is already optimal.  Otherwise two batches (one item of the bump made
    unaffordable / one outside item discounted to a half with the bump
    free) cover the off-bump and strict-superset candidates.  price_check
    tells whether a bundle carries the bump, at one demand query.
    """
    if m % 2:
        raise DomainError("the gadget needs an even item count")
    queries = 0

    def ask(prices):
        nonlocal queries
        queries += 1
        return oracle(prices)

    ones = tuple(Fraction(1) for _ in range(m))
    d0, v0 = ask(ones)
    queries += 1  # the price check below costs one demand query
    if not (size(d0) == m // 2 and price_check(d0)):
        profit = v0 - Fraction(size(d0))
        return GadgetResult(d0, profit, queries)

    t_mask = d0
    candidates = [(t_mask, v0 - hidden_bump_price(t_mask, t_mask)), (0, Fraction(0))]
    for j in range(m):
        if t_mask & bit(j):
            prices = tuple(INF if k == j else Fraction(1) for k in range(m))
            d, dv = ask(prices)
            candidates.append((d, dv - hidden_bump_price(d, t_mask)))
    for j in range(m):
        if not t_mask & bit(j):
            prices = tuple(
                Fraction(0) if t_mask & bit(k) else (HALF if k == j else Fraction(1))
                for k in range(m)
            )
            d, dv = ask(prices)
            candidates.append((d, dv - hidden_bump_price(d, t_mask)))
    best_mask, best_profit = 0, Fraction(0)
    for mask, profit in candidates:
        if profit > best_profit or (profit == best_profit and mask < best_mask):
            best_mask, best_profit = mask, profit
    return GadgetResult(best_mask, best_profit, queries)


def hidden_problem_valuation(m: int, t_mask: int) -> Valuation:
    """0 below half size, 1/4 on the hidden bundle alone, 1 above."""
    half = m // 2
    table = []
    for s in all_bundles(m):
        k = size(s)
        if k < half:
            table.append(Fraction(0))
        elif k == half:
            table.append(QUARTER if s == t_mask else Fraction(0))
        else:
            table.append(Fraction(1))
    return Valuation(m, tuple(table))


def demand_cover(prices: Sequence[Price], m: int) -> set[int]:
    """Bundles a demand query pins down in the hidden-bundle problem: the
    only candidate is the set of items priced at most a quarter, and it
    counts only if the hidden-bundle valuation actually answers with it."""
    if m % 2:
        raise DomainError("even item count required")
    candidate = 0
    for j in range(m):
        p = prices[j]
        if is_finite(p) and p <= QUARTER:
            candidate |= bit(j)
    if size(candidate) != m // 2:
        return set()
    answer, _ = demand_query(hidden_problem_valuation(m, candidate), prices)
    return {candidate} if answer == candidate else set()


def covers(prices: Sequence[Price], t_mask: int, m: int) -> bool:
    """Reference predicate: does this query reveal t_mask directly."""
    answer, _ = demand_query(hidden_problem_valuation(m, t_mask), prices)
    return answer == t_mask
