"""Value-query menu learning: the maximal-zero-bundle learner and the
price-ladder reconstruction.

A 0/1 valuation is k-useless when its zero set is the downward closure of
k bundles.  learn_useless recovers those bundles with a recursive
traversal from the empty bundle, spending at most m+1 queries per visited
bundle.  reconstruct_menu_value climbs the hidden menu's price levels:
at threshold p the bundles "in the menu" with price p are exactly the
maximal bundles priced <= p, and the learner's own oracle answers reveal
the next higher price level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .bundles import bit, grand, superset_min
from .menus import Menu, in_menu_rebuild
from .rational import Price, is_finite
from .valuations import DomainError


class OracleError(RuntimeError):
    """Oracle answers inconsistent with the promised structure."""


class BoundViolation(RuntimeError):
    """The hidden object is richer than the caller promised."""


class PriceOracle:
    """Answers the hidden menu's price per bundle; each call stands for a
    fixed number of value queries (the mechanism's declared per-price
    cost)."""

    def __init__(self, menu: Menu, cost_per_call: int = 1):
        if not menu.is_normalized():
            raise DomainError("price oracle needs a normalized menu")
        self.menu = menu
        self.cost_per_call = cost_per_call
        self.calls = 0

    @property
    def m(self) -> int:
        return self.menu.m

    def price(self, s: int) -> Price:
        self.calls += 1
        return self.menu.price[s]

    @property
    def value_queries(self) -> int:
        return self.calls * self.cost_per_call


@dataclass
class LearnTrace:
    visited: list[int] = field(default_factory=list)
    parents: dict[int, Optional[int]] = field(default_factory=dict)
    queries: int = 0
    found: list[int] = field(default_factory=list)


def learn_useless(oracle: Callable[[int], int], m: int, k_bound: int) -> tuple[set[int], int, LearnTrace]:
    """Find every maximal zero bundle of a k-useless valuation.

    Visits bundles depth-first from the empty bundle; at each visit the
    bundle's own value plus its one-item extensions (at most m+1 queries)
    decide whether it is maximal-zero.  Returns the maximal zero bundles,
    the query count, and the visit trace.
    """
    trace = LearnTrace()
    cache_guard = {}

    def ask(s: int) -> int:
        ans = oracle(s)
        trace.queries += 1
        if ans not in (0, 1):
            raise OracleError(f"non-boolean oracle answer {ans!r}")
        prev = cache_guard.get(s)
        if prev is not None and prev != ans:
            raise OracleError("oracle changed its answer")
        cache_guard[s] = ans
        return ans

    top = grand(m)
    found: set[int] = set()

    def visit(s: int, allowed: list[int], parent: Optional[int]) -> None:
        trace.visited.append(s)
        trace.parents[s] = parent
        if ask(s) == 1:
            if s == 0:
                raise OracleError("a useless valuation vanishes on the empty bundle")
            return
        useless = True
        for j in range(m):
            if not s & bit(j):
                if ask(s | bit(j)) == 0:
                    useless = False
                    break
        if useless:
            found.add(s)
            trace.found.append(s)
            return
        rest = list(allowed)
        while rest:
            j = rest.pop(0)
            visit(s | bit(j), list(rest), s)

    visit(0, list(range(m)), None)
    if len(found) > k_bound:
        raise BoundViolation(
            f"learned {len(found)} maximal zero bundles, promised at most {k_bound}"
        )
    return found, trace.queries, trace


def useless_table(m: int, seeds: Iterable[int]) -> list[int]:
    """The 0/1 table of the k-useless valuation whose zero set is the
    downward closure of the seeds: 0 at each seed, 1 elsewhere, lowered to
    its supersets' smallest by one `superset_min` pass."""
    table = [1] * (1 << m)
    for t in seeds:
        table[t] = 0
    return superset_min(table, m)


def useless_query_budget(m: int, k: int) -> int:
    return (m + 1) * m * m * k


@dataclass(frozen=True)
class LadderStep:
    threshold: Fraction
    new_bundles: tuple[int, ...]
    oracle_calls: int


@dataclass(frozen=True)
class ValueReconstruction:
    menu: Menu
    oracle_calls: int
    value_queries: int
    steps: tuple[LadderStep, ...]


def reconstruct_menu_value(po: PriceOracle, mc_bound: int) -> ValueReconstruction:
    """Recover the hidden menu exactly with value queries only.

    Climbs price levels from zero: each level runs the maximal-zero
    learner against the thresholded 0/1 view (one oracle call per derived
    query), records the newly maximal bundles at that price, and moves to
    the smallest strictly larger price observed during the run.  The menu
    is rebuilt from the discovered in-menu bundles (each bundle costs its
    cheapest discovered superset, infinity when none).
    """
    m = po.m
    priced: dict[int, Fraction] = {}
    steps: list[LadderStep] = []
    p = Fraction(0)
    for _ in range(mc_bound):
        observed: set[Price] = set()

        def view(s: int) -> int:
            price = po.price(s)
            observed.add(price)
            return 0 if price <= p else 1

        before = po.calls
        found, _q, _trace = learn_useless(view, m, mc_bound)
        spent = po.calls - before
        new = tuple(sorted(s for s in found if s not in priced))
        for s in new:
            priced[s] = p
        steps.append(LadderStep(p, new, spent))
        higher = [x for x in observed if is_finite(x) and x > p]
        if not higher:
            break
        p = min(higher)
    else:
        raise BoundViolation(
            f"price ladder outgrew the promised menu complexity {mc_bound}"
        )
    if len(priced) > mc_bound:
        raise BoundViolation(
            f"found {len(priced)} in-menu bundles, promised at most {mc_bound}"
        )
    menu = in_menu_rebuild(m, priced)
    return ValueReconstruction(
        menu=menu,
        oracle_calls=po.calls,
        value_queries=po.value_queries,
        steps=tuple(steps),
    )
