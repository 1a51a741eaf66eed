"""Menu-verification probes: decide whether a base function exceeds the
presented menu anywhere, by running the mechanism and reading outcomes.

Given a monotone base function f (finite entries bounded by the declared
price cap B, f(empty)=0), the verifier answers "does f(S) > M(S) hold for
some bundle S" using only mechanism runs with specially built probe
valuations:

* general:      one run with f itself, infinite entries lifted to 3B;
* subadditive:  the same probe shifted up by its maximum off the empty set;
* xos:          one run per bundle size r, with clause weights f(T)/r + 3B
                (2B/r + 3B for infinite entries);
* submodular:   one run per (size k, price w) pair, with the three-case
                staircase valuation built from the level set
                {|S| = k, f(S) = w}.

The price grid for the submodular rounds is the set of distinct prices the
mechanism's menus can show, including the infinite one when present.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bundles import all_bundles, bit, bundles_of_size, check_m, is_monotone, max_below, size
from .menus import ContractError, Menu
from .protocol import MechanismSpec, insert_player, run_mechanism
from .rational import INF, Price, is_finite
from .valuations import DomainError, Valuation, XOSClauses, xos_from_clauses

CLASSES = ("general", "subadditive", "xos", "submodular")


@dataclass(frozen=True)
class BaseFunction:
    """Monotone price-like target: the verification problem's f."""

    m: int
    table: tuple[Price, ...]

    def __post_init__(self):
        check_m(self.m)
        if len(self.table) != 1 << self.m:
            raise DomainError("base function must cover all 2^m bundles")
        if self.table[0] != 0:
            raise DomainError("base function must vanish on the empty bundle")
        if not is_monotone(self.table, self.m):
            raise DomainError("base function must be monotone")

    def check_bound(self, bound: Fraction) -> None:
        for x in self.table:
            if is_finite(x) and x > bound:
                raise DomainError("finite base values must stay within the price cap")

    def value(self, s: int) -> Price:
        return self.table[s]


def exceeds_somewhere(f: BaseFunction, menu: Menu) -> bool:
    """Brute-force reference predicate: does f beat the menu anywhere."""
    return any(f.table[s] > menu.price[s] for s in all_bundles(f.m))


def general_probe(f: BaseFunction, bound: Fraction) -> Valuation:
    table = tuple(
        x if is_finite(x) else 3 * bound for x in f.table
    )
    return Valuation(f.m, table)


def subadditive_probe(f: BaseFunction, bound: Fraction) -> tuple[Valuation, Fraction]:
    base = general_probe(f, bound)
    shift = max(base.table)
    table = tuple(
        Fraction(0) if s == 0 else base.table[s] + shift for s in all_bundles(f.m)
    )
    return Valuation(f.m, table), shift


def xos_probe(f: BaseFunction, bound: Fraction, r: int) -> Valuation:
    if not 1 <= r <= f.m:
        raise DomainError("clause size out of range")
    clauses = []
    for t in bundles_of_size(f.m, r):
        ft = f.table[t]
        weight = (ft / r + 3 * bound) if is_finite(ft) else (2 * bound / r + 3 * bound)
        clauses.append(
            tuple(weight if t & bit(j) else Fraction(0) for j in range(f.m))
        )
    return xos_from_clauses(XOSClauses(f.m, tuple(clauses)))


def submodular_probe(f: BaseFunction, bound: Fraction, k: int, w: Price) -> Valuation:
    """Staircase probe for the level set {|S| = k, f(S) = w}: below size k
    the value climbs by t per item; bundles covering a level-set member are
    worth exactly k*t; everything else falls short by t/2^|S|."""
    if not 1 <= k <= f.m:
        raise DomainError("level size out of range")
    level = [s for s in bundles_of_size(f.m, k) if f.table[s] == w]
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
            table.append((k - Fraction(1, 1 << size(s))) * t)
    return Valuation(f.m, tuple(table))


def build_probe(cls: str, f: BaseFunction, bound: Fraction, *,
                r: Optional[int] = None, k: Optional[int] = None,
                w: Optional[Price] = None):
    """Probe valuation(s) for one verification round.  xos without r and
    submodular without (k, w) return the full probe list."""
    f.check_bound(bound)
    if cls == "general":
        return general_probe(f, bound)
    if cls == "subadditive":
        return subadditive_probe(f, bound)[0]
    if cls == "xos":
        if r is None:
            return [xos_probe(f, bound, rr) for rr in range(1, f.m + 1)]
        return xos_probe(f, bound, r)
    if cls == "submodular":
        if k is None or w is None:
            raise DomainError("submodular probes need the (k, w) pair")
        return submodular_probe(f, bound, k, w)
    raise DomainError(f"unknown class {cls!r}")


def menu_price_grid(menus: Sequence[Menu]) -> tuple[Price, ...]:
    """Distinct prices appearing in the menus; the infinite price last."""
    finite = set()
    has_inf = False
    for menu in menus:
        for p in menu.price:
            if is_finite(p):
                finite.add(p)
            else:
                has_inf = True
    grid: list[Price] = sorted(finite)
    if has_inf:
        grid.append(INF)
    return tuple(grid)


def random_base_function(m: int, bound: Fraction, rng,
                         values: Optional[Sequence[Price]] = None) -> BaseFunction:
    """Seeded random monotone base function with entries drawn from the
    given price list (default: quarter-unit grid up to the cap plus the
    infinite price), monotonized upward."""
    if values is None:
        steps = int(4 * bound) + 1
        values = [Fraction(q, 4) for q in range(steps)] + [INF]
    pool = [x for x in values if not is_finite(x) or (0 <= x <= bound)]
    table: list[Price] = [Fraction(0)] * (1 << m)
    for s in all_bundles(m):
        if s:
            table[s] = max_below(table, s, pool[rng.randrange(len(pool))])
    return BaseFunction(m, tuple(table))


def pairwise_submodular(v: Valuation) -> bool:
    """v(S) + v(U) >= v(S | U) + v(S & U) for every pair, over the integer
    table."""
    t = v.scaled_table[1]
    for s in all_bundles(v.m):
        for u in range(s, 1 << v.m):
            if t[s] + t[u] < t[s | u] + t[s & u]:
                return False
    return True


@dataclass(frozen=True)
class VerificationResult:
    answer: int
    runs: int
    bits: int


def verify_menu(spec: MechanismSpec, i: int, v_minus_i, f: BaseFunction,
                cls: str, price_grid: Optional[Sequence[Price]] = None,
                check_probes: bool = False) -> VerificationResult:
    """Run the class-specific probe protocol and report the decision bit.

    Communication is charged as runs x (transcript bits + 1): each run of
    the mechanism plus the one-bit verdict appended after it.  With
    check_probes every staircase probe is re-verified to be submodular
    before it runs.
    """
    if cls not in CLASSES:
        raise ContractError(f"unknown verification class {cls!r}")
    if f.m != spec.m:
        raise ContractError("base function item count mismatch")
    f.check_bound(spec.bound)
    bound = spec.bound

    def run_with(probe: Valuation):
        res = run_mechanism(spec, insert_player(tuple(v_minus_i), i, probe))
        return res.allocation[i], res.payments[i], res.transcript.bits

    runs = 0
    bits = 0
    if cls == "general":
        probe = general_probe(f, bound)
        won, pay, used = run_with(probe)
        runs, bits = 1, used + 1
        answer = int(probe.table[won] > pay)
        return VerificationResult(answer, runs, bits)

    if cls == "subadditive":
        probe, shift = subadditive_probe(f, bound)
        won, pay, used = run_with(probe)
        runs, bits = 1, used + 1
        lifted = probe.table[won] - (shift if won else Fraction(0))
        answer = int(lifted > pay)
        return VerificationResult(answer, runs, bits)

    if cls == "xos":
        answer = 0
        for r in range(1, spec.m + 1):
            probe = xos_probe(f, bound, r)
            won, pay, used = run_with(probe)
            runs += 1
            bits += used + 1
            if size(won) >= r and probe.table[won] - 3 * bound * r > pay:
                answer = 1
        return VerificationResult(answer, runs, bits)

    grid = tuple(price_grid) if price_grid is not None else ()
    if not grid:
        raise ContractError("submodular verification needs the menu price grid")
    answer = 0
    t = (1 << (spec.m + 1)) * bound
    for k in range(1, spec.m + 1):
        for w in grid:
            if not any(f.table[s] == w for s in bundles_of_size(spec.m, k)):
                continue
            probe = submodular_probe(f, bound, k, w)
            if check_probes and not pairwise_submodular(probe):
                raise ContractError("a staircase probe failed the submodularity check")
            won, pay, used = run_with(probe)
            runs += 1
            bits += used + 1
            if probe.table[won] == k * t and pay < w:
                answer = 1
    return VerificationResult(answer, runs, bits)
