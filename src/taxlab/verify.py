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
from functools import cached_property, lru_cache
from math import lcm
from typing import Optional, Sequence

from .bundles import (all_bundles, bit, bundles_of_size, check_m, grand, is_monotone, max_below,
                      size, subsets)
from .menus import ContractError, Menu
from .protocol import Session
from .rational import INF, Price, common_denominator, is_finite
from .valuations import DomainError, Valuation, XOSClauses, clause_max, valuation_from_ints

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
        if not is_monotone(self.scaled[1], self.m):
            raise DomainError("base function must be monotone")

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...], int]:
        """The table over one denominator: (D, ints, top), D the lcm of the
        finite entries' denominators, table[s] == ints[s] / D where finite,
        and ints[s] == top, one above every finite int, where infinite; so
        the ints order like the table."""
        finite = [is_finite(x) for x in self.table]
        d, ints = common_denominator([x if ok else 0 for x, ok in zip(self.table, finite)])
        top = max(ints) + 1
        return d, tuple([x if ok else top for x, ok in zip(ints, finite)]), top

    @cached_property
    def levels(self) -> dict[tuple[int, Price], tuple[int, ...]]:
        """Every nonempty level set {|S| = k, f(S) = w}, keyed by (k, w),
        members ascending."""
        out: dict[tuple[int, Price], list[int]] = {}
        for s in range(1, 1 << self.m):
            out.setdefault((size(s), self.table[s]), []).append(s)
        return {key: tuple(members) for key, members in out.items()}

    def check_bound(self, bound: Fraction) -> None:
        d, _, top = self.scaled
        if (top - 1) * bound.denominator > bound.numerator * d:
            raise DomainError("finite base values must stay within the price cap")

    def value(self, s: int) -> Price:
        return self.table[s]


def exceeds_somewhere(f: BaseFunction, menu: Menu) -> bool:
    """Brute-force reference predicate: does f beat the menu anywhere."""
    return any(f.table[s] > menu.price[s] for s in all_bundles(f.m))


# The private builders below give each probe in integers over one
# denominator d, probe(s) == ints[s] / d: `verify_menu` hands (d, ints) to
# `Session.probe_run`, and the public *_probe functions wrap the same
# builders into a `Valuation`.

def _over(f: BaseFunction, bound: Fraction) -> tuple[int, list[int], int]:
    """The general probe: f with infinite entries lifted to 3B, and B, as
    ints over E = lcm(D_f, B's denominator): (E, lifted ints, B * E)."""
    d, ints, top = f.scaled
    e = lcm(d, bound.denominator)
    b = bound.numerator * (e // bound.denominator)
    k = e // d
    return e, [3 * b if x == top else x * k for x in ints], b


def _subadditive(f: BaseFunction, bound: Fraction) -> tuple[int, list[int], int]:
    """The general probe shifted up by its maximum off the empty bundle:
    (E, ints, the shift over E)."""
    e, lifted, _ = _over(f, bound)
    shift = max(lifted)
    lifted = [x + shift for x in lifted]
    lifted[0] = 0
    return e, lifted, shift


def _xos_rows(f: BaseFunction, bound: Fraction, r: int) -> tuple[int, list[int]]:
    """One clause per r-bundle T, weight f(T)/r + 3B on T's items (2B/r + 3B
    where f(T) is infinite): (r * E, the clauses laid end to end, m ints
    each).  The probe's table is their `clause_max`."""
    if not 1 <= r <= f.m:
        raise DomainError("clause size out of range")
    e, lifted, b = _over(f, bound)
    _, ints, top = f.scaled
    rows: list[int] = []
    for t in bundles_of_size(f.m, r):
        weight = (2 * b if ints[t] == top else lifted[t]) + 3 * b * r
        rows += [weight if t & bit(j) else 0 for j in range(f.m)]
    return r * e, rows


def general_probe(f: BaseFunction, bound: Fraction) -> Valuation:
    e, lifted, _ = _over(f, bound)
    return valuation_from_ints(f.m, e, lifted)


def subadditive_probe(f: BaseFunction, bound: Fraction) -> tuple[Valuation, Fraction]:
    e, lifted, shift = _subadditive(f, bound)
    return valuation_from_ints(f.m, e, lifted), Fraction(shift, e)


def xos_probe(f: BaseFunction, bound: Fraction, r: int) -> Valuation:
    """The XOS probe for clause size r, carrying its clauses."""
    d, rows = _xos_rows(f, bound, r)
    exact = {x: Fraction(x, d) for x in set(rows)}
    clauses = tuple(tuple([exact[x] for x in rows[q:q + f.m]]) for q in range(0, len(rows), f.m))
    return valuation_from_ints(f.m, d, clause_max(f.m, rows), clauses=XOSClauses(f.m, clauses))


def upward_closure(m: int, members: Sequence[int]) -> list[bool]:
    """Per bundle, whether it contains some member: one pass per item."""
    up = [False] * (1 << m)
    for s in members:
        up[s] = True
    for j in range(m):
        b = bit(j)
        for s in range(1 << m):
            if s & b and not up[s] and up[s ^ b]:
                up[s] = True
    return up


def submodular_probe(f: BaseFunction, bound: Fraction, k: int, w: Price) -> Valuation:
    """Staircase probe for the level set {|S| = k, f(S) = w}: below size k
    the value climbs by t per item; bundles covering a level-set member are
    worth exactly k*t; everything else falls short by t/2^|S|.  With
    t = 2^(m+1) B every entry is an integer multiple of B."""
    if not 1 <= k <= f.m:
        raise DomainError("level size out of range")
    level = f.levels.get((k, w))
    if not level:
        raise DomainError("empty level set: skip this (k, w) pair")
    return _staircase(f.m, level, bound)


@lru_cache(maxsize=4096)
def _staircase(m: int, level: tuple[int, ...], bound: Fraction) -> Valuation:
    """The staircase probe of one level set, built once: base functions
    drawn from one price grid share their level sets."""
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
    return valuation_from_ints(m, bound.denominator, [x * bound.numerator for x in ints])


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


@lru_cache(maxsize=64)
def _ranked_pool(values: Optional[tuple[Price, ...]],
                 bound: Fraction) -> tuple[tuple[Price, ...], tuple[int, ...]]:
    """The drawable prices, distinct and ascending (INF last), and each pool
    entry's rank among them, in pool order."""
    if values is None:
        steps = int(4 * bound) + 1
        values = tuple(Fraction(q, 4) for q in range(steps)) + (INF,)
    pool = [x for x in values if not is_finite(x) or (0 <= x <= bound)]
    ranked = tuple(sorted(set(pool)))
    rank = {p: r for r, p in enumerate(ranked)}
    return ranked, tuple(rank[x] for x in pool)


def random_base_function(m: int, bound: Fraction, rng,
                         values: Optional[Sequence[Price]] = None) -> BaseFunction:
    """Seeded random monotone base function with entries drawn from the
    given price list (default: quarter-unit grid up to the cap plus the
    infinite price), monotonized upward.  The draws are ranks, so the
    monotonizing compares ints."""
    ranked, pool = _ranked_pool(None if values is None else tuple(values), bound)
    table = [-1] * (1 << m)  # below every rank: the empty bundle's 0
    for s in range(1, 1 << m):
        table[s] = max_below(table, s, pool[rng.randrange(len(pool))])
    return BaseFunction(m, (Fraction(0), *[ranked[r] for r in table[1:]]))


def pairwise_submodular(v: Valuation) -> bool:
    """v(S) + v(U) >= v(S | U) + v(S & U) for every pair, over the integer
    table; staircase probes repeat tables, so each is checked once."""
    return _pairwise_submodular_ints(v.m, v.scaled_table[1])


@lru_cache(maxsize=1024)
def _pairwise_submodular_ints(m: int, t: tuple[int, ...]) -> bool:
    """Submodularity by its local form (Fujishige 2005, ch. 2): t(S+a) +
    t(S+b) >= t(S+a+b) + t(S) for every S and two items a, b outside S,
    C(m,2) * 2^(m-2) comparisons in place of every pair's ~4^m / 2."""
    for a in range(m):
        for b in range(a + 1, m):
            sa, sb = bit(a), bit(b)
            ab = sa | sb
            if any(t[s | sa] + t[s | sb] < t[s | ab] + t[s] for s in subsets(grand(m) ^ ab)):
                return False
    return True


@dataclass(frozen=True)
class VerificationResult:
    answer: int
    runs: int
    bits: int


def verify_menu(session: Session, i: int, v_minus_i, f: BaseFunction,
                cls: str, price_grid: Optional[Sequence[Price]] = None) -> VerificationResult:
    """Run the class-specific probe protocol and report the decision bit.

    Communication is charged as runs x (transcript bits + 1): each run of
    the mechanism plus the one-bit verdict appended after it, also where
    the session's probe memo answers the run.  The general, subadditive
    and xos probes go to the memo as integer tables, each read back as
    ints[won] / d; every staircase probe is checked to be submodular
    before it runs.
    """
    spec = session.spec
    if cls not in CLASSES:
        raise ContractError(f"unknown verification class {cls!r}")
    if f.m != spec.m:
        raise ContractError("base function item count mismatch")
    f.check_bound(spec.bound)
    bound = spec.bound
    v_minus_i = tuple(v_minus_i)
    runs = 0
    bits = 0
    if cls == "general":
        e, lifted, _ = _over(f, bound)
        won, pay, used = session.probe_run(i, v_minus_i, (e, lifted))
        answer = int(Fraction(lifted[won], e) > pay)
        return VerificationResult(answer, 1, used + 1)

    if cls == "subadditive":
        e, lifted, shift = _subadditive(f, bound)
        won, pay, used = session.probe_run(i, v_minus_i, (e, lifted))
        answer = int(Fraction(lifted[won] - (shift if won else 0), e) > pay)
        return VerificationResult(answer, 1, used + 1)

    if cls == "xos":
        answer = 0
        for r in range(1, spec.m + 1):
            d, rows = _xos_rows(f, bound, r)
            ints = clause_max(spec.m, rows)
            won, pay, used = session.probe_run(i, v_minus_i, (d, ints))
            runs += 1
            bits += used + 1
            if size(won) >= r and Fraction(ints[won], d) - 3 * bound * r > pay:
                answer = 1
        return VerificationResult(answer, runs, bits)

    grid = tuple(price_grid) if price_grid is not None else ()
    if not grid:
        raise ContractError("submodular verification needs the menu price grid")
    answer = 0
    t = (1 << (spec.m + 1)) * bound
    levels = f.levels
    for k in range(1, spec.m + 1):
        covering = k * t
        for w in grid:
            if (k, w) not in levels:
                continue
            probe = submodular_probe(f, bound, k, w)
            if not pairwise_submodular(probe):
                raise ContractError("a staircase probe failed the submodularity check")
            won, pay, used = session.probe_run(i, v_minus_i, probe.scaled_table)
            runs += 1
            bits += used + 1
            if probe.table[won] == covering and pay < w:
                answer = 1
    return VerificationResult(answer, runs, bits)
