"""Menu-verification probes: decide whether a base function exceeds the
presented menu anywhere, by running the mechanism and reading outcomes.

Given a monotone base function f (finite entries bounded by the declared
price cap B, f(empty)=0), the verifier answers "does f(S) > M(S) hold for
some bundle S" using only mechanism runs with specially built probe
valuations.  `probe_rounds` gives a class's rounds, each a probe table over
one denominator and the test its run's (won, paid) must pass:

* general:      one round with f itself, infinite entries lifted to 3B;
* subadditive:  the same probe shifted up by its maximum off the empty set;
* xos:          one round per bundle size r, with clause weights
                f(T)/r + 3B (2B/r + 3B for infinite entries);
* submodular:   one round per (size k, price w) pair, with the three-case
                staircase valuation built from the level set
                {|S| = k, f(S) = w}.

`verify_menu` runs every round through the Session's probe memo and ORs
the verdicts, each an integer comparison: the general, subadditive and
xos tests weigh an entry of the probe's table against the payment's
numerator and denominator, cross-multiplied, so an INF payment is never
beaten; the staircase test compares the won bundle's entry with the
grand bundle's.  The price grid for the submodular rounds is the set of
distinct prices the mechanism's menus can show, including the infinite
one when present.

A `BaseFunction` is a normalized `Menu`: it stores the same (D, ints, top)
and has the same `Fraction` view, `price`.  Ints end at the mechanism's
outcome: a run's payment, the price grid, the level sets' keys and the
staircase test's `paid < w` stay `Fraction` (or INF).  `exceeds_somewhere`,
the reference answer a trial is checked against, cross-multiplies the two
integer forms, so it builds neither `Fraction` view."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Optional, Sequence

from .bundles import bit, bundles_of_size, monotone_closure, size
from .menus import ContractError, Menu
from .protocol import Session
from .rational import INF, Price, common_denominator, is_finite, scaled_prices, top_above
from .valuations import (DomainError, Valuation, XOSClauses, clause_max, is_submodular,
                         valuation_from_ints)

CLASSES = ("general", "subadditive", "xos", "submodular")
Round = tuple[int, Sequence[int], Callable[[int, Price], bool]]  # (d, ints, beats), see below
Over = tuple[int, list[int], int]  # the general probe (E, lifted ints, B * E), see `_over`


@dataclass(frozen=True)
class BaseFunction(Menu):
    """Monotone price-like target, the verification problem's f: a
    normalized `Menu`, stored as its (D, ints, top)."""

    def __post_init__(self):
        super().__post_init__()
        if not self.is_normalized():
            raise DomainError("base function must vanish on the empty bundle and be monotone")

    @cached_property
    def levels(self) -> dict[tuple[int, Price], tuple[int, ...]]:
        """Every nonempty level set {|S| = k, f(S) = w}, keyed by (k, w),
        members ascending; read off the ints, one `Fraction` per price."""
        d, ints, top = self.scaled
        exact = {x: INF if x == top else Fraction(x, d) for x in set(ints)}
        out: dict[tuple[int, Price], list[int]] = {}
        for s in range(1, 1 << self.m):
            out.setdefault((size(s), exact[ints[s]]), []).append(s)
        return {key: tuple(members) for key, members in out.items()}

    def check_bound(self, bound: Fraction) -> None:
        d, _, top = self.scaled
        if (top - 1) * bound.denominator > bound.numerator * d:
            raise DomainError("finite base values must stay within the price cap")


def base_function(m: int, table: Sequence[Price]) -> BaseFunction:
    """The base function of an exact price table, INF entries included."""
    return BaseFunction(m, scaled_prices(table))


def exceeds_somewhere(f: BaseFunction, menu: Menu) -> bool:
    """Brute-force reference predicate: does f beat the menu anywhere.
    Both integer forms, cross-multiplied: nothing beats an INF price, and
    an INF entry of f beats every finite one."""
    df, fs, ftop = f.scaled
    dm, ms, mtop = menu.scaled
    return any(y != mtop and (x == ftop or x * dm > y * df) for x, y in zip(fs, ms))


# A round is (d, ints, beats): the probe valuation probe(s) == ints[s] / d,
# which `verify_menu` hands to `Session.probe_run`, and beats(won, paid),
# true when the run shows f above the menu on a bundle the round covers.
# `xos_probe` and `submodular_probe` wrap the same builders into a
# `Valuation`.

def _over(f: BaseFunction, bound: Fraction) -> Over:
    """The general probe: f with infinite entries lifted to 3B, and B, as
    ints over E = lcm(D_f, B's denominator): (E, lifted ints, B * E)."""
    d, ints, top = f.scaled
    e = lcm(d, bound.denominator)
    b = bound.numerator * (e // bound.denominator)
    k = e // d
    return e, [3 * b if x == top else x * k for x in ints], b


def _above(x: int, d: int, paid: Price) -> bool:
    """x / d > paid (d > 0), cross-multiplied; nothing finite is above INF."""
    return paid is not INF and x * paid.denominator > paid.numerator * d


def _xos_rows(f: BaseFunction, over: Over, r: int) -> tuple[int, list[int]]:
    """One clause per r-bundle T, weight f(T)/r + 3B on T's items (2B/r + 3B
    where f(T) is infinite), from the general probe `over` = `_over(f, B)`:
    (r * E, the clauses laid end to end, m ints each).  The probe's table
    is their `clause_max`."""
    if not 1 <= r <= f.m:
        raise DomainError("clause size out of range")
    e, lifted, b = over
    _, ints, top = f.scaled
    rows: list[int] = []
    for t in bundles_of_size(f.m, r):
        weight = (2 * b if ints[t] == top else lifted[t]) + 3 * b * r
        rows += [weight if t & bit(j) else 0 for j in range(f.m)]
    return r * e, rows


def xos_probe(f: BaseFunction, bound: Fraction, r: int) -> Valuation:
    """The XOS probe for clause size r, carrying its clauses."""
    d, rows = _xos_rows(f, _over(f, bound), r)
    clauses = tuple(tuple([Fraction(x, d) for x in rows[q:q + f.m]])
                    for q in range(0, len(rows), f.m))
    return valuation_from_ints(f.m, d, clause_max(f.m, rows), clauses=XOSClauses(f.m, clauses))


def _xos_round(f: BaseFunction, over: Over, r: int) -> Round:
    """f beats the menu on a bundle of at least r items when the probe wins
    one and pays below its worth less the 3B r lift, 3 (B E) r^2 over r E."""
    d, rows = _xos_rows(f, over, r)
    ints = clause_max(f.m, rows)
    lift = 3 * over[2] * r * r
    return d, ints, lambda won, paid: size(won) >= r and _above(ints[won] - lift, d, paid)


def upward_closure(m: int, members: Sequence[int]) -> list[bool]:
    """Per bundle, whether it contains some member: the members'
    indicator under `monotone_closure`."""
    up = [False] * (1 << m)
    for s in members:
        up[s] = True
    return monotone_closure(up, m)


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
    return valuation_from_ints(f.m, *_staircase(f.m, level, bound))


@lru_cache(maxsize=4096)
def _staircase(m: int, level: tuple[int, ...], bound: Fraction) -> tuple[int, tuple[int, ...]]:
    """The staircase probe's table of one level set over B's denominator,
    built once: base functions drawn from one price grid share their level
    sets."""
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


def _staircase_round(m: int, level: tuple[int, ...], bound: Fraction, w: Price) -> Round:
    """f beats the menu at price w on the level set when the probe wins a
    bundle covering a member, worth k*t like the grand bundle, below w."""
    d, ints = _staircase(m, level, bound)
    if not pairwise_submodular(m, ints):
        raise ContractError("a staircase probe failed the submodularity check")
    return d, ints, lambda won, paid: ints[won] == ints[-1] and paid < w


def probe_rounds(f: BaseFunction, bound: Fraction, cls: str,
                 grid: Sequence[Price] = ()) -> list[Round]:
    """Every round of the class's protocol, in run order.  The subadditive
    probe is the general one shifted up off the empty bundle, and its round
    decides on the unshifted table: the shifted entry less the shift on
    every bundle but the empty one, where both tables are 0."""
    if cls not in CLASSES:
        raise ContractError(f"unknown verification class {cls!r}")
    f.check_bound(bound)
    if cls in ("general", "subadditive"):
        e, lifted, _ = _over(f, bound)
        probe = lifted
        if cls == "subadditive":
            shift = max(lifted)
            probe = [0] + [x + shift for x in lifted[1:]]
        return [(e, probe, lambda won, paid: _above(lifted[won], e, paid))]
    if cls == "xos":
        over = _over(f, bound)
        return [_xos_round(f, over, r) for r in range(1, f.m + 1)]
    if not grid:
        raise ContractError("submodular verification needs the menu price grid")
    levels = f.levels
    return [_staircase_round(f.m, levels[k, w], bound, w)
            for k in range(1, f.m + 1) for w in grid if (k, w) in levels]


def menu_price_grid(menus: Sequence[Menu]) -> tuple[Price, ...]:
    """Distinct prices appearing in the menus; the infinite price last."""
    prices = {p for menu in menus for p in menu.price}
    finite = sorted(p for p in prices if is_finite(p))
    return tuple(finite + [INF] if INF in prices else finite)


@lru_cache(maxsize=64)
def _ranked_pool(values: Optional[tuple[Price, ...]],
                 bound: Fraction) -> tuple[tuple[Price, ...], tuple[int, ...]]:
    """The drawable prices, distinct and ascending (INF last), and each pool
    entry's rank among them, in pool order."""
    if values is None:
        steps = int(4 * bound) + 1
        values = tuple(Fraction(q, 4) for q in range(steps)) + (INF,)
    pool = [x for x in values if not is_finite(x) or (0 <= x <= bound)]
    if not pool:
        raise DomainError("no drawable price: every value lies outside 0..B and none is INF")
    ranked = tuple(sorted(set(pool)))
    rank = {p: r for r, p in enumerate(ranked)}
    return ranked, tuple(rank[x] for x in pool)


def random_base_function(m: int, bound: Fraction, rng,
                         values: Optional[Sequence[Price]] = None) -> BaseFunction:
    """Seeded random monotone base function with entries drawn from the
    given price list (default: quarter-unit grid up to the cap plus the
    infinite price), monotonized upward.  The draws are ranks, all made
    before `monotone_closure` monotonizes them as ints; the ranks present
    give the stored form over their common denominator."""
    ranked, pool = _ranked_pool(None if values is None else tuple(values), bound)
    n = len(pool)
    # -1 is below every rank: the empty bundle's 0
    ranks = monotone_closure([-1] + [pool[rng.randrange(n)] for _ in range(1, 1 << m)], m)
    present = sorted(set(ranks))  # -1 first; INF, if drawn, ranked last
    finite = [ranked[r] for r in present[1:] if ranked[r] is not INF]
    d, nums = common_denominator([Fraction(0)] + finite)
    ints, top = dict(zip(present, nums)), top_above(nums)
    return BaseFunction(m, (d, tuple([ints.get(r, top) for r in ranks]), top))


@lru_cache(maxsize=1024)
def pairwise_submodular(m: int, ints: tuple[int, ...]) -> bool:
    """`valuations.is_submodular` on one integer table; staircase probes
    repeat tables, so each is checked once."""
    return is_submodular(ints, m)


@dataclass(frozen=True)
class VerificationResult:
    answer: int
    runs: int
    bits: int


def verify_menu(session: Session, i: int, v_minus_i, f: BaseFunction,
                cls: str, price_grid: Optional[Sequence[Price]] = None) -> VerificationResult:
    """Run the class's probe rounds and report the decision bit: f beats
    the menu when some round's test passes.

    Communication is charged as runs x (transcript bits + 1): each run of
    the mechanism plus the one-bit verdict appended after it, also where
    the session's probe memo answers the run.
    """
    if f.m != session.spec.m:
        raise ContractError("base function item count mismatch")
    v_minus_i = tuple(v_minus_i)
    rounds = probe_rounds(f, session.spec.bound, cls, price_grid or ())
    answer = bits = 0
    for d, ints, beats in rounds:
        won, paid, used = session.probe_run(i, v_minus_i, (d, ints))
        bits += used + 1
        answer |= beats(won, paid)
    return VerificationResult(int(answer), len(rounds), bits)
