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
and has the same `Fraction` view, `price`.  A trial runs on ints from its
draw to its probe tables: `price_pool` scales the drawable prices once per
session, `draw_base_function` closes and reduces the drawn ints, the xos
tables come in closed form, the level sets are grouped by (size, int) in
`level_ints`, and each grid price is matched to f's ints once per base
function by `BaseFunction.int_of`.  Ints end at the mechanism's outcome: a
run's payment and the grid price of the staircase test's `paid < w` stay
`Fraction` (or INF).  `exceeds_somewhere`, the reference answer a trial is
checked against, cross-multiplies the two integer forms, so it builds
neither `Fraction` view.  `probes_structural` certifies the tables the
rounds run: the staircase tables are submodular and each xos table is the
`clause_max` of its clauses."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Optional, Sequence

from .bundles import (bit, bundles_of_size, is_submodular, monotone_closure, size, sizes,
                      superset_min)
from .menus import ContractError, Menu
from .protocol import Session
from .rational import INF, Price, is_finite, reduced_prices, scaled_prices
from .rng import below
from .valuations import DomainError, clause_max

CLASSES = ("general", "subadditive", "xos", "submodular")
Round = tuple[int, Sequence[int], Callable[[int, Price], bool]]  # (d, ints, beats), see below
Over = tuple[int, list[int], int]  # the general probe (E, lifted ints, B * E), see `_over`


class ProbeStructureError(ContractError):
    """A round's probe table is not of its verification class."""


@dataclass(frozen=True)
class BaseFunction(Menu):
    """Monotone price-like target, the verification problem's f: a
    normalized `Menu`, stored as its (D, ints, top)."""

    def __post_init__(self):
        super().__post_init__()
        if not self.is_normalized():
            raise DomainError("base function must vanish on the empty bundle and be monotone")

    @cached_property
    def level_ints(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Every nonempty level set {|S| = k, f(S) = x / D}, keyed by (k, x)
        with x the stored int (`top` for INF), members ascending."""
        out: dict[tuple[int, int], list[int]] = {}
        for s, key in enumerate(zip(sizes(self.m), self.scaled[1])):
            if s:
                out.setdefault(key, []).append(s)
        return {key: tuple(members) for key, members in out.items()}

    def int_of(self, w: Price) -> Optional[int]:
        """The stored int an entry of price w holds (`top` for INF), or
        None where no entry can be w: a finite w off D's divisors, or at or
        above the top."""
        d, _, top = self.scaled
        if w is INF:
            return top
        if d % w.denominator == 0 and w.numerator * (d // w.denominator) < top:
            return w.numerator * (d // w.denominator)
        return None

    def check_bound(self, bound: Fraction) -> None:
        d, _, top = self.scaled
        if (top - 1) * bound.denominator > bound.numerator * d:
            raise DomainError("finite base values must stay within the price cap")


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


def _xos_weights(f: BaseFunction, over: Over, r: int) -> list[int]:
    """Per bundle, the clause weight of an r-bundle T: f(T)/r + 3B (2B/r +
    3B where f(T) is infinite), over r * E with `over` = `_over(f, B)`.
    The entries of other bundles are not read."""
    if not 1 <= r <= f.m:
        raise DomainError("clause size out of range")
    _, lifted, b = over
    _, ints, top = f.scaled
    return [(2 * b if x == top else y) + 3 * b * r for x, y in zip(ints, lifted)]


def _xos_rows(f: BaseFunction, over: Over, r: int) -> tuple[int, list[int]]:
    """One clause per r-bundle T, its `_xos_weights` weight on T's items:
    (r * E, the clauses laid end to end, m ints each).  The probe's table
    is their `clause_max`."""
    weights = _xos_weights(f, over, r)
    rows: list[int] = []
    for t in bundles_of_size(f.m, r):
        rows += [weights[t] if t & bit(j) else 0 for j in range(f.m)]
    return r * over[0], rows


def _xos_round(f: BaseFunction, over: Over, r: int) -> Round:
    """The XOS probe's table in closed form, v(S) = max over U within S of
    |U| D(U), where D(U) is the largest weight of an r-bundle holding U:
    U = S & T gives |S & T| w_T, and no U within S & T gives more.  D is
    `superset_min` of the weights negated on the r-bundles and 0 off
    them, negated back (0 above size r, where no r-bundle holds U); v is
    the `monotone_closure` of |U| D(U).  The same ints as the `clause_max`
    of `_xos_rows`, in 2 m 2^m steps instead of C(m, r) 2^m.

    f beats the menu on a bundle of at least r items when the probe wins
    one and pays below its worth less the 3B r lift, 3 (B E) r^2 over r E."""
    m, per_mask = f.m, sizes(f.m)
    weights = _xos_weights(f, over, r)
    most = superset_min([-w if n == r else 0 for w, n in zip(weights, per_mask)], m)
    ints = monotone_closure([-x * n for x, n in zip(most, per_mask)], m)
    d, lift = r * over[0], 3 * over[2] * r * r
    return d, ints, lambda won, paid: size(won) >= r and _above(ints[won] - lift, d, paid)


def upward_closure(m: int, members: Sequence[int]) -> list[bool]:
    """Per bundle, whether it contains some member: the members'
    indicator under `monotone_closure`."""
    up = [False] * (1 << m)
    for s in members:
        up[s] = True
    return monotone_closure(up, m)


@lru_cache(maxsize=4096)
def _staircase(m: int, level: tuple[int, ...],
               bound: tuple[int, int]) -> tuple[int, tuple[int, ...]]:
    """The staircase probe's table of one level set over B's denominator,
    B == num / den for bound == (num, den), built once: base functions drawn
    from one price grid share their level sets.  Keyed by B's int pair,
    which hashes faster than the `Fraction`."""
    k, up = size(level[0]), m + 1
    num, den = bound
    return den, tuple([(n << up if n < k else k << up if hit else ((k << n) - 1) << (up - n)) * num
                       for n, hit in zip(sizes(m), upward_closure(m, level))])


def _staircase_round(m: int, level: tuple[int, ...], bound: tuple[int, int], w: Price) -> Round:
    """f beats the menu at price w on the level set when the probe wins a
    bundle covering a member, worth k*t like the grand bundle, below w;
    bound is B's int pair, as `_staircase` takes it."""
    d, ints = _staircase(m, level, bound)
    if not pairwise_submodular(m, ints):
        raise ProbeStructureError("a staircase probe failed the submodularity check")
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
    prices = [(w, f.int_of(w)) for w in grid]
    levels, ratio = f.level_ints, bound.as_integer_ratio()
    return [_staircase_round(f.m, levels[k, x], ratio, w)
            for k in range(1, f.m + 1) for w, x in prices if (k, x) in levels]


def probes_structural(f: BaseFunction, bound: Fraction, grid: Sequence[Price]) -> bool:
    """The probe tables `verify_menu` runs are of their class: each xos
    round's table is the `clause_max` of its `_xos_rows` clauses, and the
    staircase table of each level set at the first three grid prices is
    submodular.  False, not an error, on a table that is not."""
    over = _over(f, bound)
    for r in range(1, f.m + 1):
        d, ints, _ = _xos_round(f, over, r)
        want_d, rows = _xos_rows(f, over, r)
        if (d, ints) != (want_d, clause_max(f.m, rows)):
            return False
    levels, ratio = f.level_ints, bound.as_integer_ratio()
    return all(is_submodular(_staircase(f.m, levels[k, x], ratio)[1], f.m)
               for k in range(1, f.m + 1) for x in map(f.int_of, grid[:3]) if (k, x) in levels)


def menu_price_grid(menus: Sequence[Menu]) -> tuple[Price, ...]:
    """Distinct prices appearing in the menus; the infinite price last."""
    prices = {p for menu in menus for p in menu.price}
    finite = sorted(p for p in prices if is_finite(p))
    return tuple(finite + [INF] if INF in prices else finite)


Pool = tuple[int, tuple[int, ...], int]  # drawable prices (P, ints, marker), see `price_pool`


def price_pool(bound: Fraction, values: Optional[Sequence[Price]] = None) -> Pool:
    """The drawable prices, in list order with repeats: the given values
    within 0..B and INF (default: the quarter-unit grid up to the cap plus
    INF), as ints over their common denominator P, INF as one marker int
    above them all: (P, ints, marker)."""
    if values is None:
        values = [Fraction(q, 4) for q in range(int(4 * bound) + 1)] + [INF]
    pool = [x for x in values if not is_finite(x) or (0 <= x <= bound)]
    if not pool:
        raise DomainError("no drawable price: every value lies outside 0..B and none is INF")
    return scaled_prices(pool)


def draw_base_function(m: int, pool: Pool, rng) -> BaseFunction:
    """Seeded random monotone base function: one pool entry per nonempty
    bundle, drawn by `rng.below` as `rng.randrange(len(ints))` draws it,
    monotonized upward as ints by `monotone_closure` and reduced once by
    the gcd."""
    p, ints, marker = pool
    draws = [0] + [ints[q] for q in below(rng, len(ints), (1 << m) - 1)]
    closed = monotone_closure(draws, m)
    return BaseFunction(m, reduced_prices(p, [None if x == marker else x for x in closed]))


@lru_cache(maxsize=1024)
def pairwise_submodular(m: int, ints: tuple[int, ...]) -> bool:
    """`bundles.is_submodular` on one integer table; staircase probes
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
