"""Promise multiparty set disjointness with exact bit accounting.

Players hold l-bit strings from known allowed sets; every profile of
allowed strings shares at most z common-1 bits (the promise).  The
1-promise protocol repeatedly has each player announce an own-1 bit whose
neighborhood (bits co-occurring with it somewhere in the player's allowed
set) is small; the live window shrinks to that neighborhood until a
constant-size remainder is revealed outright.  General z reduces to the
1-promise case on the z-product strings (one bit per z-tuple) and recurses
at z-1 on the allowed strings consistent with a "no" transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

from .valuations import DomainError


class PromiseError(RuntimeError):
    """The promise does not hold for the declared allowed sets."""


def popcount(x: int) -> int:
    return x.bit_count()


def lowest_bit(a: int) -> Optional[int]:
    """Index of the lowest set bit of a; None for 0."""
    return (a & -a).bit_length() - 1 if a else None


def neighbourhood(strings: Sequence[int], k: int, live: int) -> int:
    """The live bits co-occurring with bit k in some string; k must be a
    live bit."""
    nb = 0
    for a in strings:
        if a >> k & 1:
            nb |= a & live
    return nb


def max_intersection(allowed: Sequence[Sequence[int]], l: int) -> int:
    """Exact maximum number of common-1 bits over the allowed-set product,
    by propagating the reachable partial-AND masks."""
    reach = {(1 << l) - 1}
    for strings in allowed:
        reach = {r & a for r in reach for a in strings}
    return max((popcount(r) for r in reach), default=0)


@dataclass(frozen=True)
class ZDisjointnessInstance:
    n: int
    l: int
    allowed: tuple[tuple[int, ...], ...]
    inputs: tuple[int, ...]
    z: int

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise DomainError("need at least one player and one bit")
        if len(self.allowed) != self.n or len(self.inputs) != self.n:
            raise DomainError("allowed sets and inputs must cover all players")
        full = (1 << self.l) - 1
        for strings, a in zip(self.allowed, self.inputs):
            if not strings:
                raise DomainError("allowed sets must be nonempty")
            if any(s & ~full for s in strings):
                raise DomainError("allowed strings exceed the bit width")
            if a not in strings:
                raise DomainError("each input must come from its allowed set")
        worst = max_intersection(self.allowed, self.l)
        if worst > self.z:
            raise PromiseError(
                f"promise z={self.z} violated: some profile shares {worst} bits"
            )


@dataclass(frozen=True)
class Verdict:
    intersecting_bit: Optional[int]
    bits: int

    @property
    def disjoint(self) -> bool:
        return self.intersecting_bit is None


def announce_cost(l: int) -> int:
    """A bit index or 'none', per player per round: ceil(log2(l+1))."""
    return max(1, l.bit_length())


def small_candidate(strings: Sequence[int], own: int, live: int, r_s: int, n: int) -> Optional[int]:
    """The player's smallest own-1 live bit whose neighborhood within the
    live window has at most (1 - 1/2n) r_s bits."""
    cand = own & live
    while cand:
        k = lowest_bit(cand)
        cand &= cand - 1
        if 2 * n * popcount(neighbourhood(strings, k, live)) <= (2 * n - 1) * r_s:
            return k
    return None


@dataclass
class OneDisjointnessRun:
    verdict: Verdict
    consistent: tuple[tuple[int, ...], ...]  # allowed strings per player matching the transcript
    live_sizes: tuple[int, ...] = ()  # live-window size entering each round


def run_one_disjointness(n: int, l: int, allowed: Sequence[Sequence[int]],
                         inputs: Sequence[int]) -> OneDisjointnessRun:
    """The 1-promise protocol with per-round consistency tracking."""
    live = (1 << l) - 1
    bits = 0
    live_sizes: list[int] = []
    consistent = [list(strings) for strings in allowed]

    if n == 1:
        bits = announce_cost(l)
        hit = lowest_bit(inputs[0])
        consistent[0] = [a for a in consistent[0] if lowest_bit(a) == hit]
        return OneDisjointnessRun(Verdict(hit, bits), tuple(map(tuple, consistent)))

    while True:
        r_s = popcount(live)
        if r_s <= 2 * n:
            live_sizes.append(r_s)
            bits += n * r_s
            for i in range(n):
                reveal = inputs[i] & live
                consistent[i] = [a for a in consistent[i] if a & live == reveal]
            common = live
            for a in inputs:
                common &= a
            hits = popcount(common)
            if hits >= 2:
                raise PromiseError("two intersecting bits observed in one window")
            hit = lowest_bit(common)
            return OneDisjointnessRun(Verdict(hit, bits), tuple(map(tuple, consistent)),
                                      tuple(live_sizes))

        live_sizes.append(r_s)
        bits += n * announce_cost(l)
        announced = [
            small_candidate(allowed[i], inputs[i], live, r_s, n) for i in range(n)
        ]
        for i in range(n):
            consistent[i] = [
                a for a in consistent[i]
                if small_candidate(allowed[i], a, live, r_s, n) == announced[i]
            ]
        speaker = next((i for i in range(n) if announced[i] is not None), None)
        if speaker is None:
            return OneDisjointnessRun(Verdict(None, bits), tuple(map(tuple, consistent)),
                                      tuple(live_sizes))
        live = neighbourhood(allowed[speaker], announced[speaker], live)


def combination_unrank(rank: int, l: int, z: int) -> tuple[int, ...]:
    """The z-tuple of index `rank` in `itertools.combinations(range(l), z)`
    order."""
    combo = []
    v = 0
    for i in range(z):
        while comb(l - 1 - v, z - i - 1) <= rank:
            rank -= comb(l - 1 - v, z - i - 1)
            v += 1
        combo.append(v)
        v += 1
    return tuple(combo)


@lru_cache(maxsize=256)
def z_block_offsets(l: int, z: int) -> tuple[int, ...]:
    """Per position c, C(l, z) - C(l - c, z): the number of z-tuples of l
    positions starting below c, where the block of those starting at c
    begins in combination order."""
    total = comb(l, z)
    return tuple([total - comb(l - c, z) for c in range(l)])


def z_product_mask(a: int, l: int, z: int) -> int:
    """One bit per z-tuple of positions, set when the l-bit string a holds
    every tuple bit.  In combination order the tuples starting at c follow
    the `z_block_offsets(l, z)[c]` starting below c and rank as
    (z - 1)-tuples of the positions above c: each set bit c, lowest first,
    adds the product of a's bits above it, shifted to that block."""
    if z <= 1:
        return a if z else 1
    offsets = z_block_offsets(l, z)
    out = 0
    while a:
        c = (a & -a).bit_length() - 1
        a &= a - 1
        out |= z_product_mask(a >> (c + 1), l - c - 1, z - 1) << offsets[c]
    return out


def solve_z_with_consistency(inst: ZDisjointnessInstance) -> tuple[Verdict, tuple[tuple[int, ...], ...]]:
    """Verdict plus, per player, the allowed strings consistent with the
    whole transcript (the rectangle the run ends in)."""
    if inst.z == 0:
        return Verdict(None, 0), inst.allowed
    if inst.z == 1:
        run = run_one_disjointness(inst.n, inst.l, inst.allowed, inst.inputs)
        return run.verdict, run.consistent

    n_tuples = comb(inst.l, inst.z)
    prod_allowed = [
        [z_product_mask(a, inst.l, inst.z) for a in strings]
        for strings in inst.allowed
    ]
    prod_inputs = [z_product_mask(a, inst.l, inst.z) for a in inst.inputs]
    run = run_one_disjointness(inst.n, n_tuples, prod_allowed, prod_inputs)
    kept = []
    for i in range(inst.n):
        keep_products = set(run.consistent[i])
        kept.append(tuple(
            a for a, pa in zip(inst.allowed[i], prod_allowed[i]) if pa in keep_products
        ))
    if run.verdict.intersecting_bit is not None:
        combo = combination_unrank(run.verdict.intersecting_bit, inst.l, inst.z)
        return Verdict(combo[0], run.verdict.bits), tuple(kept)

    # "no" leaf: the consistent strings share at most z-1 bits
    sub = ZDisjointnessInstance(
        n=inst.n,
        l=inst.l,
        allowed=tuple(kept),
        inputs=inst.inputs,
        z=inst.z - 1,
    )
    deeper, deeper_kept = solve_z_with_consistency(sub)
    return Verdict(deeper.intersecting_bit, run.verdict.bits + deeper.bits), deeper_kept


def solve_z_disjointness(inst: ZDisjointnessInstance) -> Verdict:
    """Decide disjointness under the declared promise; bits accumulate over
    the product levels z, z-1, ..., 1."""
    verdict, _ = solve_z_with_consistency(inst)
    return verdict


def brute_force_verdict(inst: ZDisjointnessInstance) -> Optional[int]:
    common = (1 << inst.l) - 1
    for a in inst.inputs:
        common &= a
    return lowest_bit(common)
