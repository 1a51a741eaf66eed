"""General-communication menu reconstruction by shrinkage steps.

The other players identify the menu they present to player i among the
finite per-player menu catalog.  Each step either checks the price of a
bundle on which the live menus lack a majority price, or hunts a
disagreeing bundle through promise disjointness: sample a bundle set
representing the live menus whose witness count sits in the current band,
build one block per sampled bundle with one bit per realizable
price-protocol transcript, and solve.  A found bit names a bundle whose
true price eliminates at least half of the live menus.

Everything communicated shrinks the public candidate sets (the rectangle
of inputs consistent with the transcript): price-protocol runs and
disjointness announcements both filter.  This is what keeps the promise
valid: any profile of consistent candidates produces a menu that agrees
with every observed price and avoids every eliminated band, so its
sampled witness count obeys the representation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, log2
from typing import Optional, Sequence

from .bundles import all_bundles
from .disjointness import ZDisjointnessInstance, max_intersection, solve_z_with_consistency
from .menus import Menu
from .protocol import Session, log2_ceil
from .rational import Price, price_key
from .rng import stream
from .valuations import DomainError, Valuation


class SamplingFailure(RuntimeError):
    """Repeated representation-set sampling failed (should not happen)."""


class ConstructionError(RuntimeError):
    """The reduction failed validation or outgrew desk scale."""


class SoundnessError(RuntimeError):
    """The true menu was eliminated; reconstruction is unsound."""


PRODUCT_CAP = 20_000_000  # largest z-product bit count we are willing to build
SAMPLE_ATTEMPTS = 64  # derived seeds tried for a representation set


def witness_bundles(menu: Menu, p_table: Sequence[Price]) -> list[int]:
    return [s for s in all_bundles(menu.m) if menu.price[s] != p_table[s]]


def most_frequent_prices(live: Sequence[Menu], m: int) -> list[Price]:
    """Per bundle, the price shared by the most live menus; ties go to the
    first price in `price_key` order (finite before INF, then by numerator:
    2 beats 3/2)."""
    table: list[Price] = []
    for s in all_bundles(m):
        counts: dict[Price, int] = {}
        for menu in live:
            counts[menu.price[s]] = counts.get(menu.price[s], 0) + 1
        top = max(counts.values())
        table.append(min((p for p, c in counts.items() if c == top), key=price_key))
    return table


def split_bundle(live: Sequence[Menu], p_table: Sequence[Price]) -> Optional[int]:
    """The first bundle on which no price has a live majority: fewer than
    half the live menus price s at p_table[s], its most frequent price."""
    return next((s for s, p in enumerate(p_table)
                 if 2 * sum(menu.price[s] == p for menu in live) < len(live)), None)


def within_log_budget(count: int, universe: int, factor: int) -> bool:
    """count <= factor * log2(universe), compared exactly."""
    if universe <= 1:
        return count == 0
    return (1 << count) <= universe ** factor


def representation_set(zprime: Sequence[Menu], zband: Sequence[Menu], z: int,
                       p_table: Sequence[Price], seed: int) -> set[int]:
    """Sampled bundle set covering every band menu with a witness while no
    candidate menu keeps more than 8 log2 |Z'| witnesses; verified and
    resampled with derived seeds until both properties hold."""
    if not zband:
        raise DomainError("the band must be nonempty")
    m = zprime[0].m
    size_zp = len(zprime)
    rate = min(1.0, 4 * log2(max(2, size_zp)) / max(1, z))
    band_witnesses = [witness_bundles(menu, p_table) for menu in zband]
    witnesses = [witness_bundles(menu, p_table) for menu in zprime]
    for attempt in range(SAMPLE_ATTEMPTS):
        rng = stream(seed, "representation", attempt)
        sample = {s for s in all_bundles(m) if rng.random() < rate}
        if (all(any(s in sample for s in w) for w in band_witnesses)
                and all(within_log_budget(sum(s in sample for s in w), size_zp, 8)
                        for w in witnesses)):
            return sample
    raise SamplingFailure(f"no representing bundle set after {SAMPLE_ATTEMPTS} attempts")


@dataclass(frozen=True)
class ProofInstance:
    instance: ZDisjointnessInstance
    blocks: tuple[tuple[int, tuple[int, ...]], ...]  # (bundle, bit indexes)
    bit_bundle: tuple[int, ...]
    strings: tuple[dict, ...]  # per party: a candidate's scaled_table -> proof string


def build_disjointness_instance(session: Session, i: int,
                                cand: Sequence[Sequence[Valuation]],
                                sample: Sequence[int], p_table: Sequence[Price],
                                zprime_size: int,
                                actual_v_minus: tuple[Valuation, ...]) -> ProofInstance:
    """One block per sampled bundle; one bit per realizable transcript of
    the price protocol (run for player i) over the candidate sets, ordered
    by the transcript's repr.  A party's bit is set when some choice of the
    remaining candidates makes that transcript happen with a price off the
    majority table: one pass over the runs ORs each off-majority run's bit
    into the string of every candidate in it."""
    strings = [dict.fromkeys([w.scaled_table for w in group], 0) for group in cand]
    bit_bundle: list[int] = []
    blocks: list[tuple[int, tuple[int, ...]]] = []
    for s in sorted(sample):
        runs = []
        for combo in product(*cand):
            pr = session.price_run(i, combo, s)
            runs.append((combo, pr.price, repr(pr.transcript_id())))
        start = len(bit_bundle)
        index = {tid: start + k for k, tid in enumerate(sorted({tid for _, _, tid in runs}))}
        bit_bundle += [s] * len(index)
        blocks.append((s, tuple(range(start, len(bit_bundle)))))
        for combo, price, tid in runs:
            if price != p_table[s]:
                b = 1 << index[tid]
                for party, w in enumerate(combo):
                    strings[party][w.scaled_table] |= b
    l = len(bit_bundle)

    allowed = tuple(tuple(table_map.values()) for table_map in strings)
    inputs = tuple(table_map[v.scaled_table] for table_map, v in zip(strings, actual_v_minus))

    exact = max_intersection(allowed, l)
    if not within_log_budget(exact, max(2, zprime_size), 8):
        raise ConstructionError(
            f"promise validation failed: {exact} intersecting bits possible, "
            f"budget 8*log2({zprime_size})"
        )
    if exact >= 2 and comb(l, exact) > PRODUCT_CAP:
        raise ConstructionError(
            f"z-product of C({l},{exact}) bits exceeds desk scale"
        )
    inst = ZDisjointnessInstance(
        n=len(cand), l=l, allowed=allowed, inputs=inputs, z=exact,
    )
    return ProofInstance(inst, tuple(blocks), tuple(bit_bundle), tuple(strings))


def consistent_rectangle(session: Session, i: int, cand: Sequence[Sequence[Valuation]],
                         s: int, tid: tuple) -> list[list[Valuation]]:
    """Each party's candidates, in order, that sit in some profile of the
    candidate rectangle whose price-protocol run for s (player i) has the
    transcript tid: one pass over the rectangle."""
    seen: list[set] = [set() for _ in cand]
    for combo in product(*cand):
        if session.price_run(i, combo, s).transcript_id() == tid:
            for party, w in enumerate(combo):
                seen[party].add(w.scaled_table)
    return [[w for w in group if w.scaled_table in keep] for group, keep in zip(cand, seen)]


@dataclass(frozen=True)
class StepRecord:
    branch: str
    bundle: Optional[int]
    live_before: int
    live_after: int
    bands: list[int]


@dataclass(frozen=True)
class CommReconstruction:
    menu: Menu
    bits: int
    price_bits: int
    disjointness_bits: int
    bookkeeping_bits: int
    steps: tuple[StepRecord, ...]
    proofs: tuple[ProofInstance, ...] = ()


def menu_catalog(session: Session, i: int) -> list[Menu]:
    """The distinct menus player i can face over the catalog, canonically
    ordered."""
    return list(session.menus(i))


def reconstruct_menu_comm(session: Session, i: int, v_minus_i: Sequence[Valuation],
                          seed: int = 0) -> CommReconstruction:
    """Find the menu presented to player i by v_minus_i among the catalog's
    menus, spending price-protocol and disjointness bits; every completed
    shrinkage step at least halves the live set."""
    actual = tuple(v_minus_i)
    live = list(session.menus(i))
    if not live:
        raise DomainError("empty menu catalog")
    truth = session.menu(i, actual)
    m = session.spec.m
    players = session.catalog.players
    cand: list[list[Valuation]] = [list(group) for group in players[:i] + players[i + 1:]]

    price_bits = 0
    dis_bits = 0
    steps: list[StepRecord] = []
    proofs: list[ProofInstance] = []
    step_budget = log2_ceil(len(live)) + 1
    step_tag_bits = log2_ceil(m + 2)

    for _step in range(step_budget):
        if len(live) <= 1:
            break
        before = len(live)
        p_table = most_frequent_prices(live, m)
        bands: list[int] = []

        branch, bundle = "direct", split_bundle(live, p_table)
        if bundle is None:
            branch = "disjointness"
            zprime = list(live)
            wcount = {menu: len(witness_bundles(menu, p_table)) for menu in live}
            t = 1 << m
            while t >= 1:
                band = [menu for menu in zprime
                        if 2 * wcount[menu] >= t and wcount[menu] <= t]
                if band:
                    bands.append(t)
                    sample = representation_set(zprime, band, t, p_table, seed)
                    proof = build_disjointness_instance(
                        session, i, cand, sample, p_table, len(zprime), actual
                    )
                    proofs.append(proof)
                    verdict, kept_strings = solve_z_with_consistency(proof.instance)
                    dis_bits += verdict.bits
                    for party in range(len(cand)):
                        keep = set(kept_strings[party])
                        cand[party] = [
                            w for w in cand[party]
                            if proof.strings[party][w.scaled_table] in keep
                        ]
                    if not verdict.disjoint:
                        bundle = proof.bit_bundle[verdict.intersecting_bit]
                        break
                    zprime = [menu for menu in zprime if menu not in band]
                t //= 2

        if bundle is not None:
            # the price protocol on the actual profile: its transcript
            # shrinks every party's candidates to the consistent rectangle
            run = session.price_run(i, actual, bundle)
            price_bits += run.bits
            cand = consistent_rectangle(session, i, cand, bundle, run.transcript_id())
            if not all(any(w.scaled_table == actual[p].scaled_table for w in cand[p])
                       for p in range(len(cand))):
                raise SoundnessError("the actual profile fell out of its own rectangle")
            live = [menu for menu in live if menu.price[bundle] == run.price]
        else:
            # no witness anywhere: the true menu is the majority table
            target = tuple(p_table)
            live = [menu for menu in live if menu.price == target]
            branch = "majority"

        steps.append(StepRecord(branch, bundle, before, len(live), bands))
        if not live:
            raise SoundnessError("the live set emptied; the true menu was lost")
        if branch != "majority" and not 2 * len(live) <= before:
            raise SoundnessError("a completed shrinkage step failed to halve the live set")

    if len(live) != 1:
        raise SoundnessError("reconstruction did not isolate a single menu")
    if live[0] != truth:
        raise SoundnessError("reconstructed menu differs from the ground truth")
    bookkeeping = step_tag_bits * len(steps)  # one step tag per step
    total = price_bits + dis_bits + bookkeeping
    return CommReconstruction(
        menu=live[0],
        bits=total,
        price_bits=price_bits,
        disjointness_bits=dis_bits,
        bookkeeping_bits=bookkeeping,
        steps=tuple(steps),
        proofs=tuple(proofs),
    )
