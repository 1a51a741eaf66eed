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

from dataclasses import dataclass, field
from itertools import product
from math import comb, log2
from typing import Optional, Sequence

from .bundles import all_bundles
from .disjointness import ZDisjointnessInstance, max_intersection, solve_z_with_consistency
from .menus import Menu
from .protocol import Session, log2_ceil
from .rational import Price, is_finite
from .rng import stream
from .valuations import DomainError, Valuation


class SamplingFailure(RuntimeError):
    """Repeated representation-set sampling failed (should not happen)."""


class ConstructionError(RuntimeError):
    """The reduction failed validation or outgrew desk scale."""


class SoundnessError(RuntimeError):
    """The true menu was eliminated; reconstruction is unsound."""


PRODUCT_CAP = 20_000_000  # largest z-product bit count we are willing to build


def price_sort_key(p: Price):
    return (0, p.numerator, p.denominator) if is_finite(p) else (1,)


def witness_bundles(menu: Menu, p_table: Sequence[Price]) -> list[int]:
    return [s for s in all_bundles(menu.m) if menu.price[s] != p_table[s]]


def most_frequent_prices(live: Sequence[Menu], m: int) -> list[Price]:
    """Per bundle, the price shared by the most live menus (ties to the
    smallest price, finite first)."""
    table: list[Price] = []
    for s in all_bundles(m):
        counts: dict[Price, int] = {}
        for menu in live:
            counts[menu.price[s]] = counts.get(menu.price[s], 0) + 1
        top = max(counts.values())
        cands = sorted((p for p, c in counts.items() if c == top), key=price_sort_key)
        table.append(cands[0])
    return table


def within_log_budget(count: int, universe: int, factor: int) -> bool:
    """count <= factor * log2(universe), compared exactly."""
    if universe <= 1:
        return count == 0
    return (1 << count) <= universe ** factor


def representation_set(zprime: Sequence[Menu], zband: Sequence[Menu], z: int,
                       p_table: Sequence[Price], seed: int,
                       attempts: int = 64) -> set[int]:
    """Sampled bundle set covering every band menu with a witness while no
    candidate menu keeps more than 8 log2 |Z'| witnesses; verified and
    resampled with derived seeds until both properties hold."""
    if not zband:
        raise DomainError("the band must be nonempty")
    m = zprime[0].m
    size_zp = len(zprime)
    rate = min(1.0, 4 * log2(max(2, size_zp)) / max(1, z))
    for attempt in range(attempts):
        rng = stream(seed, "representation", attempt)
        sample = {s for s in all_bundles(m) if rng.random() < rate}
        ok = all(any(s in sample for s in witness_bundles(menu, p_table)) for menu in zband)
        if ok:
            for menu in zprime:
                hits = sum(1 for s in witness_bundles(menu, p_table) if s in sample)
                if not within_log_budget(hits, size_zp, 8):
                    ok = False
                    break
        if ok:
            return sample
    raise SamplingFailure("no representing bundle set after 64 attempts")


@dataclass(frozen=True)
class ProofInstance:
    instance: ZDisjointnessInstance
    blocks: tuple[tuple[int, tuple[int, ...]], ...]  # (bundle, bit indexes)
    bit_bundle: tuple[int, ...]
    strings: tuple[dict, ...]  # per party: valuation table -> proof string


def build_disjointness_instance(session: Session, i: int,
                                cand: Sequence[Sequence[Valuation]],
                                sample: Sequence[int], p_table: Sequence[Price],
                                zprime_size: int,
                                actual_v_minus: tuple[Valuation, ...]) -> ProofInstance:
    """One block per sampled bundle; one bit per realizable transcript of
    the price protocol (run for player i) over the candidate sets.  A
    party's bit is set when some choice of the remaining candidates makes
    that transcript happen with a price off the majority table."""
    n_parties = len(cand)
    bundles = sorted(sample)

    all_runs: dict[int, dict[tuple, tuple]] = {}
    for s in bundles:
        per_combo = {}
        for combo in product(*cand):
            pr = session.price_run(i, combo, s)
            per_combo[tuple(v.table for v in combo)] = (pr.price, pr.transcript_id())
        all_runs[s] = per_combo

    bit_keys: list[tuple[int, tuple]] = []
    blocks: list[tuple[int, tuple[int, ...]]] = []
    for s in bundles:
        seen = {}
        for price, tid in all_runs[s].values():
            seen[repr(tid)] = tid
        start = len(bit_keys)
        for k in sorted(seen):
            bit_keys.append((s, seen[k]))
        blocks.append((s, tuple(range(start, len(bit_keys)))))
    l = len(bit_keys)

    strings: list[dict] = []
    for party in range(n_parties):
        table_map: dict = {}
        for w in cand[party]:
            mask = 0
            for k, (s, tid) in enumerate(bit_keys):
                hit = False
                for combo_key, (price, run_tid) in all_runs[s].items():
                    if combo_key[party] != w.table:
                        continue
                    if run_tid == tid and price != p_table[s]:
                        hit = True
                        break
                if hit:
                    mask |= 1 << k
            table_map[w.table] = mask
        strings.append(table_map)

    allowed = tuple(
        tuple(strings[party][w.table] for w in cand[party]) for party in range(n_parties)
    )
    inputs = tuple(
        strings[party][actual_v_minus[party].table] for party in range(n_parties)
    )

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
        n=n_parties, l=l, allowed=allowed, inputs=inputs, z=exact,
    )
    return ProofInstance(inst, tuple(blocks), tuple(s for s, _ in bit_keys),
                         tuple(strings))


@dataclass
class StepRecord:
    branch: str
    bundle: Optional[int]
    live_before: int
    live_after: int
    price_bits: int
    disjointness_bits: int
    bookkeeping_bits: int
    bands: list[int] = field(default_factory=list)


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
                          seed: int = 0,
                          precomputed: Optional[Sequence[Menu]] = None) -> CommReconstruction:
    """Find the menu presented to player i by v_minus_i among the catalog's
    menus, spending price-protocol and disjointness bits; every completed
    shrinkage step at least halves the live set."""
    actual = tuple(v_minus_i)
    live = list(precomputed) if precomputed is not None else menu_catalog(session, i)
    if not live:
        raise DomainError("empty menu catalog")
    truth = session.menu(i, actual)
    m = session.spec.m
    players = session.catalog.players
    cand: list[list[Valuation]] = [list(group) for group in players[:i] + players[i + 1:]]

    price_bits = 0
    dis_bits = 0
    bookkeeping = 0
    steps: list[StepRecord] = []
    proofs: list[ProofInstance] = []
    step_budget = log2_ceil(len(live)) + 1
    step_tag_bits = log2_ceil(m + 2)

    def check_price(s: int) -> Price:
        """Run the price protocol on the actual profile; its transcript
        shrinks every party's candidate set to the consistent rectangle."""
        nonlocal price_bits
        run = session.price_run(i, actual, s)
        tid = run.transcript_id()
        price_bits += run.bits
        for party in range(len(cand)):
            cand[party] = [
                w for w in cand[party]
                if any(session.price_run(i, combo, s).transcript_id() == tid
                       for combo in product(*cand[:party], (w,), *cand[party + 1:]))
            ]
        if not all(any(w.table == actual[p].table for w in cand[p])
                   for p in range(len(cand))):
            raise SoundnessError("the actual profile fell out of its own rectangle")
        return run.price

    for _step in range(step_budget):
        if len(live) <= 1:
            break
        bookkeeping += step_tag_bits
        before = len(live)
        p_table = most_frequent_prices(live, m)
        rec = StepRecord("", None, before, before, 0, 0, step_tag_bits)

        direct_bundle = None
        for s in all_bundles(m):
            prices_here = [menu.price[s] for menu in live]
            top = max(prices_here.count(p) for p in set(prices_here))
            if 2 * top < before:
                direct_bundle = s
                break

        if direct_bundle is not None:
            spent = price_bits
            answer = check_price(direct_bundle)
            live = [menu for menu in live if menu.price[direct_bundle] == answer]
            rec.branch = "direct"
            rec.bundle = direct_bundle
            rec.price_bits = price_bits - spent
        else:
            zprime = list(live)
            wcount = {menu.price: len(witness_bundles(menu, p_table)) for menu in live}
            found_bundle = None
            t = 1 << m
            while t >= 1:
                band = [menu for menu in zprime
                        if 2 * wcount[menu.price] >= t and wcount[menu.price] <= t]
                if band:
                    rec.bands.append(t)
                    sample = representation_set(zprime, band, t, p_table, seed)
                    proof = build_disjointness_instance(
                        session, i, cand, sample, p_table, len(zprime), actual
                    )
                    proofs.append(proof)
                    verdict, kept_strings = solve_z_with_consistency(proof.instance)
                    dis_bits += verdict.bits
                    rec.disjointness_bits += verdict.bits
                    for party in range(len(cand)):
                        keep = set(kept_strings[party])
                        cand[party] = [
                            w for w in cand[party]
                            if proof.strings[party][w.table] in keep
                        ]
                    if not verdict.disjoint:
                        found_bundle = proof.bit_bundle[verdict.intersecting_bit]
                        break
                    zprime = [menu for menu in zprime if menu not in band]
                t //= 2
            if found_bundle is not None:
                spent = price_bits
                answer = check_price(found_bundle)
                live = [menu for menu in live if menu.price[found_bundle] == answer]
                rec.branch = "disjointness"
                rec.bundle = found_bundle
                rec.price_bits = price_bits - spent
            else:
                # no witness anywhere: the true menu is the majority table
                target = tuple(p_table)
                live = [menu for menu in live if menu.price == target]
                rec.branch = "majority"

        rec.live_after = len(live)
        steps.append(rec)
        if not live:
            raise SoundnessError("the live set emptied; the true menu was lost")
        if rec.branch != "majority" and not 2 * len(live) <= before:
            raise SoundnessError("a completed shrinkage step failed to halve the live set")

    if len(live) != 1:
        raise SoundnessError("reconstruction did not isolate a single menu")
    if live[0].price != truth.price:
        raise SoundnessError("reconstructed menu differs from the ground truth")
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
