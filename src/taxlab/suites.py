"""Reusable experiment suites: the theorem battery and the random-instance
drivers shared by the CLI and the acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import log2
from typing import Sequence

from .bundles import all_bundles, bit, bundles_of_size
from .comm_reconstruct import (CommReconstruction, ConstructionError, ProofInstance,
                               SoundnessError, build_disjointness_instance, menu_catalog,
                               most_frequent_prices, reconstruct_menu_comm)
from .demand_menus import (QUARTER, CharacterizationViolation, brute_cover, demand_cover,
                           extract_min_affine, hidden_bump_profits, hidden_problem_valuation,
                           mt_gadget_argmax)
from .disjointness import (ZDisjointnessInstance, brute_force_verdict,
                           max_intersection, solve_z_disjointness)
from .library import (default_catalog, encode_disjointness_string, make_example,
                      single_item_valuation)
from .menus import menu_complexity
from .protocol import (ComplexityReport, MechanismSpec, Session, measure_complexities,
                       run_mechanism)
from .queries import demand_query
from .rng import below, stream
from .valuations import ValuationCatalog, random_monotone_valuation
from .value_reconstruct import (PriceOracle, learn_useless, reconstruct_menu_value,
                                useless_query_budget, useless_table)
from .verify import (CLASSES, ProbeStructureError, draw_base_function, exceeds_somewhere,
                     price_pool, probes_structural, verify_menu)

USELESS_MAX = 8  # the largest m and seed count a learner trial draws


def bench_instance(mech_id: str, params: dict) -> tuple[MechanismSpec, ValuationCatalog]:
    spec = make_example(mech_id, params)
    return spec, default_catalog(mech_id, params)


@dataclass(frozen=True)
class CheckLine:
    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"{self.name}: {status}{tail}"


def theorem_check_lines(reports: Sequence[ComplexityReport]) -> list[CheckLine]:
    """The measured-inequality battery over finished reports."""
    lines = []

    def check(name, ok, detail=""):
        lines.append(CheckLine(name, ok, detail))

    for rep in reports:
        tag = rep.mechanism
        check(f"taxation-principle[{tag}]", rep.valid, rep.witness or "")
        check(f"tax<=cc[{tag}]", rep.tax <= rep.cc, f"tax={rep.tax} cc={rep.cc}")
        check(f"tax<=cc+1[{tag}]", rep.tax <= rep.cc + 1, f"tax={rep.tax} cc={rep.cc}")
        check(
            f"(tax+price+tie)/3<=cc[{tag}]",
            rep.tax + rep.price + rep.tie <= 3 * rep.cc,
            f"tax={rep.tax} price={rep.price} tie={rep.tie} cc={rep.cc}",
        )
        if rep.val > 0 and rep.dem == 0:
            check(f"mc<=val+2[{tag}]", rep.mc <= rep.val + 2,
                  f"mc={rep.mc} val={rep.val}")
        if tag.startswith("value_tightness"):
            lines.append(CheckLine(
                f"note[{tag}]", True,
                f"verbatim in-menu count mc={rep.mc} = val={rep.val} "
                "(the empty bundle makes it one above the bundle-list size)",
            ))
    return lines


def warmup_scaling_lines(cs=(1, 2, 3, 4)) -> list[CheckLine]:
    lines = []
    for c in cs:
        spec, cat = bench_instance("warmup_tightness", {"c": c})
        rep = measure_complexities(spec, cat)
        lines.append(CheckLine(
            f"warmup-tax-cc[c={c}]",
            rep.tax == c and rep.cc == c + 1,
            f"tax={rep.tax} cc={rep.cc}",
        ))
    return lines


def verify_menu_trials(session: Session, trials_per_class: int, seed: int) -> CheckLine:
    """Random base functions per class against the brute-force predicate,
    plus the structural probe checks."""
    spec, catalog = session.spec, session.catalog
    grid = session.price_grid()
    i = spec.n - 1
    v_minus = tuple(catalog.players[j][-1] for j in range(spec.n) if j != i)
    truth = session.menu(i, v_minus)
    rng = stream(seed, "verify", spec.mech_id)
    quarters, on_grid = price_pool(spec.bound), price_pool(spec.bound, grid)
    mismatches = 0
    done = 0
    structural_ok = True  # the tables the rounds run are of their class
    for cls in CLASSES:
        pool = on_grid if cls == "submodular" else quarters
        for _ in range(trials_per_class):
            f = draw_base_function(spec.m, pool, rng)
            want = int(exceeds_somewhere(f, truth))
            try:
                got = verify_menu(session, i, v_minus, f, cls, price_grid=grid).answer
            except ProbeStructureError:  # a round refused its own probe table
                structural_ok = False
            else:
                mismatches += int(got != want)
            done += 1
    structural_ok &= probes_structural(draw_base_function(spec.m, on_grid, rng), spec.bound, grid)
    return CheckLine(
        f"verify-menu[{spec.mech_id}]",
        mismatches == 0 and structural_ok,
        f"{done} trials, {mismatches} mismatches, probes structural: {structural_ok}",
    )


def value_reconstruction_check(session: Session) -> CheckLine:
    """Exact ladder reconstruction for every profile, menu complexity as
    the promised bound, call budget enforced."""
    spec = session.spec
    errors = []
    count = 0
    for i in range(spec.n):
        for v_minus in session.others(i):
            truth = session.menu(i, v_minus)
            mc = menu_complexity(truth)[0]
            po = PriceOracle(truth)
            rec = reconstruct_menu_value(po, mc_bound=max(1, mc))
            count += 1
            if rec.menu != truth:
                errors.append(f"player {i} mismatch")
            budget = max(1, mc) * useless_query_budget(spec.m, max(1, mc)) + max(1, mc)
            if rec.oracle_calls > budget:
                errors.append(f"player {i} calls {rec.oracle_calls} > {budget}")
    return CheckLine(
        f"reconstruct-value[{spec.mech_id}]",
        not errors,
        f"{count} menus" + (f"; {errors[:2]}" if errors else ""),
    )


def useless_learner_trials(trials: int, seed: int) -> CheckLine:
    rng = stream(seed, "useless-trials")
    worst = 0.0
    bad = 0
    for _ in range(trials):
        m, k = rng.randrange(2, USELESS_MAX + 1), rng.randrange(1, USELESS_MAX + 1)
        seeds = below(rng, 1 << m, k)
        maximal = {s for s in seeds
                   if not any(s != t and s & t == s for t in seeds)}
        found, q, trace = learn_useless(useless_table(m, seeds).__getitem__, m, k)
        budget = useless_query_budget(m, k)
        worst = max(worst, q / budget)
        if found != maximal or q > budget:
            bad += 1
    return CheckLine(
        "find-useless-budget",
        bad == 0,
        f"{trials} trials, worst budget share {worst:.3f}",
    )


def min_affine_check(session: Session) -> CheckLine:
    """`extract_min_affine` for every player and profile of the others: it
    raises unless the harvested menu equals the ground truth on every
    bundle, and by construction its alpha and beta are at most the
    player's demand and value query counts in the canonical run."""
    spec = session.spec
    errors = []
    count = 0
    for i in range(spec.n):
        for v_minus in session.others(i):
            try:
                extract_min_affine(session, i, v_minus)
            except CharacterizationViolation as exc:
                errors.append(f"player {i}: {exc}")
            count += 1
    return CheckLine(
        f"min-affine[{spec.mech_id}]",
        not errors,
        f"{count} menus" + (f"; {errors[:2]}" if errors else ""),
    )


def gadget_trials(trials: int, seed: int, ms=(4, 6)) -> CheckLine:
    rng = stream(seed, "gadget-trials")
    bad = 0
    for m in ms:
        sized = bundles_of_size(m, m // 2)
        for _ in range(trials):
            t_mask = sized[rng.randrange(len(sized))]
            v = random_monotone_valuation(m, rng)
            hidden = hidden_problem_valuation(m, t_mask)
            got = mt_gadget_argmax(m, lambda prices: demand_query(v, prices),
                                   lambda s: hidden.value(s) == QUARTER)
            e, profits = hidden_bump_profits(v, t_mask)
            best = max(profits)
            if (got.profit != Fraction(best, e) or profits[got.bundle] != best
                    or got.demand_queries > m + 2):
                bad += 1
    return CheckLine("mt-gadget-argmax", bad == 0,
                     f"{trials} trials per m in {ms}, {bad} failures")


COVER_DEN = 8  # the cover grid's prices 0, 1/8, 1/4, 1/2 and 1, as ints over 8


def cover_grid(m: int) -> list[tuple[int, ...]]:
    """Every price vector over 0, 1/8, 1/4, 1/2 and 1, as int tuples over
    COVER_DEN, item 0 varying fastest."""
    return [c[::-1] for c in product((0, 1, 2, 4, 8), repeat=m)]


def cover_grid_check(m: int = 6, sample_cross: int = 500, seed: int = 0) -> CheckLine:
    """demand_cover stays a singleton-or-empty on the full price grid; a
    seeded subsample is cross-checked against brute-force coverage."""
    grid = cover_grid(m)
    over = 0
    for ints in grid:
        if len(demand_cover((COVER_DEN, ints), m)) > 1:
            over += 1
    rng = stream(seed, "cover-cross")
    mismatch = 0
    for q in below(rng, len(grid), sample_cross):
        scaled = COVER_DEN, grid[q]
        brute = brute_cover(scaled, m)
        if demand_cover(scaled, m) != brute or len(brute) > 1:
            mismatch += 1
    return CheckLine(
        "demand-cover-grid",
        over == 0 and mismatch == 0,
        f"{len(grid)} grid vectors, {sample_cross} cross-checked",
    )


def random_promise_instance(rng, n_max=4, l_max=16, z_max=3) -> ZDisjointnessInstance:
    n = rng.randrange(2, n_max + 1)
    l = rng.randrange(4, l_max + 1)
    z = rng.randrange(1, z_max + 1)
    w_bits = rng.sample(range(l), min(z, l))
    free = [b for b in range(l) if b not in w_bits]
    blockers = dict(zip(free, below(rng, n, len(free))))
    allowed = []
    for i in range(n):
        blocked = 0
        for b, owner in blockers.items():
            if owner == i:
                blocked |= 1 << b
        strings = {rng.getrandbits(l) & ~blocked for _ in range(rng.randrange(1, 7))}
        allowed.append(tuple(sorted(strings)))
    inputs = tuple(group[rng.randrange(len(group))] for group in allowed)
    return ZDisjointnessInstance(n, l, tuple(allowed), inputs, z)


def disjointness_trials(trials: int, seed: int) -> tuple[CheckLine, float]:
    rng = stream(seed, "disjointness-trials")
    bad = 0
    worst_c = 0.0
    for _ in range(trials):
        inst = random_promise_instance(rng)
        got = solve_z_disjointness(inst)
        want = brute_force_verdict(inst)
        if (got.intersecting_bit is None) != (want is None):
            bad += 1
            continue
        if got.intersecting_bit is not None:
            common = inst.inputs[0]
            for a in inst.inputs:
                common &= a
            if not common >> got.intersecting_bit & 1:
                bad += 1
                continue
        envelope = inst.z ** 2 * inst.n ** 2 * max(1.0, log2(inst.l))
        worst_c = max(worst_c, got.bits / envelope)
    line = CheckLine(
        "z-disjointness-random", bad == 0,
        f"{trials} instances, empirical C={worst_c:.2f}",
    )
    return line, worst_c


def blocks_with_two_intersecting_bits(proof: ProofInstance) -> list[int]:
    """The bundles of a disjointness proof whose bit block, with every
    allowed string restricted to it, still holds two intersecting bits."""
    bad = []
    for s, bit_range in proof.blocks:
        mask = sum(1 << k for k in bit_range)
        restricted = [tuple(a & mask for a in strings) for strings in proof.instance.allowed]
        if max_intersection(restricted, proof.instance.l) > 1:
            bad.append(s)
    return bad


def comm_reconstruction_check(session: Session, seed: int
                              ) -> tuple[CheckLine, list[tuple[int, int, CommReconstruction]]]:
    """Reconstruction for every profile and player: `reconstruct_menu_comm`
    raises unless it isolates the true menu with every completed step
    halving the live set.  The step bound and the one-intersecting-bit-per-
    block claim are checked on the instances built along the way.  Also
    returns each reconstruction as (player, size of the player's menu
    catalog, result)."""
    spec = session.spec
    errors = []
    done = []
    blocks_checked = 0
    for i in range(spec.n):
        pre = menu_catalog(session, i)
        for v_minus in session.others(i):
            try:
                rec = reconstruct_menu_comm(session, i, v_minus, seed=seed)
            except SoundnessError as exc:
                errors.append(f"player {i}: {exc}")
                continue
            done.append((i, len(pre), rec))
            if len(rec.steps) > max(1, (len(pre) - 1).bit_length()):
                errors.append(f"player {i}: {len(rec.steps)} steps for {len(pre)} menus")
            for proof in rec.proofs:
                blocks_checked += len(proof.blocks)
                errors += [f"block {s} holds two intersecting bits"
                           for s in blocks_with_two_intersecting_bits(proof)]
    line = CheckLine(
        f"reconstruct-comm[{spec.mech_id}]",
        not errors,
        f"{len(done)} reconstructions, {blocks_checked} blocks"
        + (f"; {errors[:2]}" if errors else ""),
    )
    return line, done


def block_bound_check(session: Session) -> CheckLine:
    """Every block of every instance built over the full catalogs carries
    at most one intersecting bit (checked by the exact DP per block)."""
    spec, players = session.spec, session.catalog.players
    bad = 0
    built = 0
    for i in range(spec.n):
        pre = menu_catalog(session, i)
        if len(pre) < 2:
            continue
        cand = players[:i] + players[i + 1:]
        p_table = most_frequent_prices(pre, spec.m)
        sample = sorted(set(
            s for menu in pre for s in all_bundles(spec.m)
            if menu.price[s] != p_table[s]
        )) or [0]
        actual = tuple(group[0] for group in cand)
        try:
            proof = build_disjointness_instance(
                session, i, cand, sample, p_table, len(pre), actual
            )
        except ConstructionError:
            continue
        built += 1
        bad += len(blocks_with_two_intersecting_bits(proof))
    return CheckLine(
        f"block-bound[{spec.mech_id}]", bad == 0,
        f"{built} instances checked",
    )


def drop_reduction_trials(mech_id: str, m: int, trials: int, seed: int) -> CheckLine:
    """Random disjointness strings decode correctly through the drop-family
    mechanisms."""
    width = len(bundles_of_size(m, m // 2))
    spec = make_example(mech_id, {"m": m})
    rng = stream(seed, "drop", mech_id, m)
    bad = 0
    for _ in range(trials):
        x = "".join(rng.choice("01") for _ in range(width))
        if mech_id == "drop_tie":
            # promise pairs: never both-zero, so equality means intersection
            y = "".join("1" if xc == "0" else rng.choice("01") for xc in x)
        else:
            y = "".join(rng.choice("01") for _ in range(width))
        intersects = any(a == "1" and b == "1" for a, b in zip(x, y))
        profile = (encode_disjointness_string(m, x),
                   encode_disjointness_string(m, y, high=2 if mech_id == "drop_tax" else 1))
        if mech_id == "drop_price":
            profile += (single_item_valuation(m, 0, Fraction(3, 2)),)
        won = run_mechanism(spec, profile).allocation[-1]
        bad += (won != 0 if mech_id == "drop_tax" else won == bit(0)) != intersects
    return CheckLine(
        f"drop-reduction[{mech_id},m={m}]", bad == 0,
        f"{trials} strings",
    )
