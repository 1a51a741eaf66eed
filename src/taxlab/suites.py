"""Reusable experiment suites: the benchmark mechanism set, the theorem
battery, and the random-instance drivers shared by the CLI and the
acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log2
from typing import Optional, Sequence

from .bundles import all_bundles, bit, bundles_of_size
from .comm_reconstruct import (CommReconstruction, build_disjointness_instance,
                               menu_catalog, reconstruct_menu_comm)
from .demand_menus import (covers, demand_cover, extract_min_affine,
                           hidden_bump_price, hidden_problem_valuation,
                           mt_gadget_argmax)
from .disjointness import (ZDisjointnessInstance, brute_force_verdict,
                           solve_z_disjointness)
from .library import (default_catalog, drop_price, drop_tax, drop_tie,
                      encode_disjointness_string, half_size_bundles,
                      make_example, single_item_valuation)
from .protocol import (ComplexityReport, MechanismSpec, Session, insert_player,
                       measure_complexities, run_mechanism)
from .queries import demand_query
from .rational import is_finite
from .rng import stream
from .valuations import ValuationCatalog, classify_valuation, random_monotone_valuation
from .value_reconstruct import (PriceOracle, learn_useless,
                                reconstruct_menu_value, useless_query_budget)
from .verify import (exceeds_somewhere, menu_price_grid, random_base_function,
                     verify_menu)

STANDARD_BENCH: tuple[tuple[str, dict], ...] = (
    ("warmup_tightness", {"c": 2}),
    ("value_tightness", {"c": 3, "m": 3}),
    ("demand_tightness", {"m": 4, "alpha": 2, "count": 4}),
    ("mt_gadget", {"m": 4}),
    ("drop_tie", {"m": 4}),
    ("drop_tax", {"m": 4}),
    ("drop_price", {"m": 4}),
    ("posted_prices", {"prices": ["1", "1", "2"], "n": 2}),
    ("posted_prices", {"prices": ["1", "1", "2"], "n": 3}),
)

TWO_PLAYER_BENCH: tuple[tuple[str, dict], ...] = (
    ("warmup_tightness", {"c": 2, "m": 2}),
    ("value_tightness", {"c": 2, "m": 2}),
    ("demand_tightness", {"m": 2, "alpha": 2, "count": 4}),
    ("mt_gadget", {"m": 2}),
    ("drop_tie", {"m": 2}),
    ("drop_tax", {"m": 2}),
    ("posted_prices", {"prices": ["1", "2"], "n": 2}),
)


def bench_instance(mech_id: str, params: dict) -> tuple[MechanismSpec, ValuationCatalog]:
    spec = make_example(mech_id, params)
    return spec, default_catalog(mech_id, spec, params)


@dataclass(frozen=True)
class CheckLine:
    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"{self.name}: {status}{tail}"


def theorem_check_lines(reports: Sequence[ComplexityReport],
                        specs: Optional[Sequence[MechanismSpec]] = None) -> list[CheckLine]:
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
    grid = menu_price_grid([mn for ms in session.report().menus for mn in ms])
    i = spec.n - 1
    v_minus = tuple(catalog.players[j][-1] for j in range(spec.n) if j != i)
    truth = session.menu(i, v_minus)
    rng = stream(seed, "verify", spec.mech_id)
    from .verify import submodular_probe, xos_probe
    mismatches = 0
    done = 0
    for cls in ("general", "subadditive", "xos", "submodular"):
        for _ in range(trials_per_class):
            values = grid if cls == "submodular" else None
            f = random_base_function(spec.m, spec.bound, rng, values=values)
            want = int(exceeds_somewhere(f, truth))
            got = verify_menu(spec, i, v_minus, f, cls, price_grid=grid,
                              check_probes=True).answer
            mismatches += int(got != want)
            done += 1
    # structural: submodular probes are submodular, xos probes carry clauses
    f = random_base_function(spec.m, spec.bound, rng, values=grid)
    structural_ok = True
    for k in range(1, spec.m + 1):
        for w in grid[:3]:
            if any(f.table[s] == w for s in bundles_of_size(spec.m, k)):
                probe = submodular_probe(f, spec.bound, k, w)
                flags = classify_valuation(probe)
                structural_ok &= "submodular" in flags
        probe = xos_probe(f, spec.bound, k)
        structural_ok &= "xos" in classify_valuation(probe)
    return CheckLine(
        f"verify-menu[{spec.mech_id}]",
        mismatches == 0 and structural_ok,
        f"{done} trials, {mismatches} mismatches, probes structural: {structural_ok}",
    )


def value_reconstruction_check(session: Session) -> CheckLine:
    """Exact ladder reconstruction for every profile, menu complexity as
    the promised bound, call budget enforced."""
    from .menus import menu_complexity
    spec = session.spec
    errors = []
    count = 0
    for i in range(spec.n):
        for v_minus in session.others(i):
            truth = session.menu(i, v_minus)
            mc = menu_complexity(truth)[0]
            po = PriceOracle(truth, cost_per_call=spec.price_query_cost)
            rec = reconstruct_menu_value(po, mc_bound=max(1, mc))
            count += 1
            if rec.menu.price != truth.price:
                errors.append(f"player {i} mismatch")
            budget = max(1, mc) * useless_query_budget(spec.m, max(1, mc)) + max(1, mc)
            if rec.oracle_calls > budget:
                errors.append(f"player {i} calls {rec.oracle_calls} > {budget}")
    return CheckLine(
        f"reconstruct-value[{spec.mech_id}]",
        not errors,
        f"{count} menus" + (f"; {errors[:2]}" if errors else ""),
    )


def useless_learner_trials(trials: int, seed: int, m_max: int = 8, k_max: int = 8) -> CheckLine:
    rng = stream(seed, "useless-trials")
    worst = 0.0
    bad = 0
    for _ in range(trials):
        m = rng.randrange(2, m_max + 1)
        k = rng.randrange(1, k_max + 1)
        seeds = [rng.randrange(1 << m) for _ in range(k)]
        zeros = {s for s in all_bundles(m) if any(s & t == s for t in seeds)}
        maximal = {s for s in seeds
                   if not any(s != t and s & t == s for t in seeds)}
        found, q, trace = learn_useless(lambda s: 0 if s in zeros else 1, m, k)
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
    """Extraction evaluates to the ground truth everywhere with alpha/beta
    within the canonical run's per-player query counts."""
    from .demand_menus import canonical_valuation
    spec = session.spec
    errors = []
    count = 0
    for i in range(spec.n):
        for v_minus in session.others(i):
            truth = session.menu(i, v_minus)
            ma = extract_min_affine(spec, i, v_minus, truth)  # raises on mismatch
            canon = canonical_valuation(truth, spec.bound)
            res = run_mechanism(spec, insert_player(v_minus, i, canon))
            if ma.alpha > res.qlog.demand_counts[i] or ma.beta > res.qlog.value_counts[i]:
                errors.append(f"player {i}: alpha/beta exceed the trace")
            # at-most/exactly lemmas on the harvested pieces
            for s in all_bundles(spec.m):
                price = truth.price[s]
                if not is_finite(price) or s in dict(ma.exceptions):
                    continue
                terms = []
                for vec, r in zip(ma.vectors, ma.offsets):
                    from .queries import bundle_price
                    t = bundle_price(vec, s)
                    if is_finite(t):
                        terms.append(t + r)
                if any(price > t for t in terms):
                    errors.append(f"at-most fails at {s}")
                if s and not any(price == t for t in terms):
                    errors.append(f"exactly fails at {s}")
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
            got = mt_gadget_argmax(
                m,
                lambda prices: demand_query(v, prices),
                lambda s: hidden_problem_valuation(m, t_mask).value(s) == Fraction(1, 4),
            )
            brute = max(v.value(s) - hidden_bump_price(s, t_mask) for s in all_bundles(m))
            achieved = v.value(got.bundle) - hidden_bump_price(got.bundle, t_mask)
            if got.profit != brute or achieved != brute or got.demand_queries > m + 2:
                bad += 1
    return CheckLine("mt-gadget-argmax", bad == 0,
                     f"{trials} trials per m in {ms}, {bad} failures")


def cover_grid_check(m: int = 6, sample_cross: int = 500, seed: int = 0) -> CheckLine:
    """demand_cover stays a singleton-or-empty on the full price grid; a
    seeded subsample is cross-checked against brute-force coverage."""
    values = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    grid = []
    idx = [0] * m
    while True:
        grid.append(tuple(values[i] for i in idx))
        j = 0
        while j < m:
            idx[j] += 1
            if idx[j] < len(values):
                break
            idx[j] = 0
            j += 1
        if j == m:
            break
    over = 0
    for prices in grid:
        if len(demand_cover(prices, m)) > 1:
            over += 1
    rng = stream(seed, "cover-cross")
    mismatch = 0
    targets = bundles_of_size(m, m // 2)
    for _ in range(sample_cross):
        prices = grid[rng.randrange(len(grid))]
        brute = {t for t in targets if covers(prices, t, m)}
        if demand_cover(prices, m) != brute or len(brute) > 1:
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
    blockers = {b: rng.randrange(n) for b in range(l) if b not in w_bits}
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


def comm_reconstruction_check(session: Session, seed: int
                              ) -> tuple[CheckLine, list[tuple[int, int, CommReconstruction]]]:
    """Exact reconstruction for every profile and player; halving and the
    one-intersecting-bit-per-block claim checked on the instances actually
    built along the way.  Also returns each reconstruction as (player,
    size of the player's menu catalog, result)."""
    from .disjointness import max_intersection
    spec = session.spec
    errors = []
    done = []
    blocks_checked = 0
    for i in range(spec.n):
        pre = menu_catalog(session, i)
        for v_minus in session.others(i):
            truth = session.menu(i, v_minus)
            rec = reconstruct_menu_comm(session, i, v_minus, seed=seed, precomputed=pre)
            done.append((i, len(pre), rec))
            if rec.menu.price != truth.price:
                errors.append(f"player {i} wrong menu")
            if len(rec.steps) > max(1, (len(pre) - 1).bit_length()):
                errors.append(f"player {i}: {len(rec.steps)} steps for {len(pre)} menus")
            for st in rec.steps:
                if st.branch != "majority" and 2 * st.live_after > st.live_before:
                    errors.append("halving failed")
            for proof in rec.proofs:
                for s, bit_range in proof.blocks:
                    mask = 0
                    for k in bit_range:
                        mask |= 1 << k
                    restricted = [
                        tuple(a & mask for a in strings)
                        for strings in proof.instance.allowed
                    ]
                    blocks_checked += 1
                    if max_intersection(restricted, proof.instance.l) > 1:
                        errors.append(f"block {s} holds two intersecting bits")
    line = CheckLine(
        f"reconstruct-comm[{spec.mech_id}]",
        not errors,
        f"{len(done)} reconstructions, {blocks_checked} blocks"
        + (f"; {errors[:2]}" if errors else ""),
    )
    return line, done


def block_bound_check(session: Session, seed: int) -> CheckLine:
    """Every block of every instance built over the full catalogs carries
    at most one intersecting bit (checked by the exact DP per block)."""
    from .comm_reconstruct import most_frequent_prices
    from .disjointness import max_intersection
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
        except Exception:
            continue
        built += 1
        for s, bit_range in proof.blocks:
            block_mask = 0
            for k in bit_range:
                block_mask |= 1 << k
            restricted = [
                tuple(a & block_mask for a in strings)
                for strings in proof.instance.allowed
            ]
            if max_intersection(restricted, proof.instance.l) > 1:
                bad += 1
    return CheckLine(
        f"block-bound[{spec.mech_id}]", bad == 0,
        f"{built} instances checked",
    )


def drop_reduction_trials(mech_id: str, m: int, trials: int, seed: int) -> CheckLine:
    """Random disjointness strings decode correctly through the drop-family
    mechanisms."""
    sized = half_size_bundles(m)
    width = len(sized)
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
        if mech_id == "drop_tie":
            spec = drop_tie(m)
            profile = (encode_disjointness_string(m, x),
                       encode_disjointness_string(m, y))
            res = run_mechanism(spec, profile)
            decoded = res.allocation[1] == bit(0)
        elif mech_id == "drop_tax":
            spec = drop_tax(m)
            profile = (encode_disjointness_string(m, x),
                       encode_disjointness_string(m, y, high=Fraction(2)))
            res = run_mechanism(spec, profile)
            decoded = res.allocation[1] != 0
        else:
            spec = drop_price(m)
            profile = (encode_disjointness_string(m, x),
                       encode_disjointness_string(m, y),
                       single_item_valuation(m, 0, Fraction(3, 2)))
            res = run_mechanism(spec, profile)
            decoded = res.allocation[2] == bit(0)
        if decoded != intersects:
            bad += 1
    return CheckLine(
        f"drop-reduction[{mech_id},m={m}]", bad == 0,
        f"{trials} strings",
    )
