"""Acceptance battery: one test per criterion, exact-rational equality
throughout, one PASS/FAIL line each."""

import time

from taxlab import suites
from taxlab.bundles import bundles_of_size
from taxlab.protocol import Session, measure_complexities, run_mechanism
from taxlab.rng import stream
from taxlab.transforms import (build_tables, deviation_audit, is_precise,
                               reachable_menus, strictify_catalog,
                               to_dominant_run, to_simultaneous)
from taxlab.valuations import classify_valuation
from taxlab.verify import menu_price_grid, random_base_function, submodular_probe

ACCEPTANCE_BENCH = suites.STANDARD_BENCH + (
    ("value_tightness", {"c": 4, "m": 6}),
    ("demand_tightness", {"m": 6, "alpha": 2, "count": 4}),
    ("drop_tax", {"m": 6}),
)

_reports_cache = {}


def bench_reports():
    if "reports" not in _reports_cache:
        _reports_cache["reports"] = [
            (mech_id, params, *suites.bench_instance(mech_id, params))
            for mech_id, params in ACCEPTANCE_BENCH
        ]
        _reports_cache["measured"] = [
            (mech_id, params, spec, cat, measure_complexities(spec, cat))
            for mech_id, params, spec, cat in _reports_cache["reports"]
        ]
    return _reports_cache["measured"]


def emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_warmup_tightness_scaling():
    t0 = time.time()
    lines = suites.warmup_scaling_lines((1, 2, 3, 4))
    ok = all(line.passed for line in lines)
    emit("1 (warm-up tax=c, cc=c+1)", ok,
         "; ".join(line.detail for line in lines) + f"; {time.time()-t0:.2f}s")
    assert ok
    assert time.time() - t0 < 1.0


def test_criterion_02_tax_bounded_by_cc():
    t0 = time.time()
    bad = []
    for mech_id, params, spec, cat, rep in bench_reports():
        assert spec.n <= 3 and spec.m <= 6
        if not (rep.tax <= rep.cc and rep.tax <= rep.cc + 1 and rep.valid):
            bad.append(rep.mechanism)
    ok = not bad
    emit("2 (tax <= cc and tax <= cc+1)", ok,
         f"{len(ACCEPTANCE_BENCH)} mechanisms in {time.time()-t0:.1f}s"
         + (f"; failures {bad}" if bad else ""))
    assert ok
    assert time.time() - t0 < 60


def test_criterion_03_menu_verification():
    t0 = time.time()
    lines = []
    for mech_id, params in suites.STANDARD_BENCH:
        spec, cat = suites.bench_instance(mech_id, params)
        assert spec.m <= 5
        lines.append(suites.verify_menu_trials(Session(spec, cat), trials_per_class=500,
                                                seed=41))
    # probe submodularity on a dedicated random sample
    rng = stream(42, "probe-structure")
    submodular_ok = True
    for mech_id, params in (("drop_tax", {"m": 4}), ("warmup_tightness", {"c": 2})):
        spec, cat = suites.bench_instance(mech_id, params)
        rep = measure_complexities(spec, cat)
        grid = menu_price_grid([mn for ms in rep.menus for mn in ms])
        for _ in range(60):
            f = random_base_function(spec.m, spec.bound, rng, values=grid)
            for k in range(1, spec.m + 1):
                for w in grid:
                    if any(f.table[s] == w for s in bundles_of_size(spec.m, k)):
                        probe = submodular_probe(f, spec.bound, k, w)
                        if "submodular" not in classify_valuation(probe):
                            submodular_ok = False
    ok = all(line.passed for line in lines) and submodular_ok
    total = sum(int(line.detail.split()[0]) for line in lines)
    emit("3 (menu verification vs brute force)", ok,
         f"{total} verifications across {len(lines)} mechanisms, "
         f"probes submodular: {submodular_ok}; {time.time()-t0:.1f}s")
    assert ok
    assert time.time() - t0 < 120


def test_criterion_04_value_query_ladder():
    t0 = time.time()
    lines = []
    for mech_id, params in (("value_tightness", {"c": 3, "m": 3}),
                            ("value_tightness", {"c": 4, "m": 6})):
        spec, cat = suites.bench_instance(mech_id, params)
        assert spec.m <= 6
        lines.append(suites.value_reconstruction_check(Session(spec, cat)))
    budget_line = suites.useless_learner_trials(500, seed=43, m_max=8, k_max=8)
    lines.append(budget_line)
    ok = all(line.passed for line in lines)
    emit("4 (value-query ladder + learner budget)", ok,
         "; ".join(line.detail for line in lines) + f"; {time.time()-t0:.1f}s")
    assert ok
    assert time.time() - t0 < 120


def test_criterion_05_menu_complexity_bound():
    t0 = time.time()
    checked = []
    ok = True
    for mech_id, params, spec, cat, rep in bench_reports():
        if spec.mode == "value":
            ok &= rep.mc <= rep.val + 2
            checked.append(f"{rep.mechanism}: mc={rep.mc} val={rep.val}")
            c = params["c"]
            ok &= rep.val == c + 1
            ok &= rep.mc == c + 1  # the verbatim count admits the empty bundle
    emit("5 (mc <= val+2; tight case val=c+1, verbatim mc=c+1)", ok,
         "; ".join(checked) + f"; {time.time()-t0:.1f}s")
    assert ok
    assert time.time() - t0 < 30


def test_criterion_06_min_affine_characterization():
    t0 = time.time()
    lines = []
    for mech_id, params, spec, cat, rep in bench_reports():
        if spec.mode == "demand":
            assert spec.m <= 6
            lines.append(suites.min_affine_check(Session(spec, cat)))
    ok = all(line.passed for line in lines)
    emit("6 (min-affine extraction equals the menu)", ok,
         "; ".join(line.detail for line in lines) + f"; {time.time()-t0:.1f}s")
    assert ok
    assert time.time() - t0 < 60


def test_criterion_07_gadget_and_cover():
    t0 = time.time()
    gadget = suites.gadget_trials(500, seed=44, ms=(4, 6))
    cover = suites.cover_grid_check(m=6, sample_cross=500, seed=45)
    ok = gadget.passed and cover.passed
    emit("7 (hidden-bundle gadget + query coverage)", ok,
         f"{gadget.detail}; {cover.detail}; {time.time()-t0:.1f}s")
    assert ok
    assert time.time() - t0 < 120


def test_criterion_08_z_disjointness():
    t0 = time.time()
    line, c_val = suites.disjointness_trials(1000, seed=46)
    emit("8 (promise disjointness vs brute force)", line.passed,
         f"{line.detail}; {time.time()-t0:.1f}s")
    assert line.passed
    assert time.time() - t0 < 60


def test_criterion_09_menu_reconstruction():
    t0 = time.time()
    lines = []
    for mech_id, params, spec, cat, rep in bench_reports():
        assert spec.n <= 3 and spec.m <= 6
        assert all(len(group) <= 64 for group in cat.players)
        session = Session(spec, cat)
        lines.append(suites.comm_reconstruction_check(session, seed=47)[0])
        lines.append(suites.block_bound_check(session, seed=47))
    ok = all(line.passed for line in lines)
    detail = "; ".join(line.detail for line in lines if "reconstruction" in line.detail)
    emit("9 (communication menu reconstruction)", ok,
         f"{detail}; {time.time()-t0:.1f}s")
    assert ok
    assert time.time() - t0 < 300


def test_criterion_10_dominant_strategy_transform():
    t0 = time.time()
    details = []
    ok = True
    for mech_id, params in suites.TWO_PLAYER_BENCH:
        spec, cat = suites.bench_instance(mech_id, params)
        tables = build_tables(Session(spec, cat))
        for profile in cat.profiles():
            run = to_dominant_run(tables, profile, ("truthful", "truthful"))
            base = run_mechanism(spec, profile)
            if run.outcome.allocation != base.allocation or \
                    run.outcome.payments != base.payments:
                ok = False
        report = deviation_audit(tables)
        ok &= report.clean
        details.append(f"{spec.mech_id}: gap {report.max_gap}")
    emit("10 (announce-then-play wrapper + audit)", ok,
         "; ".join(details) + f"; {time.time()-t0:.1f}s")
    assert ok
    assert time.time() - t0 < 120


def test_criterion_11_simultaneous_compiler():
    t0 = time.time()
    details = []
    ok = True
    for mech_id, params in suites.TWO_PLAYER_BENCH:
        spec, cat = suites.bench_instance(mech_id, params)
        stats = {}
        scat = strictify_catalog(spec, cat, seed=48, stats=stats)
        ok &= stats["max_resamples"] <= 3
        table = to_simultaneous(spec, scat)
        ok &= is_precise(table.tables) is None
        for i in (0, 1):
            for menu in reachable_menus(table.tables, i):
                for v in scat.players[i]:
                    from taxlab.menus import profit_argmax_set
                    ok &= len(profit_argmax_set(menu, v)) == 1
        for profile in scat.profiles():
            base = run_mechanism(spec, profile)
            (s1, s2), bits = table.run(profile)
            ok &= base.allocation[0] & ~s1 == 0
            ok &= base.allocation[1] & ~s2 == 0
            ok &= bits == 2 * table.tables.tax_bits
        details.append(f"{spec.mech_id}: {2 * table.tables.tax_bits} bits")
    emit("11 (one-round compiler containments)", ok,
         "; ".join(details) + f"; {time.time()-t0:.1f}s")
    assert ok
    assert time.time() - t0 < 60


def test_criterion_12_drop_family_reductions():
    t0 = time.time()
    lines = []
    for mech_id in ("drop_tie", "drop_tax", "drop_price"):
        for m in (4, 6, 8):
            lines.append(suites.drop_reduction_trials(mech_id, m, 200, seed=49))
    ok = all(line.passed for line in lines)

    # measured confirmations of the paper-quoted figures at m=4
    by_name = {mech_id: rep for mech_id, params, spec, cat, rep in bench_reports()}
    tie_rep = by_name["drop_tie"]
    tax_rep = by_name["drop_tax"]
    price_rep = by_name["drop_price"]
    ok &= max(tie_rep.menu_counts) == 1      # a single menu each way
    ok &= tax_rep.price == 1                 # one bit prices any bundle
    ok &= max(price_rep.menu_counts) == 2    # two menus for the buyer
    ok &= price_rep.tie == 0
    emit("12 (drop-family reductions + measured figures)", ok,
         f"600 decoded strings per mechanism; menus(drop_tie)={max(tie_rep.menu_counts)}, "
         f"price(drop_tax)={tax_rep.price} bit, menus(drop_price)={max(price_rep.menu_counts)}, "
         f"tie(drop_price)={price_rep.tie}; log-based tax {tie_rep.tax}/{price_rep.tax}; "
         f"{time.time()-t0:.1f}s")
    assert ok
    assert time.time() - t0 < 60
