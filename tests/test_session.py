"""The memoized oracle layer and the deviation audit built on it, each
checked against the direct computation it replaces."""

from fractions import Fraction

from hypothesis import given, note, settings
from hypothesis import strategies as st

from taxlab import suites
from taxlab.protocol import (MechanismSpec, Session, extract_menu, measure_complexities,
                             price_run, run_mechanism)
from taxlab.rational import is_finite
from taxlab.transforms import (AuditReport, AuditRow, _Outcomes, _seated, build_tables,
                               deviation_family, deviation_audit, to_dominant_run)
from taxlab.valuations import DomainError, Valuation, ValuationCatalog, additive_valuation

_sessions: dict[int, Session] = {}


def bench_session(k: int) -> Session:
    if k not in _sessions:
        _sessions[k] = Session(*suites.bench_instance(*suites.STANDARD_BENCH[k]))
    return _sessions[k]


@st.composite
def oracle_questions(draw):
    session = bench_session(draw(st.integers(0, len(suites.STANDARD_BENCH) - 1)))
    profile = tuple(draw(st.sampled_from(group)) for group in session.catalog.players)
    i = draw(st.integers(0, session.spec.n - 1))
    s = draw(st.integers(0, (1 << session.spec.m) - 1))
    return session, profile, i, s


@settings(max_examples=60, deadline=None)
@given(oracle_questions())
def test_session_oracles_match_direct_calls(question):
    session, profile, i, s = question
    spec = session.spec
    v_minus = profile[:i] + profile[i + 1:]
    for _ in range(2):  # a miss, then a hit
        assert session.run(profile) == run_mechanism(spec, profile)
        assert session.menu(i, v_minus) == extract_menu(spec, i, v_minus)
        assert session.price_run(i, v_minus, s) == price_run(spec, i, v_minus, s)


def test_session_memoizes_by_content():
    session = Session(*suites.bench_instance("drop_tax", {"m": 4}))
    profile = tuple(group[1] for group in session.catalog.players)
    assert session.run(profile) is session.run(list(profile))
    assert session.menu(1, profile[:1]) is session.menu(1, profile[:1])
    assert session.price_run(1, profile[:1], 3) is session.price_run(1, profile[:1], 3)
    # an equal valuation that is another object is a hit on every memo
    twin = Valuation(profile[0].m, profile[0].table)
    assert twin is not profile[0]
    assert session.run((twin, profile[1])) is session.run(profile)
    assert session.menu(1, (twin,)) is session.menu(1, profile[:1])
    assert session.price_run(1, (twin,), 3) is session.price_run(1, profile[:1], 3)
    probe = additive_valuation([1, 0, 2, 0])
    first = session.probe_run(1, profile[:1], probe.scaled_table)
    assert session.probe_run(1, (twin,), additive_valuation([1, 0, 2, 0]).scaled_table) is first
    # a different table is a different key
    alice = session.catalog.players[0]
    assert session.run((alice[0], profile[1])) is not session.run((alice[2], profile[1]))


def test_report_is_measure_complexities_once():
    spec, catalog = suites.bench_instance("warmup_tightness", {"c": 2})
    session = Session(spec, catalog)
    first = session.report()
    assert first is session.report()
    plain = measure_complexities(spec, catalog)
    assert first == plain and first.menus == plain.menus
    assert list(session.menus(1)) == list(plain.menus[1])


def utility(v, allocation, payment):
    if not is_finite(payment):
        raise DomainError("infinite payment cannot enter a utility")
    return v.value(allocation) - payment


def reference_deviation_audit(tables, keep_rows=False) -> AuditReport:
    """The audit as a plain loop over (player, valuation, opponent,
    deviation), one wrapper run per comparison."""
    rows = []
    max_gap = None
    worst = None
    placeholder = {i: tables.catalog.players[i][0] for i in (0, 1)}
    for i in (0, 1):
        other = 1 - i
        my_devs = deviation_family(tables, i)
        opponents = [
            (f"truthful:{k}", "truthful", w)
            for k, w in enumerate(tables.catalog.players[other])
        ] + [
            (f"dev:{k}", dev, placeholder[other])
            for k, dev in enumerate(deviation_family(tables, other))
        ]
        for vi_idx, v_i in enumerate(tables.catalog.players[i]):
            for opp_label, opp_strategy, opp_valuation in opponents:
                profile = [None, None]
                profile[i] = v_i
                profile[other] = opp_valuation
                strategies = [None, None]
                strategies[other] = opp_strategy
                strategies[i] = "truthful"
                base = to_dominant_run(tables, tuple(profile), tuple(strategies))
                u_truth = utility(v_i, base.outcome.allocation[i], base.outcome.payments[i])
                for dev_idx, dev in enumerate(my_devs):
                    strategies[i] = dev
                    alt = to_dominant_run(tables, tuple(profile), tuple(strategies))
                    u_dev = utility(v_i, alt.outcome.allocation[i], alt.outcome.payments[i])
                    row = AuditRow(i, vi_idx, opp_label, dev_idx, u_truth, u_dev)
                    if keep_rows or row.gap > 0:
                        rows.append(row)
                    if max_gap is None or row.gap > max_gap:
                        max_gap = row.gap
                        worst = row
    return AuditReport(tuple(rows), max_gap if max_gap is not None else Fraction(0), worst)


def test_deviation_audit_matches_reference_loop():
    for mech_id, params in suites.TWO_PLAYER_BENCH:
        tables = build_tables(Session(*suites.bench_instance(mech_id, params)))
        got = deviation_audit(tables, keep_rows=True)
        want = reference_deviation_audit(tables, keep_rows=True)
        assert got.rows == want.rows, mech_id
        assert got.max_gap == want.max_gap and got.worst == want.worst, mech_id
        assert deviation_audit(tables) == reference_deviation_audit(tables)


def planted_tables():
    """Tables over a mechanism that is not truthful, so the audit finds
    gains.  Player 0's win and payment are looked up from their own report,
    and every truthful transcript is the same four empty-bundle
    announcements, so a misreport with the empty bundle plays the inner
    mechanism as that report.  For `victim` (truthful utility 1), reporting
    `cheap` or `twin` gives one outcome and reporting `bold` another, all
    worth 2: two deviations share the best outcome, and two distinct
    outcomes tie on the largest gap."""
    victim = additive_valuation([3, 1])
    cheap = additive_valuation([2, 1])
    bold = additive_valuation([1, 1])
    twin = additive_valuation([2, 0])
    looked_up = {victim.table: (0b11, Fraction(3)), cheap.table: (0b01, Fraction(1)),
                 bold.table: (0b11, Fraction(2)), twin.table: (0b01, Fraction(1))}

    def program(profile, rec):
        won, paid = looked_up.get(profile[0].table, (0, Fraction(0)))
        return (won, 0), (paid, Fraction(0))

    spec = MechanismSpec("planted", 2, 2, Fraction(4), "bit", program)
    catalog = ValuationCatalog(((victim, cheap, bold, twin), (additive_valuation([1, 1]),)))
    return build_tables(Session(spec, catalog))


def test_planted_gaps_expand_rows_and_pick_the_first_best_deviation():
    tables = planted_tables()
    for keep_rows in (False, True):
        got = deviation_audit(tables, keep_rows)
        want = reference_deviation_audit(tables, keep_rows)
        assert got.rows == want.rows
        assert got.max_gap == want.max_gap and got.worst == want.worst
    report = deviation_audit(tables)
    # deviations 1 (cheap) and 3 (twin) share the best outcome; 2 (bold)
    # ties it from a distinct outcome; the first of them is the worst row
    assert report.worst == AuditRow(0, 0, "truthful:0", 1, Fraction(1), Fraction(2))
    best = [(row.opponent, row.deviation) for row in report.rows
            if row.valuation == 0 and row.gap == report.max_gap]
    assert best[:3] == [("truthful:0", 1), ("truthful:0", 2), ("truthful:0", 3)]


_m6_tables: dict = {}


def m6_tables(mech_id):
    if mech_id not in _m6_tables:
        _m6_tables[mech_id] = build_tables(Session(*suites.bench_instance(mech_id, {"m": 6})))
    return _m6_tables[mech_id]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["drop_tax", "mt_gadget"]), st.integers(0, 1), st.booleans(), st.data())
def test_grouped_outcomes_match_wrapper_runs_at_m6(mech_id, i, consistent, data):
    """The audit's outcome for a sampled (player, opponent, deviation) is
    the wrapper run's, both where the four announcements settle it and
    where the deviation stays consistent to the end.  A truthful opponent
    always admits the latter: misreport a type with its menu and bundle."""
    tables = m6_tables(mech_id)
    theirs = tables.catalog.players[1 - i]
    opponents = [("truthful", w) for w in theirs]
    if not consistent:
        opponents += [(dev, theirs[0]) for dev in deviation_family(tables, 1 - i)]
    strategy, w = data.draw(st.sampled_from(opponents))
    side = _Outcomes(tables, i)
    truthful, layout, first = side.against(strategy, w)
    valuations = tables.catalog.players[i]
    n = len(valuations)
    devs = deviation_family(tables, i)

    def direct(profile, strategies):
        run = to_dominant_run(tables, profile, strategies).outcome
        return run, (run.allocation[i], run.payments[i])

    for vi, v in enumerate(valuations):
        _, want = direct(_seated(i, v, w), _seated(i, "truthful", strategy))
        assert side.outcomes[truthful[vi]] == want
    if consistent:
        played = [d for d in range(len(devs)) if isinstance(layout[d // n], list)]
        candidates = [d for d in played if direct(_seated(i, valuations[0], w),
                                                  _seated(i, devs[d], strategy))[0].inconsistent
                      is None]
    else:
        candidates = [d for d in range(len(devs)) if not isinstance(layout[d // n], list)]
    dev = data.draw(st.sampled_from(candidates))
    note(f"deviation {dev}: {devs[dev]}")
    entry = layout[dev // n]
    oid = entry[dev % n] if isinstance(entry, list) else entry
    run, want = direct(_seated(i, valuations[0], w), _seated(i, devs[dev], strategy))
    assert side.outcomes[oid] == want
    assert (run.inconsistent is None) == consistent
    assert first[oid] <= dev
