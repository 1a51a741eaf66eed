"""The memoized oracle layer and the deviation audit built on it, each
checked against the direct computation it replaces."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab import suites
from taxlab.protocol import (Session, extract_menu, measure_complexities, price_run,
                             run_mechanism)
from taxlab.transforms import (AuditReport, AuditRow, build_tables, deviation_family,
                               deviation_audit, to_dominant_run, utility)
from taxlab.valuations import Valuation

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


def test_session_memoizes_by_identity():
    session = Session(*suites.bench_instance("drop_tax", {"m": 4}))
    profile = tuple(group[1] for group in session.catalog.players)
    assert session.run(profile) is session.run(list(profile))
    assert session.menu(1, profile[:1]) is session.menu(1, profile[:1])
    assert session.price_run(1, profile[:1], 3) is session.price_run(1, profile[:1], 3)
    # an equal valuation that is another object is a miss with the same answer
    twin = (Valuation(profile[0].m, profile[0].table), profile[1])
    assert session.run(twin) is not session.run(profile)
    assert session.run(twin) == session.run(profile)


def test_report_is_measure_complexities_once():
    spec, catalog = suites.bench_instance("warmup_tightness", {"c": 2})
    session = Session(spec, catalog)
    first = session.report()
    assert first is session.report()
    plain = measure_complexities(spec, catalog)
    assert first == plain and first.menus == plain.menus
    assert list(session.menus(1)) == list(plain.menus[1])


def reference_deviation_audit(tables, keep_rows=False) -> AuditReport:
    """The audit as a plain loop over (player, valuation, opponent,
    deviation), one wrapper run per comparison."""
    from taxlab.transforms import _truthful_transcript_table

    ttable = _truthful_transcript_table(tables)
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
                base = to_dominant_run(tables, tuple(profile), tuple(strategies), ttable)
                u_truth = utility(v_i, base.outcome.allocation[i], base.outcome.payments[i])
                for dev_idx, dev in enumerate(my_devs):
                    strategies[i] = dev
                    alt = to_dominant_run(tables, tuple(profile), tuple(strategies), ttable)
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
