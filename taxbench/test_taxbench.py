"""Tests of the benchmark itself:  python3 -m pytest -q taxbench"""

from __future__ import annotations

import signal
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Point, TraceCoverageError, Tracer, read_trace  # noqa: E402


class FakeClock:
    """Advances only when the traced code says so, so wrapper bookkeeping
    takes no time and every figure is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def toy(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "calls.py").write_text(textwrap.dedent("""
        def leaf(clock):
            clock.tick(4)

        def middle(clock):
            clock.tick(1)
            leaf(clock)
            leaf(clock)
            clock.tick(2)

        def outer(clock):
            clock.tick(3)
            middle(clock)
            clock.tick(5)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "toypkg"
    for name in [n for n in sys.modules if n == "toypkg" or n.startswith("toypkg.")]:
        del sys.modules[name]


def test_self_time_is_inclusive_minus_wrapped_children(toy, tmp_path):
    clock = FakeClock()
    points = (Point("toy", "toypkg.calls", "outer"),
              Point("toy", "toypkg.calls", "middle"),
              Point("queries", "toypkg.calls", "leaf", kernel=True))
    tracer = Tracer(points, clock=clock, package=toy)
    tracer.install()
    try:
        import toypkg.calls
        toypkg.calls.outer(clock)
    finally:
        tracer.uninstall()
    got = tracer.summary()
    assert got["leaf"] == {"layer": "queries", "calls": 2, "self_s": 8.0, "incl_s": 8.0}
    assert got["middle"]["incl_s"] == 11.0
    assert got["middle"]["self_s"] == got["middle"]["incl_s"] - got["leaf"]["incl_s"] == 3.0
    assert got["outer"]["incl_s"] == 19.0
    assert got["outer"]["self_s"] == got["outer"]["incl_s"] - got["middle"]["incl_s"] == 8.0
    # two spans: middle is the child of outer and holds both leaf calls
    assert list(tracer.sp_point) == [0, 1]
    assert list(tracer.sp_parent) == [-1, 0]
    assert list(tracer.sp_self) == [8.0, 3.0]
    assert list(tracer.sp_kernels) == [0, 0, 0, 2, 0, 0]
    tracer.write(tmp_path / "trace.bin")
    header, columns = read_trace(tmp_path / "trace.bin")
    assert header["points"] == ["outer", "middle", "leaf"]
    assert header["summary"] == got
    assert columns["start"] == tracer.sp_start and columns["end"] == tracer.sp_end


def test_guard_catches_a_planted_binding():
    import taxlab.protocol
    import taxlab.suites

    original = taxlab.protocol.run_mechanism
    tracer = Tracer()
    tracer.install()  # raises if the real package has an unwrapped binding
    try:
        assert taxlab.protocol.run_mechanism is not original
        assert tracer.unwrapped_bindings() == []
        taxlab.suites.planted_run = original
        with pytest.raises(TraceCoverageError, match="taxlab.suites.planted_run"):
            tracer.check_coverage()
    finally:
        taxlab.suites.__dict__.pop("planted_run", None)
        tracer.uninstall()
    assert taxlab.protocol.run_mechanism is original


def test_wrappers_change_no_result():
    from taxlab.protocol import measure_complexities
    from taxlab.suites import bench_instance

    spec, catalog = bench_instance("drop_tax", {"m": 2})
    plain = measure_complexities(spec, catalog)
    tracer = Tracer()
    tracer.install()
    try:
        import taxlab.protocol
        traced = taxlab.protocol.measure_complexities(spec, catalog)
    finally:
        tracer.uninstall()
    assert traced == plain and traced.menus == plain.menus
    layers = tracer.summary()
    assert layers["measure_complexities"]["calls"] == 1
    assert 0 < layers["run_mechanism"]["distinct"] <= 1


GOOD = {"exit_code": 0, "checks": [["a", True], ["b", True]],
        "digests": {"stdout": "s1", "out.csv": "d1"}}


def test_wrong_reference_digest_raises_fail_ratio():
    right = run.Gate(2, {"stdout": "s1", "out.csv": "d1"})
    right.score(GOOD, "run")
    assert (right.attempted, right.failed) == (4, 0)
    wrong = run.Gate(2, {"stdout": "s1", "out.csv": "not-d1"})
    wrong.score(GOOD, "run")
    assert wrong.failed / wrong.attempted > 0
    assert wrong.problems == ["run: digest mismatch: out.csv"]


def test_later_runs_must_reproduce_the_first():
    gate = run.Gate(2, None)
    gate.score(GOOD, "first")
    gate.score(dict(GOOD, digests={"stdout": "s2", "out.csv": "d1"}), "second")
    assert (gate.attempted, gate.failed) == (6, 1)


def test_crash_and_failed_checks_count():
    attempted, failed, _ = workloads.score({"error": "boom"}, 2, {"stdout": "s1"})
    assert attempted == failed == 3
    result = dict(GOOD, exit_code=1, checks=[["a", True], ["b", False]])
    assert workloads.score(result, 2, None)[:2] == (2, 1)
    assert workloads.score(dict(GOOD, checks=[["a", True]]), 2, None)[:2] == (2, 1)


def test_parse_checks():
    text = ("measured x(c=2): tax=2 cc=3\n"
            "tax<=cc[x(c=2)]: PASS  [tax=2 cc=3]\n"
            "deviation-audit[y]: FAIL  [max gap 1]\n"
            "taxation-principle[x(c=2)]: PASS\n")
    assert workloads.parse_checks(text) == [
        ("tax<=cc[x(c=2)]", True), ("deviation-audit[y]", False),
        ("taxation-principle[x(c=2)]", True)]


def test_host_clock_scales_time_by_sampled_host_speed(monkeypatch):
    clock = hostclock.HostClock()
    clock.previous = signal.getsignal(signal.SIGALRM)
    clock.started = (0.0, 0.0)
    slow = 2 * hostclock.REFERENCE_S  # every sample ran at half the reference speed
    for at in (1.0, 2.0, 3.0, 4.0):
        clock.samples.extend((at, at, at + slow, at + slow, slow, 0.0))
    monkeypatch.setattr(hostclock.time, "perf_counter", lambda: 5.0)
    monkeypatch.setattr(hostclock.time, "process_time", lambda: 5.0)
    monkeypatch.setattr(clock, "_stolen", lambda: 0.0)
    got = clock.stop()
    assert got["raw_wall_s"] == 5.0 and got["samples"] == 4
    # handler time is left out, the rest counts at half
    assert got["wall_s"] == pytest.approx((5.0 - 4 * slow) / 2)
    assert got["cpu_s"] == pytest.approx(got["wall_s"])
    assert got["host_speed"] == pytest.approx(0.5)


def test_host_clock_leaves_out_stolen_time(monkeypatch):
    clock = hostclock.HostClock()
    clock.previous = signal.getsignal(signal.SIGALRM)
    clock.started = (0.0, 0.0)
    cost = hostclock.REFERENCE_S  # reference speed, so only the steal matters
    # the vCPU was taken away for 0.5 s of the first second: no CPU time ran
    clock.samples.extend((1.0, 0.5, 1.0 + cost, 0.5 + cost, cost, 0.5))
    monkeypatch.setattr(hostclock.time, "perf_counter", lambda: 2.0)
    monkeypatch.setattr(hostclock.time, "process_time", lambda: 1.5)
    monkeypatch.setattr(clock, "_stolen", lambda: 0.0)
    got = clock.stop()
    assert got["stolen_s"] == 0.5
    assert got["wall_s"] == pytest.approx(2.0 - cost - 0.5)
    assert got["cpu_s"] == pytest.approx(got["wall_s"])


def test_host_clock_samples_and_disarms():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock(interval=0.005)
    clock.start()
    end = hostclock.time.perf_counter() + 0.1
    while hostclock.time.perf_counter() < end:
        pass
    got = clock.stop()
    assert got["samples"] >= 3
    assert 0 < got["wall_s"] and got["raw_wall_s"] >= 0.1
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
