"""taxlab benchmark: run one workload and print its metrics.

    python3 taxbench/run.py --workload sweep|audit|trials --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory.  Every
workload run happens single-threaded in a fresh interpreter
(`worker.py`), one at a time.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json: it
times set-up alone a few times, then repeats the workload while another
repetition still fits in S seconds (at least once), and reports medians.
Times are normalised to host speed by samples the worker takes while it
runs (`hostclock.py`); the raw medians are printed alongside.  The
sampler also runs under the tracer, so span times include its share
(about 1.5%).
--trace 1 runs the workload once untraced and once under the layer tracer
and reports the per-layer metrics; `trace.overhead` is the ratio of the
two wall times, and the spans go to .taxbench/trace-<workload>-s<seed>.bin.

Every run is gated on its outputs (see `workloads.score`): failed
operations are counted, listed on stderr, and make the exit code 1.  The
last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5  # set-up-only spawns per untraced run, besides each repetition's own
RUN_LIMIT_S = 170.0  # the whole run, workers included, ends within this


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, config, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = config
        self.deadline = deadline
        self.spawned = 0
        self.notes: list[str] = []  # printed with the metrics, not part of the result

    def spawn(self, mode: str) -> tuple[dict, float, Path]:
        """Start one worker and wait for it: its result, its spawn time and
        its work directory."""
        rep_dir = self.work / f"{mode}-{self.spawned}"
        self.spawned += 1
        rep_dir.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--work", str(rep_dir), "--mode", mode]
        if self.config is not None:
            cmd += ["--config", str(self.config)]
        timeout = self.deadline - time.monotonic()
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out after {timeout:.0f} s"}, spawned, rep_dir
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"worker exited {proc.returncode}: {tail[0]}"}, spawned, rep_dir
        return json.loads(lines[-1]), spawned, rep_dir


def median(values):
    # no value means the run failed and exits 1; 0.0 keeps the JSON line valid
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.monotonic()

    needed = [ROOT / "src" / "taxlab" / "__init__.py", ROOT / "configs" / "demo.json",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"taxbench: not a taxlab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    expected_checks = reference["workloads"][args.workload]["checks"]

    state_dir = ROOT / ".taxbench"
    work = state_dir / f"{args.workload}-s{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        config = None
        doc = workloads.make_config(ROOT, args.workload, args.seed)
        if doc is not None:
            config = work / "config.json"
            config.write_text(json.dumps(doc, indent=2) + "\n")
        runner = Runner(args.workload, args.seed, work, config, started + RUN_LIMIT_S)
        gate = Gate(expected_checks,
                    workloads.reference_digests(reference, args.workload, args.seed))
        if args.trace:
            metrics = traced(runner, gate, bench["per_layer"], state_dir)
        else:
            metrics = untraced(runner, gate, bench["end_to_end"], args.seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in gate.problems:
        print(f"taxbench: {problem}", file=sys.stderr)
    ratio = gate.failed / gate.attempted
    print(f"taxbench {args.workload} seed={args.seed} trace={args.trace} "
          f"workers={runner.spawned}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    for note in runner.notes:
        print(f"  {note}")
    print(f"  {'fail_ratio':34s} {ratio:.6g} 1  ({gate.failed}/{gate.attempted})")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


class Gate:
    """Scores each workload run.  The first run is held to the recorded
    digests where they apply; every later run must reproduce the first."""

    def __init__(self, expected_checks: int, reference):
        self.expected_checks = expected_checks
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def score(self, result: dict, label: str) -> None:
        attempted, failed, problems = workloads.score(
            result, self.expected_checks, self.reference)
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{label}: {p}" for p in problems]
        if self.reference is None and "digests" in result:
            self.reference = result["digests"]


def untraced(runner: Runner, gate: Gate, wanted: list, seconds: int, started: float) -> dict:
    setup = []
    for _ in range(SETUP_PROBES):
        result, spawned, _ = runner.spawn("setup")
        if "error" in result:
            gate.score(result, "setup")
            continue
        setup.append((result["ready_at"] - spawned) * result["setup_speed"])
    reps = []
    while True:
        t0 = time.monotonic()
        result, spawned, _ = runner.spawn("run")
        gate.score(result, f"repetition {len(reps) + 1}")
        if "error" not in result:
            setup.append((result["ready_at"] - spawned) * result["setup_speed"])
            reps.append(result)
        last = time.monotonic() - t0
        if time.monotonic() - started + last > seconds or "error" in result:
            break
    found = {
        "wall_s": median([r["wall_s"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "setup_s": median(setup),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in reps]),
    }
    runner.notes.append(
        f"raw wall {median([r['raw_wall_s'] for r in reps]):.4g} s, raw cpu "
        f"{median([r['raw_cpu_s'] for r in reps]):.4g} s, stolen "
        f"{median([r['stolen_s'] for r in reps]):.3g} s, host speed "
        f"{median([r['host_speed'] for r in reps]):.3g} over {len(reps)} repetition(s)")
    return {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted}


def traced(runner: Runner, gate: Gate, wanted: list, state_dir: Path) -> dict:
    plain, _, _ = runner.spawn("run")
    gate.score(plain, "untraced run")
    traced_run, _, rep_dir = runner.spawn("trace")
    gate.score(traced_run, "traced run")
    layers = traced_run.get("layers", {})
    trace_file = rep_dir / "trace.bin"
    if trace_file.exists():
        trace_file.replace(state_dir / f"trace-{runner.workload}-s{runner.seed}.bin")
    out = {}
    for m in wanted:
        name = m["name"]
        if name == "trace.overhead":
            value = (traced_run["wall_s"] / plain["wall_s"]
                     if "layers" in traced_run and "error" not in plain else 0.0)
        else:
            point, field = name.rsplit(".", 1)
            value = layers[point][field] if layers else 0.0
        out[name] = {"value": value, "unit": m["unit"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
