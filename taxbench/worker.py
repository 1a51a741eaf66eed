"""One workload run in a fresh interpreter; `run.py` starts it.

    python3 taxbench/worker.py --workload W --seed N [--config CFG] --work DIR
                               --mode setup|run|trace

Set-up is interpreter start, importing taxlab and building the input
(`cli.load_config` of the generated config for `sweep`/`audit`).  `setup`
mode stops there.  `run` then times one workload run, from the first call
into taxlab until every output is digested; `trace` does the same with the
layer tracer installed and writes the spans to DIR/trace.bin.  Times are
normalised to host speed (`hostclock`): `wall_s`/`cpu_s` by samples taken
during the run, set-up by `setup_speed`, a burst taken right after it.
The last stdout line is one JSON object (`ready_at` is on the system-wide
monotonic clock, so the parent can time set-up from its spawn).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostclock  # noqa: E402
import workloads  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(cli, config: Path, out: Path) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", "--config", str(config), "--out", str(out)])
    text = stdout.getvalue()
    digests = {"stdout": sha256(text.encode("utf-8"))}
    for path in sorted(out.iterdir()):
        digests[path.name] = sha256(path.read_bytes())
    return {"exit_code": code, "checks": workloads.parse_checks(text),
            "digests": digests}


def run_trials(suites, seed: int) -> dict:
    lines = []
    for fn, args, kwargs in workloads.trial_calls(seed):
        got = getattr(suites, fn)(*args, **kwargs)
        lines.append(got[0] if isinstance(got, tuple) else got)
    text = "".join(line.render() + "\n" for line in lines)
    return {"exit_code": 0, "checks": [(c.name, c.passed) for c in lines],
            "digests": {"stdout": sha256(text.encode("utf-8"))}}


def peak_rss_mib() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", type=Path)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    import taxlab
    from taxlab import cli, suites

    src = (ROOT / "src").resolve()
    if src not in Path(taxlab.__file__).resolve().parents:
        print(f"imported taxlab from {taxlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload != "trials":
        cli.load_config(args.config)
    ready_at = time.monotonic()
    setup_speed = hostclock.calibrate()
    if args.mode == "setup":
        print(json.dumps({"ready_at": ready_at, "setup_speed": setup_speed}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = args.work / "out"
    clock = hostclock.HostClock()
    clock.start()
    try:
        if args.workload == "trials":
            result = run_trials(suites, args.seed)
        else:
            result = run_cli(cli, args.config, out)
    except Exception as exc:  # a crash is a measured outcome, reported to the parent
        result = {"error": f"{type(exc).__name__}: {exc}"}
    times = clock.stop()
    result.update(times, ready_at=ready_at, setup_speed=setup_speed,
                  peak_rss_mib=peak_rss_mib())
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.work / "trace.bin")
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
