"""The benchmark's workloads, their generated inputs, and the output gate.

Standard library only: `run.py` imports this without importing taxlab.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Optional

WORKLOADS = ("sweep", "audit", "trials")  # why each exists: BENCHMARK.json

# demand_tightness and mt_gadget are left out: together they add about 72 s
AUDIT_ENTRIES = ("warmup_tightness", "value_tightness", "drop_tie", "drop_tax",
                 "posted_prices")

CHECK_LINE = re.compile(r"^(\S.*?): (PASS|FAIL)(?:  \[.*\])?$")


def make_config(root: Path, workload: str, seed: int) -> Optional[dict]:
    """The config document a CLI workload runs, derived from the demo
    config; None for `trials`, which takes the seed as driver arguments.
    Only `sweep` receives the seed: the transform suite ignores it."""
    if workload == "trials":
        return None
    demo = json.loads((root / "configs" / "demo.json").read_text())
    doc = dict(demo)
    if workload == "sweep":
        doc["suites"] = [s for s in demo["suites"] if s != "transform"]
        doc["seed"] = seed
    elif workload == "audit":
        doc["mechanisms"] = [e for e in demo["mechanisms"] if e["id"] in AUDIT_ENTRIES]
        doc["suites"] = ["transform"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return doc


def trial_calls(seed: int) -> list[tuple[str, tuple, dict]]:
    """(suites function, args, kwargs) of the `trials` workload, in order."""
    return [
        ("cover_grid_check", (6, 500, seed), {}),
        ("gadget_trials", (50, seed), {"ms": (4, 6, 8)}),
        ("disjointness_trials", (200, seed), {}),
        ("useless_learner_trials", (100, seed), {}),
    ]


def parse_checks(stdout: str) -> list[tuple[str, bool]]:
    """The rendered CheckLines in a run's stdout."""
    out = []
    for line in stdout.splitlines():
        hit = CHECK_LINE.match(line)
        if hit:
            out.append((hit.group(1), hit.group(2) == "PASS"))
    return out


def reference_digests(reference: dict, workload: str, seed: int) -> Optional[dict]:
    """Recorded digests that apply to this (workload, seed): `audit` does
    not depend on the seed, the others only match at the default seed."""
    entry = reference["workloads"][workload]
    if workload == "audit" or seed == reference["default_seed"]:
        return entry["digests"]
    return None


def score(result: dict, expected_checks: int,
          digests: Optional[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed by one workload run, with a reason
    per failure.  An operation is one CheckLine or one compared digest (of
    stdout or of one artifact).  A crash fails every operation."""
    n_digests = len(digests) if digests else 0
    if result.get("error") is not None or result.get("exit_code") not in (0, 1):
        attempted = expected_checks + n_digests
        return attempted, attempted, [f"crashed: {result.get('error')}"]
    problems = []
    checks = result["checks"]
    attempted = max(expected_checks, len(checks))
    failed = 0
    for name, passed in checks:
        if not passed:
            failed += 1
            problems.append(f"check failed: {name}")
    if len(checks) != expected_checks:
        failed += abs(expected_checks - len(checks))
        problems.append(f"{len(checks)} checks reported, {expected_checks} expected")
    if result["exit_code"] != 0 and failed == 0:
        failed += 1
        problems.append(f"exit code {result['exit_code']}")
    if digests is not None:
        got = result["digests"]
        for name in sorted(set(digests) | set(got)):
            attempted += 1
            if digests.get(name) != got.get(name):
                failed += 1
                problems.append(f"digest mismatch: {name}")
    return attempted, failed, problems
