"""taxlab command line: run experiment suites from a JSON config.

    taxlab run --config cfg.json [--seed N] [--out DIR] [--jobs K]
    taxlab validate --config cfg.json

Config document:

    {
      "mechanisms": [
        {"id": "warmup_tightness", "params": {"c": 2}},
        {"id": "posted_prices", "params": {"prices": ["1", "1"], "n": 2},
         "catalogs": [[<valuation JSON>, ...], ...]}
      ],
      "suites": ["measure", "theorem-check", ...],
      "seed": 0,
      "out": "out"
    }

Per-mechanism catalogs are inline valuation-JSON lists per player or
{"files": [path, ...]} with one JSON list per player; omitted catalogs
fall back to the mechanism's builtin default.  Exit status: 0 all suites
passed, 1 a suite failed (the failing check is named), 2 bad config.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import suites
from .library import default_catalog, make_example
from .protocol import Session, run_mechanism
from .reporting import audit_rows_to_csv, emit_report, write_text
from .transforms import build_tables, deviation_audit, strictify_catalog, to_simultaneous
from .valuations import DomainError, ValuationCatalog, valuation_from_json

SUITES = ("measure", "theorem-check", "reconstruct-value", "reconstruct-comm",
          "extract-min-affine", "verify-menu", "disjointness", "transform",
          "simultaneous")


class ConfigError(ValueError):
    pass


@dataclass
class MechanismEntry:
    mech_id: str
    params: dict
    catalog: ValuationCatalog
    spec: object


@dataclass
class Config:
    mechanisms: list[MechanismEntry]
    suite_names: list[str]
    seed: int
    out: Path
    trials: dict


def load_catalog(doc, base: Path) -> Optional[ValuationCatalog]:
    if doc is None or doc == "default":
        return None
    if isinstance(doc, dict) and "files" in doc:
        groups = []
        for rel in doc["files"]:
            path = (base / rel) if not Path(rel).is_absolute() else Path(rel)
            if not path.exists():
                raise ConfigError(f"catalog file not found: {path}")
            groups.append(tuple(valuation_from_json(v)
                                for v in json.loads(path.read_text())))
        return ValuationCatalog(tuple(groups))
    if isinstance(doc, list):
        groups = tuple(
            tuple(valuation_from_json(v) for v in group) for group in doc
        )
        return ValuationCatalog(groups)
    raise ConfigError("catalogs must be 'default', a list per player, or {files: [...]}")


def load_config(path: Path, seed_override: Optional[int] = None,
                out_override: Optional[str] = None) -> Config:
    if not path.exists():
        raise ConfigError(f"config not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    suite_names = list(doc.get("suites", []))
    for name in suite_names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from {SUITES}")
    mechanisms = []
    for entry in doc.get("mechanisms", []):
        mech_id = entry.get("id")
        params = dict(entry.get("params", {}))
        try:
            spec = make_example(mech_id, params)
        except (KeyError, DomainError) as exc:
            raise ConfigError(f"bad mechanism entry {entry!r}: {exc}") from exc
        catalog = load_catalog(entry.get("catalogs"), path.parent)
        if catalog is None:
            catalog = default_catalog(mech_id, spec, params)
        if catalog.n != spec.n or catalog.m != spec.m:
            raise ConfigError(
                f"catalog shape ({catalog.n} players, m={catalog.m}) does not "
                f"match mechanism {spec.mech_id}"
            )
        mechanisms.append(MechanismEntry(mech_id, params, catalog, spec))
    seed = seed_override if seed_override is not None else int(doc.get("seed", 0))
    out = Path(out_override if out_override is not None else doc.get("out", "out"))
    trials = dict(doc.get("trials", {}))
    return Config(mechanisms, suite_names, seed, out, trials)


def run_suites(cfg: Config, jobs: int = 1) -> tuple[int, list[str], list[Path]]:
    lines: list[str] = []
    failed = False
    artifacts: list[Path] = []

    def record(check) -> None:
        nonlocal failed
        lines.append(check.render())
        if not check.passed:
            failed = True

    def pool_map(fn, items):
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(fn, items))
        return [fn(x) for x in items]

    sessions = [Session(e.spec, e.catalog) for e in cfg.mechanisms]
    reports = None
    if "measure" in cfg.suite_names or "theorem-check" in cfg.suite_names:
        reports = pool_map(Session.report, sessions)

    if "measure" in cfg.suite_names:
        artifacts += emit_report(reports, cfg.out)
        for rep in reports:
            lines.append(f"measured {rep.mechanism}: tax={rep.tax} cc={rep.cc} "
                         f"price={rep.price} tie={rep.tie} mc={rep.mc} "
                         f"val={rep.val} dem={rep.dem} d={rep.d} valid={rep.valid}")

    if "theorem-check" in cfg.suite_names:
        checks = suites.theorem_check_lines(reports)
        for check in checks:
            record(check)
        path = cfg.out / "theorem_check.txt"
        write_text(path, "\n".join(c.render() for c in checks) + "\n")
        artifacts.append(path)

    if "reconstruct-value" in cfg.suite_names:
        for session in sessions:
            if session.spec.mode == "value":
                record(suites.value_reconstruction_check(session))
        record(suites.useless_learner_trials(
            int(cfg.trials.get("useless", 100)), cfg.seed))

    if "reconstruct-comm" in cfg.suite_names:
        traces = []
        for session in sessions:
            check, done = suites.comm_reconstruction_check(session, cfg.seed)
            record(check)
            steps = [{
                "player": i,
                "menus": n_menus,
                "bits": rec.bits,
                "price_bits": rec.price_bits,
                "disjointness_bits": rec.disjointness_bits,
                "bookkeeping_bits": rec.bookkeeping_bits,
                "steps": [
                    {"branch": st.branch, "bundle": st.bundle,
                     "live_before": st.live_before,
                     "live_after": st.live_after,
                     "bands": st.bands}
                    for st in rec.steps
                ],
            } for i, n_menus, rec in done]
            traces.append({"mechanism": session.spec.mech_id,
                           "result": check.render(),
                           "reconstructions": steps})
        path = cfg.out / "reconstruction_traces.json"
        write_text(path, json.dumps(traces, indent=2, sort_keys=True) + "\n")
        artifacts.append(path)

    if "extract-min-affine" in cfg.suite_names:
        for session in sessions:
            if session.spec.mode == "demand":
                record(suites.min_affine_check(session))

    if "verify-menu" in cfg.suite_names:
        per_class = int(cfg.trials.get("verify", 50))
        for session in sessions:
            record(suites.verify_menu_trials(session, per_class, cfg.seed))

    if "disjointness" in cfg.suite_names:
        check, c_val = suites.disjointness_trials(
            int(cfg.trials.get("disjointness", 200)), cfg.seed)
        record(check)
        path = cfg.out / "disjointness.txt"
        write_text(path, check.render() + f"\nempirical-C {c_val:.4f}\n")
        artifacts.append(path)

    if "transform" in cfg.suite_names:
        for entry, session in zip(cfg.mechanisms, sessions):
            if entry.spec.n != 2:
                continue
            tables = build_tables(session)
            report = deviation_audit(tables)
            ok = report.clean
            record(suites.CheckLine(
                f"deviation-audit[{entry.spec.mech_id}]", ok,
                f"max gap {report.max_gap}",
            ))
            rows = list(report.rows)
            if report.worst is not None and report.worst not in rows:
                rows.append(report.worst)
            path = cfg.out / f"audit_{entry.mech_id}.csv"
            write_text(path, audit_rows_to_csv(entry.spec.mech_id, rows))
            artifacts.append(path)

    if "simultaneous" in cfg.suite_names:
        for entry in cfg.mechanisms:
            if entry.spec.n != 2:
                continue
            scat = strictify_catalog(entry.spec, entry.catalog, seed=cfg.seed)
            table = to_simultaneous(entry.spec, scat)
            ok = True
            for profile in scat.profiles():
                base = run_mechanism(entry.spec, profile)
                (s1, s2), bits = table.run(profile)
                ok &= base.allocation[0] & ~s1 == 0
                ok &= base.allocation[1] & ~s2 == 0
                ok &= bits == 2 * table.tables.tax_bits
            record(suites.CheckLine(
                f"simultaneous[{entry.spec.mech_id}]", ok,
                f"message bits {2 * table.tables.tax_bits}",
            ))

    return (1 if failed else 0), lines, artifacts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="taxlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the configured suites")
    run_p.add_argument("--config", required=True, type=Path)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", type=str, default=None)
    run_p.add_argument("--jobs", type=int, default=1)
    run_p.add_argument("-v", "--verbose", action="store_true",
                       help="also list emitted artifact paths")
    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("--config", required=True, type=Path)
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            cfg = load_config(args.config)
            print(f"config ok: {len(cfg.mechanisms)} mechanisms, "
                  f"suites {cfg.suite_names}")
            return 0
        cfg = load_config(args.config, args.seed, args.out)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        status, lines, artifacts = run_suites(cfg, jobs=args.jobs)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if getattr(args, "verbose", False):
        for path in artifacts:
            print(f"wrote {path}")
    if status != 0:
        failing = [l for l in lines if ": FAIL" in l]
        print(f"FAILED: {failing[0] if failing else 'see lines above'}",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
