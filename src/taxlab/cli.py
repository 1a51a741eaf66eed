"""taxlab command line: run experiment suites from a JSON config.

    taxlab run --config cfg.json [--seed N] [--out DIR] [-v]
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
fall back to the mechanism's builtin default.  Each entry's params are
checked against its schema in `library.MECHANISMS` before anything is
built, and an entry whose measurement (or, with the transform suite, whose
deviation audit) would exceed MAX_MEASURE_WORK is refused before any
mechanism runs.  Exit status: 0 all suites passed, 1 a
suite failed (the failing check is named), 2 bad config.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Optional

from . import suites
from .bundles import MAX_ITEMS
from .library import default_catalog, make_example, mechanism
from .protocol import REPORT_FIELDS, Session
from .reporting import audit_rows_to_csv, emit_report, write_text
from .transforms import build_tables, deviation_audit, strictify_catalog, to_simultaneous
from .valuations import DomainError, ValuationCatalog, valuation_from_json

TRIAL_DEFAULTS = {"verify": 50, "useless": 100, "disjointness": 200}
CONFIG_KEYS = ("mechanisms", "suites", "seed", "out", "trials")
ENTRY_KEYS = ("id", "params", "catalogs")

# A full measurement runs every profile plus, per player and opponent
# profile, 2^m probe runs, each over a 2^m table.  The demo's entries need
# at most 11k steps; mt_gadget needs 7.4M at m = 10 and 3e10 at m = 16.
MAX_MEASURE_WORK = 1 << 24


class ConfigError(ValueError):
    pass


@dataclass
class MechanismEntry:
    mech_id: str
    catalog: ValuationCatalog
    spec: object


@dataclass
class Config:
    mechanisms: list[MechanismEntry]
    suite_names: list[str]
    seed: int
    out: Path
    trials: dict  # every TRIAL_DEFAULTS key -> trial count


def load_catalog(doc, base: Path) -> Optional[ValuationCatalog]:
    if doc is None or doc == "default":
        return None
    if isinstance(doc, dict) and isinstance(doc.get("files"), list):
        doc = [json.loads((base / rel).read_text()) for rel in doc["files"]]
    if not isinstance(doc, list):
        raise ConfigError("catalogs must be 'default', a list per player, or {files: [...]}")
    for i, group in enumerate(doc):
        if not isinstance(group, list) or not all(isinstance(v, dict) for v in group):
            raise ConfigError(f"player {i}'s catalog must be a list of valuation objects, "
                              f"got {group!r}")
    return ValuationCatalog(tuple(tuple(valuation_from_json(v) for v in group) for group in doc))


def config_int(value, what: str, low: Optional[int] = None,
               high: Optional[int] = None) -> int:
    if (type(value) is not int or (low is not None and value < low)
            or (high is not None and value > high)):
        bound = ("" if low is None else f" >= {low}") if high is None else f" in {low}..{high}"
        raise ConfigError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def config_rational(value, what: str, low: int, high: Optional[int] = None) -> None:
    """An int or a string such as "1/2" in low..high (a float is refused, so
    no binary rounding enters a price)."""
    try:
        x = Fraction(value) if type(value) in (int, str) else None
    except (ValueError, ZeroDivisionError):
        x = None
    if x is None or x < low or (high is not None and x > high):
        bound = f" >= {low}" if high is None else f" in {low}..{high}"
        raise ConfigError(f'{what} must be a rational{bound} such as "1/2", got {value!r}')


def check_keys(doc: dict, known, what: str) -> None:
    """Refuse a key outside `known`, so a misspelt field is not ignored."""
    for key in sorted(doc.keys() - set(known)):
        raise ConfigError(f"{what} has no key {key!r}; it takes {tuple(known)}")


def check_params(mech_id, params) -> dict:
    """An entry's params checked against its mechanism's schema, nothing
    built, and returned with the defaults filled in."""
    mech = mechanism(mech_id)
    if not isinstance(params, dict):
        raise ConfigError(f"{mech_id}.params must be an object, got {params!r}")
    check_keys(params, mech.params, mech_id)
    for name, p in mech.params.items():
        what, value = f"{mech_id}.{name}", params.get(name)
        if name not in params:
            if p.required:
                raise ConfigError(f"{what} is required")
        elif p.kind == "int":
            config_int(value, what, p.low, p.high)
        elif not isinstance(value, list) or not 1 <= len(value) <= MAX_ITEMS:
            raise ConfigError(f"{what} must be a list of 1..{MAX_ITEMS} entries, got {value!r}")
        else:
            check = config_int if p.kind == "ints" else config_rational
            for x in value:
                check(x, f"{what} entry", p.low, p.high)
    return mech.complete(params)


def audit_work(m: int, sizes: list[int]) -> tuple[int, int]:
    """Upper bounds on a two-player deviation audit's (trie walks, wrapper
    plays).  Player i's opponent classes are the |c_o| truthful opponents
    and, per opponent menu index, the deviating bundles on the truthful
    trie (at most one per profile over all menus, so at most p = |c_0|
    |c_1|) and one off-trie class: at most |c_o| + |presented_o| + p.  Each
    class settles |presented_i| 2^m positions and |c_i| truthful ones, with
    |presented| <= |c|: walks <= sum_i (2 |c_o| + p) |c_i| (2^m + 1) =
    p (|c_0| + |c_1| + 4)(2^m + 1).  A play needs one of the <= p truthful
    four-announcement prefixes, which one deviating class and at most |c_o|
    truthful ones reach, and is made per own and opponent inner valuation,
    as a deviation or as truthful play: plays <= 2 (2 |c_o|)(2 |c_i|) p =
    8 p^2."""
    profiles = prod(sizes)
    return profiles * (sum(sizes) + 4) * ((1 << m) + 1), 8 * profiles * profiles


def check_work(mech_id: str, m: int, sizes: list[int], transform: bool = False) -> None:
    """Refuse (profiles + sum_i |others_i| 2^m) 2^m > MAX_MEASURE_WORK steps,
    and, for the transform suite, a deviation audit of more trie walks and
    wrapper plays than that (`audit_work`)."""
    profiles = prod(sizes)
    work = (profiles + (sum(profiles // k for k in sizes) << m)) << m
    if work > MAX_MEASURE_WORK:
        raise ConfigError(f"{mech_id} at m={m}: measuring catalogs of sizes {sizes} (or larger) "
                          f"needs {work} table steps, over the cap of {MAX_MEASURE_WORK}")
    if transform and len(sizes) == 2:
        walks, plays = audit_work(m, sizes)
        if walks + plays > MAX_MEASURE_WORK:
            raise ConfigError(f"{mech_id} at m={m}: auditing catalogs of sizes {sizes} needs "
                              f"up to {walks} trie walks and {plays} wrapper plays, over the "
                              f"cap of {MAX_MEASURE_WORK}")


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
    check_keys(doc, CONFIG_KEYS, "the config")
    suite_names = doc.get("suites", [])
    if not isinstance(suite_names, list):
        raise ConfigError("suites must be a list of suite names")
    for name in suite_names:
        if not isinstance(name, str) or name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    seed = config_int(doc.get("seed", 0), "seed")
    if seed_override is not None:
        seed = seed_override
    out = out_override if out_override is not None else doc.get("out", "out")
    if not isinstance(out, str):
        raise ConfigError(f"out must be a directory path, got {out!r}")
    trials = doc.get("trials", {})
    if not isinstance(trials, dict):
        raise ConfigError("trials must be an object of trial counts")
    check_keys(trials, TRIAL_DEFAULTS, "trials")
    trials = {key: config_int(trials.get(key, default), f"trials.{key}", low=0)
              for key, default in TRIAL_DEFAULTS.items()}
    entries = doc.get("mechanisms", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError("mechanisms must be a list of {id, params, catalogs} objects")
    if "measure" in suite_names and not entries:
        raise ConfigError("the measure suite needs at least one mechanism")
    mechanisms = []
    for entry in entries:
        mech_id = entry.get("id")
        check_keys(entry, ENTRY_KEYS, f"mechanism entry {mech_id!r}")
        params = check_params(mech_id, entry.get("params", {}))
        # one valuation of one player bounds the work from below: refuse
        # before a builder or a default catalog fills its 2^m tables
        # (posted_prices has one item per price)
        check_work(mech_id, params.get("m", len(params.get("prices", [0]))), [1])
        spec = make_example(mech_id, params)
        try:
            catalog = (load_catalog(entry.get("catalogs"), path.parent)
                       or default_catalog(mech_id, params))
        except (KeyError, TypeError, ValueError, ArithmeticError, OSError) as exc:
            raise ConfigError(f"{mech_id}.catalogs: {exc}") from exc
        if catalog.n != spec.n or catalog.m != spec.m:
            raise ConfigError(
                f"catalog shape ({catalog.n} players, m={catalog.m}) does not "
                f"match mechanism {spec.mech_id}"
            )
        check_work(mech_id, spec.m, [len(vs) for vs in catalog.players],
                   "transform" in suite_names)
        mechanisms.append(MechanismEntry(mech_id, catalog, spec))
    return Config(mechanisms, suite_names, seed, Path(out), trials)


# Each suite maps (config, one Session per mechanism entry) to its output
# lines -- CheckLines, which decide the exit status, or plain text -- and
# the artifact paths it wrote.

def measure_suite(cfg: Config, sessions: list[Session]):
    reports = [session.report() for session in sessions]
    artifacts = emit_report(reports, cfg.out)
    return [f"measured {row['mechanism']}: "
            + " ".join(f"{name}={row[name]}" for name in REPORT_FIELDS[3:])
            for row in (rep.row() for rep in reports)], artifacts


def theorem_check_suite(cfg: Config, sessions: list[Session]):
    checks = suites.theorem_check_lines([session.report() for session in sessions])
    path = cfg.out / "theorem_check.txt"
    write_text(path, "\n".join(c.render() for c in checks) + "\n")
    return checks, [path]


def reconstruct_value_suite(cfg: Config, sessions: list[Session]):
    checks = [suites.value_reconstruction_check(session)
              for session in sessions if session.spec.mode == "value"]
    checks.append(suites.useless_learner_trials(cfg.trials["useless"], cfg.seed))
    return checks, []


def reconstruct_comm_suite(cfg: Config, sessions: list[Session]):
    checks, traces = [], []
    for session in sessions:
        check, done = suites.comm_reconstruction_check(session, cfg.seed)
        checks.append(check)
        steps = [{
            "player": i,
            "menus": n_menus,
            "bits": rec.bits,
            "price_bits": rec.price_bits,
            "disjointness_bits": rec.disjointness_bits,
            "bookkeeping_bits": rec.bookkeeping_bits,
            "steps": [asdict(st) for st in rec.steps],
        } for i, n_menus, rec in done]
        traces.append({"mechanism": session.spec.mech_id,
                       "result": check.render(),
                       "reconstructions": steps})
    path = cfg.out / "reconstruction_traces.json"
    write_text(path, json.dumps(traces, indent=2, sort_keys=True) + "\n")
    return checks, [path]


def extract_min_affine_suite(cfg: Config, sessions: list[Session]):
    return [suites.min_affine_check(session)
            for session in sessions if session.spec.mode == "demand"], []


def verify_menu_suite(cfg: Config, sessions: list[Session]):
    return [suites.verify_menu_trials(session, cfg.trials["verify"], cfg.seed)
            for session in sessions], []


def disjointness_suite(cfg: Config, sessions: list[Session]):
    check, c_val = suites.disjointness_trials(cfg.trials["disjointness"], cfg.seed)
    path = cfg.out / "disjointness.txt"
    write_text(path, check.render() + f"\nempirical-C {c_val:.4f}\n")
    return [check], [path]


def transform_suite(cfg: Config, sessions: list[Session]):
    checks, artifacts = [], []
    for entry, session in zip(cfg.mechanisms, sessions):
        if entry.spec.n != 2:
            continue
        report = deviation_audit(build_tables(session))
        checks.append(suites.CheckLine(
            f"deviation-audit[{entry.spec.mech_id}]", report.clean,
            f"max gap {report.max_gap}",
        ))
        rows = list(report.rows)
        if report.worst is not None and report.worst not in rows:
            rows.append(report.worst)
        path = cfg.out / f"audit_{entry.mech_id}.csv"
        write_text(path, audit_rows_to_csv(entry.spec.mech_id, rows))
        artifacts.append(path)
    return checks, artifacts


def simultaneous_suite(cfg: Config, sessions: list[Session]):
    checks = []
    for session in sessions:
        if session.spec.n != 2:
            continue
        table = to_simultaneous(strictify_catalog(session.spec, session.catalog, seed=cfg.seed))
        ok = True
        for profile in table.tables.catalog.profiles():
            base = table.tables.session.run(profile)
            s1, s2 = table.run(profile)
            ok &= base.allocation[0] & ~s1 == 0
            ok &= base.allocation[1] & ~s2 == 0
        checks.append(suites.CheckLine(
            f"simultaneous[{session.spec.mech_id}]", ok,
            f"message bits {2 * table.tables.tax_bits}",
        ))
    return checks, []


# run order, whatever order a config lists the suites in
SUITES = {"measure": measure_suite, "theorem-check": theorem_check_suite,
          "reconstruct-value": reconstruct_value_suite,
          "reconstruct-comm": reconstruct_comm_suite,
          "extract-min-affine": extract_min_affine_suite,
          "verify-menu": verify_menu_suite, "disjointness": disjointness_suite,
          "transform": transform_suite, "simultaneous": simultaneous_suite}


def run_suites(cfg: Config) -> tuple[int, list[str], list[Path]]:
    sessions = [Session(e.spec, e.catalog) for e in cfg.mechanisms]
    failed = False
    lines: list[str] = []
    artifacts: list[Path] = []
    for name, suite in SUITES.items():
        if name not in cfg.suite_names:
            continue
        out, paths = suite(cfg, sessions)
        for line in out:
            if isinstance(line, suites.CheckLine):
                failed |= not line.passed
                line = line.render()
            lines.append(line)
        artifacts += paths
    return (1 if failed else 0), lines, artifacts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="taxlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the configured suites")
    run_p.add_argument("--config", required=True, type=Path)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", type=str, default=None)
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
        status, lines, artifacts = run_suites(cfg)
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
