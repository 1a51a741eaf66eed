"""CLI: config loading, suite execution, artifacts, exit codes."""

import json
from pathlib import Path

from taxlab.cli import load_config, main
from taxlab.library import warmup_catalog
from taxlab.reporting import CSV_HEADER
from taxlab.valuations import valuation_to_json


def write_config(tmp_path: Path, doc) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


BASE = {
    "mechanisms": [
        {"id": "warmup_tightness", "params": {"c": 2}},
        {"id": "drop_tax", "params": {"m": 4}},
    ],
    "suites": ["measure", "theorem-check"],
    "seed": 3,
}


def test_validate_and_run(tmp_path, capsys):
    doc = dict(BASE, out=str(tmp_path / "out"))
    cfg_path = write_config(tmp_path, doc)
    assert main(["validate", "--config", str(cfg_path)]) == 0
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "tax<=cc[warmup_tightness(c=2)]: PASS" in out
    csv_text = (tmp_path / "out" / "reports.csv").read_text()
    assert csv_text.splitlines()[0] == ",".join(CSV_HEADER)
    assert (tmp_path / "out" / "theorem_check.txt").exists()


def test_run_twice_byte_identical(tmp_path):
    doc = dict(BASE, out=str(tmp_path / "a"))
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg_path)]) == 0
    doc2 = dict(BASE, out=str(tmp_path / "b"))
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(doc2))
    assert main(["run", "--config", str(cfg2)]) == 0
    for name in ("reports.csv", "reports.json", "theorem_check.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_inline_catalogs(tmp_path):
    cat = warmup_catalog(1)
    doc = {
        "mechanisms": [{
            "id": "warmup_tightness",
            "params": {"c": 1},
            "catalogs": [
                [valuation_to_json(v) for v in group] for group in cat.players
            ],
        }],
        "suites": ["measure"],
        "out": str(tmp_path / "out"),
    }
    cfg_path = write_config(tmp_path, doc)
    cfg = load_config(cfg_path)
    assert cfg.mechanisms[0].catalog.n == 2
    assert main(["run", "--config", str(cfg_path)]) == 0


def test_catalog_files(tmp_path):
    cat = warmup_catalog(1)
    paths = []
    for k, group in enumerate(cat.players):
        p = tmp_path / f"player{k}.json"
        p.write_text(json.dumps([valuation_to_json(v) for v in group]))
        paths.append(p.name)
    doc = {
        "mechanisms": [{
            "id": "warmup_tightness",
            "params": {"c": 1},
            "catalogs": {"files": paths},
        }],
        "suites": [],
        "out": str(tmp_path / "out"),
    }
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg_path)]) == 0


def test_bad_configs_exit_two(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    bad = write_config(tmp_path, {"mechanisms": [{"id": "mystery"}], "suites": []})
    assert main(["run", "--config", str(bad)]) == 2
    bad2 = write_config(tmp_path, {"mechanisms": [], "suites": ["bogus"]})
    assert main(["run", "--config", str(bad2)]) == 2
    missing_files = write_config(tmp_path, {
        "mechanisms": [{"id": "warmup_tightness", "params": {"c": 1},
                        "catalogs": {"files": ["absent.json"]}}],
        "suites": [],
    })
    assert main(["run", "--config", str(missing_files)]) == 2
    capsys.readouterr()


def test_empty_suites_no_artifacts(tmp_path):
    doc = {"mechanisms": [], "suites": [], "out": str(tmp_path / "out")}
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert not (tmp_path / "out").exists()


def test_jobs_flag_matches_serial(tmp_path):
    doc = dict(BASE, out=str(tmp_path / "serial"))
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg_path)]) == 0
    doc2 = dict(BASE, out=str(tmp_path / "parallel"))
    cfg2 = tmp_path / "cfg-par.json"
    cfg2.write_text(json.dumps(doc2))
    assert main(["run", "--config", str(cfg2), "--jobs", "4"]) == 0
    assert (tmp_path / "serial" / "reports.csv").read_bytes() == \
        (tmp_path / "parallel" / "reports.csv").read_bytes()


def test_report_rows_sorted(tmp_path):
    from taxlab.protocol import measure_complexities
    from taxlab.reporting import emit_report
    from taxlab.suites import bench_instance

    reports = []
    for mech_id, params in [("warmup_tightness", {"c": 2}),
                            ("drop_tax", {"m": 4}),
                            ("warmup_tightness", {"c": 1})]:
        reports.append(measure_complexities(*bench_instance(mech_id, params)))
    emit_report(reports, tmp_path)
    rows = (tmp_path / "reports.csv").read_text().splitlines()[1:]
    names = [row.split(",")[0] for row in rows]
    assert names == sorted(names)


def test_oversized_m_and_non_object_config_exit_two(tmp_path, capsys, monkeypatch):
    import taxlab.library as library

    def never(*args):
        raise AssertionError("a mechanism was built before m was checked")

    monkeypatch.setattr(library, "drop_tax", never)
    big = write_config(tmp_path, {"mechanisms": [{"id": "drop_tax", "params": {"m": 20}}],
                                  "suites": ["measure"]})
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([BASE]))
    for command in ("validate", "run"):
        for path in (big, listed):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1
