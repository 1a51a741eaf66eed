"""CLI: config loading, suite execution, artifacts, exit codes."""

import json
import time
from pathlib import Path

from taxlab.cli import load_config, main
from taxlab.library import warmup_catalog
from taxlab.protocol import REPORT_FIELDS

from references import valuation_to_json


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
    assert csv_text.splitlines()[0] == ",".join(REPORT_FIELDS)
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


def test_suites_run_in_registry_order_and_once(tmp_path, capsys):
    demo = json.loads((Path(__file__).resolve().parents[1] / "configs" / "demo.json").read_text())
    doc = {
        "mechanisms": [{"id": "warmup_tightness", "params": {"c": 1}},
                       {"id": "drop_tax", "params": {"m": 2}}],
        "seed": 1,
        "trials": {"verify": 2, "useless": 5, "disjointness": 5},
    }
    shuffled = demo["suites"][::-1] + [demo["suites"][2]]
    stdout = []
    for tag, names in (("demo", demo["suites"]), ("shuffled", shuffled)):
        cfg_path = write_config(tmp_path, dict(doc, suites=names, out=str(tmp_path / tag)))
        assert main(["run", "--config", str(cfg_path)]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]
    names = sorted(p.name for p in (tmp_path / "demo").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "shuffled").iterdir())
    for name in names:
        assert (tmp_path / "demo" / name).read_bytes() == \
            (tmp_path / "shuffled" / name).read_bytes()


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
    from dataclasses import replace

    import taxlab.library as library

    def never(**params):
        raise AssertionError("a mechanism was built before m was checked")

    monkeypatch.setitem(library.MECHANISMS, "drop_tax",
                        replace(library.MECHANISMS["drop_tax"], build=never))
    big = write_config(tmp_path, {"mechanisms": [{"id": "drop_tax", "params": {"m": 20}}],
                                  "suites": ["measure"]})
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([BASE]))
    malformed = [
        {"mechanisms": [{"id": "warmup_tightness", "params": {"c": "2"}}], "suites": []},
        {"mechanisms": [{"id": "posted_prices", "params": {"prices": ["x", "1"]}}],
         "suites": []},
        dict(BASE, seed="abc"),
        dict(BASE, trials={"verify": "x"}),
        {"mechanisms": ["warmup_tightness"], "suites": []},
        {"mechanisms": [], "suites": ["measure"]},
        dict(BASE, suites="measure"),
        {"mechanisms": [{"id": "warmup_tightness", "params": {"c": 40}}], "suites": []},
    ]
    # schema, catalog and work-cap refusals: each line names the mechanism
    # and the field
    numeric_values = {"m": 2, "values": {"0": 0, "1": 1, "2": 0, "3": 1}}
    values = {"0": "0", "1": "1", "2": "0", "3": "1"}
    named = [
        ({"id": "warmup_tightness", "params": {"c": True}}, ".c must"),
        ({"id": "value_tightness", "params": {"m": 3, "bundles": [1.5]}}, ".bundles entry"),
        ({"id": "demand_tightness", "params": {"m": 4, "menus": [1]}}, "'menus'"),
        ({"id": "drop_tie", "params": {"m": 4, "bogus": 1}}, "'bogus'"),
        ({"id": "posted_prices", "params": {"prices": ["-1", "2"]}}, ".prices entry"),
        ({"id": "posted_prices", "params": {"prices": [0.5, "2"]}}, ".prices entry"),
        ({"id": "value_tightness", "params": {"c": 2, "m": 3, "bundles": [1, 2, 4]}},
         "c and bundles"),
        ({"id": "value_tightness", "params": {"m": 2, "bundles": [1, 1]}}, "distinct bundles"),
        ({"id": "demand_tightness", "params": {"m": 4, "alpha": 200000}}, ".alpha must"),
        ({"id": "demand_tightness", "params": {"m": 16, "count": 100000}}, ".count must"),
        ({"id": "demand_tightness", "params": {"m": 10, "alpha": 8, "count": 64}},
         "table steps"),
        ({"id": "mt_gadget", "params": {"m": 16}}, "m=16"),
        ({"id": "warmup_tightness", "params": {"c": 6}}, "wrapper plays"),
        ({"id": "posted_prices", "params": {"prices": ["1", "1", "2"], "n": 12}}, "[4, 4, 4"),
        ({"id": "posted_prices", "params": {"prices": ["1"] * 16}}, "m=16"),
        ({"id": "warmup_tightness", "params": {"c": 1},
          "catalogs": [[numeric_values], [numeric_values]]}, ".catalogs:"),
    ] + [
        ({"id": "warmup_tightness", "params": {"c": 1},
          "catalogs": [[{"m": m, "values": values}], [{"m": 2, "values": values}]]},
         f".catalogs: item count m must be an integer, got {m!r}")
        for m in (2.5, "2", True)
    ] + [
        ({"id": "warmup_tightness", "params": {"c": 1},
          "catalogs": [{"m": 2, "values": values}, [{"m": 2, "values": values}]]},
         ".catalogs: player 0's catalog must be a list of valuation objects"),
        ({"id": "warmup_tightness", "params": {"c": 1},
          "catalogs": [[{"m": 2, "values": values}], [[2]]]},
         ".catalogs: player 1's catalog must be a list of valuation objects"),
    ] + [
        ({"id": "warmup_tightness", "params": {"c": 1},
          "catalogs": [[partial], [{"m": 2, "values": values}]]},
         f".catalogs: valuation JSON lacks the key {key!r}")
        for partial, key in (({"values": values}, "m"), ({"m": 2}, "values"))
    ]
    # unknown keys at each level: each line names the key
    unknown = [
        ({"mechanisms": [{"id": "drop_tax", "params": {"m": 2}}], "suite": ["measure"],
          "trials": {"verfy": 1}}, ("'suite'",)),
        (dict(BASE, trials={"verfy": 1}), ("trials", "'verfy'")),
        ({"mechanisms": [{"id": "drop_tax", "params": {"m": 2}, "catalog": "default"}],
          "suites": []}, ("drop_tax", "'catalog'")),
    ] + [
        ({"mechanisms": [{"id": "warmup_tightness", "params": {"c": 1},
                          "catalogs": [[stray], [{"m": 2, "values": values}]]}],
          "suites": []}, ("warmup_tightness.catalogs", key))
        for stray, key in (({"m": 2, "values": values, "clauses": 3}, "'clauses'"),
                           ({"m": 2, "values": dict(values, **{"9": "5"})}, "'9'"))
    ]
    paths = [big, listed]
    for k, doc in enumerate(malformed + [doc for doc, _ in unknown]
                            + [{"mechanisms": [entry], "suites": ["transform"]}
                               for entry, _ in named]):
        paths.append(tmp_path / f"malformed{k}.json")
        paths[-1].write_text(json.dumps(doc))
    words = [()] * (len(paths) - len(unknown) - len(named)) + [w for _, w in unknown] + [
        (entry["id"] + w,) if w[0] == "." else (entry["id"], w) for entry, w in named]
    for command in ("validate", "run"):
        for path, expect in zip(paths, words):
            started = time.perf_counter()
            assert main([command, "--config", str(path)]) == 2
            assert time.perf_counter() - started < 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1
            assert all(w in err for w in expect)


def test_every_checked_in_config_validates(capsys):
    """Each config under configs/ passes every load-time check, the m = 10
    set's audit estimate included."""
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert "m10.json" in {path.name for path in configs}
    for path in configs:
        assert main(["validate", "--config", str(path)]) == 0, path.name
    capsys.readouterr()


def test_one_price_posted_prices_validates(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mechanisms": [{"id": "posted_prices",
                                                  "params": {"prices": ["1"]}}],
                                  "suites": []})
    assert main(["validate", "--config", str(cfg)]) == 0
    assert [len(vs) for vs in load_config(cfg).mechanisms[0].catalog.players] == [2, 2]


def test_value_tightness_bundles_without_c_uses_default_catalog(tmp_path, capsys):
    entry = {"id": "value_tightness", "params": {"m": 2, "bundles": [1, 2]}}
    cfg_path = write_config(tmp_path, {"mechanisms": [entry], "suites": []})
    assert main(["validate", "--config", str(cfg_path)]) == 0
    alice = load_config(cfg_path).mechanisms[0].catalog.players[0]
    assert len(alice) == 2  # c = the bundle count
    neither = write_config(tmp_path, {"mechanisms": [{"id": "value_tightness",
                                                      "params": {"m": 2}}],
                                      "suites": []})
    capsys.readouterr()
    assert main(["validate", "--config", str(neither)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_a_wrong_price_protocol_answer_fails_the_taxation_check(tmp_path, capsys, monkeypatch):
    """drop_tax(m=4) with its price protocol planted to answer INF for
    bundle 0b0011: the runs still match their menus, but the answer does
    not match the extracted menu, so the taxation-principle line fails
    with the first mismatch as its witness and the run exits 1.  The
    witness names the opponents by catalog index, so at m = 8 it is no
    longer than at m = 4."""
    from dataclasses import replace

    import taxlab.library as library
    from taxlab.rational import INF

    real = library.MECHANISMS["drop_tax"]

    def planted(**params):
        spec = real.build(**params)

        def protocol(spec_, i, v_minus, s):
            run = spec.price_protocol(spec_, i, v_minus, s)
            return replace(run, price=INF) if s == 0b0011 else run

        return replace(spec, price_protocol=protocol)

    monkeypatch.setitem(library.MECHANISMS, "drop_tax", replace(real, build=planted))
    witnesses = []
    for m in (4, 8):
        cfg = write_config(tmp_path, {"mechanisms": [{"id": "drop_tax", "params": {"m": m}}],
                                      "suites": ["measure", "theorem-check"],
                                      "out": str(tmp_path / f"out{m}")})
        assert main(["run", "--config", str(cfg)]) == 1
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("taxation-principle["))
        head, witness = line.split("  ", 1)
        assert head == f"taxation-principle[drop_tax(m={m})]: FAIL"
        assert witness == "[player 1, opponents (1,), bundle 3: protocol price inf, menu price 1]"
        witnesses.append(witness)
    assert len(witnesses[1]) == len(witnesses[0])
