"""Fuzzed config documents: `validate` and `run` end with exit 0, 1 or 2
and never with a traceback, whatever junk the mechanism entries hold."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from taxlab.cli import main
from taxlab.library import MECHANISMS

DEMO = json.loads((Path(__file__).resolve().parents[1] / "configs" / "demo.json").read_text())

JUNK = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(max_value=0) | st.integers(min_value=17),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)

# catalogs of valuation JSON with every mask present and junk values
VALUATIONS = st.lists(st.lists(st.integers(1, 2).flatmap(lambda m: st.fixed_dictionaries({
    "m": st.just(m),
    "values": st.fixed_dictionaries({
        str(s): st.sampled_from(["0", "1/2", "1", "1/0", "inf"]) | JUNK for s in range(1 << m)}),
})), min_size=1, max_size=2), min_size=1, max_size=3)

# in-range values small enough that `run` measures them in milliseconds
SMALL = {
    "m": st.integers(1, 4), "c": st.integers(0, 4), "alpha": st.integers(0, 3),
    "count": st.integers(0, 5), "n": st.integers(0, 3),
    "prices": st.lists(st.sampled_from(["0", "1/2", "1", "3", "-1", 2]), max_size=4),
    "bundles": st.lists(st.integers(0, 16), max_size=3),
}


@st.composite
def junk_documents(draw):
    """Demo entries with a param set to junk or out of range, a param
    deleted, an unknown param, or junk id, params or catalogs; sometimes
    a junk top-level field.  Whole catalogs of junk valuation JSON reach
    the value parser."""
    entries = []
    for entry in draw(st.lists(st.sampled_from(DEMO["mechanisms"]), max_size=3)):
        entry = dict(entry, params=dict(entry["params"]))
        op = draw(st.sampled_from(["keep", "set", "delete", "id", "params", "catalogs"]))
        if op == "set":
            name = draw(st.sampled_from(sorted(entry["params"]) + ["bogus", "menus"]))
            entry["params"][name] = draw(JUNK)
        elif op == "delete":
            del entry["params"][draw(st.sampled_from(sorted(entry["params"])))]
        elif op == "id":
            entry["id"] = draw(st.sampled_from(sorted(MECHANISMS)) | JUNK)
        elif op == "catalogs":
            entry[op] = draw(VALUATIONS | JUNK)
        elif op != "keep":
            entry[op] = draw(JUNK)
        entries.append(entry)
    doc = dict(DEMO, mechanisms=entries)
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from(["suites", "seed", "trials", "out", "mechanisms", "x"]))] = \
            draw(JUNK)
    return doc


@st.composite
def small_documents(draw):
    """One demo entry with some params redrawn from small in-range and
    out-of-range values, measured alone."""
    entry = draw(st.sampled_from(DEMO["mechanisms"]))
    params = {name: draw(SMALL[name]) if draw(st.booleans()) else value
              for name, value in entry["params"].items()}
    if entry["id"] == "value_tightness" and draw(st.booleans()):
        params["bundles"] = draw(SMALL["bundles"])
    return {"mechanisms": [{"id": entry["id"], "params": params}], "suites": ["measure"]}


def run_cli(command: str, doc) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), *(["--out", tmp] if command == "run"
                                                          else [])])
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("config error:") and err.count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(junk_documents())
def test_validate_fuzzed_configs_exits_cleanly(doc):
    assert_clean_exit(*run_cli("validate", doc))


@settings(max_examples=40, deadline=None)
@given(small_documents())
def test_run_measure_on_fuzzed_small_configs_exits_cleanly(doc):
    assert_clean_exit(*run_cli("run", doc))
