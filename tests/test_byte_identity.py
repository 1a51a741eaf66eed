"""Byte identity: the demo, m6 and m8 sets at seed 0 print and write
exactly what `byte_identity.json` recorded.  A change that moves a byte of
stdout or of any artifact fails here and names the file.

Re-record, only when an output change is intended, with

    PYTHONPATH=src python tests/test_byte_identity.py <commit>

or print one config's seed-0 digests, recording nothing, with

    PYTHONPATH=src python tests/test_byte_identity.py --print configs/m10.json
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from taxlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("byte_identity.json")
SETS = {"demo": "configs/demo.json", "m6": "configs/m6.json", "m8": "configs/m8.json"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(config: str, out: Path) -> dict:
    """The SHA-256 of stdout and of every artifact of one seed-0 run."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        status = main(["run", "--config", str(ROOT / config), "--seed", "0", "--out", str(out)])
    artifacts = {path.relative_to(out).as_posix(): sha256(path.read_bytes())
                 for path in sorted(out.rglob("*")) if path.is_file()}
    return {"status": status, "stdout": sha256(stdout.getvalue().encode()),
            "artifacts": artifacts}


@pytest.mark.parametrize("name", sorted(SETS))
def test_outputs_match_the_recorded_digests(name, tmp_path):
    want = json.loads(RECORD.read_text())["sets"][name]
    got = run_digests(want["config"], tmp_path / "out")
    assert got["status"] == want["status"]
    assert got["stdout"] == want["stdout"], f"{name}: stdout differs"
    assert sorted(got["artifacts"]) == sorted(want["artifacts"]), f"{name}: artifact names differ"
    for file, digest in want["artifacts"].items():
        assert got["artifacts"][file] == digest, f"{name}: {file} differs"


if __name__ == "__main__" and sys.argv[1] == "--print":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(run_digests(sys.argv[2], Path(tmp) / "out"), indent=2))
elif __name__ == "__main__":
    sets = {}
    for name, config in SETS.items():
        with tempfile.TemporaryDirectory() as tmp:
            sets[name] = {"config": config, **run_digests(config, Path(tmp) / "out")}
    RECORD.write_text(json.dumps({"commit": sys.argv[1], "seed": 0, "sets": sets},
                                 indent=2) + "\n")
