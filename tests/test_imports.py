"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "taxlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no `Name` node in
    the module reads (annotations included; `__future__` imports skipped)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nfrom typing import Optional, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["line 2: Optional"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}
