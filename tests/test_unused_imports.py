"""Every name a package or test module imports is read in that module, or it is listed here."""

import ast
from pathlib import Path

import qsolidtorus

SRC = Path(qsolidtorus.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

ALLOWED = {
    "solutions.scalar_det_prefix": "the benchmark tracer wraps solutions.scalar_det_prefix by this name",
}


def unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(path.read_text())
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_import_is_read():
    found = {
        f"{path.stem}.{name}"
        for path in (*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py")))
        for name in unused_imports(path)
    }
    assert found == set(ALLOWED)


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport os, numpy as np\nfrom a.b import c, d as e\nnp.e(c)\n")
    assert unused_imports(path) == ["os", "e"]
