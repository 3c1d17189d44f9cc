"""Every name a package or test module imports is read in that module, and every parameter of a package
function or lambda is read in its body, or it is listed here with its reason."""

import ast
from pathlib import Path

import qsolidtorus

SRC = Path(qsolidtorus.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

ALLOWED = {
    "solutions.scalar_det_prefix": "the benchmark tracer wraps solutions.scalar_det_prefix by this name",
}

ALLOWED_PARAMETERS = {
    "families.CoefficientFamily.c.n": "the families are n-independent, but the signature keeps the paper's c_{i,n}(k)",
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


def unused_parameters(path: Path) -> list[str]:
    """Each parameter of a function or lambda in ``path`` that its body never reads, as ``qualname.parameter``.

    A parameter that a nested function or lambda reads is read; a lambda's qualname part is ``<lambda>``.
    """
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, (*scope, child.name))
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, scope)
                continue
            inner = (*scope, getattr(child, "name", "<lambda>"))
            a = child.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
            body = child.body if isinstance(child.body, list) else [child.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found.extend(".".join((*inner, p)) for p in params if p not in read)
            visit(child, inner)

    visit(ast.parse(path.read_text()), ())
    return found


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


def test_every_parameter_is_read():
    found = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py")) for name in unused_parameters(path)}
    assert found == set(ALLOWED_PARAMETERS)


def test_an_unused_parameter_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def f(a, b, /, c, *args, d=1, **kw):\n    return a + args[0] + kw['x']\n"
        "g = lambda x, y: x\n"
        "class K:\n"
        "    def m(self, z, w):\n        def inner(v=w):\n            return z\n        return self, inner\n"
    )
    assert unused_parameters(path) == ["f.b", "f.c", "f.d", "<lambda>.y", "K.m.inner.v"]
