"""Every signature README.md gives for a package function is that function's.

A backticked span of the form ``name(a, b, ...)`` whose name resolves to
exactly one function, method or class under ``src/qsolidtorus`` must list
that callable's parameters in order: ``self`` is dropped, a default may follow
a name (``rule=DEFAULT_RULE``) and ``*`` marks where the keyword-only ones
begin.  A class's parameters are those of its ``__init__``, or its dataclass
fields.  A span may instead give the signature of the function of that name
in ``tests/reference.py``.  Single-letter math such as ``C(k)``, and calls
with values in place of names, are not signatures and are skipped.
"""

import ast
import re
from pathlib import Path

import qsolidtorus

SRC = Path(qsolidtorus.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"

CALL = re.compile(r"([A-Za-z_][\w.]*)\(([^()]*)\)")
PARAM = re.compile(r"\*|([A-Za-z_]\w*)(=.+)?")


def _params(node: ast.AST) -> list[str]:
    """The parameter list of a function (``self`` and ``cls`` dropped) or a class, as README writes it."""
    if isinstance(node, ast.ClassDef):
        init = next((f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None)
        if init is not None:
            return _params(init)
        fields = [f.target.id for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
        return [*(["*"] if any("kw_only" in ast.unparse(d) for d in node.decorator_list) else []), *fields]
    a = node.args
    names = [p.arg for p in (*a.posonlyargs, *a.args)]
    if names[:1] in (["self"], ["cls"]):
        names = names[1:]
    star = ["*" + a.vararg.arg] if a.vararg else ["*"] if a.kwonlyargs else []
    return [*names, *star, *(p.arg for p in a.kwonlyargs)]


def definitions(path: Path) -> dict[str, list[tuple[str, list[str]]]]:
    """Each function, method and class name in ``path`` mapped to its (qualified name, parameters) entries."""
    found = {}

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qualname = ".".join((*scope, child.name))
                found.setdefault(child.name, []).append((qualname, _params(child)))
                if isinstance(child, ast.ClassDef):
                    visit(child, (*scope, child.name))

    visit(ast.parse(path.read_text()), ())
    return found


def readme_calls() -> list[tuple[str, list[str]]]:
    """Each backticked ``name(a, b, ...)`` span of README.md whose arguments are all names, ``*`` or defaults."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    calls = []
    for span in re.findall(r"`([^`\n]+)`", text):
        match = CALL.fullmatch(span)
        if match is None or len(match[1].split(".")[-1]) == 1:
            continue
        args = [arg.strip() for arg in match[2].split(",")] if match[2].strip() else []
        if all(PARAM.fullmatch(arg) for arg in args):
            calls.append((match[1], [arg.split("=")[0] for arg in args]))
    return calls


def resolve(name: str, defs: dict) -> list[tuple[str, list[str]]]:
    """The definitions ``name`` can mean: ``Class.method`` narrows to that class's, else by its last part."""
    *owner, last = name.split(".")
    entries = defs.get(last, [])
    qualified = [e for e in entries if owner and e[0] == f"{owner[-1]}.{last}"]
    return qualified or entries


def test_readme_signatures_match_the_package():
    src = {}
    for path in sorted(SRC.glob("*.py")):
        for key, entries in definitions(path).items():
            src.setdefault(key, []).extend(entries)
    ref = definitions(TESTS / "reference.py")
    checked, wrong = 0, []
    for name, args in readme_calls():
        entries = resolve(name, src)
        if len(entries) != 1:
            continue
        checked += 1
        accepted = [entries[0][1], *(params for _, params in resolve(name, ref))]
        if args not in accepted:
            wrong.append(f"{name}({', '.join(args)}) is {entries[0][0]}({', '.join(entries[0][1])})")
    assert checked >= 40
    assert not wrong, wrong


def test_a_wrong_signature_is_found(tmp_path, monkeypatch):
    readme = tmp_path / "README.md"
    readme.write_text("`hs_norms(sol, w, c)`, `decay_scan(m_list, n_list, levels)`, `C(k)` and `eval_s(w, 3)`\n")
    monkeypatch.setattr(f"{__name__}.README", readme)
    assert readme_calls() == [("hs_norms", ["sol", "w", "c"]), ("decay_scan", ["m_list", "n_list", "levels"])]
