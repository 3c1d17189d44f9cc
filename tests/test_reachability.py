"""Every function under ``src/qsolidtorus`` is reached by a command, or it is listed here.

The four commands run under ``sys.setprofile`` on tiny inputs (K = 16): the
default families, a tabulated pair and a ``boundary.table`` rule, each through
``validate``, ``solve`` (seeded and with ``--rhs``), ``scan`` and both dumps,
plus a small ``algebra_sanity``.  The functions that never run must be exactly
``ALLOWED``, each with its reason, so code that no command reaches cannot pile
up in the package again: it is deleted, or it moves into ``tests/``.
"""

import inspect
import json
import os
import sys
import types
from pathlib import Path

import numpy as np

import qsolidtorus
from qsolidtorus.cli import main
from qsolidtorus.config import default_config_dict
from qsolidtorus.dirac import TruncatedAlgebraRep, algebra_sanity

SRC = Path(qsolidtorus.__file__).resolve().parent
K_MAX = 16

ALLOWED = {
    "parametrix.oracle_matrix": "the benchmark tracer wraps it by name, so it stays until the tracer drops it",
    "families.default_families": "the library entry point; commands build their families from the config",
}


def _package_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> "module.qualname" of every named function in the package sources."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                stack.append(const)
                # class bodies lack CO_NEWLOCALS; lambdas and comprehensions run with their owner
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    out[(str(path), const.co_firstlineno)] = f"{path.stem}.{const.co_qualname}"
    return out


def _config(tmp_path: Path, name: str, **sections) -> Path:
    cfg = default_config_dict()
    cfg["grid"] = {"m_list": [0, 1, -1, 2], "n_list": [0, 1]}
    cfg["truncation"]["k_max"] = K_MAX
    cfg["output"]["dir"] = str(tmp_path / name)
    cfg.update(sections)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def _run_everything(tmp_path: Path) -> list[int]:
    rhs = tmp_path / "rhs.json"
    rec = {"m": 1, "n": 0, "r1": [1.0] * K_MAX, "r2": [0.5] * K_MAX, "q0": 0.25}
    rhs.write_text(json.dumps({"modes": [rec, rec | {"m": -1}]}))
    configs = [
        _config(tmp_path, "default"),
        _config(
            tmp_path,
            "tabulated",
            weights={
                "kind": "tabulated",
                "table": [[1.5, 3.0, 7.5], [2.5, 9.0]],
                "tail": {"rule": "power", "lambda": 1.0, "p": 1.0, "q": 2.0},
            },
            coeffs={
                "kind": "tabulated",
                "table1": [0.5, 0.8],
                "table2": [0.6],
                "tail": {"rule": "geometric", "t1": 0.5, "t2": 0.5},
                "kappa": 2.0,
            },
        ),
        _config(tmp_path, "table_rule", boundary={"rule": "table", "table": {"2": [0.1, 1.0]}}),
    ]
    commands = [
        ["validate"],
        ["solve", "--seed", "3"],
        ["solve", "--rhs", str(rhs)],
        ["scan"],
        ["dump", "--what", "transfer"],
        ["dump", "--what", "solution"],
    ]
    codes = [main(["--config", str(path), *command]) for path in configs for command in commands]
    # the algebra-dim169 workload's run and read-back, at its tiny size
    report = algebra_sanity(TruncatedAlgebraRep(0.25, 8, 4), np.random.default_rng(0), n_roundtrip=2, n_trace=5)
    codes.append(0 if report.as_dict()["all_passed"] else 1)
    return codes


def test_every_package_function_is_reached_or_allowed(tmp_path, capsys):
    functions = _package_functions()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    # a value cached by an earlier test would skip the code that computes it
    for name, module in list(sys.modules.items()):
        if name.startswith("qsolidtorus."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    sys.setprofile(profile)
    try:
        codes = _run_everything(tmp_path)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(codes)

    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}
    unreached = {name for key, name in functions.items() if key not in reached}
    assert unreached == set(ALLOWED), (
        f"unreached but not allowed: {sorted(unreached - set(ALLOWED))}; "
        f"allowed but reached or gone: {sorted(set(ALLOWED) - unreached)}"
    )
