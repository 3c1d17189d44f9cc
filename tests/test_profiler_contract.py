"""The benchmark's span tracer (perfbench/tracer.py) still fits the package.

The tracer wraps package functions by name and derives its per-layer counts
from their calls and arguments, so a renamed target or a second C stack per
solution build would silently change what the benchmark reports.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from qsolidtorus import cli, dirac, families, solutions
from qsolidtorus.cli import main
from qsolidtorus.config import default_config_dict

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
K_MAX = 16
# spans no command calls yet: the dense oracle is the tests' reference only
UNCALLED = {"parametrix.oracle_matrix"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_config(tmp_path, grid: dict) -> Path:
    cfg = default_config_dict()
    cfg["grid"] = grid
    cfg["truncation"]["k_max"] = K_MAX
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_tracer_positional_reads_match_the_signatures():
    """The tracer's counters read arguments by position, so the signatures they read are pinned here.

    ``_sweep_K_steps`` reads compute_K's ``k_hi`` at args[3] and a seed index
    at args[5]: a fifth positional parameter would be read as that seed index.
    ``_eval_elements`` reads the ``k`` of a(n, k) and c(i, n, k) as args[-1].
    """
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    params = inspect.signature(solutions.compute_K).parameters.values()
    assert [p.name for p in params] == ["mode", "levels", "k_inf", "k_hi"]
    assert all(p.kind in positional for p in params)
    for method in (families.WeightFamily.a, families.CoefficientFamily.c):
        *_, last = inspect.signature(method).parameters.values()
        assert last.name == "k" and last.kind in positional, method


def test_tracer_targets_and_build_counts(tmp_path):
    tracer = _load_tracer()
    # each command builds level by level, solve each level's modes sorted and
    # scan in grid order; on this one-level grid of two |m| no two consecutive
    # builds share a mode, so every build tabulates its own
    path = _tiny_config(tmp_path, {"m_list": [-2, 1], "n_list": [0]})

    for mod_name, attr in tracer.TARGETS:
        owner = importlib.import_module(f"qsolidtorus.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)

    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        codes = [main(["--config", str(path), command]) for command in ("solve", "scan")]
    finally:
        uninstall()
    assert codes == [0, 0]
    builds = tr.calls["solutions.build_solution"]
    assert builds == 4
    assert tr.calls["transfer.build_C_range"] == builds
    assert tr.counts["solutions.compute_K.steps"] == K_MAX * builds


def test_tracer_counts_one_build_per_pm_pair(tmp_path):
    """On a +-m grid each command builds each (|m|, n) once and derives its partner."""
    tracer = _load_tracer()
    grid = {"m_list": [1, -1, 0, -2, 2], "n_list": [0, 1]}
    path = _tiny_config(tmp_path, grid)
    pairs = len({(abs(m), n) for m in grid["m_list"] for n in grid["n_list"]})
    runs = (["solve"], ["scan"], ["dump", "--what", "solution"], ["dump", "--what", "transfer"])
    for argv in runs:
        tr = tracer.Tracer()
        uninstall = tracer.install(tr)
        try:
            assert cli.main(["--config", str(path), *argv]) == 0
        finally:
            uninstall()
        builds = tr.calls["solutions.build_solution"]
        assert builds == (0 if argv[-1] == "transfer" else pairs), argv
        assert tr.calls["transfer.build_C_range"] == (pairs if argv[-1] == "transfer" else builds), argv
        assert tr.counts["solutions.compute_K.steps"] == K_MAX * builds, argv


def test_each_command_evaluates_each_family_row_once(tmp_path, monkeypatch):
    """No command evaluates a (family, level, index, k-array length) twice.

    The m-independent data of a level (the window's weights and gaps, the
    epsilon head's weights, the sups of the tail bounds) are evaluated once
    per command and shared by every m, and a_{n+1} of level n is a_n of level
    n + 1.  A scalar k is keyed by its value.  solve and scan also probe the
    hypotheses, whose first J_i pass is the one reader of c_i(0, k < 64).
    """
    seen = []
    for cls, name in ((families.WeightFamily, "a"), (families.CoefficientFamily, "c")):
        def counted(self, *args, _orig=getattr(cls, name), _name=name):
            k = args[-1]
            seen.append((_name, *args[:-1], ("len", np.size(k)) if np.ndim(k) else ("k", int(k))))
            return _orig(self, *args)

        monkeypatch.setattr(cls, name, counted)
    path = _tiny_config(tmp_path, {"m_list": [1, -1, 0, -2, 2, 5], "n_list": [0, 1, 2, 4]})
    runs = (["solve"], ["scan"], ["dump", "--what", "solution"], ["dump", "--what", "transfer"])
    for argv in runs:
        seen.clear()
        assert cli.main(["--config", str(path), *argv]) == 0
        assert {key for key in seen if seen.count(key) > 1} == set(), argv
        # the window's rows: a_n for every level and its neighbour, c1 and c2 per level
        assert sum(key[-1] == ("len", K_MAX + 1) for key in seen) == len({0, 1, 2, 3, 4, 5}), argv


def test_every_tracer_target_is_called(tmp_path):
    """A tiny pass of every command and one algebra check reaches each span.

    A target that no command calls gives a per-layer metric that reads 0 on
    working code; such a span is either listed in UNCALLED or a failure here.
    """
    tracer = _load_tracer()
    path = _tiny_config(tmp_path, {"m_list": [0, 1], "n_list": [0, 1]})
    runs = (["validate"], ["solve"], ["scan"], ["dump", "--what", "solution"], ["dump", "--what", "transfer"])
    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        # through the module attributes, which is where the tracer installs
        codes = [cli.main(["--config", str(path), *argv]) for argv in runs]
        rep = dirac.TruncatedAlgebraRep(0.25, 8, 4)
        report = dirac.algebra_sanity(rep, np.random.default_rng(0), n_roundtrip=2, n_trace=5)
    finally:
        uninstall()
    assert codes == [0] * len(runs) and report.all_passed
    spans = set(tracer.TARGETS.values())
    assert UNCALLED <= spans
    assert sorted(span for span in spans - UNCALLED if tr.calls[span] == 0) == []
