"""The benchmark's span tracer (perfbench/tracer.py) still fits the package.

The tracer wraps package functions by name and derives its per-layer counts
from their calls and arguments, so a renamed target or a second C stack per
solution build would silently change what the benchmark reports.
"""

import importlib.util
import json
from pathlib import Path

from qsolidtorus.cli import main
from qsolidtorus.config import default_config_dict
from qsolidtorus.solutions import mode_table

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
K_MAX = 16


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_and_build_counts(tmp_path):
    tracer = _load_tracer()
    cfg = default_config_dict()
    # solve runs the modes sorted and scan in grid order; with this grid no
    # two consecutive builds share a mode, so every build tabulates its own
    cfg["grid"] = {"m_list": [-2, 1], "n_list": [0]}
    cfg["truncation"]["k_max"] = K_MAX
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    for mod_name, attr in tracer.TARGETS:
        owner = importlib.import_module(f"qsolidtorus.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)

    mode_table.cache_clear()
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
