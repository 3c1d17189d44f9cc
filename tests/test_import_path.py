"""The import path stays light.

No command loads scipy, and ``pyproject.toml`` lists numpy as the only
runtime dependency (scipy is a test dependency, in the ``dev`` extra); the
package itself imports no submodule, so ``qsolidtorus.dirac`` loads only what
it uses and ``qsolidtorus.cli`` does not load ``dirac``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qsolidtorus
from qsolidtorus.config import default_config_dict

SRC = Path(qsolidtorus.__file__).resolve().parents[1]

# prints the modules loaded after the code given as argv[1] ran
PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


def loaded(package: str, code: str, *args: str) -> list[str]:
    """The modules of ``package`` that a fresh interpreter has loaded once ``code`` ran."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    mods = json.loads(proc.stdout.strip().splitlines()[-1])
    return [m for m in mods if m == package or m.startswith(package + ".")]


# the CLI's import and its config load, on the config in argv[2]
CLI_SET_UP = "import qsolidtorus.cli\nfrom qsolidtorus.config import load_config\nload_config(sys.argv[2])"


@pytest.fixture()
def k16_config(tmp_path):
    cfg = default_config_dict()
    cfg["grid"] = {"m_list": [0, 1, -2], "n_list": [0, 1]}
    cfg["truncation"]["k_max"] = 16
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run_commands(*commands: str) -> str:
    """Code that runs each CLI command on the config in argv[2] and asserts exit 0."""
    return "\n".join(
        ["from qsolidtorus.cli import main"]
        + [f"assert main([*{cmd.split()!r}, '--config', sys.argv[2]]) == 0, {cmd!r}" for cmd in commands]
    )


def test_cli_import_and_config_load_skip_scipy(k16_config):
    assert loaded("scipy", CLI_SET_UP, str(k16_config)) == []


def test_dirac_import_skips_scipy():
    assert loaded("scipy", "import qsolidtorus.dirac") == []


def test_set_up_probes_skip_numpy_random(k16_config):
    """numpy loads numpy.random lazily, and loading it would add about 10 ms to either import."""
    assert loaded("numpy.random", "import qsolidtorus.dirac") == []
    assert loaded("numpy.random", CLI_SET_UP, str(k16_config)) == []


def test_dirac_import_loads_only_families():
    assert loaded("qsolidtorus", "import qsolidtorus.dirac") == [
        "qsolidtorus", "qsolidtorus.dirac", "qsolidtorus.families"]


def test_cli_import_skips_dirac():
    assert "qsolidtorus.dirac" not in loaded("qsolidtorus", "import qsolidtorus.cli")


def test_validate_scan_and_dumps_skip_scipy(k16_config):
    code = run_commands("validate", "scan", "dump --what solution", "dump --what transfer")
    assert loaded("scipy", code, str(k16_config)) == []


def test_no_command_loads_scipy(k16_config):
    code = run_commands("validate", "solve --seed 3", "scan", "dump --what solution", "dump --what transfer")
    assert loaded("scipy", code, str(k16_config)) == []
    out = json.loads((k16_config.parent / "out" / "solutions.json").read_text())
    assert out["solutions"] and all(r["residual_oracle"] <= 1e-8 for r in out["solutions"])


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]

    def names(reqs: list[str]) -> list[str]:
        return [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in reqs]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["dev"])
