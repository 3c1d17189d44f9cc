"""Byte identity of every command's outputs, against a committed manifest of digests.

Each run is one command on one config, in-process, into a fresh directory.
Its digest is the SHA-256 of its exit code, its stdout and stderr (the output
directory written as ``<out>``, each warning as one ``Category: message``
line) and every file it wrote, by name, with the lines holding
``generated_at`` removed.  ``manifest.txt`` holds one digest per run and the
Python and numpy versions that made them; float formatting and rounding may
differ on other versions, so a version mismatch fails rather than skips.

A change that moves output bytes on purpose regenerates the manifest with
``PYTHONPATH=src python tests/test_manifest.py > tests/manifest.txt`` and
names each changed digest and its cause.  ``PYTHONPATH=src python
tests/test_manifest.py --diff`` names them: it prints each run whose digest
differs from the manifest (config, command, old and new digest) and exits 1
if any does.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from qsolidtorus.cli import main
from qsolidtorus.config import default_config_dict

MANIFEST = Path(__file__).resolve().parent / "manifest.txt"

TABULATED = {
    "weights": {"kind": "tabulated", "table": [[1.5, 3.0, 7.5], [2.5, 9.0]],
                "tail": {"rule": "power", "lambda": 1.0, "p": 1.0, "q": 2.0}},
    "coeffs": {"kind": "tabulated", "table1": [0.5, 0.8], "table2": [0.6],
               "tail": {"rule": "geometric", "t1": 0.5, "t2": 0.5}, "kappa": 2.0},
}
CONFIGS = {
    "default": {},
    "tabulated": TABULATED,
    "boundary-table": {"boundary": {"rule": "table", "table": {"2": [0.1, 1.0]}}},
}
COMMANDS = (
    "validate",
    "solve --seed 3",
    "scan",
    "scan --kmax 1024",
    "scan --modes 1,8192,32768 --kmax 256",
    "dump --what solution",
    "dump --what transfer",
)
RUNS = [(name, command) for name in CONFIGS for command in COMMANDS]


def versions() -> str:
    return f"python {platform.python_version()} numpy {np.__version__}"


def digest(config: str, command: str) -> str:
    """The SHA-256 of one run's exit code, stdout, stderr and written files."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(default_config_dict() | CONFIGS[config]))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            code = main(["--config", str(path), "--out", str(out), *command.split()])
        text = stdout.getvalue() + "\0" + stderr.getvalue()
        text += "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        parts = [f"exit {code}\n", text.replace(str(out), "<out>")]
        for file in sorted(out.iterdir()) if out.exists() else ():
            kept = [line for line in file.read_text().splitlines(keepends=True) if "generated_at" not in line]
            parts += [f"\0{file.name}\0", *kept]
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def read_manifest() -> tuple[str, dict[tuple[str, str], str]]:
    made_with, digests = "", {}
    for line in MANIFEST.read_text().splitlines():
        if line.startswith("# made with "):
            made_with = line.removeprefix("# made with ")
        elif line and not line.startswith("#"):
            sha, config, command = line.split("\t")
            digests[(config, command)] = sha
    return made_with, digests


def diff() -> int:
    """Print each run whose digest differs from the manifest, tab-separated; 1 if any does, else 0."""
    digests, changed = read_manifest()[1], 0
    for config, command in RUNS:
        old, new = digests.get((config, command), "missing"), digest(config, command)
        if new != old:
            print(f"{config}\t{command}\t{old}\t{new}")
            changed += 1
    return 1 if changed else 0


def test_manifest_lists_every_run():
    assert list(read_manifest()[1]) == RUNS


@pytest.mark.parametrize("config, command", RUNS, ids=[f"{c}:{cmd}" for c, cmd in RUNS])
def test_outputs_match_manifest(config, command):
    made_with, digests = read_manifest()
    assert made_with == versions(), f"manifest made with {made_with}, running {versions()}"
    assert digest(config, command) == digests[(config, command)], f"{config}: {command}"


def test_diff_names_the_changed_run(monkeypatch, capsys):
    digests = read_manifest()[1]
    changed = RUNS[1]
    monkeypatch.setitem(globals(), "digest", lambda *run: "0" * 64 if run == changed else digests[run])
    assert diff() == 1
    assert capsys.readouterr().out == "\t".join((*changed, digests[changed], "0" * 64)) + "\n"
    monkeypatch.setitem(globals(), "digest", lambda *run: digests[run])
    assert diff() == 0
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(diff())
    sys.stdout.write("# sha256\tconfig\tcommand; see tests/test_manifest.py\n")
    sys.stdout.write(f"# made with {versions()}\n")
    for config, command in RUNS:
        sys.stdout.write(f"{digest(config, command)}\t{config}\t{command}\n")
