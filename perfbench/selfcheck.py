"""Tiny-size self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks, in about a minute:
  * every workload run.py knows, traced and untraced, ends with one JSON
    line holding exactly the keys correct/attempted/failed/metrics and every
    metric that BENCHMARK.json names for that mode, with its unit and a
    finite value;
  * the output checker counts corrupted outputs (a NaN residual, an inf
    anywhere in a JSON or CSV output, a residual above tolerance, a missing
    row) as failed, and as silent failures when the command exited 0;
  * in a directory that holds only BENCHMARK.json and the benchmark, run.py
    exits nonzero without printing a result.
Exits 0 when all hold; otherwise prints each failure and exits 1.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_metric_names(spec: dict, errors: list[str]) -> None:
    from run import WORKLOADS  # every workload, also those BENCHMARK.json leaves out

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = last_json(proc.stdout)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(res)}")
                continue
            if res["attempted"] < 1 or not res["correct"]:
                errors.append(f"{where}: attempted {res['attempted']}, correct {res['correct']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics differ from BENCHMARK.json {key}: {sorted(set(got) ^ set(want))}")
            bad = [k for k, v in res["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                errors.append(f"{where}: non-finite {bad}")


def check_corruption(errors: list[str]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=ROOT / ".bench_tmp"))
    try:
        wl = workloads.make("grid-k128", tmp, seed=7, tiny=True)
        _, results = wl.run_pass()
        by_label = {o.label: o for o in wl.check_pass(results)}
        if any(o.failed for o in by_label.values()):
            errors.append(f"clean tiny pass failed: {[(o.label, o.problems) for o in by_label.values()]}")
            return
        out = tmp / "out"

        def corrupt(name: str, edit) -> None:
            path = out / name
            original = path.read_text()
            path.write_text(edit(original))
            outcome = {o.label: o for o in wl.check_pass(results)}
            path.write_text(original)
            hit = [o for o in outcome.values() if o.failed]
            if not hit or not all(o.silent for o in hit):
                errors.append(f"corrupted {name} not counted as a silent failure")

        def set_first(list_key: str, field: str, value: float):
            def edit(text: str) -> str:
                data = json.loads(text)
                data[list_key][0][field] = value
                return json.dumps(data)

            return edit

        def drop_row(text: str) -> str:
            data = json.loads(text)
            data["rows"].pop()
            return json.dumps(data)

        def inf_cell(text: str) -> str:
            lines = text.splitlines()
            cells = lines[1].split(",")
            cells[2] = "inf"
            lines[1] = ",".join(cells)
            return "\n".join(lines) + "\n"

        corrupt("solutions.json", set_first("solutions", "residual_oracle", math.nan))
        corrupt("solutions.json", set_first("solutions", "beta", math.inf))
        corrupt("lemma_summary.json", set_first("modes", "wronskian_worst", 1e-3))
        corrupt("dump_solution.json", drop_row)
        corrupt("hs_scan.csv", inf_cell)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_bare_directory(errors: list[str]) -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "grid-k128",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    check_metric_names(spec, errors)
    check_corruption(errors)
    check_bare_directory(errors)
    for err in errors:
        print("FAIL", err)
    print("selfcheck:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
