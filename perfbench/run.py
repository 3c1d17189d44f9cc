"""qsolidtorus benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload grid-k128 --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  The package is not installed: the
worker and the set-up probes run with PYTHONPATH=src.  The last line of
standard output is a JSON object with the keys correct, attempted, failed and
metrics; the lines before it name every metric with its unit, the diagnostics
and the provenance of the run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the names of workloads.NAMES; this process imports neither numpy nor the package
WORKLOADS = ("grid-k128", "grid-k128-tabulated", "deep-k65536", "algebra-dim169")
BLAS_THREADS = 1
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 160.0
# Residuals below one float64 ulp cannot be told apart; digits are capped there.
ULP = 2.0**-52

SETUP_CODE = {
    "cli": "import sys, qsolidtorus.cli\nfrom qsolidtorus.config import load_config\nload_config(sys.argv[1])",
    "dirac": "import qsolidtorus.dirac",
}


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def wait_with_rusage(proc: subprocess.Popen, timeout: float):
    """Wait for proc, returning (exit code, rusage); kills it past the timeout."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage
        time.sleep(0.02)


def time_setup(probe: str, config: Path, env: dict) -> list[float]:
    """Wall time of fresh interpreters that import the package and load the config."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE[probe], str(config)],
            env=env, cwd=ROOT, check=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return times


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def digits(residual: float) -> float:
    """-log10 of a residual: 0 when it is not finite, at most float64's ulp digits."""
    return -math.log10(max(residual, ULP)) if math.isfinite(residual) else 0.0


def quantile_90(values: list[float]) -> float:
    # inclusive: with a few samples, interpolate between them, never beyond
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qsolidtorus" / "__init__.py").is_file():
        print(f"no qsolidtorus sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_tmp"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: Path) -> int:
    env = bench_env()
    result_path = tmp / "result.json"
    log_path = tmp / "worker.log"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp), "--result", str(result_path),
    ] + (["--tiny"] if args.tiny else [])
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        rc, usage = wait_with_rusage(proc, WORKER_TIMEOUT_S)
    if rc != 0 or not result_path.is_file():
        why = "timed out" if rc is None else f"exited {rc}"
        print(f"benchmark worker {why}:\n{log_path.read_text()[-4000:]}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())

    metrics: dict[str, tuple[float, str]] = {}
    diagnostics: dict = {
        "fail_share": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "accuracy_digits": {k: digits(v) for k, v in res["accuracy"].items()},
    }
    if args.trace:
        metrics.update({k: tuple(v) for k, v in res["layers"].items()})
        metrics["trace.overhead_s"] = (res["trace_overhead_s"], "s")
        diagnostics["counts_repeat"] = res["counts_repeat"]
    else:
        probe = "dirac" if args.workload == "algebra-dim169" else "cli"
        setup = time_setup(probe, tmp / "config.json", env)
        walls = res["walls"]
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["wall_p50_s"] = (statistics.median(walls), "s")
        metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024.0, "MB")
        metrics["acc_digits"] = (min(diagnostics["accuracy_digits"].values(), default=0.0), "digits")
        metrics["ok_share"] = (1.0 - diagnostics["fail_share"], "share")
        diagnostics.update(samples=len(walls), walls=walls, wall_p90_s=quantile_90(walls), setup_samples=setup)

    provenance = dict(res["provenance"], git_commit=git_commit(), nproc=os.cpu_count())
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    correct = res["silent"] == 0 and res.get("counts_repeat", True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
