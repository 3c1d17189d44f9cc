"""Benchmark worker: runs one workload in a closed loop and writes a result file.

Started by run.py in a fresh interpreter with PYTHONPATH=src and the BLAS pool
pinned, so its peak resident memory is the workload's own.  One warm-up
pass on the workload's tiny inputs runs first and is not timed.  Then, with
``--trace 0``, passes run back to back while another one fits in
``--seconds`` (at least MIN_PASSES of them) and each pass's wall time is
recorded.  With ``--trace 1``, untraced and traced passes alternate, and the
traced ones give the per-layer self times and counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import qsolidtorus
import tracer
import workloads

MIN_PASSES = 3


class Tally:
    """Operations attempted, failed and silently wrong, plus worst accuracy."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.silent = 0
        self.failures: dict[str, str] = {}  # first problem per operation label
        self.accuracy: dict[str, float] = {}

    def add(self, outcomes: list[workloads.Outcome]) -> None:
        for o in outcomes:
            self.attempted += 1
            if o.failed:
                self.failed += 1
                self.failures.setdefault(o.label, o.problems[0] if o.problems else o.verdict)
            self.silent += o.silent
            for key, val in o.accuracy.items():
                self.accuracy[key] = max(self.accuracy.get(key, 0.0), val)


def one_pass(wl: workloads.Workload, tally: Tally) -> float:
    wl.clear_outputs()
    gc.collect()
    wall, results = wl.run_pass()
    tally.add(wl.check_pass(results))
    return wall


def traced_pass(wl: workloads.Workload, tally: Tally) -> tuple[float, dict]:
    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        wall = one_pass(wl, tally)
    finally:
        uninstall()
    return wall, tracer.layer_metrics(tr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    tmp = Path(args.tmp)
    wl = workloads.make(args.workload, tmp, args.seed, args.tiny)
    # warm-up on the tiny inputs: the same code paths, lazy imports and the
    # first-call BLAS/LAPACK set-up, at a fraction of a full pass's cost
    warm = workloads.make(args.workload, tmp / "warm-up", args.seed, tiny=True)
    one_pass(warm, Tally())
    tally = Tally()
    result: dict = {}
    start = perf_counter()
    if not args.trace:
        walls = []
        # stop before a pass that would run past --seconds
        while len(walls) < MIN_PASSES or perf_counter() - start + walls[-1] <= args.seconds:
            walls.append(one_pass(wl, tally))
        result["walls"] = walls
    else:
        plain, traced, layers = [], [], []
        while not traced or perf_counter() - start + plain[-1] + traced[-1] <= args.seconds:
            plain.append(one_pass(wl, tally))
            wall, metrics = traced_pass(wl, tally)
            traced.append(wall)
            layers.append(metrics)
        # times are medians over the traced passes; counts repeat exactly
        result["layers"] = {
            name: (statistics.median(m[name][0] for m in layers), unit) if unit == "s" else (value, unit)
            for name, (value, unit) in layers[0].items()
        }
        result["counts_repeat"] = all(
            m[name] == layers[0][name] for m in layers for name in m if m[name][1] != "s"
        )
        result["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        silent=tally.silent,
        failures=tally.failures,
        accuracy=tally.accuracy,
        provenance={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "qsolidtorus": qsolidtorus.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "configs_sha256": wl.configs,
            "seed": args.seed,
        },
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
