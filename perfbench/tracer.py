"""Span tracer that wraps qsolidtorus functions where the package calls them.

Nothing under ``src/`` is edited.  ``install`` replaces each target function in
every ``qsolidtorus`` module whose namespace refers to it (the defining module,
so intra-module calls are seen, and each consumer's import site), and the
target methods on their classes.  Each wrapper records the call's wall time
and subtracts the time of traced calls nested inside it, so a span's *self*
time is the time spent in its own code and in untraced helpers it calls.
Spans are aggregated in memory per name: self seconds, calls and counters.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name.  A dotted attribute is a method on a class.
TARGETS = {
    ("families", "WeightFamily.a"): "families.eval",
    ("families", "CoefficientFamily.c"): "families.eval",
    ("families", "validate_hypotheses"): "families.validate_hypotheses",
    ("families", "eval_s"): "families.eval_s",
    ("families", "eval_J"): "families.eval_J",
    ("families", "tail_inv_weight"): "families.tail_inv_weight",
    ("families", "sup_inv_weight"): "families.sup_inv_weight",
    ("transfer", "build_C_range"): "transfer.build_C_range",
    ("transfer", "limit_product"): "transfer.limit_product",
    ("transfer", "tail_sum_C_minus_I"): "transfer.tail_sum_C_minus_I",
    ("transfer", "partial_products"): "transfer.partial_products",
    ("solutions", "build_solution"): "solutions.build_solution",
    ("solutions", "compute_I"): "solutions.compute_I",
    ("solutions", "compute_K"): "solutions.compute_K",
    ("solutions", "epsilon"): "solutions.epsilon",
    ("solutions", "verify_lemma_suite"): "solutions.verify_lemma_suite",
    ("solutions", "wronskian_residuals"): "solutions.wronskian_residuals",
    ("solutions", "scalar_det_prefix"): "solutions.scalar_det_prefix",
    ("parametrix", "random_rhs"): "parametrix.random_rhs",
    ("parametrix", "apply_Q"): "parametrix.apply_Q",
    ("parametrix", "apply_A"): "parametrix.apply_A",
    ("parametrix", "oracle_solve"): "parametrix.oracle_solve",
    ("parametrix", "oracle_matrix"): "parametrix.oracle_matrix",
    ("analysis", "decay_scan"): "analysis.decay_scan",
    ("analysis", "hs_norms"): "analysis.hs_norms",
    ("analysis", "scan_to_files"): "analysis.scan_to_files",
    ("dirac", "TruncatedAlgebraRep.__post_init__"): "dirac.rep_build",
    ("dirac", "algebra_sanity"): "dirac.algebra_sanity",
    ("config", "load_config"): "config.load_config",
    ("cli", "main"): "cli.main",
}

LAYERS = ("families", "transfer", "solutions", "parametrix", "analysis", "dirac", "config", "cli")


def _eval_elements(args, kwargs, result):
    # a(n, k) and c(i, n, k): k is the last argument, scalar or array
    k = kwargs.get("k", args[-1])
    return {"elements": int(np.size(k))}


def _sweep_I_steps(args, kwargs, result):
    return {"steps": int(result.shape[0]) - 1}


def _sweep_K_steps(args, kwargs, result):
    # the backward sweep runs from its seed index, at or beyond the table end
    k_hi = kwargs.get("k_hi", args[3] if len(args) > 3 else None)
    k_seed = kwargs.get("k_seed", args[5] if len(args) > 5 else None)
    return {"steps": int(k_hi if k_seed is None else k_seed)}


def _oracle_size(args, kwargs, result):
    # computed, not measured: the dense matrix's bytes, and the LU
    # factorisation plus triangular solves of a square n x n system
    n = int(result.shape[0])
    return {"bytes": int(result.nbytes), "flops": (2 * n**3) // 3 + 2 * n * n}


COUNTERS = {
    "families.eval": _eval_elements,
    "solutions.compute_I": _sweep_I_steps,
    "solutions.compute_K": _sweep_K_steps,
    "parametrix.oracle_matrix": _oracle_size,
}


class Tracer:
    """Aggregated spans: self seconds, calls and counters per span name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # one accumulator per open span: the time of its traced children
        self._stack: list[float] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self.self_s[name] += dt - child
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += val
            return result

        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)


def _package_modules():
    return [mod for name, mod in sys.modules.items() if name == "qsolidtorus" or name.startswith("qsolidtorus.")]


def install(tracer: Tracer):
    """Wrap every target; returns a callable that restores the originals."""
    undo = []
    modules = _package_modules()
    for (mod_name, attr), span in TARGETS.items():
        home = sys.modules[f"qsolidtorus.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(span, orig))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(home, attr)
        wrapped = tracer.wrap(span, orig)
        for mod in modules:
            if mod.__dict__.get(attr) is orig:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, orig))

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    s, n, c = tr.self_s, tr.calls, tr.counts
    out = {
        "families.eval_s": (s["families.eval"], "s"),
        "families.eval_calls": (n["families.eval"], "count"),
        "families.eval_elements": (c["families.eval.elements"], "count"),
        "transfer.C_stack_s": (s["transfer.build_C_range"], "s"),
        "transfer.C_stack_builds": (n["transfer.build_C_range"], "count"),
        "transfer.limit_product_s": (s["transfer.limit_product"], "s"),
        "solutions.sweep_I_s": (s["solutions.compute_I"], "s"),
        "solutions.sweep_K_s": (s["solutions.compute_K"], "s"),
        "solutions.builds": (n["solutions.build_solution"], "count"),
        "solutions.sweep_steps": (
            c["solutions.compute_I.steps"] + c["solutions.compute_K.steps"],
            "count",
        ),
        "solutions.lemma_s": (s["solutions.verify_lemma_suite"], "s"),
        "parametrix.oracle_assemble_s": (s["parametrix.oracle_matrix"], "s"),
        "parametrix.oracle_lu_s": (s["parametrix.oracle_solve"], "s"),
        "parametrix.oracle_calls": (n["parametrix.oracle_solve"], "count"),
        "parametrix.oracle_bytes_computed": (c["parametrix.oracle_matrix.bytes"], "B"),
        "parametrix.oracle_flops_computed": (c["parametrix.oracle_matrix.flops"], "flop"),
        "parametrix.apply_Q_s": (s["parametrix.apply_Q"], "s"),
        "parametrix.apply_A_s": (s["parametrix.apply_A"], "s"),
        "analysis.hs_norms_s": (s["analysis.hs_norms"], "s"),
        "analysis.decay_scan_self_s": (s["analysis.decay_scan"], "s"),
        "analysis.write_s": (s["analysis.scan_to_files"], "s"),
        "dirac.rep_build_s": (s["dirac.rep_build"], "s"),
        "dirac.algebra_sanity_s": (s["dirac.algebra_sanity"], "s"),
        "cli.self_s": (s["cli.main"], "s"),
        "config.load_s": (s["config.load_config"], "s"),
    }
    for layer in LAYERS:
        if layer not in ("cli", "config"):
            out[f"{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    return out
