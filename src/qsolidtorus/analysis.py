"""Hilbert-Schmidt tables for the parametrix kernels and their decay.

For each mode the eight kernel operators (four X, four Y) get their squared
weighted Hilbert-Schmidt sums evaluated directly from the I/K tables, compared
against the closed-form upper bounds tau^2 kappa (eps + ratio) s(n) and
tau^2 kappa eps s(n+1).  The assembled inverse carries a 1/tau prefactor, so the
compactness surrogate reported per mode is sqrt(sum of the eight sums) / |tau|.
At m = 0 the same sums run, and only X12 and Y21 are nonzero; the mode reports
Z00 = X12 / tau^2, the x <- r1 block of the inverse, with bound s(n) s(n+1)
and proxy sqrt(Z00).

Truncation bookkeeping: inner sums are capped by table index (the shifted
beta = 2 kernels therefore reach one slot further), which makes the two cross
symmetry pairs exact finite-sum rearrangements of each other when the scalar
prefix products R = prod c1/c2 are identically 1, as for the matched default
gap coefficients (with t1 != t2 even the cross pairs differ).  The (1,1) and
(2,2) pairs differ by the diagonal terms of the lower-triangle operators; that
gap is intrinsic to the discrete kernels, and the acceptance suite checks the
pairs as the discrete identities they are.

Every sum runs over the solution's table, k <= K = ``sol.k_table``; no
truncation remainder is reported (a rigorous one is future work).  A scan
passes only when every HS sum, bound and proxy is finite: an overflowed bound
or a NaN proxy fails the table instead of satisfying its comparisons
vacuously, and a bound flag passes only where its sum and bound are finite.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .families import (
    CheckReport,
    CheckResult,
    CoefficientFamily,
    WeightFamily,
    eval_s,
)
from .solutions import DEFAULT_RULE, BoundaryRule, KernelSolution, build_solution, by_level
from .solutions import (
    each_mode,
    lone_m_zero,
    mirror_solution,
    per_mode,
    stack,
    suffix_sum,
    verify_lemma_suite,
    wronskian_residuals,
)
from .transfer import Levels, ModeIndex

BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class HsReport:
    """Squared HS sums, bounds and decay data for one mode."""

    mode: ModeIndex
    hs: dict
    bounds: dict
    pass_flags: dict
    eps: float
    s_n: float
    s_n1: float
    tau: float
    ratio: float
    proxy: float

    @property
    def all_bounds_hold(self) -> bool:
        return all(self.pass_flags.values())

    @property
    def all_finite(self) -> bool:
        vals = [*self.hs.values(), *self.bounds.values(), self.proxy]
        return bool(np.all(np.isfinite(vals)))

    def row(self) -> dict:
        """Flat record for CSV/JSON output."""
        rec = {"m": self.mode.m, "n": self.mode.n}
        for key, val in sorted(self.hs.items()):
            name = "%s%d%d" % key
            rec["hs_" + name] = val
            rec["bound_" + name] = self.bounds[key]
            rec["pass_" + name] = self.pass_flags[key]
        rec.update(
            epsilon=self.eps,
            s_n=self.s_n,
            s_n1=self.s_n1,
            tau=self.tau,
            ratio=self.ratio,
            proxy=self.proxy,
        )
        return rec


# the raw-scale sums may overflow at large |m|; the scan's finite gate reports it
@np.errstate(over="ignore", invalid="ignore")
def hs_norms(sol: KernelSolution, w: WeightFamily, c: CoefficientFamily) -> HsReport | list[HsReport]:
    """Direct double sums over the table for the kernel HS norms of ``sol.mode`` (of each of a stack), with bounds."""
    n = sol.mode.n
    s_n = eval_s(w, n)
    s_n1 = eval_s(w, n + 1)
    tau = sol.tau
    an = sol.table.an
    an1 = sol.table.an1
    mI1, I2, K1, K2 = sol.oriented()
    R2 = (1.0 / sol.table.prefix) ** 2
    zero = np.zeros(K1.shape[:-1] + (1,))  # the shifted beta = 2 kernels start one slot later
    # X^{alpha beta} sums outer[X, alpha] * inner[X, beta], each factor made once; X's inner
    # sum runs over its K kernel above k, Y's over its I kernel up to k
    inner = {
        ("X", 1): suffix_sum(R2 * K1**2 / an),
        # shifted kernel argument: the upper sum reaches the table end
        ("X", 2): suffix_sum(np.concatenate((zero, R2 * K2**2 / an1), axis=-1))[..., :-1],
        ("Y", 1): (R2 * mI1**2 / an).cumsum(axis=-1),
        ("Y", 2): np.concatenate((zero, (R2 * I2**2 / an1).cumsum(axis=-1)[..., :-1]), axis=-1),
    }
    outer = {("X", 1): mI1**2 / an, ("X", 2): I2**2 / an1, ("Y", 1): K1**2 / an, ("Y", 2): K2**2 / an1}
    # keys X before Y: proxy adds hs.values() in this order
    hs = {(op, alpha, beta): (outer[op, alpha] * inner[op, beta]).sum(axis=-1)
          for op, alpha in outer for beta in (1, 2)}

    ratio = np.abs(sol.ratio_at_infinity)
    bound_s = tau * tau * c.kappa * (sol.eps.upper + ratio) * s_n.upper
    bound_s1 = tau * tau * c.kappa * sol.eps.upper * s_n1.upper
    # X^{alpha beta} takes the bound of level n - 1 + alpha, Y^{alpha beta} that of n - 1 + beta
    bounds = {(op, a, b): bound_s if (a if op == "X" else b) == 1 else bound_s1 for op, a, b in hs}
    proxy = np.sqrt(sum(hs.values())) / np.abs(tau)
    if lone_m_zero(sol):
        # I2 = K1 = 0 leave X12 and Y21; X12 / tau^2 is the x <- r1 block, which carries c1 (Y21 carries c2)
        hs = {("Z", 0, 0): hs["X", 1, 2] / (tau * tau)}
        bounds = {("Z", 0, 0): s_n.upper * s_n1.upper}
        proxy = np.sqrt(hs["Z", 0, 0])
    # an inf sum under an inf bound fails its flag as well as the finite gate
    flags = {key: np.isfinite(hs[key]) & np.isfinite(bounds[key]) & (hs[key] <= bounds[key] * (1.0 + BOUND_SLACK))
             for key in hs}
    hs, bounds, flags = ({key: per_mode(v) for key, v in d.items()} for d in (hs, bounds, flags))
    eps, tau, ratio, proxy = map(per_mode, (sol.eps.value, tau, ratio, proxy))
    return each_mode(sol, lambda mode, j: HsReport(
        mode, *({key: v[j] for key, v in d.items()} for d in (hs, bounds, flags)),
        eps[j], s_n.value, s_n1.value, tau[j], ratio[j], proxy[j],
    ))


@dataclass(frozen=True, kw_only=True)
class ScanTable(CheckReport):
    """Per-mode HS reports plus monotone-envelope decay summaries (``checks``).

    ``lemmas`` maps each (m, n) that built to its solution's lemma report
    and worst Wronskian residual (None at m = 0, whose suite is the diagonal
    pattern checks).  ``failures`` maps each mode
    whose solution could not be built (one of ``solutions.MODE_ERRORS``) to
    the error's message; it has no row.
    """

    rows: tuple[HsReport, ...]
    failures: dict = field(default_factory=dict)
    lemmas: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def all_passed(self) -> bool:
        rows_ok = all(r.all_bounds_hold and r.all_finite for r in self.rows)
        return rows_ok and not self.failures and not self.failed()


def decay_scan(
    m_list: tuple[int, ...],
    n_list: tuple[int, ...],
    levels: Levels,
    rule: BoundaryRule = DEFAULT_RULE,
) -> ScanTable:
    """HS reports and lemma reports over a mode grid, plus the decay checks along both axes.

    The grid runs level by level (``solutions.by_level``), and only the
    reports outlive a level.  The modes that ``by_level`` built are checked
    (a level's m != 0 modes as one ``stack``); a mode it mirrored takes its
    partner's reports, since its solution is the partner's exact mirror.  A
    mode whose solution fails to build is recorded in ``failures``; the decay
    checks compare the modes that built.  A repeated m or n is a ValueError.

    Checking the mirrored modes in the stack too, not copying their reports,
    raised ``scan --kmax 65536`` from 162 to 200 MB peak RSS and from 4.9-5.4 s
    to 6.2-6.3 s (2-vCPU shared host).
    """
    for name, values in (("m", m_list), ("n", n_list)):
        if len(set(values)) < len(values):
            raise ValueError(f"decay_scan lists {name}={next(v for v in values if values.count(v) > 1)} more than once")
    w, c = levels.w, levels.c
    # each (m, n) that built: its HS report, its lemma report and its worst Wronskian residual (None at m = 0)
    record, failed = {}, {}

    def check(n: int, sols: dict, mirrored: dict) -> None:
        # the level's built m != 0 solutions are checked as one stack, m = 0 alone
        own = [sol for mode, sol in sols.items() if mode.m != 0 and mode not in mirrored]
        if own:
            st = stack(own)
            wronskian = per_mode(wronskian_residuals(st).max(axis=-1))
            for sol, *rec in zip(own, hs_norms(st, w, c), verify_lemma_suite(st), wronskian):
                record[sol.mode.m, n] = tuple(rec)
        for mode, sol in sols.items():
            if mode.m == 0:
                record[0, n] = hs_norms(sol, w, c), verify_lemma_suite(sol), None
            elif mode in mirrored:
                # its solution is its partner's mirrored, so its reports are the partner's
                report, lemma, wr = record[mirrored[mode].m, n]
                record[mode.m, n] = replace(report, mode=mode), replace(lemma, mode=mode), wr

    grid = [(m, n) for m in m_list for n in n_list]
    modes = [ModeIndex(*mn) for mn in grid]
    for n, sols, errors, mirrored in by_level(modes, lambda mode: build_solution(mode, levels, rule),
                                              lambda sol: mirror_solution(sol, rule)):
        failed.update(((mode.m, n), msg) for mode, msg in errors.items())
        check(n, sols, mirrored)
    rows = {mn: record[mn][0] for mn in grid if mn in record}

    def decays(name: str, pairs: list, held: str, broke: Callable[[HsReport, HsReport], str]) -> CheckResult:
        """Whether the second mode of each (first, second) pair that built has the smaller proxy."""
        bad = [(rows[a], rows[b]) for a, b in pairs if a in rows and b in rows and not rows[b].proxy < rows[a].proxy]
        return CheckResult(name, not bad, broke(*bad[-1]) if bad else held)

    checks = []
    abs_ms = sorted({abs(m) for m, _ in rows if m != 0})
    if len(abs_ms) >= 2:
        lo, hi = abs_ms[0], abs_ms[-1]
        # each sign's smallest |m| against its largest, or the other sign's where that did not build
        pairs = [((sgn * lo, n), next(((mb, n) for mb in (sgn * hi, -sgn * hi) if (mb, n) in rows), None))
                 for n in n_list for sgn in (1, -1)]
        checks.append(decays(
            "proxy_decays_in_m", pairs, f"proxy(|m|={hi}, n) < proxy(|m|={lo}, n) for all n",
            lambda a, b: f"proxy({b.mode.m},{b.mode.n})={b.proxy:.3g} >= proxy({a.mode.m},{a.mode.n})={a.proxy:.3g}",
        ))
    if len(n_list) >= 2:
        n_lo, n_hi = min(n_list), max(n_list)
        checks.append(decays(
            "proxy_decays_in_n", [((m, n_lo), (m, n_hi)) for m in m_list],
            f"proxy(m, {n_hi}) < proxy(m, {n_lo}) for all m",
            lambda a, b: f"proxy({b.mode.m},{b.mode.n}) >= proxy({a.mode.m},{a.mode.n})",
        ))

    s_upper = {n: eval_s(w, n).upper for n in {n for _, n in rows}}
    eps_ok = all(r.eps <= s_upper[r.mode.n] * (1.0 + 1e-12) for r in rows.values())
    checks.append(CheckResult("eps_below_s", eps_ok, "eps(m,n) <= s(n) on the grid"))
    return ScanTable(
        rows=tuple(rows.values()),
        checks=tuple(checks),
        failures={mn: failed[mn] for mn in grid if mn in failed},
        lemmas={mn: record[mn][1:] for mn in grid if mn in record},
    )


def scan_to_files(table: ScanTable, out_dir, meta: dict):
    """Write ``hs_scan.csv`` and ``hs_scan.json``; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [r.row() for r in table.rows]
    csv_path, json_path = out / "hs_scan.csv", out / "hs_scan.json"
    names = list(dict.fromkeys(key for rec in rows for key in rec))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=names)
    writer.writeheader()
    writer.writerows(rows)
    csv_path.write_text(buf.getvalue())
    write_json(json_path, {"rows": rows, "envelope": table.as_dict()["checks"], "meta": meta})
    return [csv_path, json_path]


# json's own tokens for the non-finite magnitudes (it writes them with allow_nan)
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity"}

# rows of a table formatted into one text per write to the file
WRITE_BLOCK_ROWS = 512

# distinct values formatted per step, so that only this many of their str objects live at once
_FORMAT_CHUNK = 4096

# a cell's sign, by the low bit of its code
_SIGNS = np.array([b"", b"-"])


def _texts(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column's distinct texts, as fixed-width bytes, and each cell's code.

    A cell's code is twice its text's index, plus one for a negative float:
    a float is formatted by its magnitude, as repr(-x) == "-" + repr(x) for
    every non-NaN x >= +0.0, -0.0 and inf included.  The widths hold the
    longest repr, 23 characters for a float64 magnitude and 20 for an int64
    or uint64.  The distinct values come from one sort, as in
    ``np.unique``, which would hold several more full-size copies of the
    column at once.
    """
    flat = col.ravel()
    kind = flat.dtype.kind
    if kind not in "iuf":
        raise TypeError(f"table column of dtype {col.dtype}")
    order = np.argsort(np.abs(flat) if kind == "f" else flat)
    keys = flat[order]
    if kind == "f":
        np.abs(keys, out=keys)
    # a key starts a run of equal keys unless it equals the one before; the NaNs, sorted last, are one run
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    if kind == "f":
        new[1:] &= ~np.isnan(keys[:-1])
    vals = keys[new]
    del keys
    codes = np.empty(len(flat), dtype=np.min_scalar_type(2 * len(vals)))
    ranks = np.cumsum(new, dtype=codes.dtype)
    ranks -= 1
    ranks *= 2
    codes[order] = ranks
    del new, order, ranks
    if kind == "f":
        codes += np.signbit(flat) & ~np.isnan(flat)
    fmt = float.__repr__ if kind == "f" else int.__repr__
    texts = np.empty(len(vals), dtype="S23" if kind == "f" else "S20")
    for lo in range(0, len(vals), _FORMAT_CHUNK):
        chunk = vals[lo : lo + _FORMAT_CHUNK]
        strs = list(map(fmt, chunk.tolist()))
        if not np.isfinite(chunk).all():
            strs = [_JSON_NON_FINITE.get(s, s) for s in strs]
        texts[lo : lo + len(strs)] = strs
    return texts, codes.reshape(col.shape)


def write_json(path: Path, payload: dict) -> None:
    """Write one JSON output, indented with sorted keys.

    A value json cannot write is a TypeError, raised before the file is opened.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("ascii"))


def write_table(path: Path, meta: dict, blocks: list[dict[str, np.ndarray]]) -> None:
    """Write ``{"meta": meta, "rows": rows}`` as ``write_json`` would, the rows given as blocks of columns.

    The blocks are dicts of numpy columns that share their names and their
    length; a column is 1-D int, 1-D float, or ``(rows, w)`` float, and the
    last is written as a list of ``w`` numbers per row.  Blocks whose
    columns differ are a ValueError.  The columns are joined one name at a
    time, each block's part taken out of its dict (``pop``), and each joined
    column is dropped once it is coded (``_texts``), so the blocks and the
    columns are never all held at once.

    A column or a meta value the writer cannot render is a TypeError, raised
    before the file is opened.  The rows then fill one row template per
    ``WRITE_BLOCK_ROWS`` rows, a sign and a text per cell, so no more than
    one block's text exists.
    """
    names = sorted(blocks[0]) if blocks else []
    for block in blocks:
        if sorted(block) != names or len({len(col) for col in block.values()}) > 1:
            raise ValueError("table blocks differ in their column names or lengths")
    n_rows = sum(len(block[names[0]]) for block in blocks) if names else 0
    fields, cells = [], []
    for name in names:
        key = json.dumps(name).replace("%", "%%")
        texts, codes = _texts(np.concatenate([block.pop(name) for block in blocks]))
        if codes.ndim == 1:
            fields.append(f"{key}: %s%s")
            cells.append((texts, codes))
            continue
        width = codes.shape[1]
        items = ",".join(["\n        %s%s"] * width)
        fields.append(f"{key}: [{items}\n      ]" if width else f"{key}: []")
        cells.extend((texts, codes[:, j]) for j in range(width))
    row = ("    {\n      " + ",\n      ".join(fields) + "\n    }").encode("ascii")
    # "meta" sorts before "rows", so the rows' text is the last value
    head = json.dumps({"meta": meta, "rows": []}, indent=2, sort_keys=True).removesuffix("[]\n}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(head.encode("ascii"))
        for lo in range(0, n_rows, WRITE_BLOCK_ROWS):
            f.write(b",\n" if lo else b"[\n")
            parts = []
            for texts, codes in cells:
                c = codes[lo : lo + WRITE_BLOCK_ROWS]
                parts += [_SIGNS[c & 1].tolist(), texts[c >> 1].tolist()]
            size = min(WRITE_BLOCK_ROWS, n_rows - lo)
            f.write(b",\n".join([row] * size) % tuple(chain.from_iterable(zip(*parts))))
        f.write(b"\n  ]\n}" if n_rows else b"[]\n}")
