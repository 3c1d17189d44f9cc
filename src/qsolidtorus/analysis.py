"""Hilbert-Schmidt tables for the parametrix kernels and their decay.

For each mode the eight kernel operators (four X, four Y) get their squared
weighted Hilbert-Schmidt sums evaluated directly from the I/K tables, compared
against the closed-form upper bounds tau^2 kappa (eps + ratio) s(n) and
tau^2 kappa eps s(n+1); the m = 0 mode contributes the cumulative kernel with
bound s(n) s(n+1).  The assembled inverse carries a 1/tau prefactor, so the
compactness surrogate reported per mode is sqrt(sum of the eight sums) / |tau|.

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
vacuously.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .families import (
    CheckReport,
    CheckResult,
    CoefficientFamily,
    WeightFamily,
    eval_s,
)
from .solutions import DEFAULT_RULE, MODE_ERRORS, BoundaryRule, KernelSolution, build_solution
from .solutions import (
    cumulative_product_sum,
    each_mode,
    mirror_solution,
    paired,
    per_mode,
    stack,
    suffix_sum,
    verify_lemma_suite,
    wronskian_residuals,
)
from .transfer import Levels, ModeIndex

FUBINI_PAIRS = (
    (("X", 1, 2), ("Y", 2, 1)),
    (("X", 2, 1), ("Y", 1, 2)),
    (("X", 1, 1), ("Y", 1, 1)),
    (("X", 2, 2), ("Y", 2, 2)),
)

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
    m, n = sol.mode.m, sol.mode.n
    s_n = eval_s(w, n)
    s_n1 = eval_s(w, n + 1)
    tau = sol.tau
    an = sol.table.an
    an1 = sol.table.an1

    if np.ndim(m) == 0 and m == 0:
        inner = cumulative_product_sum(1.0 / an, sol.table.c2**2)
        # summed in order: np.sum adds pairwise, which rounds differently
        hs = {("Z", 0, 0): np.cumsum(inner / an1)[-1]}
        bounds = {("Z", 0, 0): s_n.upper * s_n1.upper}
        ratio = 0.0
        proxy = np.sqrt(hs["Z", 0, 0])
    else:
        I = sol.I
        Kf = sol.K
        R = 1.0 / sol.table.prefix
        a_of = {1: an, 2: an1}
        Ic = {1: I[..., 0], 2: I[..., 1]}
        Kc = {1: Kf[..., 0], 2: Kf[..., 1]}
        kernel_K = {1: R**2 * Kc[1] ** 2 / an, 2: R**2 * Kc[2] ** 2 / an1}
        kernel_I = {1: R**2 * Ic[1] ** 2 / an, 2: R**2 * Ic[2] ** 2 / an1}
        zero = np.zeros(Kc[1].shape[:-1] + (1,))  # the shifted beta = 2 kernels start one slot later

        hs = {}
        for alpha in (1, 2):
            out_w = Ic[alpha] ** 2 / a_of[alpha]
            for beta in (1, 2):
                if beta == 1:
                    s_inner = suffix_sum(kernel_K[1])
                else:
                    # shifted kernel argument: the upper sum reaches the table end
                    s_inner = suffix_sum(np.concatenate((zero, kernel_K[2]), axis=-1))[..., :-1]
                hs[("X", alpha, beta)] = (out_w * s_inner).sum(axis=-1)
        for alpha in (1, 2):
            out_w = Kc[alpha] ** 2 / a_of[alpha]
            for beta in (1, 2):
                pre = kernel_I[beta].cumsum(axis=-1)
                if beta == 2:
                    pre = np.concatenate((zero, pre[..., :-1]), axis=-1)
                hs[("Y", alpha, beta)] = (out_w * pre).sum(axis=-1)

        ratio = np.abs(sol.ratio_at_infinity)
        bound_s = tau * tau * c.kappa * (sol.eps.upper + ratio) * s_n.upper
        bound_s1 = tau * tau * c.kappa * sol.eps.upper * s_n1.upper
        # X^{alpha beta} takes the bound of level n - 1 + alpha, Y^{alpha beta} that of n - 1 + beta
        bounds = {(op, a, b): bound_s if (a if op == "X" else b) == 1 else bound_s1 for op, a, b in hs}
        proxy = np.sqrt(sum(hs.values())) / np.abs(tau)
    flags = {key: hs[key] <= bounds[key] * (1.0 + BOUND_SLACK) for key in hs}
    hs, bounds, flags = ({key: per_mode(v) for key, v in d.items()} for d in (hs, bounds, flags))
    eps, tau, ratio, proxy = map(per_mode, (sol.eps.value, tau, ratio, proxy))
    return each_mode(sol, lambda mode, j: HsReport(
        mode, *({key: v[j] for key, v in d.items()} for d in (hs, bounds, flags)),
        eps[j], s_n.value, s_n1.value, tau[j], ratio[j], proxy[j],
    ))


@dataclass(frozen=True)
class ScanTable(CheckReport):
    """Per-mode HS reports plus monotone-envelope decay summaries (``checks``).

    ``lemmas`` maps each (m, n) with m != 0 that built to its solution's
    lemma report and worst Wronskian residual.  ``failures`` maps each mode
    whose solution could not be built (one of ``solutions.MODE_ERRORS``) to
    the error's message; it has no row.
    """

    rows: tuple[HsReport, ...]
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)
    failures: dict = field(default_factory=dict)
    lemmas: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def all_passed(self) -> bool:
        rows_ok = all(r.all_bounds_hold and r.all_finite for r in self.rows)
        return rows_ok and not self.failures and not self.failed()


def decay_scan(
    m_list: tuple[int, ...],
    n_list: tuple[int, ...],
    w: WeightFamily,
    c: CoefficientFamily,
    k_max: int,
    rule: BoundaryRule = DEFAULT_RULE,
) -> ScanTable:
    """HS reports and lemma reports over a mode grid, plus the decay checks along both axes.

    Where the rule is odd at m, the first of m and -m to come is built and
    checked (a level's built m != 0 modes as one ``stack``), and the other's
    solution and reports are its exact mirror.  A mode whose solution fails
    to build is recorded in ``failures``; the decay checks compare the modes
    that built.
    """
    levels = Levels(w, c, k_max)
    built = set()

    def build(mode: ModeIndex) -> KernelSolution:
        built.add(mode)
        return build_solution(mode, w, c, k_max, rule=rule, levels=levels)

    get = paired(build, lambda sol: mirror_solution(sol, rule), [ModeIndex(m, n) for m in m_list for n in n_list])
    table, lemma_of, failed = {}, {}, {}
    for n in dict.fromkeys(n_list):
        sols = {}
        for m in dict.fromkeys(m_list):
            try:
                sols[m] = get(ModeIndex(m, n))
            except MODE_ERRORS as exc:
                failed[(m, n)] = str(exc)
        # the level's built m != 0 solutions are checked as one stack, m = 0 alone
        checked = [sol for m, sol in sols.items() if m != 0 and sol.mode in built]
        if checked:
            st = stack(checked)
            wronskian = per_mode(wronskian_residuals(st).max(axis=-1))
            for sol, report, lemma, wr in zip(checked, hs_norms(st, w, c), verify_lemma_suite(st), wronskian):
                table[(sol.mode.m, n)], lemma_of[(sol.mode.m, n)] = report, (lemma, wr)
        for m, sol in sols.items():
            if m == 0:
                table[(m, n)] = hs_norms(sol, w, c)
            elif sol.mode not in built:
                # mirrored from its partner's solution, whose reports are its own
                report, (lemma, wr) = table[(-m, n)], lemma_of[(-m, n)]
                table[(m, n)], lemma_of[(m, n)] = replace(report, mode=sol.mode), (replace(lemma, mode=sol.mode), wr)
    grid = [(m, n) for m in m_list for n in n_list]
    rows = [table[mn] for mn in grid if mn in table]
    lemmas = {mn: lemma_of[mn] for mn in grid if mn in lemma_of}
    failures = {mn: failed[mn] for mn in grid if mn in failed}
    checks = []

    abs_ms = sorted({abs(m) for (m, _) in table if m != 0})
    if len(abs_ms) >= 2:
        lo, hi = abs_ms[0], abs_ms[-1]
        ok = True
        wit = f"proxy(|m|={hi}, n) < proxy(|m|={lo}, n) for all n"
        for n in n_list:
            for sgn in (1, -1):
                small = table.get((sgn * lo, n))
                m_big = next((mb for mb in (sgn * hi, -sgn * hi) if (mb, n) in table), None)
                if small is None or m_big is None:
                    continue
                big = table[(m_big, n)]
                if not big.proxy < small.proxy:
                    ok = False
                    wit = f"proxy({m_big},{n})={big.proxy:.3g} >= proxy({sgn*lo},{n})={small.proxy:.3g}"
        checks.append(CheckResult("proxy_decays_in_m", ok, wit))
    if len(n_list) >= 2:
        n_lo, n_hi = min(n_list), max(n_list)
        ok = True
        wit = f"proxy(m, {n_hi}) < proxy(m, {n_lo}) for all m"
        for m in m_list:
            if (m, n_hi) not in table or (m, n_lo) not in table:
                continue
            if not table[(m, n_hi)].proxy < table[(m, n_lo)].proxy:
                ok = False
                wit = f"proxy({m},{n_hi}) >= proxy({m},{n_lo})"
        checks.append(CheckResult("proxy_decays_in_n", ok, wit))

    eps_ok = all(r.eps <= eval_s(w, r.mode.n).upper * (1.0 + 1e-12) for r in rows)
    checks.append(CheckResult("eps_below_s", eps_ok, "eps(m,n) <= s(n) on the grid"))
    return ScanTable(
        rows=tuple(rows),
        checks=tuple(checks),
        failures=failures,
        lemmas=lemmas,
    )


def scan_to_files(table: ScanTable, out_dir, formats=("csv", "json"), meta: dict | None = None):
    """Write the scan outputs; returns the list of paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    rows = [r.row() for r in table.rows]
    if "csv" in formats:
        p = out / "hs_scan.csv"
        names = list(dict.fromkeys(key for rec in rows for key in rec))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=names)
        writer.writeheader()
        writer.writerows(rows)
        p.write_text(buf.getvalue())
        written.append(p)
    if "json" in formats:
        p = out / "hs_scan.json"
        payload = {"rows": rows, "envelope": table.as_dict()["checks"]}
        if meta:
            payload["meta"] = meta
        write_json(p, payload)
        written.append(p)
    return written


@dataclass(frozen=True)
class RowTable:
    """A list of row objects held as named numpy columns, for ``write_json``.

    Each column is 1-D int, 1-D float, or ``(rows, w)`` float; the last is
    written as a list of ``w`` numbers per row.  The text equals what
    ``json.dumps(indent=2, sort_keys=True)`` writes for the list of dicts.
    """

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if len({len(col) for col in self.columns.values()}) > 1:
            raise ValueError("RowTable columns differ in length")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    @classmethod
    def concat(cls, parts: list[dict[str, np.ndarray]]) -> RowTable:
        """One table from blocks of rows that share their column names."""
        names = parts[0] if parts else {}
        return cls({name: np.concatenate([p[name] for p in parts]) for name in names})


# json's own tokens for the non-finite magnitudes (it writes them with allow_nan)
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity"}


def _json_cells(col: np.ndarray) -> list[str]:
    """The JSON text of every entry of a column, in row-major order.

    Each distinct value is formatted once.  A float is formatted by its
    magnitude, and a negative one is "-" and that text: repr(-x) == "-" +
    repr(x) for every non-NaN x >= +0.0, -0.0 and inf included.
    """
    flat = col.ravel()
    if flat.dtype.kind in "iu":
        vals, inv = np.unique(flat, return_inverse=True)
        texts = list(map(int.__repr__, vals.tolist()))
    elif flat.dtype.kind == "f":
        mags, inv = np.unique(np.abs(flat), return_inverse=True)
        texts = list(map(float.__repr__, mags.tolist()))
        if not np.all(np.isfinite(mags)):
            texts = [_JSON_NON_FINITE.get(s, s) for s in texts]
        texts += ["-" + s for s in texts]
        inv = inv + len(mags) * (np.signbit(flat) & ~np.isnan(flat))
    else:
        raise TypeError(f"RowTable column of dtype {col.dtype}")
    return np.array(texts, dtype=object)[inv].tolist()


def _render_rows(table: RowTable, indent: str) -> str:
    """``table`` as json's indent=2 list text, opened on a line indented by ``indent``.

    The text is one join of a flat list that alternates the row template's
    literal pieces with the cells, ``2 * cells + 1`` entries per row.
    """
    if not len(table):
        return "[]"
    row_in, key_in, item_in = indent + "  ", indent + "    ", indent + "      "
    # "\0" marks a cell in the template: json.dumps escapes it in every key
    fields, cells = [], []
    for name in sorted(table.columns):
        col = table.columns[name]
        key = json.dumps(name)
        text = _json_cells(col)
        if col.ndim == 1:
            fields.append(f"{key}: \0")
            cells.append(text)
            continue
        width = col.shape[1]
        items = ",".join([f"\n{item_in}\0"] * width)
        fields.append(f"{key}: [{items}\n{key_in}]" if width else f"{key}: []")
        cells.extend(text[j::width] for j in range(width))
    row = f"{row_in}{{\n{key_in}" + f",\n{key_in}".join(fields) + f"\n{row_in}}}"
    literals = row.split("\0")
    # the row separator rides on each row's last piece; the final row's is cut below
    literals[-1] += ",\n"
    n_rows, stride = len(table), 2 * len(cells) + 1
    out = [""] * (n_rows * stride)
    for j, lit in enumerate(literals):
        out[2 * j :: stride] = [lit] * n_rows
    for j, text in enumerate(cells):
        out[2 * j + 1 :: stride] = text
    out[-1] = literals[-1][:-2]
    return "[\n" + "".join(out) + f"\n{indent}]"


def write_json(path: Path, payload: dict) -> None:
    """Write one JSON output, indented with sorted keys.

    A ``RowTable`` value is written from its columns, as the same bytes
    ``json.dumps`` gives for its list of row dicts, at a fraction of the time.
    Any other value json cannot write is a TypeError.
    """
    # json writes each table as a marker string, replaced below by the table's text
    tables = []

    def default(obj):
        if not isinstance(obj, RowTable):
            raise TypeError(f"not JSON serializable: {type(obj)}")
        tables.append(obj)
        return f"\0RowTable {len(tables) - 1}"

    text = json.dumps(payload, indent=2, sort_keys=True, default=default)
    for i, table in enumerate(tables):
        marker = json.dumps(f"\0RowTable {i}")
        at = text.index(marker)
        line = text[text.rfind("\n", 0, at) + 1 : at]
        rows = _render_rows(table, line[: len(line) - len(line.lstrip(" "))])
        text = text[:at] + rows + text[at + len(marker) :]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
