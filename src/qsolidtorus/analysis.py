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

A scan passes only when every HS sum, bound, proxy and tail estimate is
finite: an overflowed bound or a NaN proxy fails the table instead of
satisfying its comparisons vacuously.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .families import (
    CheckReport,
    CheckResult,
    CoefficientFamily,
    WeightFamily,
    eval_s,
    tail_inv_weight,
)
from .solutions import KernelSolution, build_solution, suffix_sum
from .transfer import ModeIndex

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
    tail_estimate: float
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
        vals = [*self.hs.values(), *self.bounds.values(), self.tail_estimate, self.proxy]
        return bool(np.all(np.isfinite(vals)))

    def row(self) -> dict:
        """Flat record for CSV/JSON output."""
        rec = {"m": self.mode.m, "n": self.mode.n}
        for key, val in sorted(self.hs.items()):
            name = "hs_" + "".join(str(p) for p in key)
            rec[name] = val
            rec["bound_" + "".join(str(p) for p in key)] = self.bounds[key]
            rec["pass_" + "".join(str(p) for p in key)] = self.pass_flags[key]
        rec.update(
            epsilon=self.eps,
            s_n=self.s_n,
            s_n1=self.s_n1,
            tau=self.tau,
            ratio=self.ratio,
            proxy=self.proxy,
            tail_estimate=self.tail_estimate,
        )
        return rec


def hs_norms(
    sol: KernelSolution,
    w: WeightFamily,
    c: CoefficientFamily,
    k_max: int | None = None,
) -> HsReport:
    """Direct double sums for the kernel HS norms of ``sol.mode``, with bounds."""
    mode = sol.mode
    m, n = mode.m, mode.n
    k_max = sol.k_table if k_max is None else min(k_max, sol.k_table)
    s_n = eval_s(w, n)
    s_n1 = eval_s(w, n + 1)
    eps = sol.eps
    tau = sol.tau
    kappa = c.kappa
    an = sol.table.an[: k_max + 1]
    an1 = sol.table.an1[: k_max + 1]

    if m == 0:
        c2 = sol.table.c2
        hs_z = 0.0
        inner = 0.0
        for k in range(k_max + 1):
            if k > 0:
                inner *= c2[k - 1] ** 2
            inner += 1.0 / an[k]
            hs_z += inner / an1[k]
        hs_z = float(hs_z)
        bound = s_n.upper * s_n1.upper
        hs = {("Z", 0, 0): hs_z}
        bounds = {("Z", 0, 0): bound}
        flags = {("Z", 0, 0): bool(hs_z <= bound * (1.0 + BOUND_SLACK))}
        tail = tail_inv_weight(w, n + 1, k_max + 1) * s_n.upper
        return HsReport(
            mode=mode,
            hs=hs,
            bounds=bounds,
            pass_flags=flags,
            tail_estimate=tail,
            eps=eps.value,
            s_n=s_n.value,
            s_n1=s_n1.value,
            tau=tau,
            ratio=0.0,
            proxy=float(np.sqrt(hs_z)),
        )

    I = sol.I[: k_max + 1]
    Kf = sol.K[: k_max + 1]
    R = 1.0 / sol.table.prefix[: k_max + 1]
    a_of = {1: an, 2: an1}
    Ic = {1: I[:, 0], 2: I[:, 1]}
    Kc = {1: Kf[:, 0], 2: Kf[:, 1]}
    kernel_K = {1: R**2 * Kc[1] ** 2 / an, 2: R**2 * Kc[2] ** 2 / an1}
    kernel_I = {1: R**2 * Ic[1] ** 2 / an, 2: R**2 * Ic[2] ** 2 / an1}

    hs: dict = {}
    for alpha in (1, 2):
        out_w = Ic[alpha] ** 2 / a_of[alpha]
        for beta in (1, 2):
            if beta == 1:
                s_inner = suffix_sum(kernel_K[1])
            else:
                # shifted kernel argument: the upper sum reaches the table end
                s_inner = suffix_sum(np.append(0.0, kernel_K[2]))[:-1]
            hs[("X", alpha, beta)] = float(np.sum(out_w * s_inner))
    for alpha in (1, 2):
        out_w = Kc[alpha] ** 2 / a_of[alpha]
        for beta in (1, 2):
            pre = np.cumsum(kernel_I[beta])
            if beta == 2:
                pre = np.concatenate(([0.0], pre[:-1]))
            hs[("Y", alpha, beta)] = float(np.sum(out_w * pre))

    ratio = abs(sol.ratio_at_infinity)
    bound_s = tau * tau * kappa * (eps.upper + ratio) * s_n.upper
    bound_s1 = tau * tau * kappa * eps.upper * s_n1.upper
    bounds = {
        ("X", 1, 1): bound_s,
        ("X", 1, 2): bound_s,
        ("X", 2, 1): bound_s1,
        ("X", 2, 2): bound_s1,
        ("Y", 1, 1): bound_s,
        ("Y", 2, 1): bound_s,
        ("Y", 1, 2): bound_s1,
        ("Y", 2, 2): bound_s1,
    }
    flags = {key: bool(hs[key] <= bounds[key] * (1.0 + BOUND_SLACK)) for key in hs}

    # reported truncation envelope: deepest table values times the weight tails
    drift = 1.0 + sol.seed_tail_bound
    i_env = float(np.max(I[-1] ** 2)) * drift**2
    k_env = float(np.max(Kf[-1] ** 2)) * drift**2
    inner_tot = max(float(np.max(kernel_K[1])), float(np.max(kernel_K[2]))) * (k_max + 1)
    tail = (
        i_env * tail_inv_weight(w, n, k_max + 1) * inner_tot
        + k_env * tail_inv_weight(w, n, k_max + 1) * inner_tot
    )
    proxy = float(np.sqrt(sum(hs.values())) / abs(tau))
    return HsReport(
        mode=mode,
        hs=hs,
        bounds=bounds,
        pass_flags=flags,
        tail_estimate=tail,
        eps=eps.value,
        s_n=s_n.value,
        s_n1=s_n1.value,
        tau=tau,
        ratio=ratio,
        proxy=proxy,
    )


@dataclass(frozen=True)
class ScanTable(CheckReport):
    """Per-mode HS reports plus monotone-envelope decay summaries (``checks``).

    ``solutions`` maps (m, n) to the kernel solution each report was built
    from, so callers can run further per-mode checks without rebuilding.
    """

    rows: tuple[HsReport, ...]
    m_list: tuple[int, ...]
    n_list: tuple[int, ...]
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)
    solutions: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def all_passed(self) -> bool:
        return all(r.all_bounds_hold and r.all_finite for r in self.rows) and not self.failed()

    def report(self, m: int, n: int) -> HsReport:
        for r in self.rows:
            if r.mode.m == m and r.mode.n == n:
                return r
        raise KeyError((m, n))

    def to_json(self) -> dict:
        return {"rows": [r.row() for r in self.rows], "envelope": self.check_rows()}

    def to_csv(self) -> str:
        buf = io.StringIO()
        rows = [r.row() for r in self.rows]
        names: list[str] = []
        for rec in rows:
            for key in rec:
                if key not in names:
                    names.append(key)
        writer = csv.DictWriter(buf, fieldnames=names)
        writer.writeheader()
        for rec in rows:
            writer.writerow(rec)
        return buf.getvalue()


def decay_scan(
    m_list: tuple[int, ...],
    n_list: tuple[int, ...],
    w: WeightFamily,
    c: CoefficientFamily,
    k_max: int = 128,
    rule="default",
) -> ScanTable:
    """HS reports over a mode grid plus the decay checks along both axes."""
    rows = []
    sols = {}
    for m in m_list:
        for n in n_list:
            sol = build_solution(ModeIndex(m, n), w, c, k_max, rule=rule)
            sols[(m, n)] = sol
            rows.append(hs_norms(sol, w, c, k_max))
    table = {(r.mode.m, r.mode.n): r for r in rows}
    checks = []

    abs_ms = sorted({abs(m) for m in m_list if m != 0})
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
            if not table[(m, n_hi)].proxy < table[(m, n_lo)].proxy:
                ok = False
                wit = f"proxy({m},{n_hi}) >= proxy({m},{n_lo})"
        checks.append(CheckResult("proxy_decays_in_n", ok, wit))

    eps_ok = all(r.eps <= eval_s(w, r.mode.n).upper * (1.0 + 1e-12) for r in rows)
    checks.append(CheckResult("eps_below_s", eps_ok, "eps(m,n) <= s(n) on the grid"))
    return ScanTable(
        rows=tuple(rows),
        m_list=tuple(m_list),
        n_list=tuple(n_list),
        checks=tuple(checks),
        solutions=sols,
    )


def scan_to_files(table: ScanTable, out_dir, formats=("csv", "json"), meta: dict | None = None):
    """Write the scan outputs; returns the list of paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        p = out / "hs_scan.csv"
        p.write_text(table.to_csv())
        written.append(p)
    if "json" in formats:
        p = out / "hs_scan.json"
        payload = table.to_json()
        if meta:
            payload["meta"] = meta
        write_json(p, payload)
        written.append(p)
    return written


def _np_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


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


# json's own tokens for the non-finite floats (it writes them with allow_nan)
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cells(col: np.ndarray) -> list[str]:
    """The JSON text of every entry of a column, in row-major order."""
    if col.dtype.kind in "iu":
        return list(map(int.__repr__, col.ravel().tolist()))
    if col.dtype.kind != "f":
        raise TypeError(f"RowTable column of dtype {col.dtype}")
    cells = list(map(float.__repr__, col.ravel().tolist()))
    if not np.all(np.isfinite(col)):
        cells = [_JSON_NON_FINITE.get(s, s) for s in cells]
    return cells


def _render_rows(table: RowTable, indent: str) -> str:
    """``table`` as json's indent=2 list text, opened on a line indented by ``indent``."""
    if not len(table):
        return "[]"
    row_in, key_in, item_in = indent + "  ", indent + "    ", indent + "      "
    fields, cells = [], []
    for name in sorted(table.columns):
        col = table.columns[name]
        key = json.dumps(name).replace("%", "%%")
        text = _json_cells(col)
        if col.ndim == 1:
            fields.append(f"{key}: %s")
            cells.append(text)
            continue
        width = col.shape[1]
        items = ",".join([f"\n{item_in}%s"] * width)
        fields.append(f"{key}: [{items}\n{key_in}]" if width else f"{key}: []")
        cells.extend(text[j::width] for j in range(width))
    row = f"{row_in}{{\n{key_in}" + f",\n{key_in}".join(fields) + f"\n{row_in}}}"
    return "[\n" + ",\n".join(map(row.__mod__, zip(*cells))) + f"\n{indent}]"


def write_json(path: Path, payload: dict) -> None:
    """Write one JSON output, indented with sorted keys; numpy values become plain JSON.

    A ``RowTable`` value is written from its columns, as the same bytes
    ``json.dumps`` gives for its list of row dicts, at a fraction of the time.
    """
    # json writes each table as a marker string, replaced below by the table's text
    tables = []

    def default(obj):
        if isinstance(obj, RowTable):
            tables.append(obj)
            return f"\0RowTable {len(tables) - 1}"
        return _np_default(obj)

    text = json.dumps(payload, indent=2, sort_keys=True, default=default)
    for i, table in enumerate(tables):
        marker = json.dumps(f"\0RowTable {i}")
        at = text.index(marker)
        line = text[text.rfind("\n", 0, at) + 1 : at]
        rows = _render_rows(table, line[: len(line) - len(line.lstrip(" "))])
        text = text[:at] + rows + text[at + len(marker) :]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
