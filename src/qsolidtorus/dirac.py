"""Global assembly of the operator, its inverse, and algebra sanity checks.

A field is a finite collection of positive-sector Fourier data: for each mode
(m, n) a pair (g at level n, f at level n+1).  Applying the operator reduces,
mode by mode, to the 2x2 difference systems of the parametrix module; this is
implemented twice, once through the one-step matrices and once through the
raw one-step difference operators

    B_n h(k)    = a_n(k) (h(k) - c_{2,n}(k-1) h(k-1)),      h(-1) = 0,
    Bbar_n h(k) = a_{n+1}(k) (h(k) - c_{1,n}(k) h(k+1)),

composed with the angular multiplier m.  The two paths must agree exactly.

The truncated algebra representation realizes the generating isometry U and
unitary V on basis vectors e_{k,l} (0 <= k <= k_cut, |l| <= l_cut) and checks
the commutation relation, diagonal-function commutation, partial Fourier
coefficient extraction, and the trace functional inequality at finite size.
Every monomial V^m U^n or V^m (U*)^n is a weighted index shift, one entry per
column, so polynomials are assembled and their coefficients read off by index
arithmetic; the dense U and V are kept for the relation checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import write_json
from .families import CheckReport, CheckResult, CoefficientFamily, WeightFamily
from .parametrix import ParametrixResult, RhsPair, WeightedSeq, apply_A, apply_Q
from .solutions import build_solution
from .transfer import ModeIndex

Mode = tuple[int, int]


class ModeError(RuntimeError):
    """A per-mode failure, annotated with the mode it occurred in."""


@dataclass
class FourierField:
    """Positive-sector field: (m, n) -> (g_{m,n}, f_{m,n+1}) value tables."""

    entries: dict[Mode, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def modes(self) -> list[Mode]:
        return sorted(self.entries)

    def to_json(self) -> list[dict]:
        return [
            {"m": m, "n": n, "g": g.tolist(), "f": f.tolist()}
            for (m, n), (g, f) in sorted(self.entries.items())
        ]

    @classmethod
    def from_json(cls, records: list[dict]) -> "FourierField":
        entries = {}
        for rec in records:
            entries[(int(rec["m"]), int(rec["n"]))] = (
                np.asarray(rec["g"], dtype=float),
                np.asarray(rec["f"], dtype=float),
            )
        return cls(entries)


def random_field(
    modes: list[Mode], k_max: int, rng: np.random.Generator
) -> FourierField:
    return FourierField(
        {
            (m, n): (rng.standard_normal(k_max + 1), rng.standard_normal(k_max + 1))
            for (m, n) in modes
        }
    )


def h0_norm(field: FourierField, w: WeightFamily) -> float:
    """Norm of the field: weighted sum of squares over all stored modes."""
    total = 0.0
    for (m, n), (g, f) in field.entries.items():
        ks_g = np.arange(len(g))
        ks_f = np.arange(len(f))
        total += float(np.sum(g**2 / np.asarray(w.a(n, ks_g), dtype=float)))
        total += float(np.sum(f**2 / np.asarray(w.a(n + 1, ks_f), dtype=float)))
    return float(np.sqrt(total))


def op_B(w: WeightFamily, c: CoefficientFamily, n: int, h: np.ndarray) -> np.ndarray:
    """B_n h(k) = a_n(k)(h(k) - c_{2,n}(k-1) h(k-1)), same length as h."""
    ks = np.arange(len(h))
    a = np.asarray(w.a(n, ks), dtype=float)
    out = a * h.astype(float)
    c2 = np.asarray(c.c(2, n, ks[:-1]), dtype=float)
    out[1:] -= a[1:] * c2 * h[:-1]
    return out


def op_Bbar(w: WeightFamily, c: CoefficientFamily, n: int, h: np.ndarray) -> np.ndarray:
    """Bbar_n h(k) = a_{n+1}(k)(h(k) - c_{1,n}(k) h(k+1)), one entry shorter."""
    ks = np.arange(len(h) - 1)
    a = np.asarray(w.a(n + 1, ks), dtype=float)
    c1 = np.asarray(c.c(1, n, ks), dtype=float)
    return a * (h[:-1] - c1 * h[1:])


def delta1_component(field: FourierField) -> FourierField:
    """The angular multiplier: each mode's data scaled by its m."""
    return FourierField(
        {(m, n): (m * g, m * f) for (m, n), (g, f) in field.entries.items()}
    )


def apply_D(
    field: FourierField,
    w: WeightFamily,
    c: CoefficientFamily,
    path: str = "matrix",
) -> dict[Mode, RhsPair]:
    """Apply the operator mode by mode; output q0 is the initial-row datum.

    path "matrix" routes through the one-step matrix operator; path "delta"
    composes the raw difference operators and the angular multiplier.  Both
    produce the same block data (p_{m,n+1}(k), -q_{m,n}(k+1)) and the datum
    a_n(0) f(0) + m g(0).
    """
    out: dict[Mode, RhsPair] = {}
    for (m, n), (g, f) in sorted(field.entries.items()):
        mode = ModeIndex(m, n)
        if path == "matrix":
            out[(m, n)] = apply_A(
                mode, w, c, WeightedSeq(g, n), WeightedSeq(f, n + 1)
            )
        elif path == "delta":
            p = m * f[:-1] - op_Bbar(w, c, n, g)
            q = -op_B(w, c, n, f) - m * g
            out[(m, n)] = RhsPair(
                r1=WeightedSeq(p, n + 1),
                r2=WeightedSeq(-q[1:], n),
                q0=float(-q[0]),
            )
        else:
            raise ValueError(f"unknown path {path!r}")
    return out


def apply_Q_global(
    rhs: dict[Mode, RhsPair],
    w: WeightFamily,
    c: CoefficientFamily,
    rule="default",
    k_max: int | None = None,
) -> tuple[FourierField, dict[Mode, ParametrixResult]]:
    """Per-mode inverse applied over a field, merged in (m, n) order."""
    entries: dict[Mode, tuple[np.ndarray, np.ndarray]] = {}
    results: dict[Mode, ParametrixResult] = {}
    for (m, n) in sorted(rhs):
        r = rhs[(m, n)]
        k_mode = len(r.r1.values) if k_max is None else k_max
        try:
            sol = build_solution(ModeIndex(m, n), w, c, k_mode, rule=rule)
            res = apply_Q(sol, r, k_mode)
        except Exception as exc:
            raise ModeError(f"mode ({m}, {n}): {exc}") from exc
        entries[(m, n)] = (res.h_g.values, res.h_f.values)
        results[(m, n)] = res
    return FourierField(entries), results


# ---------------------------------------------------------------------------
# Truncated algebra representation


def _phase_power(base: np.ndarray, n: int) -> np.ndarray:
    """Elementwise base**n as the left-to-right product ((base * base) * base)...

    Spelled out in real arithmetic so every product rounds like the complex
    products of the dense generators; numpy's complex array multiply may fuse
    multiply-adds and differ from them in the last bit.
    """
    re, im = np.ones(base.shape), np.zeros(base.shape)
    for _ in range(n):
        re, im = re * base.real - im * base.imag, re * base.imag + im * base.real
    out = np.empty(base.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


@dataclass
class TruncatedAlgebraRep:
    """Finite matrices for the generators on e_{k,l}, 0<=k<=k_cut, |l|<=l_cut.

    theta is the deformation parameter as a fraction of a full turn; U shifts
    k upward with the phase exp(-2 pi i l theta), V shifts l upward, and the
    two label operators are diagonal.  Monomials in U, U* and V are weighted
    index shifts (see ``monomial``); the dense U and V are kept for the
    relation checks.
    """

    theta: float
    k_cut: int
    l_cut: int

    def __post_init__(self) -> None:
        l_dim = 2 * self.l_cut + 1
        self.dim = (self.k_cut + 1) * l_dim
        self.Kdiag, l = np.divmod(np.arange(self.dim), l_dim)
        self.Ldiag = l - self.l_cut
        # phases built from the single-step phasor keep the commutation
        # identity at the few-ulp level for irrational theta
        step = np.exp(-2j * np.pi * self.theta)
        phases = {0: 1.0 + 0.0j}
        for l in range(1, self.l_cut + 1):
            phases[l] = phases[l - 1] * step
            phases[-l] = phases[-(l - 1)] * np.conj(step)
        self.phases = np.array([phases[l] for l in range(-self.l_cut, self.l_cut + 1)])
        self.U = np.zeros((self.dim, self.dim), dtype=complex)
        self.V = np.zeros((self.dim, self.dim), dtype=complex)
        for op, (m, n) in ((self.U, (0, 1)), (self.V, (1, 0))):
            rows, cols, weights = self.monomial(m, n)
            op[rows, cols] = weights

    def idx(self, k: int, l: int) -> int:
        if not (0 <= k <= self.k_cut and abs(l) <= self.l_cut):
            raise ValueError(f"(k, l) = ({k}, {l}) outside 0<=k<={self.k_cut}, |l|<={self.l_cut}")
        return k * (2 * self.l_cut + 1) + (l + self.l_cut)

    def monomial(self, m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero entries (rows, cols, weights) of V^m U^n, or V^m (U*)^-n for n < 0.

        Column e_{k,l} goes to e_{k+n,l+m} with weight phase(l)**n (its
        conjugate when lowering); columns whose target leaves the cutoffs are
        dropped, as the truncated shifts annihilate them.
        """
        k, l = self.Kdiag + n, self.Ldiag + m
        cols = np.flatnonzero((0 <= k) & (k <= self.k_cut) & (np.abs(l) <= self.l_cut))
        base = self.phases[self.Ldiag[cols] + self.l_cut]
        weights = _phase_power(base if n >= 0 else base.conj(), abs(n))
        return cols + n * (2 * self.l_cut + 1) + m, cols, weights

    def diag_fn(self, fn) -> np.ndarray:
        return np.diag(np.asarray([fn(int(k)) for k in self.Kdiag], dtype=complex))


def _per_k(coeff: np.ndarray, k: np.ndarray) -> np.ndarray:
    """coeff[k], continued by its last value beyond its length."""
    return coeff[np.minimum(k, len(coeff) - 1)]


def assemble_polynomial(
    rep: TruncatedAlgebraRep,
    plus: dict[Mode, np.ndarray],
    minus: dict[Mode, np.ndarray],
) -> np.ndarray:
    """Element with prescribed partial Fourier coefficients.

    plus[(m, n)] are the coefficients of V^m U^n f(K); minus[(m, n)] those of
    f(K) V^m (U^*)^n (n >= 1).  Coefficient arrays are per-k diagonals, so a
    raising term scales the columns of its monomial and a lowering term its
    rows.
    """
    a = np.zeros((rep.dim, rep.dim), dtype=complex)
    for (m, n), coeff in plus.items():
        rows, cols, weights = rep.monomial(m, n)
        a[rows, cols] += weights * _per_k(coeff, rep.Kdiag[cols])
    for (m, n), coeff in minus.items():
        if n < 1:
            raise ValueError("lowering terms need n >= 1")
        rows, cols, weights = rep.monomial(m, -n)
        a[rows, cols] += weights * _per_k(coeff, rep.Kdiag[rows])
    return a


def extract_plus(rep: TruncatedAlgebraRep, a: np.ndarray, m: int, n: int, k: int) -> complex:
    """f+_{m,n}(k) = <e_{k,0}, (U*)^n V^-m a e_{k,0}>; U^n carries phase(0) = 1 there."""
    if k + n > rep.k_cut or abs(m) > rep.l_cut:
        return 0j
    return complex(a[rep.idx(k + n, m), rep.idx(k, 0)])


def extract_minus(rep: TruncatedAlgebraRep, a: np.ndarray, m: int, n: int, k: int) -> complex:
    """f-_{m,n}(k) = <e_{k,0}, a U^n V^-m e_{k,0}> = a[e_{k,0}, e_{k+n,-m}] phase(-m)**n."""
    if k + n > rep.k_cut or abs(m) > rep.l_cut:
        return 0j
    weight = complex(_phase_power(rep.phases[rep.l_cut - m], n))
    return complex(a[rep.idx(k, 0), rep.idx(k + n, -m)]) * weight


def trace_bound_terms(
    a: np.ndarray, b: np.ndarray, q0: np.ndarray
) -> tuple[float, float]:
    """|tr(ab Q0)| and ||a||_2 tr(b* b Q0)^(1/2) for a, b supported on one block.

    q0 indexes the block's l = 0 columns, where the projection Q0 lives.
    """
    lhs = abs(complex(np.sum(a[q0, :] * b[:, q0].T)))
    rhs = float(np.linalg.norm(a, 2)) * float(np.linalg.norm(b[:, q0]))
    return lhs, rhs


def _worst(values, initial: float = 0.0) -> float:
    """Largest value, NaN if any is NaN (the builtin max drops a NaN)."""
    return float(np.max(np.asarray(values, dtype=float), initial=initial))


@dataclass(frozen=True)
class AlgebraReport(CheckReport):
    checks: tuple[CheckResult, ...]
    worst: dict

    def as_dict(self) -> dict:
        return {"all_passed": self.all_passed, "checks": self.check_rows(), "worst": self.worst}


def algebra_sanity(
    rep: TruncatedAlgebraRep,
    rng: np.random.Generator | None = None,
    n_roundtrip: int = 5,
    n_trace: int = 25,
    tol_comm: float = 1e-15,
) -> AlgebraReport:
    """Finite-size checks of the generator relations and the trace functional.

    Shift truncation breaks the relations only on the edge rows/columns, so
    the commutation residual is measured on columns whose shifts stay inside
    the cutoffs; roundtrips use coefficients supported well inside.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    checks: list[CheckResult] = []
    worst: dict = {}

    lhs = rep.V @ rep.U
    rhs = np.exp(2j * np.pi * rep.theta) * (rep.U @ rep.V)
    cols = [rep.idx(k, l) for k in range(rep.k_cut) for l in range(-rep.l_cut, rep.l_cut)]
    rows = [rep.idx(k + 1, l + 1) for k in range(rep.k_cut) for l in range(-rep.l_cut, rep.l_cut)]
    resid = _worst(np.abs(lhs[rows, cols] - rhs[rows, cols]))
    worst["commutation"] = resid
    checks.append(
        CheckResult("commutation_VU_phase_UV", resid <= tol_comm, f"residual {resid:.3g}")
    )

    f_diag = rep.diag_fn(lambda k: 1.0 / (1.0 + k))
    f_diag_shift = rep.diag_fn(lambda k: 1.0 / (2.0 + k))
    r1 = float(np.max(np.abs(f_diag @ rep.U - rep.U @ f_diag_shift)))
    r2 = float(np.max(np.abs(f_diag @ rep.V - rep.V @ f_diag)))
    worst["diag_commutation"] = _worst([r1, r2])
    checks.append(
        CheckResult(
            "diagonal_function_shifts",
            worst["diag_commutation"] <= tol_comm,
            f"residuals {r1:.3g}, {r2:.3g}",
        )
    )

    deg = 3
    k_keep = rep.k_cut - 2 * deg
    dev_plus: list[float] = []
    dev_minus: list[float] = []
    for _ in range(n_roundtrip if k_keep >= 1 else 0):
        plus = {}
        minus = {}
        for _ in range(3):
            m = int(rng.integers(-deg, deg + 1))
            n_p = int(rng.integers(0, deg + 1))
            plus[(m, n_p)] = rng.standard_normal(k_keep)
            n_m = int(rng.integers(1, deg + 1))
            minus[(m, n_m)] = rng.standard_normal(k_keep)
        a = assemble_polynomial(rep, plus, minus)
        for (m, n_p), coeff in plus.items():
            for k in range(min(3, k_keep)):
                dev_plus.append(abs(extract_plus(rep, a, m, n_p, k) - coeff[k]))
        for (m, n_m), coeff in minus.items():
            for k in range(min(3, k_keep)):
                got = extract_minus(rep, a, m, n_m, k)
                dev_minus.append(abs(got - coeff[k]) / max(abs(coeff[k]), 1e-300))
    if k_keep >= 1:
        worst_plus, worst_minus, why = _worst(dev_plus), _worst(dev_minus), ""
    else:
        worst_plus = worst_minus = float("nan")
        why = f"; k_cut = {rep.k_cut} < {2 * deg + 1} leaves no coefficients inside the cutoffs"
    worst["roundtrip_plus"] = worst_plus
    worst["roundtrip_minus_rel"] = worst_minus
    checks.append(
        CheckResult(
            "fourier_roundtrip_plus_exact",
            worst_plus == 0.0,
            f"worst abs deviation {worst_plus:.3g}{why}",
        )
    )
    checks.append(
        CheckResult(
            "fourier_roundtrip_minus_ulp",
            worst_minus <= 4e-15,
            f"worst rel deviation {worst_minus:.3g} (unit-phasor pair rounding){why}",
        )
    )

    # a and b live on the inner block 1 <= k <= k_cut - 1, |l| <= l_cut - 1;
    # Q0 sees only its l = 0 columns
    inner = (rep.Kdiag >= 1) & (rep.Kdiag <= rep.k_cut - 1) & (np.abs(rep.Ldiag) <= rep.l_cut - 1)
    q0 = np.flatnonzero(rep.Ldiag[inner] == 0)
    shape = (int(inner.sum()),) * 2

    def draw() -> np.ndarray:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    bounds = [trace_bound_terms(draw(), draw(), q0) for _ in range(n_trace)]
    lhs_t, rhs_t = np.asarray(bounds, dtype=float).reshape(-1, 2).T
    # an empty block gives 0/0, which must fail rather than pass vacuously
    worst_trace = _worst(lhs_t / np.where(rhs_t > 0.0, rhs_t, np.nan), initial=-np.inf)
    worst["trace_ratio"] = worst_trace
    checks.append(
        CheckResult(
            "trace_functional_bound",
            bool(np.isfinite(worst_trace) and np.all(lhs_t <= rhs_t * (1.0 + 1e-12))),
            f"worst |tau(ab)| / (||a|| tau(b*b)^1/2) = {worst_trace:.6g}",
        )
    )
    return AlgebraReport(checks=tuple(checks), worst=worst)


def field_to_file(field: FourierField, path, meta: dict | None = None) -> None:
    payload = {"modes": field.to_json()}
    if meta:
        payload["meta"] = meta
    write_json(Path(path), payload)


def field_from_file(path) -> FourierField:
    with open(path) as fh:
        payload = json.load(fh)
    return FourierField.from_json(payload["modes"])
