"""An exact rational reference for the truncated mode systems at small K.

Every float64 is an exact rational, so the level's float values of a_n,
a_{n+1}, c_1 and c_2, with m and the rule's K(inf), taken as ``Fraction``s are
exact inputs.  From them this module computes, with no rounding: the I and K
sweeps, tau, r* = -tau(0, 1)/tau(1, 0) (the seed ratio at which the truncated
problem has a kernel; not at m = 0, where tau(1, 0) = 0), and the solution of
the raw truncated system (the rows that ``oracle_solve`` factors: the
difference equations of ``apply_A``, the datum row and the boundary row) by
banded exact elimination, for one fixed right-hand side; and from the exact
sweeps, ``analysis.hs_norms``' eight X/Y Hilbert-Schmidt sums (at m = 0 the
report's Z00 is X12 / tau^2) and each lemma clause's margins lhs - rhs, k by
k.  The families' own rounding stays outside the comparison: both sides start
from the same floats.  The HS sums also run on the tabulated families, whose
c1 and c2 differ, so a c1/c2 swap in any sum shows.

The package's float64 values are compared against them.  Each bound is
c * K * 2^-53 relative, with c stated at the comparison, and each test prints
its measured worst.  The sign of tau, that r* lies outside the rule's sign
cone (so no admissible rule can sit at r*), and each lemma clause's verdict
are decided exactly.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from qsolidtorus.analysis import hs_norms
from qsolidtorus.families import default_families
from qsolidtorus.parametrix import apply_Q, oracle_solve, random_rhs
from qsolidtorus.solutions import build_solution, compute_I, compute_K, pairing, verify_lemma_suite
from qsolidtorus.transfer import Levels, ModeIndex
from reference import TABULATED

CASES = [(0, 4, 16), (1, 0, 16), (-4, 0, 64), (32, 4, 64)]
# the HS sums, lemma margins, oracle and inverse also at n = 16, K = 128: more time than the others together
DEEP_CASES = [*CASES, (0, 16, 128), (4, 16, 128)]
# on the tabulated families, c1 != c2 at k = 0, 1
TABULATED_CASES = [(0, 0, 16), (1, 0, 16)]
ULP = 2.0**-53


def _fractions(arr: np.ndarray) -> list[Fraction]:
    return [Fraction(v) for v in arr.tolist()]


class Exact:
    """The exact steps C(k), k < K, of one mode, from its table's floats."""

    def __init__(self, sol):
        t, K, m = sol.table, sol.k_table, Fraction(sol.mode.m)
        self.m, self.K = m, K
        self.an, self.an1, self.c1, self.c2 = (_fractions(a) for a in (t.an, t.an1, t.c1, t.c2))
        self.steps = []
        for k in range(K):
            c1, an1, an_next = self.c1[k], self.an1[k], self.an[k + 1]
            self.steps.append((1 / c1, -m / (an1 * c1), -m / (an_next * c1), self.c2[k] + m * m / (an_next * an1 * c1)))

    def sweep_I(self) -> list[tuple[Fraction, Fraction]]:
        out = [(Fraction(-1), self.m / self.an[0])]
        for a, b, c, d in self.steps:
            x, y = out[-1]
            out.append((a * x + b * y, c * x + d * y))
        return out

    def sweep_K(self, seed) -> list[tuple[Fraction, Fraction]]:
        """K(k) = C(k)^-1 K(k+1) from K(K) = seed; C^-1 = adj C c_1/c_2, det C = c_2/c_1 exactly."""
        out = [tuple(Fraction(v) for v in seed)]
        for k in reversed(range(self.K)):
            a, b, c, d = self.steps[k]
            x, y = out[-1]
            s = self.c1[k] / self.c2[k]
            out.append((s * (d * x - b * y), s * (a * y - c * x)))
        return out[::-1]

    def solve(self, r, boundary) -> list[Fraction]:
        """The raw truncated system's solution [x(0), y(0), x(1), ...] by banded exact elimination.

        Rows, in band order: the datum row m x(0) + a_n(0) y(0) = q0; for each k
        m y(k) - a_{n+1}(k) (x(k) - c_1(k) x(k+1)) = r1(k) and
        a_n(k+1) (y(k+1) - c_2(k) y(k)) + m x(k+1) = r2(k); the boundary row
        K2(K) x(K) - K1(K) y(K) = 0.  A pivot is the first remaining row with a
        nonzero entry in its column.
        """
        m, K = self.m, self.K
        rows = [({0: m, 1: self.an[0]}, Fraction(r.q0))]
        for k, (p, q) in enumerate(zip(_fractions(r.r1.values), _fractions(r.r2.values))):
            rows.append(({2 * k: -self.an1[k], 2 * k + 1: m, 2 * k + 2: self.an1[k] * self.c1[k]}, p))
            rows.append(({2 * k + 1: -self.an[k + 1] * self.c2[k], 2 * k + 2: m, 2 * k + 3: self.an[k + 1]}, q))
        k1, k2 = (Fraction(v) for v in boundary)
        rows.append(({2 * K: k2, 2 * K + 1: -k1}, Fraction(0)))
        rows = [({j: v for j, v in row.items() if v}, rhs) for row, rhs in rows]
        active, pivots = list(range(len(rows))), []
        for j in range(2 * K + 2):
            hits = [i for i in active if j in rows[i][0]]
            assert hits, f"the exact system is singular at column {j}"
            p = hits[0]
            active.remove(p)
            prow, prhs = rows[p]
            for i in hits[1:]:
                row, rhs = rows[i]
                f = row[j] / prow[j]
                for col, v in prow.items():
                    new = row.get(col, 0) - f * v
                    if new:
                        row[col] = new
                    else:
                        row.pop(col, None)
                rows[i] = (row, rhs - f * prhs)
            pivots.append((j, p))
        h = [Fraction(0)] * (2 * K + 2)
        for j, p in reversed(pivots):
            row, rhs = rows[p]
            h[j] = (rhs - sum(v * h[col] for col, v in row.items() if col != j)) / row[j]
        return h


def _running(v: list[Fraction], reverse: bool = False, strict: bool = False) -> list[Fraction]:
    """out[k] = the sum of v[i] over i <= k, or over i >= k when ``reverse``; ``strict`` leaves out i = k."""
    out, acc = [], Fraction(0)
    for x in reversed(v) if reverse else v:
        if not strict:
            acc += x
        out.append(acc)
        if strict:
            acc += x
    return out[::-1] if reverse else out


def _families(tabulated: bool):
    return TABULATED if tabulated else default_families()


@functools.cache
def exact_case(m: int, n: int, K: int, tabulated: bool = False):
    """The solution of (m, n) on K (default or tabulated families), its exact steps and its exact I and K sweeps."""
    sol = build_solution(ModeIndex(m, n), Levels(*_families(tabulated), K))
    ex = Exact(sol)
    return sol, ex, ex.sweep_I(), ex.sweep_K(sol.K_inf)


def exact_hs(ex: Exact, I, Kt) -> dict:
    """``hs_norms``' sums, keyed as there, from the exact tables.

    X^{alpha beta} sums outer I_alpha(k)^2 / a against the kernel R^2 K_beta^2 / a above k, Y^{alpha beta}
    outer K_alpha(k)^2 / a against R^2 I_beta^2 / a up to k, with R = prod c1/c2 and a = a_n (index 1) or
    a_{n+1} (index 2); the beta = 2 kernels are shifted one slot.  The same eight sums run at m = 0.
    """
    an, an1, K = ex.an, ex.an1, ex.K
    R2 = [Fraction(1)]
    for a, b in zip(ex.c1, ex.c2):
        R2.append(R2[-1] * (a / b) ** 2)

    def sq(H, j):
        return [H[k][j] ** 2 / (an, an1)[j][k] for k in range(K + 1)]

    def kernel(H, j):
        return [r * v for r, v in zip(R2, sq(H, j))]

    inner = {
        ("X", 1): _running(kernel(Kt, 0), reverse=True, strict=True),
        ("X", 2): _running(kernel(Kt, 1), reverse=True),
        ("Y", 1): _running(kernel(I, 0)),
        ("Y", 2): _running(kernel(I, 1), strict=True),
    }
    outer = {("X", 1): sq(I, 0), ("X", 2): sq(I, 1), ("Y", 1): sq(Kt, 0), ("Y", 2): sq(Kt, 1)}
    return {(op, a, b): sum(o * v for o, v in zip(outer[op, a], inner[op, b])) for op, a in outer for b in (1, 2)}


def exact_margins(ex: Exact, I, Kt, sol) -> dict:
    """Each lemma clause of ``verify_lemma_suite`` from the exact tables, by name: the (lhs, rhs) pairs of an
    inequality lhs <= rhs, k by k, or the entries a positive_* clause needs > 0 and a diag_* clause needs 0.

    The rule's ratio and tau are exact; eps's upper bracket is the package's float, taken as exact.
    """
    an, an1, c1, c2, K, m = ex.an, ex.an1, ex.c1, ex.c2, ex.K, ex.m
    K2 = [v[1] for v in Kt]
    if m == 0:
        return {"diag_pattern_I": [v[1] for v in I], "diag_pattern_K": [v[0] for v in Kt],
                "K2_nonincreasing": list(zip(K2[1:], K2[:-1]))}
    s = 1 if m > 0 else -1
    mI1, I2, K1 = [-v[0] for v in I], [s * v[1] for v in I], [s * v[0] for v in Kt]
    am, eps_up = abs(m), Fraction(sol.eps.upper)
    ratio = abs(Fraction(sol.K_inf[0]) / Fraction(sol.K_inf[1]))
    tau_abs = abs(Kt[0][0] * I[0][1] - Kt[0][1] * I[0][0])
    pref, pc1 = [Fraction(1)], [Fraction(1)]
    for a, b in zip(c1, c2):
        pref.append(pref[-1] * b / a)
        pc1.append(pc1[-1] * a)
    terms1 = [Fraction(0)] + [pc1[i] * K2[i] / an1[i] for i in range(K)]
    pair_scale = [tau_abs * p / q for p, q in zip(pref[:-1], c1)]
    clauses = {
        "monotone_neg_I1": (mI1[:-1], mI1[1:]),
        "monotone_I2_over_c2": (I2[:-1], [a / b for a, b in zip(I2[1:], c2)]),
        "monotone_K1_over_c1": (K1[1:], [a / b for a, b in zip(K1[:-1], c1)]),
        "monotone_K2": (K2[1:], K2[:-1]),
        "ratio_bound_I": (I2[:-1], [am * eps_up * v for v in mI1[1:]]),
        "ratio_bound_K": (K1[1:], [am * (eps_up + ratio) * v for v in K2[:-1]]),
        "tail_sum_K2_kernel": (
            _running(terms1, reverse=True, strict=True)[:-1], [p * v / am for p, v in zip(pc1[:-1], K1[:-1])]),
        "tail_sum_K1_kernel": (
            _running([a / b for a, b in zip(K1, an)], reverse=True, strict=True)[:-1], [v / am for v in K2[:-1]]),
        "product_K1_I2": ([a * b for a, b in zip(K1, I2)], [tau_abs * p for p in pref]),
        "product_K2_negI1": ([a * b for a, b in zip(K2, mI1)], [tau_abs * p for p in pref]),
        "product_negI1_next_K2": ([a * b for a, b in zip(mI1[1:], K2[:-1])], pair_scale),
        "product_I2_K1_next": ([a * b for a, b in zip(I2[:-1], K1[1:])], pair_scale),
    }
    out = {f"positive_{name}": arr for name, arr in (("neg_I1", mI1), ("I2", I2), ("K1", K1), ("K2", K2))}
    return out | {name: list(zip(lhs, rhs)) for name, (lhs, rhs) in clauses.items()}


def _rel_err(got: np.ndarray, want: list[Fraction]) -> float:
    """max |got - want| / |want| over the entries where want != 0; got must be 0.0 where want is 0."""
    worst = 0.0
    for g, w in zip(got.ravel().tolist(), want):
        if w == 0:
            assert g == 0.0
        else:
            worst = max(worst, float(abs(Fraction(g) - w) / abs(w)))
    return worst


@pytest.mark.parametrize("m, n, K", CASES)
def test_sweeps_and_tau_match_the_exact_reference(families, m, n, K):
    """I and K agree entry by entry within 2 K ulps relative, and tau within 2 K ulps, with tau's sign exact."""
    sol = build_solution(ModeIndex(m, n), Levels(*families, K))
    ex = Exact(sol)
    I, Kt = ex.sweep_I(), ex.sweep_K(sol.K_inf)
    tau = Kt[0][0] * I[0][1] - Kt[0][1] * I[0][0]
    errs = {
        "I": _rel_err(sol.I, [v for pair in I for v in pair]),
        "K": _rel_err(sol.K, [v for pair in Kt for v in pair]),
        "tau": float(abs(Fraction(sol.tau) - tau) / abs(tau)),
    }
    print(f"\n({m}, {n}) K={K}: " + ", ".join(f"{name} {v:.3g}" for name, v in errs.items()))
    assert all(v <= 2 * K * ULP for v in errs.values()), errs
    assert tau != 0 and np.sign(sol.tau) == (1 if tau > 0 else -1)


@pytest.mark.parametrize("m, n, K", [case for case in CASES if case[0] != 0])
def test_critical_ratio_is_outside_the_sign_cone(families, m, n, K):
    """r* = -tau(0, 1)/tau(1, 0) within 4 K ulps of the exact value, which lies exactly outside the rule's cone:
    a rule's K1(inf)/K2(inf) carries the sign of m, and r* the other sign."""
    levels = Levels(*families, K)
    ex = Exact(build_solution(ModeIndex(m, n), levels))
    I = ex.sweep_I()

    def tau(seed):
        K0 = ex.sweep_K(seed)[0]
        return K0[0] * I[0][1] - K0[1] * I[0][0]

    r_star = -tau((0.0, 1.0)) / tau((1.0, 0.0))
    mode = ModeIndex(m, n)
    I_f = compute_I(mode, levels)
    t01, t10 = (float(pairing(I_f, compute_K(mode, levels, seed, K)[0])[0]) for seed in ((0.0, 1.0), (1.0, 0.0)))
    r_float = -t01 / t10
    err = float(abs(Fraction(r_float) - r_star) / abs(r_star))
    print(f"\n({m}, {n}) K={K}: r* = {float(r_star):.6g}, float error {err:.3g}")
    assert err <= 4 * K * ULP
    assert r_star * m < 0 and r_float * m < 0


@pytest.mark.parametrize("m, n, K", DEEP_CASES)
def test_oracle_and_inverse_match_exact_elimination(families, m, n, K):
    """oracle_solve and apply_Q solve the raw system to within 2 K ulps of its exact solution, relative to its
    largest entry."""
    sol = build_solution(ModeIndex(m, n), Levels(*families, K))
    r = random_rhs(sol.mode, K, np.random.default_rng(K + n))
    h = Exact(sol).solve(r, sol.K[K])
    scale = max(abs(v) for v in h)
    errs = {}
    for name, res in (("oracle_solve", oracle_solve(sol, r)), ("apply_Q", apply_Q(sol, r))):
        got = np.stack((res.h_g.values, res.h_f.values), axis=1).ravel().tolist()
        errs[name] = float(max(abs(Fraction(g) - v) for g, v in zip(got, h)) / scale)
    print(f"\n({m}, {n}) K={K}: " + ", ".join(f"{name} {v:.3g}" for name, v in errs.items()))
    assert all(v <= 2 * K * ULP for v in errs.values()), errs



def _check_hs_sums(m: int, n: int, K: int, tabulated: bool) -> None:
    """hs_norms' sums, each within 2 K ulps relative of its exact value.

    At m = 0 the exact X/Y sums other than X12 and Y21 are 0, X12 equals Y21 exactly where c1 = c2 on the
    window, and the report's one sum Z00 is compared with X12 / tau^2.
    """
    sol, ex, I, Kt = exact_case(m, n, K, tabulated)
    want = exact_hs(ex, I, Kt)
    if m == 0:
        x12, y21 = want.pop(("X", 1, 2)), want.pop(("Y", 2, 1))
        assert set(want.values()) == {0}
        assert (x12 == y21) == (ex.c1 == ex.c2)
        want = {("Z", 0, 0): x12 / (Kt[0][0] * I[0][1] - Kt[0][1] * I[0][0]) ** 2}
    got = hs_norms(sol, *_families(tabulated)).hs
    assert set(got) == set(want)
    errs = {"%s%d%d" % key: float(abs(Fraction(got[key]) - v) / v) for key, v in want.items()}
    worst = max(errs, key=errs.get)
    print(f"\n({m}, {n}) K={K}: worst HS error {errs[worst]:.3g} ({worst})")
    assert all(v <= 2 * K * ULP for v in errs.values()), errs


@pytest.mark.parametrize("m, n, K", DEEP_CASES)
def test_hs_sums_match_the_exact_reference(m, n, K):
    """Every term is a positive square, so nothing cancels."""
    _check_hs_sums(m, n, K, tabulated=False)


@pytest.mark.parametrize("m, n, K", TABULATED_CASES)
def test_hs_sums_with_unequal_gaps_match_the_exact_reference(m, n, K):
    """On the tabulated families, where prod c1/c2 != 1, X12 != Y21 at m = 0 and Z00 is X12's."""
    _check_hs_sums(m, n, K, tabulated=True)


def _rel_margin(lhs: Fraction, rhs: Fraction) -> Fraction:
    scale = max(abs(lhs), abs(rhs))
    return (lhs - rhs) / scale if scale else Fraction(0)


@pytest.mark.parametrize("m, n, K", DEEP_CASES)
def test_lemma_verdicts_are_the_exact_ones(m, n, K):
    """Each lemma clause passes exactly when its exact inequality holds at every k (a positive_* clause: every
    entry > 0; a diag_* clause: every entry 0), and the report's worst relative margin is within 2 K ulps of
    the exact worst."""
    sol, ex, I, Kt = exact_case(m, n, K)
    margins = exact_margins(ex, I, Kt, sol)
    report = verify_lemma_suite(sol)
    assert {ch.name for ch in report.checks} == set(margins)
    worst = {}
    for ch in report.checks:
        v = margins[ch.name]
        if ch.name.startswith("positive_"):
            holds = all(x > 0 for x in v)
        elif ch.name.startswith("diag_"):
            holds = all(x == 0 for x in v)
        else:
            worst[ch.name] = max(_rel_margin(lhs, rhs) for lhs, rhs in v)
            holds = worst[ch.name] <= 0
        assert ch.passed == holds, ch
    exact_worst = max(worst.values())
    err = float(abs(Fraction(report.worst) - exact_worst))
    print(f"\n({m}, {n}) K={K}: worst margin {float(exact_worst):.6g}, float error {err:.3g}")
    assert err <= 2 * K * ULP
