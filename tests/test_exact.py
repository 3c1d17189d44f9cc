"""An exact rational reference for the truncated mode systems at small K.

Every float64 is an exact rational, so the level's float values of a_n,
a_{n+1}, c_1 and c_2, with m and the rule's K(inf), taken as ``Fraction``s are
exact inputs.  From them this module computes, with no rounding: the I and K
sweeps, tau, r* = -tau(0, 1)/tau(1, 0) (the seed ratio at which the truncated
problem has a kernel; not at m = 0, where tau(1, 0) = 0), and the solution of
the raw truncated system (the rows that ``oracle_solve`` factors: the
difference equations of ``apply_A``, the datum row and the boundary row) by
banded exact elimination, for one fixed right-hand side.  The families' own
rounding stays outside the comparison: both sides start from the same floats.

The package's float64 values are compared against them.  Each bound is
c * K * 2^-53 relative, with c stated at the comparison, and each test prints
its measured worst.  The sign of tau, and that r* lies outside the rule's
sign cone (so no admissible rule can sit at r*), are decided exactly.
"""

from fractions import Fraction

import numpy as np
import pytest

from qsolidtorus.parametrix import apply_Q, oracle_solve, random_rhs
from qsolidtorus.solutions import build_solution, compute_I, compute_K, pairing
from qsolidtorus.transfer import Levels, ModeIndex

CASES = [(0, 4, 16), (1, 0, 16), (-4, 0, 64), (32, 4, 64)]
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


@pytest.mark.parametrize("m, n, K", CASES)
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

