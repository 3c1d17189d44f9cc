"""Acceptance suite: the contract checks at desk scale, one test per criterion.

Grid: the default families, m in {0, +-1, +-2, +-4, +-8, +-16, +-32},
n in {0, 1, 2, 4, 8, 16}, truncation K = 128, seeded random right-hand sides.
Each test prints one pass/fail line; tolerances are pinned in-line.
"""

import math
import time

import numpy as np
import scipy.linalg

from qsolidtorus.analysis import decay_scan, hs_norms
from qsolidtorus.dirac import TruncatedAlgebraRep, algebra_sanity
from qsolidtorus.families import default_families, eval_s
from qsolidtorus.parametrix import (
    RhsPair,
    WeightedSeq,
    apply_A,
    apply_Q,
    oracle_matrix,
    random_rhs,
)
from qsolidtorus.solutions import (
    build_solution,
    verify_lemma_suite,
    wronskian_residuals,
)
from qsolidtorus.transfer import Levels, ModeIndex, scalar_det_prefix
import reference
from reference import FUBINI_PAIRS, apply_D_delta

W, C = default_families()
GRID_M = (0, 1, -1, 2, -2, 4, -4, 8, -8, 16, -16, 32, -32)
GRID_N = (0, 1, 2, 4, 8, 16)
K_MAX = 128
N_RHS = 10
SEED = 20250808

_SOLUTIONS: dict = {}
_FIXTURES: dict = {}
_RESULTS: dict = {}


def grid_modes():
    return [(m, n) for m in GRID_M for n in GRID_N]


def solution(m, n, k_max=K_MAX):
    key = (m, n, k_max)
    if key not in _SOLUTIONS:
        _SOLUTIONS[key] = build_solution(ModeIndex(m, n), Levels(W, C, k_max))
    return _SOLUTIONS[key]


def fixtures(m, n):
    if (m, n) not in _FIXTURES:
        rng = np.random.default_rng((SEED, m + 64, n))
        _FIXTURES[(m, n)] = [random_rhs(ModeIndex(m, n), K_MAX, rng) for _ in range(N_RHS)]
    return _FIXTURES[(m, n)]


def q_results(m, n):
    if (m, n) not in _RESULTS:
        sol = solution(m, n)
        _RESULTS[(m, n)] = [
            apply_Q(sol, r) for r in fixtures(m, n)
        ]
    return _RESULTS[(m, n)]


def rhs_rel_diff(a: RhsPair, b: RhsPair, t) -> float:
    diff = RhsPair(
        r1=WeightedSeq(a.r1.values - b.r1.values, a.r1.level),
        r2=WeightedSeq(a.r2.values - b.r2.values, a.r2.level),
        q0=a.q0 - b.q0,
    )
    return diff.norm(t) / b.norm(t)


def test_criterion_1_right_inverse():
    """||A(Q(r)) - r|| / ||r|| <= 1e-9 for 10 seeded rhs per mode, < 30 s."""
    t0 = time.time()
    worst = 0.0
    for (m, n) in grid_modes():
        sol = solution(m, n)
        t = sol.table
        for r, res in zip(fixtures(m, n), q_results(m, n)):
            back = apply_A(sol, res.h_g, res.h_f)
            worst = max(worst, rhs_rel_diff(back, r, t))
    elapsed = time.time() - t0
    assert worst <= 1e-9, f"worst right-inverse residual {worst:.3e}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds budget"
    print(f"\n[PASS] criterion 1 right-inverse: worst residual {worst:.3e} in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    """Kernel-formula inverse agrees with the dense constrained solve <= 1e-8."""
    worst = 0.0
    for (m, n) in grid_modes():
        sol = solution(m, n)
        mat = oracle_matrix(sol)
        lu = scipy.linalg.lu_factor(mat)
        for r, res in zip(fixtures(m, n), q_results(m, n)):
            rhs = np.zeros(2 * (K_MAX + 1))
            rhs[0 : 2 * K_MAX : 2] = r.r1.values
            rhs[1 : 2 * K_MAX + 1 : 2] = r.r2.values
            rhs[2 * K_MAX] = r.q0
            hvec = scipy.linalg.lu_solve(lu, rhs)
            got = np.empty_like(hvec)
            got[0::2] = res.h_g.values
            got[1::2] = res.h_f.values
            scale = float(np.max(np.abs(hvec)))
            worst = max(worst, float(np.max(np.abs(got - hvec))) / scale)
    assert worst <= 1e-8, f"worst oracle deviation {worst:.3e}"
    print(f"\n[PASS] criterion 2 oracle equivalence: worst deviation {worst:.3e}")


def test_criterion_3_kernel_triviality():
    """sigma_min > 0 everywhere; A I ~ 0; dropping the boundary row leaves span(I)."""
    sigma_floor = np.inf
    worst_ai = 0.0
    worst_cos = 1.0
    for (m, n) in grid_modes():
        sol = solution(m, n)
        mat = oracle_matrix(sol)
        sv = np.linalg.svd(mat, compute_uv=False)
        sigma_floor = min(sigma_floor, sv[-1] / sv[0])
        assert sv[-1] > 0.0

        out = apply_A(sol, WeightedSeq(sol.I[: K_MAX + 1, 0], n), WeightedSeq(sol.I[: K_MAX + 1, 1], n + 1))
        scale = float(np.max(np.abs(sol.I[: K_MAX + 1]))) * W.a(n + 1, K_MAX)
        resid = max(float(np.max(np.abs(out.r1.values))), float(np.max(np.abs(out.r2.values))), abs(out.q0)) / scale
        worst_ai = max(worst_ai, resid)

        free = oracle_matrix(sol, drop_boundary=True)
        sv_f = np.linalg.svd(free, compute_uv=False)
        assert sv_f[-1] > 1e-10 * sv_f[0], f"extra nullspace at mode ({m}, {n})"
        _, _, vt = np.linalg.svd(free)
        null = vt[-1]
        i_vec = sol.I[: K_MAX + 1].ravel()
        cos = abs(null @ i_vec) / (np.linalg.norm(null) * np.linalg.norm(i_vec))
        worst_cos = min(worst_cos, cos)
    assert worst_ai <= 1e-12, f"worst A I residual {worst_ai:.3e}"
    assert worst_cos >= 1 - 1e-8, f"worst nullspace cosine 1-{1 - worst_cos:.3e}"
    print(
        f"\n[PASS] criterion 3 kernel triviality: min sigma ratio {sigma_floor:.3e}, "
        f"A*I residual {worst_ai:.3e}, nullspace cosine deficit {1 - worst_cos:.3e}"
    )


def test_criterion_4_wronskian_identity():
    """Pairing transport relative error <= 1e-12 at all k <= 128, all modes."""
    worst = 0.0
    for (m, n) in grid_modes():
        worst = max(worst, float(np.max(wronskian_residuals(solution(m, n)))))
    assert worst <= 1e-12, f"worst transport error {worst:.3e}"
    print(f"\n[PASS] criterion 4 Wronskian identity: worst relative error {worst:.3e}")


def test_criterion_5_inequality_suite():
    """Zero violations for m in 1..32, n <= 16, k <= 128, slack 1e-14 * scale."""
    violations = []
    worst_margin = -np.inf
    for m in range(1, 33):
        for n in range(0, 17):
            sol = build_solution(ModeIndex(m, n), Levels(W, C, K_MAX))
            report = verify_lemma_suite(sol)
            worst_margin = max(worst_margin, report.worst)
            if not report.all_passed:
                violations.append((m, n, [ch.name for ch in report.checks if not ch.passed]))
    assert not violations, f"first violations: {violations[:3]}"
    print(f"\n[PASS] criterion 5 inequality suite: 0 violations, worst margin {worst_margin:.3e}")


def test_criterion_6_hs_bounds():
    """All kernel HS sums within their closed-form bounds x (1 + 1e-10)."""
    worst_frac = 0.0
    for (m, n) in grid_modes():
        rep = hs_norms(solution(m, n), W, C)
        for key, val in rep.hs.items():
            frac = val / rep.bounds[key]
            worst_frac = max(worst_frac, frac)
            assert val <= rep.bounds[key] * (1 + 1e-10), (m, n, key, frac)
        if m == 0:
            assert rep.hs[("Z", 0, 0)] <= eval_s(W, n).upper * eval_s(W, n + 1).upper
    print(f"\n[PASS] criterion 6 HS bounds: worst computed/bound fraction {worst_frac:.3f}")


def test_criterion_6_fubini_pairs():
    """All four symmetry pairs as discrete identities at 1e-12 relative.

    hs_norms sums the operators of reference.apply_XYZ: X is a strict upper
    tail, Y an inclusive lower triangle, and the beta = 2 kernels are shifted
    one slot.
    When the scalar prefix products R = prod c1/c2 are identically 1 (the
    matched default gap coefficients), the cross pairs (X12, Y21) and
    (X21, Y12) are exact finite-sum rearrangements of each other.  Each
    same-index pair counts the diagonal k = i on one side only, so the
    discrete identities are Y11 = X11 + D11 and X22 = Y22 + D22 with
    D11 = sum_k R^2 K1^2 I1^2 / a_n^2 and D22 = sum_k R^2 K2^2 I2^2 / a_{n+1}^2.
    The literal equality X11 = Y11, X22 = Y22 holds only in the continuum
    reading where the diagonal has measure zero.  D11 and D22 are computed
    here from the I/K tables, not from hs_norms' prefix and suffix sums, and
    their share of the side that carries them is reported.
    """
    pair_11 = (("X", 1, 1), ("Y", 1, 1))
    pair_22 = (("X", 2, 2), ("Y", 2, 2))
    assert {pair_11, pair_22} <= set(FUBINI_PAIRS)
    ks = np.arange(K_MAX + 1)
    resid = {pair: [] for pair in FUBINI_PAIRS}
    share = {pair_11: [], pair_22: []}
    for (m, n) in grid_modes():
        if m == 0:
            continue
        R = 1.0 / scalar_det_prefix(C.c(1, n, ks[:-1]), C.c(2, n, ks[:-1]))
        assert np.all(R == 1.0), (
            f"mode ({m}, {n}): the pairs are finite-sum rearrangements only when "
            "the scalar prefix products prod c1/c2 are identically 1"
        )
        sol = solution(m, n)
        rep = hs_norms(sol, W, C)
        I = sol.I[: K_MAX + 1]
        Kt = sol.K[: K_MAX + 1]
        an = np.asarray(W.a(n, ks), dtype=float)
        an1 = np.asarray(W.a(n + 1, ks), dtype=float)
        d11 = float(np.sum(R**2 * Kt[:, 0] ** 2 * I[:, 0] ** 2 / an**2))
        d22 = float(np.sum(R**2 * Kt[:, 1] ** 2 * I[:, 1] ** 2 / an1**2))
        values = [*rep.hs.values(), d11, d22]
        assert all(math.isfinite(v) for v in values), (m, n, rep.hs, d11, d22)
        # (left, right) terms: the diagonal goes back on the side that omits it
        added = dict.fromkeys(FUBINI_PAIRS, (0.0, 0.0)) | {
            pair_11: (d11, 0.0),
            pair_22: (0.0, d22),
        }
        for (left, right), (d_left, d_right) in added.items():
            lhs = rep.hs[left] + d_left
            rhs = rep.hs[right] + d_right
            resid[(left, right)].append(abs(lhs - rhs) / max(lhs, rhs, 1e-300))
        share[pair_11].append(d11 / rep.hs[("Y", 1, 1)])
        share[pair_22].append(d22 / rep.hs[("X", 2, 2)])

    # np.max propagates NaN, and "not <=" fails on it
    worst = {pair: float(np.max(vals)) for pair, vals in resid.items()}
    parts = []
    for (a, b), gap in worst.items():
        text = f"{a[0]}{a[1]}{a[2]}~{b[0]}{b[1]}{b[2]}: {gap:.2e}"
        if (a, b) in share:
            text += f" (diagonal share {float(np.max(share[(a, b)])):.2f})"
        parts.append(text)
    summary = ", ".join(parts)
    failed = {pair: gap for pair, gap in worst.items() if not gap <= 1e-12}
    status = "FAIL" if failed else "PASS"
    print(f"\n[{status}] criterion 6 symmetry pairs (same-index up to the diagonal): {summary}")
    assert not failed, (
        "symmetry pairs differ beyond 1e-12 after adding back the diagonal "
        f"D11 to X11 and D22 to Y22: {summary}"
    )


def test_criterion_7_decay():
    """Compactness surrogate decreases along both grid axes; eps <= s."""
    table = decay_scan(GRID_M, GRID_N, Levels(W, C, K_MAX))
    proxies = {(r.mode.m, r.mode.n): r.proxy for r in table.rows}
    for n in GRID_N:
        for sgn in (1, -1):
            assert proxies[(sgn * 32, n)] < proxies[(sgn * 1, n)], (sgn * 32, n)
    for m in GRID_M:
        assert proxies[(m, 16)] < proxies[(m, 0)], m
    for r in table.rows:
        assert r.eps <= eval_s(W, r.mode.n).upper * (1 + 1e-12)
    drop_m = min(proxies[(32, n)] / proxies[(1, n)] for n in GRID_N)
    drop_n = min(proxies[(m, 16)] / proxies[(m, 0)] for m in GRID_M)
    print(
        f"\n[PASS] criterion 7 decay: proxy(32,n)/proxy(1,n) <= {drop_m:.3e}, "
        f"proxy(m,16)/proxy(m,0) <= {drop_n:.3e}, eps <= s everywhere"
    )


def test_criterion_8_mode_equivalence():
    """Difference-operator path equals the matrix path entrywise <= 1e-14."""
    worst = 0.0
    for (m, n) in grid_modes():
        for k_imp in (0, 5, 17):
            g = np.zeros(33)
            f = np.zeros(33)
            g[k_imp] = 1.0
            f[min(k_imp + 1, 32)] = 1.0
            mode = ModeIndex(m, n)
            d_mat = apply_A(solution(m, n), WeightedSeq(g, n), WeightedSeq(f, n + 1))
            d_del = apply_D_delta(mode, W, C, g, f)
            for a, b in (
                (d_mat.r1.values, d_del.r1.values),
                (d_mat.r2.values, d_del.r2.values),
                (np.array([d_mat.q0]), np.array([d_del.q0])),
            ):
                scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
                worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    assert worst <= 1e-14, f"worst entrywise path difference {worst:.3e}"
    print(f"\n[PASS] criterion 8 mode equivalence: worst entrywise difference {worst:.3e}")


def test_criterion_9_algebra_sanity():
    """Commutation <= 1e-15; 20 coefficient roundtrips; 100 trace samples."""
    worst_comm = 0.0
    for theta in (0.0, 0.25, (math.sqrt(5) - 1) / 2):
        rep = TruncatedAlgebraRep(theta, 12, 6)
        report = algebra_sanity(
            rep, np.random.default_rng(9), n_roundtrip=20, n_trace=100
        )
        assert report.all_passed, (theta, report.as_dict())
        worst_comm = max(worst_comm, report.worst["commutation"])
        assert report.worst["commutation"] <= 1e-15
        assert report.worst["roundtrip_plus"] == 0.0
        assert report.worst["roundtrip_minus_rel"] <= 4e-15
    print(
        f"\n[PASS] criterion 9 algebra sanity: worst commutation residual {worst_comm:.3e}, "
        "raising roundtrips bitwise exact, lowering within 4e-15"
    )


def test_criterion_10_boundary_condition():
    """Boundary residual within its tail certificate; beta stable under doubling."""
    worst_resid = 0.0
    for (m, n) in grid_modes():
        for res in q_results(m, n):
            assert res.boundary_residual <= res.boundary_tol, (m, n)
            scale = max(
                float(np.max(np.abs(res.h_g.values))), float(np.max(np.abs(res.h_f.values))), 1e-300
            )
            worst_resid = max(worst_resid, res.boundary_residual / scale)
    worst_beta = 0.0
    for (m, n) in grid_modes():
        mode = ModeIndex(m, n)
        sol = build_solution(mode, Levels(W, C, 2 * K_MAX))
        r = fixtures(m, n)[0]
        # the K_MAX window of the 2 K_MAX table is the reference's; the package's window is the table's
        res_a = reference.apply_Q(sol, r, k_max=K_MAX)
        res_b = apply_Q(sol, reference.zero_padded(r, 2 * K_MAX))
        assert np.isfinite(res_a.beta)
        denom = max(abs(res_a.beta), 1e-300)
        change = abs(res_b.beta - res_a.beta) / denom
        worst_beta = max(worst_beta, change)
    assert worst_beta <= 1e-6, f"worst beta drift {worst_beta:.3e}"
    print(
        f"\n[PASS] criterion 10 boundary condition: worst scaled residual {worst_resid:.3e}, "
        f"beta drift under doubling {worst_beta:.3e}"
    )
