import numpy as np
import pytest

from qsolidtorus import parametrix
from qsolidtorus.families import CoefficientFamily, WeightFamily
from qsolidtorus.parametrix import (
    RhsPair,
    WeightTagMismatch,
    WeightedSeq,
    apply_A,
    apply_Q,
    apply_Q_direct,
    apply_XYZ,
    boundary_residual,
    oracle_matrix,
    oracle_solve,
    random_rhs,
    zero_rhs,
)
from qsolidtorus.solutions import build_solution, choose_K_infinity
from qsolidtorus.transfer import ModeIndex, build_A


def solution_diff(res, orc):
    num = max(
        float(np.max(np.abs(res.h_g.values - orc.h_g.values))),
        float(np.max(np.abs(res.h_f.values - orc.h_f.values))),
    )
    scale = max(
        float(np.max(np.abs(orc.h_g.values))), float(np.max(np.abs(orc.h_f.values))), 1e-300
    )
    return num / scale


def rhs_diff(a: RhsPair, b: RhsPair, w) -> float:
    diff = RhsPair(
        r1=WeightedSeq(a.r1.values - b.r1.values, a.r1.level),
        r2=WeightedSeq(a.r2.values - b.r2.values, a.r2.level),
        q0=a.q0 - b.q0,
    )
    return diff.norm(w) / max(b.norm(w), 1e-300)


def test_apply_A_zero(families):
    w, c = families
    mode = ModeIndex(3, 1)
    out = apply_A(mode, w, c, WeightedSeq(np.zeros(9), 1), WeightedSeq(np.zeros(9), 2))
    assert not np.any(out.r1.values) and not np.any(out.r2.values) and out.q0 == 0.0


def test_apply_A_annihilates_I(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-6, 2), ModeIndex(32, 0)):
        sol = build_solution(mode, w, c, 64)
        out = apply_A(mode, w, c, WeightedSeq(sol.I[:, 0], mode.n), WeightedSeq(sol.I[:, 1], mode.n + 1))
        scale = np.max(np.abs(sol.I)) * w.a(mode.n + 1, 64)
        assert float(np.max(np.abs(out.r1.values))) <= 1e-12 * scale
        assert float(np.max(np.abs(out.r2.values))) <= 1e-12 * scale
        assert abs(out.q0) <= 1e-14 * max(abs(mode.m), 1.0)


def test_apply_A_annihilates_K_with_nonzero_datum(families):
    w, c = families
    mode = ModeIndex(2, 1)
    sol = build_solution(mode, w, c, 64)
    out = apply_A(mode, w, c, WeightedSeq(sol.K[:, 0], 1), WeightedSeq(sol.K[:, 1], 2))
    scale = np.max(np.abs(sol.K)) * w.a(2, 64)
    assert float(np.max(np.abs(out.r1.values))) <= 1e-12 * scale
    assert float(np.max(np.abs(out.r2.values))) <= 1e-12 * scale
    # the K function solves the recurrence but not the homogeneous initial row
    assert out.q0 == pytest.approx(w.a(1, 0) * sol.tau, rel=1e-13)


def test_apply_A_tag_mismatch(families):
    w, c = families
    with pytest.raises(WeightTagMismatch):
        apply_A(ModeIndex(1, 0), w, c, WeightedSeq(np.zeros(4), 3), WeightedSeq(np.zeros(4), 1))


def test_Z_operator_with_unit_coeffs(families, unit_coeffs):
    w, _ = families
    mode = ModeIndex(0, 1)
    sol = build_solution(mode, w, unit_coeffs, 8)
    r = WeightedSeq(np.arange(1.0, 10.0), 1)
    out = apply_XYZ("Z", 0, 0, sol, r)
    a = np.asarray(w.a(1, np.arange(9)), dtype=float)
    assert np.allclose(out.values, np.cumsum(r.values / a), rtol=1e-15)
    assert out.level == 2


def test_X_vanishes_beyond_support(families):
    w, c = families
    mode = ModeIndex(2, 0)
    sol = build_solution(mode, w, c, 16)
    vals = np.zeros(17)
    vals[:5] = 1.0
    out = apply_XYZ("X", 1, 1, sol, WeightedSeq(vals, 0))
    assert np.all(out.values[4:] == 0.0)


def test_XY_kernels_against_brute_force(families):
    w, c = families
    mode = ModeIndex(1, 0)
    n = 0
    K = 12
    sol = build_solution(mode, w, c, K)
    rng = np.random.default_rng(5)
    ks = np.arange(K + 1)
    ratio_prefix = np.concatenate(
        ([1.0], np.cumprod(np.asarray(c.c(1, n, ks[:-1])) / np.asarray(c.c(2, n, ks[:-1]))))
    )
    for alpha in (1, 2):
        for beta in (1, 2):
            vals = rng.standard_normal(K + 1)
            lvl = n - 1 + beta
            x_got = apply_XYZ("X", alpha, beta, sol, WeightedSeq(vals, lvl))
            y_got = apply_XYZ("Y", alpha, beta, sol, WeightedSeq(vals, lvl))
            H_X, H_Y = sol.K, sol.I
            x_exp = np.zeros(K + 1)
            y_exp = np.zeros(K + 1)
            for k in range(K + 1):
                sx = 0.0
                for i in range(k + 1, K + 1):
                    idx = i - beta + 1
                    if idx < 0:
                        continue
                    pref = ratio_prefix[i - beta + 1] if beta == 2 else ratio_prefix[i]
                    sx += pref * H_X[idx, beta - 1] / w.a(lvl, idx) * vals[i]
                x_exp[k] = sol.I[k, alpha - 1] * sx
                sy = 0.0
                for i in range(0, k + 1):
                    idx = i - beta + 1
                    if idx < 0:
                        continue
                    pref = ratio_prefix[i - beta + 1] if beta == 2 else ratio_prefix[i]
                    sy += pref * H_Y[idx, beta - 1] / w.a(lvl, idx) * vals[i]
                y_exp[k] = sol.K[k, alpha - 1] * sy
            assert np.allclose(x_got.values, x_exp, rtol=1e-13, atol=1e-15)
            assert np.allclose(y_got.values, y_exp, rtol=1e-13, atol=1e-15)


def test_XYZ_tag_mismatch(families):
    w, c = families
    mode = ModeIndex(1, 0)
    sol = build_solution(mode, w, c, 8)
    with pytest.raises(WeightTagMismatch):
        apply_XYZ("X", 1, 2, sol, WeightedSeq(np.zeros(9), 0))


def test_apply_Q_zero_rhs(families):
    w, c = families
    mode = ModeIndex(4, 2)
    sol = build_solution(mode, w, c, 32)
    res = apply_Q(sol, zero_rhs(mode, 32))
    assert not np.any(res.h_g.values) and not np.any(res.h_f.values)
    assert res.beta == 0.0 and res.boundary_residual == 0.0


def test_apply_Q_m_zero_unit_coeffs_impulse(families, unit_coeffs):
    w, _ = families
    mode = ModeIndex(0, 1)
    sol = build_solution(mode, w, unit_coeffs, 16)
    r = zero_rhs(mode, 16)
    r = RhsPair(r1=r.r1, r2=r.r2, q0=1.0)
    res = apply_Q(sol, r)
    assert np.allclose(res.h_f.values, 1.0 / w.a(1, 0), rtol=1e-15)
    assert not np.any(res.h_g.values)


def test_apply_Q_assembles_from_XYZ_operators(families):
    """The inverse equals the scaled kernel-operator combination.

    The first channel carries the upper-row data; the second channel is the
    sign-flipped concatenation of the initial datum and the lower-row data
    (the flip mirrors the perp pairing in the expanded coefficients).
    """
    w, c = families
    mode = ModeIndex(3, 1)
    n = 1
    K = 20
    sol = build_solution(mode, w, c, K)
    r = random_rhs(mode, K, np.random.default_rng(11))
    res = apply_Q(sol, r)
    u1 = WeightedSeq(np.concatenate(([0.0], r.r1.values)), n + 1)
    u2 = WeightedSeq(-np.concatenate(([r.q0], r.r2.values)), n)
    p1 = (
        apply_XYZ("X", 1, 2, sol, u1).values
        + apply_XYZ("Y", 1, 2, sol, u1).values
        + apply_XYZ("X", 1, 1, sol, u2).values
        + apply_XYZ("Y", 1, 1, sol, u2).values
    ) / sol.tau
    p2 = (
        apply_XYZ("X", 2, 2, sol, u1).values
        + apply_XYZ("Y", 2, 2, sol, u1).values
        + apply_XYZ("X", 2, 1, sol, u2).values
        + apply_XYZ("Y", 2, 1, sol, u2).values
    ) / sol.tau
    scale = max(np.max(np.abs(p1)), np.max(np.abs(p2)))
    assert float(np.max(np.abs(res.h_g.values - p1))) <= 1e-13 * scale
    assert float(np.max(np.abs(res.h_f.values - p2))) <= 1e-13 * scale


def test_right_inverse_roundtrip(families, rng):
    w, c = families
    mode = ModeIndex(1, 0)
    sol = build_solution(mode, w, c, 128)
    for _ in range(5):
        r = random_rhs(mode, 128, rng)
        res = apply_Q(sol, r)
        back = apply_A(mode, w, c, res.h_g, res.h_f)
        assert rhs_diff(back, r, w) <= 1e-9


def test_oracle_equivalence_small_grid(families, rng):
    w, c = families
    for m in range(-8, 9):
        for n in range(0, 9):
            mode = ModeIndex(m, n)
            sol = build_solution(mode, w, c, 48)
            r = random_rhs(mode, 48, rng)
            res = apply_Q(sol, r)
            orc = oracle_solve(sol, w, c, r)
            assert solution_diff(res, orc) <= 1e-8


def test_left_inverse_on_domain(families, rng):
    w, c = families
    for mode in (ModeIndex(2, 0), ModeIndex(-4, 1)):
        sol = build_solution(mode, w, c, 48)
        r = random_rhs(mode, 48, rng)
        orc = oracle_solve(sol, w, c, r)
        back = apply_A(mode, w, c, orc.h_g, orc.h_f)
        res = apply_Q(sol, back)
        num = max(
            float(np.max(np.abs(res.h_g.values - orc.h_g.values))),
            float(np.max(np.abs(res.h_f.values - orc.h_f.values))),
        )
        scale = max(float(np.max(np.abs(orc.h_g.values))), float(np.max(np.abs(orc.h_f.values))))
        assert num <= 1e-8 * scale


def test_product_form_equivalence_small_k(families, rng):
    w, c = families
    for m in (-8, -2, 1, 4, 8):
        mode = ModeIndex(m, 1)
        sol = build_solution(mode, w, c, 32)
        r = random_rhs(mode, 32, rng)
        res = apply_Q(sol, r)
        hx, hy = apply_Q_direct(sol, r)
        scale = max(np.max(np.abs(res.h_g.values)), np.max(np.abs(res.h_f.values)))
        assert float(np.max(np.abs(hx - res.h_g.values))) <= 1e-9 * scale
        assert float(np.max(np.abs(hy - res.h_f.values))) <= 1e-9 * scale


def test_boundary_residual_cases(families):
    w, c = families
    mode = ModeIndex(2, 0)
    sol = build_solution(mode, w, c, 48)
    bd = choose_K_infinity(mode)
    res_K, beta_K = boundary_residual(
        WeightedSeq(sol.K[:, 0], 0), WeightedSeq(sol.K[:, 1], 1), bd
    )
    assert res_K <= 1e-14 * np.max(np.abs(sol.K[-1]))
    assert beta_K == pytest.approx(1.0, rel=1e-12)  # seed value is the rule value
    res_I, _ = boundary_residual(WeightedSeq(sol.I[:, 0], 0), WeightedSeq(sol.I[:, 1], 1), bd)
    assert res_I > 0.1 * np.max(np.abs(sol.I[-1]))  # independence at the far end
    res_0, beta_0 = boundary_residual(WeightedSeq(np.zeros(4), 0), WeightedSeq(np.zeros(4), 1), bd)
    assert res_0 == 0.0 and beta_0 == 0.0


def test_boundary_residual_beta_matches_apply_Q(families, rng):
    w, c = families
    mode = ModeIndex(3, 0)
    sol = build_solution(mode, w, c, 24)
    res = apply_Q(sol, random_rhs(mode, 24, rng))
    bd = choose_K_infinity(mode)
    _, beta = boundary_residual(res.h_g, res.h_f, bd)
    # edge seeding: the projected multiplier equals the stored coefficient
    assert beta == pytest.approx(res.beta, rel=1e-12, abs=1e-300)


def test_apply_Q_satisfies_boundary_certificate(families, rng):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-16, 2), ModeIndex(0, 1)):
        sol = build_solution(mode, w, c, 64)
        r = random_rhs(mode, 64, rng)
        res = apply_Q(sol, r)
        assert res.boundary_residual <= res.boundary_tol


def test_dropping_boundary_row_leaves_I_direction(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-5, 1)):
        sol = build_solution(mode, w, c, 48)
        mat = oracle_matrix(sol, 48, drop_boundary=True)
        sv = np.linalg.svd(mat, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]  # rank 2K+1: nullity exactly one
        _, _, vt = np.linalg.svd(mat)
        null = vt[-1]
        i_vec = sol.I[:49].ravel()
        cos = abs(null @ i_vec) / (np.linalg.norm(null) * np.linalg.norm(i_vec))
        assert cos >= 1 - 1e-8


def test_oracle_zero_data_gives_zero(families):
    """Unique solvability: zero rhs and zero datum force the zero solution."""
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(0, 2), ModeIndex(-7, 1)):
        sol = build_solution(mode, w, c, 32)
        orc = oracle_solve(sol, w, c, zero_rhs(mode, 32))
        assert float(np.max(np.abs(orc.h_g.values))) == 0.0
        assert float(np.max(np.abs(orc.h_f.values))) == 0.0


def test_oracle_reports_sigma_min(families):
    w, c = families
    sol = build_solution(ModeIndex(0, 0), w, c, 24)
    sigma_min = float(np.linalg.svd(oracle_matrix(sol, 24), compute_uv=False)[-1])
    assert sigma_min > 0


def test_oracle_matrix_blocks_match_build_A(families):
    """The vectorised dense assembly equals the per-step build_A blocks to 1 ulp."""
    w, c = families
    K = 16
    for m in (0, 3, -3):
        for n in (0, 2):
            mode = ModeIndex(m, n)
            sol = build_solution(mode, w, c, K)
            ref = np.zeros((2 * K + 2, 2 * K + 2))
            for k in range(K):
                A = build_A(mode, k, w, c)
                ref[2 * k : 2 * k + 2, 2 * k + 2 : 2 * k + 4] = A
                ref[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = -A @ sol.table.C[k]
            ref[2 * K, :2] = (m, w.a(n, 0))
            ref[2 * K + 1, 2 * K :] = (sol.K[K, 1], -sol.K[K, 0])
            np.testing.assert_array_max_ulp(oracle_matrix(sol, K), ref, maxulp=1)


def test_oracle_singular_band_raises(families, monkeypatch):
    w, c = families
    mode = ModeIndex(1, 0)
    sol = build_solution(mode, w, c, 8)
    monkeypatch.setattr(parametrix, "_oracle_band", lambda sol, k_max: np.zeros((6, 2 * k_max + 2)))
    with pytest.raises(np.linalg.LinAlgError):
        oracle_solve(sol, w, c, zero_rhs(mode, 8))


def test_beta_stable_under_truncation_doubling(families, rng):
    """beta is the K-function coefficient; padding the window cannot move it."""
    w, c = families
    for m in (0, 1, -4, 32):
        mode = ModeIndex(m, 0)
        sol = build_solution(mode, w, c, 256)
        r = random_rhs(mode, 128, rng)
        res_128 = apply_Q(sol, r, k_max=128)
        res_256 = apply_Q(sol, r, k_max=256)
        assert np.isfinite(res_128.beta)
        assert res_256.beta == pytest.approx(res_128.beta, rel=1e-6)


def test_banded_oracle_matches_dense_solve(families, rng):
    """The banded LU plus refinement reproduces a dense LU of oracle_matrix."""
    import scipy.linalg

    w, c = families
    worst = 0.0
    for m in (0, 1, -1, 5, -5):
        for n in (0, 3):
            for K in (16, 128):
                mode = ModeIndex(m, n)
                sol = build_solution(mode, w, c, K)
                r = random_rhs(mode, K, rng)
                orc = oracle_solve(sol, w, c, r)
                mat = oracle_matrix(sol, K)
                rhs = np.zeros(2 * (K + 1))
                rhs[0 : 2 * K : 2] = r.r1.values
                rhs[1 : 2 * K + 1 : 2] = r.r2.values
                rhs[2 * K] = r.q0
                dense = scipy.linalg.solve(mat, rhs)
                got = np.empty_like(dense)
                got[0::2] = orc.h_g.values
                got[1::2] = orc.h_f.values
                worst = max(worst, float(np.max(np.abs(got - dense)) / np.max(np.abs(dense))))
    assert np.isfinite(worst) and worst <= 1e-12, worst
