import dataclasses
import json

import numpy as np
import pytest

from qsolidtorus.config import default_config_dict, load_config
from qsolidtorus.families import CoefficientFamily, WeightFamily
from qsolidtorus.parametrix import (
    RhsPair,
    WeightTagMismatch,
    WeightedSeq,
    _block_rows,
    apply_A,
    apply_Q,
    oracle_matrix,
    oracle_solve,
    random_rhs,
)
from qsolidtorus.solutions import build_solution, stack
from qsolidtorus.transfer import Levels, ModeIndex
import reference
from reference import apply_Q_direct, apply_XYZ, banded_oracle_solve, build_A, oracle_band, zero_rhs
from test_manifest import CONFIGS


def solution_diff(res, orc):
    num = max(
        float(np.max(np.abs(res.h_g.values - orc.h_g.values))),
        float(np.max(np.abs(res.h_f.values - orc.h_f.values))),
    )
    scale = max(
        float(np.max(np.abs(orc.h_g.values))), float(np.max(np.abs(orc.h_f.values))), 1e-300
    )
    return num / scale


def rhs_diff(a: RhsPair, b: RhsPair, t) -> float:
    diff = RhsPair(
        r1=WeightedSeq(a.r1.values - b.r1.values, a.r1.level),
        r2=WeightedSeq(a.r2.values - b.r2.values, a.r2.level),
        q0=a.q0 - b.q0,
    )
    return diff.norm(t) / max(b.norm(t), 1e-300)


def test_apply_A_zero(families):
    w, c = families
    mode = ModeIndex(3, 1)
    out = apply_A(build_solution(mode, Levels(w, c, 8)), WeightedSeq(np.zeros(9), 1), WeightedSeq(np.zeros(9), 2))
    assert not np.any(out.r1.values) and not np.any(out.r2.values) and out.q0 == 0.0


def test_apply_A_annihilates_I(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-6, 2), ModeIndex(32, 0)):
        sol = build_solution(mode, Levels(w, c, 64))
        out = apply_A(sol, WeightedSeq(sol.I[:, 0], mode.n), WeightedSeq(sol.I[:, 1], mode.n + 1))
        scale = np.max(np.abs(sol.I)) * w.a(mode.n + 1, 64)
        assert float(np.max(np.abs(out.r1.values))) <= 1e-12 * scale
        assert float(np.max(np.abs(out.r2.values))) <= 1e-12 * scale
        assert abs(out.q0) <= 1e-14 * max(abs(mode.m), 1.0)


def test_apply_A_annihilates_K_with_nonzero_datum(families):
    w, c = families
    mode = ModeIndex(2, 1)
    sol = build_solution(mode, Levels(w, c, 64))
    out = apply_A(sol, WeightedSeq(sol.K[:, 0], 1), WeightedSeq(sol.K[:, 1], 2))
    scale = np.max(np.abs(sol.K)) * w.a(2, 64)
    assert float(np.max(np.abs(out.r1.values))) <= 1e-12 * scale
    assert float(np.max(np.abs(out.r2.values))) <= 1e-12 * scale
    # the K function solves the recurrence but not the homogeneous initial row
    assert out.q0 == pytest.approx(w.a(1, 0) * sol.tau, rel=1e-13)


def test_apply_A_tag_mismatch(families):
    w, c = families
    sol = build_solution(ModeIndex(1, 0), Levels(w, c, 3))
    with pytest.raises(WeightTagMismatch):
        apply_A(sol, WeightedSeq(np.zeros(4), 3), WeightedSeq(np.zeros(4), 1))


def test_mode_table_is_the_only_evaluator(families, rng, monkeypatch):
    """apply_A, the three norms and the oracle read the solution's table, not the families."""
    w, c = families
    for m in (3, -3, 0):
        mode = ModeIndex(m, 1)
        sol = build_solution(mode, Levels(w, c, 32))
        r = random_rhs(mode, 32, rng)
        res = apply_Q(sol, r)

        def values():
            back = apply_A(sol, res.h_g, res.h_f)
            orc = oracle_solve(sol, r)
            return (back.r1.values, back.r2.values, back.q0, r.norm(sol.table), res.norm(sol.table),
                    res.h_g.norm(sol.table), orc.h_g.values, orc.h_f.values)

        before = values()

        def no_family(*args, **kwargs):
            raise AssertionError("a family was evaluated outside the level table")

        with monkeypatch.context() as patch:
            patch.setattr(WeightFamily, "a", no_family)
            patch.setattr(CoefficientFamily, "c", no_family)
            after = values()
        for x, y in zip(before, after):
            assert np.array_equal(x, y)


def test_norm_at_a_foreign_level_raises(families):
    w, c = families
    t = Levels(w, c, 8).table(2)
    for level in (2, 3):
        assert WeightedSeq(np.ones(9), level).norm(t) == float(np.sqrt(np.sum(1.0 / w.a(level, np.arange(9)))))
    for level in (1, 4):
        with pytest.raises(WeightTagMismatch):
            WeightedSeq(np.ones(9), level).norm(t)


def test_Z_operator_with_unit_coeffs(families, unit_coeffs):
    w, _ = families
    mode = ModeIndex(0, 1)
    sol = build_solution(mode, Levels(w, unit_coeffs, 8))
    r = WeightedSeq(np.arange(1.0, 10.0), 1)
    out = apply_XYZ("Z", 0, 0, sol, r)
    a = np.asarray(w.a(1, np.arange(9)), dtype=float)
    assert np.allclose(out.values, np.cumsum(r.values / a), rtol=1e-15)
    assert out.level == 2


def test_X_vanishes_beyond_support(families):
    w, c = families
    mode = ModeIndex(2, 0)
    sol = build_solution(mode, Levels(w, c, 16))
    vals = np.zeros(17)
    vals[:5] = 1.0
    out = apply_XYZ("X", 1, 1, sol, WeightedSeq(vals, 0))
    assert np.all(out.values[4:] == 0.0)


def test_XY_kernels_against_brute_force(families):
    w, c = families
    mode = ModeIndex(1, 0)
    n = 0
    K = 12
    sol = build_solution(mode, Levels(w, c, K))
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
    sol = build_solution(mode, Levels(w, c, 8))
    with pytest.raises(WeightTagMismatch):
        apply_XYZ("X", 1, 2, sol, WeightedSeq(np.zeros(9), 0))


def test_apply_Q_zero_rhs(families):
    w, c = families
    mode = ModeIndex(4, 2)
    sol = build_solution(mode, Levels(w, c, 32))
    res = apply_Q(sol, zero_rhs(mode, 32))
    assert not np.any(res.h_g.values) and not np.any(res.h_f.values)
    assert res.beta == 0.0 and res.boundary_residual == 0.0


def test_apply_Q_m_zero_unit_coeffs_impulse(families, unit_coeffs):
    w, _ = families
    mode = ModeIndex(0, 1)
    sol = build_solution(mode, Levels(w, unit_coeffs, 16))
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
    sol = build_solution(mode, Levels(w, c, K))
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
    sol = build_solution(mode, Levels(w, c, 128))
    for _ in range(5):
        r = random_rhs(mode, 128, rng)
        res = apply_Q(sol, r)
        back = apply_A(sol, res.h_g, res.h_f)
        assert rhs_diff(back, r, sol.table) <= 1e-9


def test_oracle_equivalence_small_grid(families, rng):
    w, c = families
    for m in range(-8, 9):
        for n in range(0, 9):
            mode = ModeIndex(m, n)
            sol = build_solution(mode, Levels(w, c, 48))
            r = random_rhs(mode, 48, rng)
            res = apply_Q(sol, r)
            orc = oracle_solve(sol, r)
            assert solution_diff(res, orc) <= 1e-8


def test_an_rhs_off_the_window_is_a_value_error(families, rng):
    """The window is the table's: an rhs shorter or longer than K is a ValueError naming both lengths,
    for apply_Q and for the oracle, in r1 or in r2."""
    w, c = families
    mode = ModeIndex(3, 1)
    sol = build_solution(mode, Levels(w, c, 48))
    for size in (47, 49):
        bad = random_rhs(mode, size, rng)
        good = random_rhs(mode, 48, rng)
        for r in (bad, RhsPair(good.r1, bad.r2, good.q0)):
            for solve in (apply_Q, oracle_solve):
                with pytest.raises(ValueError, match=f"has {size} values; the table's window needs K = 48"):
                    solve(sol, r)


def test_left_inverse_on_domain(families, rng):
    w, c = families
    for mode in (ModeIndex(2, 0), ModeIndex(-4, 1)):
        sol = build_solution(mode, Levels(w, c, 48))
        r = random_rhs(mode, 48, rng)
        orc = oracle_solve(sol, r)
        back = apply_A(sol, orc.h_g, orc.h_f)
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
        sol = build_solution(mode, Levels(w, c, 32))
        r = random_rhs(mode, 32, rng)
        res = apply_Q(sol, r)
        hx, hy = apply_Q_direct(sol, r)
        scale = max(np.max(np.abs(res.h_g.values)), np.max(np.abs(res.h_f.values)))
        assert float(np.max(np.abs(hx - res.h_g.values))) <= 1e-9 * scale
        assert float(np.max(np.abs(hy - res.h_f.values))) <= 1e-9 * scale


def test_boundary_residual_beta_matches_apply_Q(families, rng):
    w, c = families
    mode = ModeIndex(3, 0)
    sol = build_solution(mode, Levels(w, c, 24))
    res = apply_Q(sol, random_rhs(mode, 24, rng))
    k1, k2 = sol.K_inf
    beta = (res.h_g.values[-1] * k1 + res.h_f.values[-1] * k2) / (k1 * k1 + k2 * k2)
    # edge seeding: the projected multiplier equals the stored coefficient
    assert beta == pytest.approx(res.beta, rel=1e-12, abs=1e-300)


def test_apply_Q_satisfies_boundary_certificate(families, rng):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-16, 2), ModeIndex(0, 1)):
        sol = build_solution(mode, Levels(w, c, 64))
        r = random_rhs(mode, 64, rng)
        res = apply_Q(sol, r)
        assert res.boundary_residual <= res.boundary_tol


@pytest.mark.parametrize("k2", [1.0, 3.0, 0.7])
def test_boundary_residual_is_zero_where_K2_at_infinity_is_one(families, k2):
    """h(K) = e2(K) K(K), and K(K) is the seed K(inf): where K2(inf) = 1, h_x K2 and h_y K1 are one float.

    The default rule has K2(inf) = 1, so its boundary residual is exactly 0 and certifies nothing; under
    a rule with K2(inf) != 1 it is a rounding-level residual, within its tolerance.
    """
    from qsolidtorus.solutions import BoundaryRule

    w, c = families
    rule = BoundaryRule({m: (k2 * np.sign(m) / (1.0 + m * m), k2) for m in (1, -1, 4, 16)})
    rng = np.random.default_rng(5)
    ratios = []
    for k_max in (128, 1024):
        levels = Levels(w, c, k_max)
        for mode in (ModeIndex(m, n) for m in (1, -1, 4, 16, 0) for n in (0, 4)):
            res = apply_Q(build_solution(mode, levels, rule), random_rhs(mode, k_max, rng))
            assert res.boundary_residual <= res.boundary_tol
            ratios.append(res.boundary_residual / res.boundary_tol)
    assert (max(ratios) == 0.0) == (k2 == 1.0)
    assert max(ratios) < 1e-4


def test_dropping_boundary_row_leaves_I_direction(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-5, 1)):
        sol = build_solution(mode, Levels(w, c, 48))
        mat = oracle_matrix(sol, drop_boundary=True)
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
        sol = build_solution(mode, Levels(w, c, 32))
        orc = oracle_solve(sol, zero_rhs(mode, 32))
        assert float(np.max(np.abs(orc.h_g.values))) == 0.0
        assert float(np.max(np.abs(orc.h_f.values))) == 0.0


def test_oracle_reports_sigma_min(families):
    w, c = families
    sol = build_solution(ModeIndex(0, 0), Levels(w, c, 24))
    sigma_min = float(np.linalg.svd(oracle_matrix(sol), compute_uv=False)[-1])
    assert sigma_min > 0


def test_oracle_matrix_blocks_match_build_A(families):
    """The dense matrix is LAPACK's band (``reference.oracle_band``, the raw rows of ``apply_A``) bit for bit,
    its datum row moved last, and each R_k = A(k+1) block equals the per-step build_A block."""
    w, c = families
    K = 16
    size = 2 * K + 2
    for m in (0, 3, -3):
        for n in (0, 2):
            mode = ModeIndex(m, n)
            sol = build_solution(mode, Levels(w, c, K))
            band = oracle_band(sol, K)
            ref = np.zeros((size, size))
            for j in range(size):
                for r in range(6):
                    if 0 <= j + r - 3 < size:
                        ref[j + r - 3, j] = band[r, j]
            mat = oracle_matrix(sol)
            assert mat.tobytes() == ref[[*range(1, 2 * K + 1), 0, 2 * K + 1]].tobytes(), mode
            assert np.array_equal(oracle_matrix(sol, drop_boundary=True), mat[:-1])
            for k in range(K):
                assert np.array_equal(mat[2 * k : 2 * k + 2, 2 * k + 2 : 2 * k + 4], build_A(mode, k, w, c)), (mode, k)


def test_oracle_matrix_applies_the_operator(families, rng):
    """oracle_matrix @ h is apply_A's rows, its datum and the boundary pairing (K2(K), -K1(K)) . h(K), to a few ulps."""
    w, c = families
    K = 32
    for m in (0, 1, -4, 32):
        for n in (0, 4):
            sol = build_solution(ModeIndex(m, n), Levels(w, c, K))
            x, y = rng.standard_normal((2, K + 1))
            back = apply_A(sol, WeightedSeq(x, n), WeightedSeq(y, n + 1))
            k1, k2 = sol.K[K]
            want = np.concatenate((np.stack((back.r1.values, back.r2.values), axis=1).ravel(),
                                   [back.q0, k2 * x[-1] - k1 * y[-1]]))
            mat = oracle_matrix(sol)
            got = mat @ np.stack((x, y), axis=1).ravel()
            # each row sums at most four products of its entries' sizes
            scale = np.abs(mat) @ np.abs(np.stack((x, y), axis=1).ravel())
            assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * scale), (m, n)


def test_a_singular_mode_fails_alone(tmp_path, monkeypatch):
    """A zero boundary row makes the system of (0, 0) singular: that mode alone records the error and
    solve exits 1, while the other modes of its level, and of the next, keep their records bit for bit."""
    import qsolidtorus.cli as cli

    cfg = default_config_dict()
    cfg["grid"] = {"m_list": [0, 1, -1, 2], "n_list": [0, 1]}
    cfg["truncation"]["k_max"] = 16
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    def solve(out: str) -> tuple[int, dict]:
        code = cli.main(["--config", str(path), "--out", str(tmp_path / out), "solve", "--seed", "3"])
        recs = json.loads((tmp_path / out / "solutions.json").read_text())["solutions"]
        return code, {(rec["m"], rec["n"]): rec for rec in recs}

    regular_code, want = solve("regular")
    real = cli.build_solution

    def zero_boundary_row(mode, *args, **kwargs):
        sol = real(mode, *args, **kwargs)
        if mode != ModeIndex(0, 0):
            return sol
        K = sol.K.copy()
        K[-1] = 0.0
        return dataclasses.replace(sol, K=K)

    monkeypatch.setattr(cli, "build_solution", zero_boundary_row)
    code, got = solve("singular")
    assert (regular_code, code) == (0, 1)
    assert got.pop((0, 0)) == {"m": 0, "n": 0, "error": "mode (0, 0): singular matrix"}
    del want[(0, 0)]
    assert len(got) == 7 and got == want


def test_beta_stable_under_truncation_doubling(families, rng):
    """beta is the K-function coefficient: on a 256 table, with the rhs zero-padded from 128, it equals the
    128-window reference's to 1e-6."""
    w, c = families
    for m in (0, 1, -4, 32):
        mode = ModeIndex(m, 0)
        sol = build_solution(mode, Levels(w, c, 256))
        r = random_rhs(mode, 128, rng)
        res_128 = reference.apply_Q(sol, r, k_max=128)
        res_256 = apply_Q(sol, reference.zero_padded(r, 256))
        assert np.isfinite(res_128.beta)
        assert res_256.beta == pytest.approx(res_128.beta, rel=1e-6)


# the manifest's configs at each window, and one mode at K = 65536
ORACLE_MS = (0, 1, -1, 4, -4, 32, -32, 1024, -1024, 4096)
ORACLE_CASES = [(config, k_max, ORACLE_MS) for config in CONFIGS for k_max in (17, 100, 128, 1024)]
ORACLE_CASES.append(("default", 65536, (1,)))


@pytest.mark.parametrize("config, k_max, ms", ORACLE_CASES, ids=[f"{c}-K{k}" for c, k, _ in ORACLE_CASES])
def test_oracle_matches_lapack_reference(tmp_path, config, k_max, ms):
    """The cyclic reduction agrees with LAPACK's banded LU (``reference.banded_oracle_solve``) to 1e-14 relative,
    for each mode alone and inside its level's stack, which gives the same bits; its block rows are the band's
    entries bit for bit."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(default_config_dict() | CONFIGS[config]))
    cfg = load_config(path)
    for n in (0, 4) if len(ms) > 1 else (0,):
        levels = Levels(cfg.weights, cfg.coeffs, k_max)
        sols = [build_solution(ModeIndex(m, n), levels, cfg.boundary) for m in ms]
        rng = np.random.default_rng(k_max + n)
        rs = [random_rhs(sol.mode, k_max, rng) for sol in sols]
        st = stack(sols)
        stacked = oracle_solve(st, RhsPair(WeightedSeq(np.array([r.r1.values for r in rs]), n + 1),
                                           WeightedSeq(np.array([r.r2.values for r in rs]), n),
                                           np.array([r.q0 for r in rs])))
        assert not stacked.singular.any()
        rows = _block_rows(st)
        for j, (sol, r) in enumerate(zip(sols, rs)):
            band = oracle_band(sol, k_max)
            assert np.array_equal(rows[:, :, j].reshape(8, k_max), np.array([
                band[4, 0:-2:2], band[5, 0:-2:2], band[3, 1:-2:2], band[4, 1:-2:2],
                band[2, 2::2], band[3, 2::2], np.zeros(k_max), band[2, 3::2]]))
            want = np.concatenate(banded_oracle_solve(sol, r))
            alone = oracle_solve(sol, r)
            assert not alone.singular
            got = np.concatenate((alone.h_g.values, alone.h_f.values))
            assert np.array_equal(got, np.concatenate((stacked.h_g.values[j], stacked.h_f.values[j]))), sol.mode
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), sol.mode


def test_banded_oracle_matches_dense_solve(families, rng):
    """The banded LU plus refinement reproduces a dense LU of oracle_matrix."""
    import scipy.linalg

    w, c = families
    worst = 0.0
    for m in (0, 1, -1, 5, -5):
        for n in (0, 3):
            for K in (16, 128):
                mode = ModeIndex(m, n)
                sol = build_solution(mode, Levels(w, c, K))
                r = random_rhs(mode, K, rng)
                orc = oracle_solve(sol, r)
                mat = oracle_matrix(sol)
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
