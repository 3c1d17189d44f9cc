"""End-to-end checks for tabulated weight/coefficient families.

Tabulated rows continued by declared tails must flow through the whole
pipeline (transfer products, kernel solutions, inverse, oracle) with the same
identities as the closed-form families.
"""

import json
import math

import numpy as np
import pytest

from qsolidtorus.analysis import decay_scan
from qsolidtorus.cli import main
from qsolidtorus.config import DEFAULT_GRID_N, default_config_dict, load_config
from qsolidtorus.families import (
    CoefficientFamily,
    WeightFamily,
    eval_J,
    eval_s,
    validate_hypotheses,
)
from qsolidtorus.parametrix import apply_A, apply_Q, oracle_solve, random_rhs
from qsolidtorus.solutions import (
    build_solution,
    epsilon,
    verify_lemma_suite,
    wronskian_residuals,
)
from qsolidtorus.transfer import Levels, ModeIndex, tail_sum_C_minus_I
from reference import mat_abs_norm


@pytest.fixture(scope="module")
def tab_families():
    w = WeightFamily(
        table=((1.5, 3.0, 7.5), (2.5, 9.0)),
        tail_rule="power",
        lam=1.0,
        p=1.0,
        q=2.0,
    )
    c = CoefficientFamily(
        table1=(0.5, 0.8),
        table2=(0.6,),
        tail_rule="geometric",
        t1=0.5,
        t2=0.5,
        kappa=2.0,
    )
    return w, c


def test_tabulated_lookup_and_continuation(tab_families):
    w, c = tab_families
    assert w.a(0, 1) == 3.0 and w.a(1, 0) == 2.5
    assert w.a(0, 3) == 16.0  # power continuation
    assert w.a(5, 0) == 6.0  # level beyond the table
    assert c.c(1, 0, 1) == 0.8 and c.c(1, 0, 2) == 1.0 - 0.5**3
    assert c.c(2, 4, 0) == 0.6


def test_tabulated_hypotheses_pass(tab_families):
    w, c = tab_families
    report = validate_hypotheses(w, c, n_probe=(0, 1, 2, 4))
    assert report.all_passed, report.failed()


def test_tabulated_tail_certificate(tab_families):
    w, c = tab_families
    mode = ModeIndex(2, 0)
    c_arr = Levels(w, c, 20000).C(mode)
    direct = sum(mat_abs_norm(c_arr[k] - np.eye(2)) for k in range(5, 20000))
    assert tail_sum_C_minus_I(mode, Levels(w, c, 5), 5) >= direct


def test_tabulated_oracle_equivalence_and_identities(tab_families, rng):
    w, c = tab_families
    for (m, n) in ((1, 0), (-3, 1), (0, 0), (5, 2)):
        mode = ModeIndex(m, n)
        sol = build_solution(mode, Levels(w, c, 40))
        assert float(np.max(wronskian_residuals(sol))) <= 1e-12
        r = random_rhs(mode, 40, rng)
        res = apply_Q(sol, r)
        orc = oracle_solve(sol, r)
        scale = max(np.max(np.abs(orc.h_g.values)), np.max(np.abs(orc.h_f.values)))
        assert np.max(np.abs(res.h_g.values - orc.h_g.values)) <= 1e-10 * scale
        assert np.max(np.abs(res.h_f.values - orc.h_f.values)) <= 1e-10 * scale
        back = apply_A(sol, res.h_g, res.h_f)
        assert np.max(np.abs(back.r1.values - r.r1.values)) <= 1e-9 * max(1.0, scale)
        if m > 0:
            assert verify_lemma_suite(sol).all_passed


def test_tabulated_config_through_cli(tmp_path):
    cfg = default_config_dict()
    cfg["weights"] = {
        "kind": "tabulated",
        "table": [[1.5, 3.0, 7.5], [2.5, 9.0]],
        "tail": {"rule": "power", "lambda": 1.0, "p": 1.0, "q": 2.0},
    }
    cfg["coeffs"] = {
        "kind": "tabulated",
        "table1": [0.5, 0.8],
        "table2": [0.6],
        "tail": {"rule": "geometric", "t1": 0.5, "t2": 0.5},
        "kappa": 2.0,
    }
    cfg["grid"] = {"m_list": [0, 1, -2], "n_list": [0, 1]}
    cfg["truncation"]["k_max"] = 24
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    loaded = load_config(path)
    assert loaded.weights.table == ((1.5, 3.0, 7.5), (2.5, 9.0))
    assert (loaded.coeffs.table1, loaded.coeffs.table2) == ((0.5, 0.8), (0.6,))
    assert main(["--config", str(path), "validate"]) == 0
    assert main(["--config", str(path), "solve"]) == 0
    payload = json.loads((tmp_path / "out" / "solutions.json").read_text())
    assert all(rec["residual_right_inverse"] <= 1e-9 for rec in payload["solutions"])


def loop_a(w, n, k_arr):
    """Reference: the per-element tabulated weight lookup, k taken as numpy ints."""
    row = w.table[n] if n < len(w.table) else ()
    out = np.empty(k_arr.shape)
    for idx, kk in enumerate(k_arr):
        if kk < len(row):
            out[idx] = row[kk]
        elif w.tail_rule == "power":
            out[idx] = w.lam * (n + 1) ** w.p * (kk + 1) ** w.q
        else:
            out[idx] = w.tail_value
    return out


def loop_c(c, i, k_arr):
    """Reference: the per-element tabulated coefficient lookup."""
    row = c.table1 if i == 1 else c.table2
    t = c.t1 if i == 1 else c.t2
    out = np.empty(k_arr.shape)
    for idx, kk in enumerate(k_arr):
        if kk < len(row):
            out[idx] = row[kk]
        elif c.tail_rule == "geometric":
            out[idx] = 1.0 - t ** (kk + 1)
        else:
            out[idx] = c.tail_value
    return out


def test_vectorised_laws_match_per_element_lookup_bit_for_bit():
    ks = np.arange(20001)
    table = ((1.5, 3.0, 7.5), (2.5, 9.0))
    weights = [
        WeightFamily(table=table, tail_rule="power", lam=0.7, p=1.3, q=q)
        for q in (1.3, 2.0, 2.5)
    ]
    weights.append(WeightFamily(table=table, tail_rule="constant", tail_value=3.5))
    for w in weights:
        for n in (1, 4):
            ref = loop_a(w, n, ks)
            assert np.array_equal(w.a(n, ks), ref), (w.q, n)
            assert [w.a(n, int(k)) for k in ks] == ref.tolist(), (w.q, n)
    coeffs = [
        CoefficientFamily(table1=(0.5, 0.8), table2=(0.6,), t1=t1, t2=t2)
        for t1, t2 in ((0.5, 0.5), (0.3, 0.77))
    ]
    coeffs.append(CoefficientFamily(table1=(0.5, 0.8), table2=(0.6,), tail_rule="constant", tail_value=1.0))
    for c in coeffs:
        for i in (1, 2):
            ref = loop_c(c, i, ks)
            assert np.array_equal(c.c(i, 3, ks), ref), (c.t1, i)
            assert [c.c(i, 3, int(k)) for k in ks] == ref.tolist(), (c.t1, i)


def test_closed_form_families_keep_their_formulas():
    ks = np.arange(20001)
    for w in (WeightFamily(), WeightFamily(lam=0.7, p=1.3, q=2.5)):
        ref = w.lam * 3 ** w.p * np.asarray(ks + 1, dtype=float) ** w.q
        assert np.array_equal(w.a(2, ks), ref)
        assert w.a(2, 17) == ref[17]
    c = CoefficientFamily(t1=0.3, t2=0.6)
    for i, t in ((1, 0.3), (2, 0.6)):
        assert np.array_equal(c.c(i, 0, ks), 1.0 - t ** (np.asarray(ks, dtype=float) + 1.0))
    unit = CoefficientFamily(tail_rule="constant", kappa=1.0)
    assert np.array_equal(unit.c(1, 0, ks), np.ones(len(ks))) and unit.c(2, 0, 5) == 1.0


def test_tabulated_eps_below_s(tab_families):
    """eps adds the exact s tail, so eps(0, n) cannot exceed s(n) by a bound's slack."""
    w, c = tab_families
    for n in DEFAULT_GRID_N:
        s_n = eval_s(w, n)
        for m in (0, 1, -4):
            assert epsilon(ModeIndex(m, n), Levels(w, c, 0)).value <= s_n.upper * (1.0 + 1e-12)
    table = decay_scan((0, 1, -2), (0, 1), Levels(w, c, 32))
    assert table.all_passed, table.failed()


def test_constant_tail_certificate_counts_the_row():
    w = WeightFamily()
    c = CoefficientFamily(table1=(0.5, 0.8), table2=(0.6,), tail_rule="constant", tail_value=1.0)
    mode = ModeIndex(0, 0)
    c_arr = Levels(w, c, 8).C(mode)
    direct = sum(mat_abs_norm(c_arr[k] - np.eye(2)) for k in range(8))
    assert direct > 1.0
    assert tail_sum_C_minus_I(mode, Levels(w, c, 0), 0) >= direct


def test_J_bracket_counts_rows_longer_than_the_first_window():
    c = CoefficientFamily(table1=(0.9,) * 100, table2=(0.9,) * 100)
    direct = 0.9**100 * math.prod(1.0 - 0.5 ** (k + 1) for k in range(100, 200))
    got = eval_J(c, 1, 0)
    assert abs(got.value - direct) <= got.tail + 1e-13 * direct
