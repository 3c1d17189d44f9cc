"""End-to-end checks for tabulated weight/coefficient families.

Tabulated rows continued by declared tails must flow through the whole
pipeline (transfer products, kernel solutions, inverse, oracle) with the same
identities as the closed-form families.
"""

import json

import numpy as np
import pytest

from qsolidtorus.cli import main
from qsolidtorus.config import default_config_dict, load_config
from qsolidtorus.families import CoefficientFamily, WeightFamily, validate_hypotheses
from qsolidtorus.parametrix import apply_A, apply_Q, oracle_solve, random_rhs
from qsolidtorus.solutions import build_solution, verify_lemma_suite, wronskian_residuals
from qsolidtorus.transfer import ModeIndex, tail_sum_C_minus_I, build_C_range, mat_abs_norm


@pytest.fixture(scope="module")
def tab_families():
    w = WeightFamily(
        kind="tabulated",
        table=((1.5, 3.0, 7.5), (2.5, 9.0)),
        tail_rule="power",
        lam=1.0,
        p=1.0,
        q=2.0,
    )
    c = CoefficientFamily(
        kind="tabulated",
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
    c_arr = build_C_range(mode, w, c, 20000)
    direct = sum(mat_abs_norm(c_arr[k] - np.eye(2)) for k in range(5, 20000))
    assert tail_sum_C_minus_I(mode, w, c, 5) >= direct


def test_tabulated_oracle_equivalence_and_identities(tab_families, rng):
    w, c = tab_families
    for (m, n) in ((1, 0), (-3, 1), (0, 0), (5, 2)):
        mode = ModeIndex(m, n)
        sol = build_solution(mode, w, c, 40)
        assert float(np.max(wronskian_residuals(sol))) <= 1e-12
        r = random_rhs(mode, 40, rng)
        res = apply_Q(sol, r)
        orc = oracle_solve(mode, w, c, r, sol=sol)
        scale = max(np.max(np.abs(orc.h_g.values)), np.max(np.abs(orc.h_f.values)))
        assert np.max(np.abs(res.h_g.values - orc.h_g.values)) <= 1e-10 * scale
        assert np.max(np.abs(res.h_f.values - orc.h_f.values)) <= 1e-10 * scale
        back = apply_A(mode, w, c, res.h_g, res.h_f)
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
    assert loaded.weights.kind == "tabulated"
    assert main(["--config", str(path), "validate"]) == 0
    assert main(["--config", str(path), "solve"]) == 0
    payload = json.loads((tmp_path / "out" / "solutions.json").read_text())
    assert all(rec["residual_right_inverse"] <= 1e-9 for rec in payload["solutions"])
