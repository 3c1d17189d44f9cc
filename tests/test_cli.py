import json

import numpy as np
import pytest

from qsolidtorus.cli import main
from qsolidtorus.config import ConfigError, default_config_dict, load_config


@pytest.fixture()
def small_config(tmp_path):
    cfg = default_config_dict()
    cfg["grid"]["m_list"] = [0, 1, -2, 3]
    cfg["grid"]["n_list"] = [0, 1, 2]
    cfg["truncation"]["k_max"] = 40
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_out(path, name):
    return json.loads((path.parent / "out" / name).read_text())


def test_validate_default_exit_zero(small_config, capsys):
    path, _ = small_config
    assert main(["--config", str(path), "validate"]) == 0
    payload = read_out(path, "validation.json")
    assert payload["all_passed"] is True
    assert "generated_at" in payload["meta"]


def test_validate_divergent_weights_exit_one(tmp_path):
    cfg = default_config_dict()
    cfg["weights"]["q"] = 1.0
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "validate"]) == 1
    payload = json.loads((tmp_path / "out" / "validation.json").read_text())
    names = [ch["name"] for ch in payload["checks"] if not ch["passed"]]
    assert "s_summable" in names


def test_missing_config_exit_two(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "validate"]) == 2


def test_unparseable_config_exit_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "validate"]) == 2


def test_config_validation_rules(tmp_path):
    cfg = default_config_dict()
    cfg["grid"]["m_list"] = []
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="nonempty"):
        load_config(path)
    cfg = default_config_dict()
    cfg["truncation"]["tol_residual"] = 0.0
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="positive"):
        load_config(path)
    for formats in ("csv", ["csv", "xml"], {"csv": True}):
        cfg = default_config_dict()
        cfg["output"]["formats"] = formats
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="formats"):
            load_config(path)
        assert main(["--config", str(path), "scan"]) == 2
    for section in ("output", "grid", "truncation"):
        cfg = default_config_dict()
        cfg[section] = "csv"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError):
            load_config(path)
    # a misspelt or retired key is an error, not a silently ignored no-op
    for section, key in ((None, "grids"), ("grid", "n_lst"), ("truncation", "k_mx"),
                         ("truncation", "tol_tail"), ("output", "format")):
        cfg = default_config_dict()
        (cfg if section is None else cfg[section])[key] = 7
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)
        assert main(["--config", str(path), "validate"]) == 2
    # the family and boundary sections check their keys against their kind
    tab_w = {"kind": "tabulated", "table": [[4.0]], "tail": {"rule": "power", "qq": 2.0}}
    tab_c = {"kind": "tabulated", "table1": [0.5], "table2": [0.5], "tail": {"rule": "constant", "lambda": 1.0}}
    for section, value in (("weights", {"kind": "power-family", "lamda": 2.0}),
                           ("weights", {"kind": "power-family", "table": [[4.0]]}),
                           ("weights", tab_w),
                           ("coeffs", {"kind": "geometric-gap", "kapa": 9.0}),
                           ("coeffs", {"kind": "unit", "table1": [0.5]}),
                           ("coeffs", tab_c),
                           ("boundary", {"rul": "table"}),
                           ("boundary", {"rule": "default", "table": {"2": [1.0, 1.0]}})):
        cfg = default_config_dict()
        cfg[section] = value
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)
        assert main(["--config", str(path), "validate"]) == 2
    for section, tail in (("weights", {"rule": "geometric"}), ("coeffs", {"rule": "power"})):
        cfg = default_config_dict()
        cfg[section] = {"kind": "tabulated", "tail": tail}
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="tail rule"):
            load_config(path)
    # grid values are integers in lists: a fraction is not truncated, a string not iterated
    for section, key, value in (("truncation", "k_max", 8.9), ("truncation", "k_max", "128"),
                                ("grid", "m_list", [1.5]), ("grid", "m_list", "12"),
                                ("grid", "n_list", [0, 2.0]), ("grid", "n_list", "01")):
        cfg = default_config_dict()
        cfg[section][key] = value
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["--config", str(path), "validate"]) == 2


def test_solve_zero_rhs(small_config, tmp_path):
    path, _ = small_config
    rhs = {
        "modes": [
            {"m": 1, "n": 0, "r1": [0.0] * 40, "r2": [0.0] * 40, "q0": 0.0},
        ]
    }
    rhs_path = tmp_path / "rhs.json"
    rhs_path.write_text(json.dumps(rhs))
    assert main(["--config", str(path), "solve", "--rhs", str(rhs_path)]) == 0
    payload = read_out(path, "solutions.json")
    rec = payload["solutions"][0]
    assert rec["residual_right_inverse"] == 0.0
    assert rec["beta"] == 0.0


_REC = {"m": 1, "n": 0, "r1": [0.0] * 40, "r2": [0.0] * 40, "q0": 0.0}
MALFORMED_RHS = {
    "not-json": "not json",
    "modes-not-a-list": json.dumps({"modes": 3}),
    "top-level-list": json.dumps([1, 2]),
    "no-q0": json.dumps({"modes": [{k: v for k, v in _REC.items() if k != "q0"}]}),
    "r1-shorter-than-kmax": json.dumps({"modes": [_REC | {"r1": [0.0] * 39}]}),
    "nested-r2": json.dumps({"modes": [_REC | {"r2": [[0.0]] * 40}]}),
    "negative-n": json.dumps({"modes": [_REC | {"n": -1}]}),
    "fractional-m": json.dumps({"modes": [_REC | {"m": 1.5}]}),
    "mode-listed-twice": json.dumps({"modes": [_REC, _REC]}),
    "nan-q0": json.dumps({"modes": [_REC | {"q0": "nan"}]}),
    "inf-in-r1": json.dumps({"modes": [_REC | {"r1": [0.0] * 39 + [float("inf")]}]}),
}


@pytest.mark.parametrize("text", MALFORMED_RHS.values(), ids=MALFORMED_RHS.keys())
def test_solve_malformed_rhs_exit_two(small_config, tmp_path, capsys, text):
    path, _ = small_config
    rhs_path = tmp_path / "rhs.json"
    rhs_path.write_text(text)
    assert main(["--config", str(path), "solve", "--rhs", str(rhs_path)]) == 2
    assert "rhs file" in capsys.readouterr().err


def test_solve_rhs_with_modes_exit_two(small_config, tmp_path, capsys):
    """--modes does not filter an --rhs file; asking for both is a usage error."""
    path, _ = small_config
    rhs_path = tmp_path / "rhs.json"
    rhs_path.write_text(json.dumps({"modes": [_REC, _REC | {"m": 2}]}))
    assert main(["--config", str(path), "solve", "--rhs", str(rhs_path), "--modes", "1"]) == 2
    assert "--modes" in capsys.readouterr().err
    assert not (path.parent / "out" / "solutions.json").exists()


def test_solve_rhs_entries_beyond_kmax_ignored(small_config, tmp_path):
    path, _ = small_config
    rec = {"m": 1, "n": 0, "r1": [1.0] * 40 + [1e6], "r2": [1.0] * 50, "q0": 0.5}
    rhs_path = tmp_path / "rhs.json"
    rhs_path.write_text(json.dumps({"modes": [rec]}))
    assert main(["--config", str(path), "solve", "--rhs", str(rhs_path)]) == 0
    long = read_out(path, "solutions.json")["solutions"][0]
    rec.update(r1=[1.0] * 40, r2=[1.0] * 40)
    rhs_path.write_text(json.dumps({"modes": [rec]}))
    assert main(["--config", str(path), "solve", "--rhs", str(rhs_path)]) == 0
    assert read_out(path, "solutions.json")["solutions"][0] == long


def test_solve_bug_propagates(small_config, monkeypatch):
    """Only per-mode mathematical failures become exit 1; a bug is not swallowed."""
    import qsolidtorus.cli as cli

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(cli, "apply_Q", broken)
    path, _ = small_config
    with pytest.raises(TypeError, match="bug"):
        main(["--config", str(path), "solve", "--modes", "1"])


def test_solve_nan_oracle_exit_one(small_config, monkeypatch):
    import qsolidtorus.cli as cli

    real = cli.oracle_solve

    def nan_oracle(*args, **kwargs):
        orc = real(*args, **kwargs)
        orc.h_g.values[0] = np.nan
        return orc

    monkeypatch.setattr(cli, "oracle_solve", nan_oracle)
    path, _ = small_config
    assert main(["--config", str(path), "solve", "--modes", "1"]) == 1


def test_solve_seeded_fixtures(small_config):
    path, _ = small_config
    assert main(["--config", str(path), "solve", "--seed", "7"]) == 0
    payload = read_out(path, "solutions.json")
    assert len(payload["solutions"]) == 12
    for rec in payload["solutions"]:
        assert rec["residual_right_inverse"] <= 1e-9
        assert rec["residual_oracle"] <= 1e-8


def test_solve_missing_rhs_file_exit_two(small_config, tmp_path):
    path, _ = small_config
    assert main(["--config", str(path), "solve", "--rhs", str(tmp_path / "none.json")]) == 2


def test_solve_degenerate_boundary_rule_exit_one(tmp_path, capsys):
    cfg = default_config_dict()
    cfg["grid"]["m_list"] = [2]
    cfg["grid"]["n_list"] = [0]
    cfg["truncation"]["k_max"] = 16
    cfg["boundary"] = {"rule": "table", "table": {"2": [-0.2, 1.0]}}
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "solve"]) == 1
    err = capsys.readouterr().err
    assert "mode (2, 0)" in err
    payload = json.loads((tmp_path / "out" / "solutions.json").read_text())
    assert any("error" in rec for rec in payload["solutions"])


def test_scan_default_exit_zero(small_config):
    path, _ = small_config
    assert main(["--config", str(path), "scan"]) == 0
    rows = read_out(path, "hs_scan.json")["rows"]
    assert len(rows) == 12
    lemma = read_out(path, "lemma_summary.json")
    assert all(rec["all_passed"] for rec in lemma["modes"])


def test_scan_single_diagonal_mode(small_config):
    path, _ = small_config
    assert main(["--config", str(path), "--modes", "0", "scan"]) == 0
    rows = read_out(path, "hs_scan.json")["rows"]
    assert all(set(k for k in row if k.startswith("hs_")) == {"hs_Z00"} for row in rows)


def test_dump_tables(small_config):
    path, _ = small_config
    assert main(["--config", str(path), "--modes", "1", "--kmax", "8", "dump", "--what", "solution"]) == 0
    rows = read_out(path, "dump_solution.json")["rows"]
    assert {"m", "n", "k", "I1", "I2", "K1", "K2", "wronskian_residual"} <= set(rows[0])
    assert main(["--config", str(path), "--modes", "1", "--kmax", "8", "dump", "--what", "transfer"]) == 0
    rows = read_out(path, "dump_transfer.json")["rows"]
    assert len(rows[0]["C"]) == 4 and len(rows[0]["P"]) == 4


def test_modes_filter_runs_every_requested_m(small_config):
    path, _ = small_config
    for argv in (["dump", "--what", "solution"], ["solve"]):
        assert main(["--config", str(path), "--modes", "1,100000", "--kmax", "8", *argv]) == 0
    rows = read_out(path, "dump_solution.json")["rows"]
    assert sorted({row["m"] for row in rows}) == [1, 100000]
    recs = read_out(path, "solutions.json")["solutions"]
    assert sorted({rec["m"] for rec in recs}) == [1, 100000]


def test_outputs_deterministic_modulo_timestamp(small_config, tmp_path):
    path, _ = small_config
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for out in (a_dir, b_dir):
        assert main(["--config", str(path), "--out", str(out), "solve", "--seed", "3"]) == 0
    a = json.loads((a_dir / "solutions.json").read_text())
    b = json.loads((b_dir / "solutions.json").read_text())
    a["meta"].pop("generated_at")
    b["meta"].pop("generated_at")
    assert a == b


def test_json_outputs_are_canonical(small_config):
    """Every JSON file is json.dumps(indent=2, sort_keys=True) of its own content."""
    path, _ = small_config
    for argv in (["validate"], ["solve", "--seed", "3"], ["scan"],
                 ["dump", "--what", "solution"], ["dump", "--what", "transfer"]):
        assert main(["--config", str(path), *argv]) == 0
    files = sorted((path.parent / "out").glob("*.json"))
    assert [f.name for f in files] == [
        "dump_solution.json", "dump_transfer.json", "hs_scan.json",
        "lemma_summary.json", "solutions.json", "validation.json",
    ]
    for f in files:
        text = f.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True), f.name


def test_kmax_override(small_config):
    path, _ = small_config
    assert main(["--config", str(path), "--kmax", "24", "--modes", "1", "solve"]) == 0
    payload = read_out(path, "solutions.json")
    assert payload["meta"]["k_max"] == 24  # the value the run used, not the config's 40
    assert len(payload["solutions"]) == 3
    for argv in (["scan"], ["dump", "--what", "solution"]):
        assert main(["--config", str(path), "--kmax", "24", "--modes", "1", *argv]) == 0
    assert read_out(path, "lemma_summary.json")["meta"]["k_max"] == 24
    assert read_out(path, "dump_solution.json")["meta"]["k_max"] == 24
    assert main(["--config", str(path), "--kmax", "1", "solve"]) == 2


def test_scan_builds_each_solution_once(small_config, monkeypatch):
    import qsolidtorus.analysis as analysis
    import qsolidtorus.cli as cli

    calls = []
    real = analysis.build_solution

    def counting(mode, *args, **kwargs):
        calls.append((mode.m, mode.n))
        return real(mode, *args, **kwargs)

    for module in (analysis, cli):
        monkeypatch.setattr(module, "build_solution", counting)
    path, cfg = small_config
    assert main(["--config", str(path), "scan"]) == 0
    assert sorted(calls) == sorted({(m, n) for m in cfg["grid"]["m_list"] for n in cfg["grid"]["n_list"]})


def test_solve_banded_oracle_at_k65536(tmp_path):
    """The O(K) oracle checks the inverse far beyond what a dense solve could hold."""
    cfg = default_config_dict()
    cfg["grid"]["m_list"] = [1]
    cfg["grid"]["n_list"] = [0]
    cfg["truncation"]["k_max"] = 65536
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "solve", "--seed", "5"]) == 0
    (rec,) = json.loads((tmp_path / "out" / "solutions.json").read_text())["solutions"]
    tol = cfg["truncation"]["tol_residual"]
    assert rec["residual_oracle"] <= 10 * tol
    assert rec["residual_right_inverse"] <= tol


def test_scan_non_finite_tail_exit_one(tmp_path):
    cfg = default_config_dict()
    cfg["grid"]["m_list"] = [1, 8192]
    cfg["grid"]["n_list"] = [0, 1]
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "scan"]) == 1


@pytest.fixture()
def overflow_config(tmp_path):
    """Mode (1, 0) tabulates fine; at m = 100000 the products leave the double range."""
    cfg = default_config_dict()
    cfg["grid"]["m_list"] = [1, 100000]
    cfg["grid"]["n_list"] = [0]
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# the injected overflow reaches transfer.det2 as inf - inf on purpose
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_dump_transfer_non_finite_exit_one(overflow_config, capsys):
    path, cfg = overflow_config
    assert main(["--config", str(path), "dump", "--what", "transfer"]) == 1
    assert "mode (100000, 0)" in capsys.readouterr().err
    rows = read_out(path, "dump_transfer.json")["rows"]
    assert len(rows) == 2 * cfg["truncation"]["k_max"]


def test_dump_solution_overflow_exit_one(overflow_config, capsys):
    path, cfg = overflow_config
    assert main(["--config", str(path), "dump", "--what", "solution"]) == 1
    assert "mode (100000, 0)" in capsys.readouterr().err
    rows = read_out(path, "dump_solution.json")["rows"]
    assert {(r["m"], r["n"]) for r in rows} == {(1, 0)}
    assert len(rows) == cfg["truncation"]["k_max"] + 1


def test_validate_reversed_n_list_exit_zero(tmp_path):
    """s(n) decreases along the levels, whatever order n_list lists them in."""
    cfg = default_config_dict()
    cfg["grid"]["n_list"] = cfg["grid"]["n_list"][::-1]
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "validate"]) == 0
