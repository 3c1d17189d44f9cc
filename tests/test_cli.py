import json
from pathlib import Path

import numpy as np
import pytest

from qsolidtorus.cli import main
from qsolidtorus.config import ConfigError, default_config_dict, load_config
from qsolidtorus.families import CoefficientFamily, WeightFamily
from reference import first_difference


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
                         ("truncation", "tol_tail"), ("truncation", "tol_prod"), ("output", "format")):
        cfg = default_config_dict()
        (cfg if section is None else cfg[section])[key] = 7
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)
        assert main(["--config", str(path), "validate"]) == 2
    # the family and boundary sections check their keys against their kind
    tab_w = {"kind": "tabulated", "table": [[4.0]], "tail": {"rule": "power", "qq": 2.0}}
    tab_c = {"kind": "tabulated", "table1": [0.5], "table2": [0.5], "tail": {"rule": "constant", "lambda": 1.0}}
    # a tabulated family's law parameters live in its tail object only
    tail_w = {"kind": "tabulated", "table": [[4.0]], "tail": {"rule": "power"}}
    tail_c = {"kind": "tabulated", "table1": [0.5], "table2": [0.5], "tail": {"rule": "geometric"}}
    for section, value in (("weights", {"kind": "power-family", "lamda": 2.0}),
                           ("weights", {"kind": "power-family", "table": [[4.0]]}),
                           ("weights", tab_w),
                           *(("weights", tail_w | {key: 2.0}) for key in ("lambda", "p", "q")),
                           ("coeffs", {"kind": "geometric-gap", "kapa": 9.0}),
                           ("coeffs", {"kind": "unit", "table1": [0.5]}),
                           ("coeffs", tab_c),
                           *(("coeffs", tail_c | {key: 0.5}) for key in ("t1", "t2")),
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


# grid values and k_max are JSON integers: a fraction is not truncated, a string
# not iterated, a boolean not read as 0 or 1; tolerances are finite JSON numbers
STRICT_SCALARS = {
    "fractional-k_max": ("truncation", "k_max", 8.9),
    "string-k_max": ("truncation", "k_max", "128"),
    "fraction-in-m_list": ("grid", "m_list", [1.5]),
    "string-m_list": ("grid", "m_list", "12"),
    "fraction-in-n_list": ("grid", "n_list", [0, 2.0]),
    "string-n_list": ("grid", "n_list", "01"),
    "bool-in-m_list": ("grid", "m_list", [True, 2]),
    "bool-in-n_list": ("grid", "n_list", [False]),
    "bool-k_max": ("truncation", "k_max", True),
    "bool-tol_residual": ("truncation", "tol_residual", True),
    "string-tol_residual": ("truncation", "tol_residual", "1e-9"),
    "infinite-tol_residual": ("truncation", "tol_residual", float("inf")),
    "nan-tol_residual": ("truncation", "tol_residual", float("nan")),
}


@pytest.mark.parametrize("section, key, value", STRICT_SCALARS.values(), ids=STRICT_SCALARS.keys())
def test_config_scalars_are_strict_json(tmp_path, section, key, value):
    cfg = default_config_dict()
    cfg[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="integer|number|finite"):
        load_config(path)
    assert main(["--config", str(path), "validate"]) == 2


# every family, tail, table and boundary number is a finite JSON number, each
# row a JSON list and each boundary value a list of exactly two numbers
TAB_W = {"kind": "tabulated", "table": [[1.5, 3.0]], "tail": {"rule": "power", "q": 2.0}}
TAB_C = {"kind": "tabulated", "table1": [0.5], "table2": [0.6], "tail": {"rule": "geometric"}}
BOUNDARY = {"rule": "table", "table": {"2": [0.5, 1.0]}}
STRICT_SECTIONS = {
    "bool-lambda": ("weights", {"lambda": True}),
    "string-q": ("weights", {"q": "2.5"}),
    "nan-p": ("weights", {"p": float("nan")}),
    "bool-kappa": ("coeffs", {"kappa": True}),
    "string-t1": ("coeffs", {"t1": "0.5"}),
    "infinite-t2": ("coeffs", {"kind": "geometric-gap", "t2": float("inf")}),
    "string-tail-q": ("weights", TAB_W | {"tail": {"rule": "power", "q": "2"}}),
    "nan-tail-value": ("weights", TAB_W | {"tail": {"rule": "constant", "value": float("nan")}}),
    "bool-tail-t2": ("coeffs", TAB_C | {"tail": {"rule": "geometric", "t2": True}}),
    "bool-in-table-row": ("weights", TAB_W | {"table": [[1.5, True]]}),
    "string-table-row": ("weights", TAB_W | {"table": ["12"]}),
    "string-in-table1": ("coeffs", TAB_C | {"table1": ["0.5"]}),
    "nan-in-table2": ("coeffs", TAB_C | {"table2": [float("nan")]}),
    "bool-tabulated-kappa": ("coeffs", TAB_C | {"kappa": False}),
    "three-entry-boundary": ("boundary", BOUNDARY | {"table": {"2": [0.5, 1.0, 7.0]}}),
    "string-in-boundary": ("boundary", BOUNDARY | {"table": {"2": ["0.5", 1.0]}}),
    "bool-in-boundary": ("boundary", BOUNDARY | {"table": {"2": [0.5, True]}}),
    "nan-in-boundary": ("boundary", BOUNDARY | {"table": {"2": [0.5, float("nan")]}}),
    "padded-boundary-key": ("boundary", BOUNDARY | {"table": {"02": [0.5, 1.0]}}),
}


@pytest.mark.parametrize("section, value", STRICT_SECTIONS.values(), ids=STRICT_SECTIONS.keys())
def test_config_section_values_are_strict_json(tmp_path, section, value):
    cfg = default_config_dict()
    cfg[section] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="integer|number|finite"):
        load_config(path)
    assert main(["--config", str(path), "validate"]) == 2


def test_config_defaults_are_written_once(tmp_path):
    """An empty config is the default config: every absent key takes its one default."""
    empty, full = tmp_path / "empty.json", tmp_path / "full.json"
    empty.write_text("{}")
    full.write_text(json.dumps(default_config_dict()))
    assert load_config(empty) == load_config(full)
    # a tabulated family with no table and no tail is its default law alone
    tabulated = {"weights": {"kind": "tabulated"}, "coeffs": {"kind": "tabulated"}}
    empty.write_text(json.dumps(tabulated))
    loaded = load_config(empty)
    assert (loaded.weights.table, loaded.coeffs.table1, loaded.coeffs.table2) == ((), (), ())
    assert loaded.weights == WeightFamily()
    assert loaded.coeffs == CoefficientFamily()


def test_readme_config_example_loads(tmp_path):
    """The JSON config under the README's CLI heading is a valid config."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1]
    example = cli_section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "cfg.json"
    path.write_text(example)
    load_config(path)
    # the example spells out the default config on a smaller grid
    shown, default = json.loads(example), default_config_dict()
    assert shown.keys() == default.keys()
    assert {k: v for k, v in shown.items() if k != "grid"} == {k: v for k, v in default.items() if k != "grid"}


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
    "boolean-m": json.dumps({"modes": [_REC | {"m": True}]}),
    "boolean-n": json.dumps({"modes": [_REC | {"n": False}]}),
    "mode-listed-twice": json.dumps({"modes": [_REC, _REC]}),
    "nan-q0": json.dumps({"modes": [_REC | {"q0": "nan"}]}),
    "inf-in-r1": json.dumps({"modes": [_REC | {"r1": [0.0] * 39 + [float("inf")]}]}),
    "string-q0": json.dumps({"modes": [_REC | {"q0": "0.5"}]}),
    "bool-q0": json.dumps({"modes": [_REC | {"q0": True}]}),
    "string-in-r1": json.dumps({"modes": [_REC | {"r1": ["1.5"] + [0.0] * 39}]}),
    "bool-in-r1": json.dumps({"modes": [_REC | {"r1": [True] + [0.0] * 39}]}),
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


# an inadmissible table entry on the grid, off the grid, at m = 0, and a table
# whose ratio does not decay
BAD_BOUNDARY_TABLES = {
    "grid-entry": ({"2": [-0.2, 1.0]}, "at m=2: m>0 requires both components of K(inf) positive"),
    "off-grid-entry": ({"100": [-0.2, 1.0]}, "at m=100: m>0 requires both components of K(inf) positive"),
    "m-zero-entry": ({"0": [0.1, 1.0]}, "at m=0: m=0 requires first component zero and second nonzero"),
    "no-decay": (
        {str(s * m): [0.9 * s, 1.0] for m in (1, 2, 4, 8, 16, 32, 64) for s in (1, -1)},
        "|K1(inf)/K2(inf)| must decay to 0 as |m| grows",
    ),
    # entries that rise between or beyond the probe points, on either side
    "rise-between-probes": ({"3": [0.45, 1.0]}, "at m=3: |K1(inf)/K2(inf)| must decay"),
    "rise-beyond-probes": ({"100": [0.9, 1.0]}, "at m=100: |K1(inf)/K2(inf)| must decay"),
    "rise-on-negative-side": ({"-64": [-0.4, 1.0]}, "at m=-64: |K1(inf)/K2(inf)| must decay"),
}


@pytest.mark.parametrize("case", sorted(BAD_BOUNDARY_TABLES))
def test_inadmissible_boundary_table_exit_two(tmp_path, capsys, case):
    """The boundary rule is checked when the config is read, for every command and every entry."""
    table, clause = BAD_BOUNDARY_TABLES[case]
    cfg = default_config_dict()
    cfg["grid"] = {"m_list": [0, 1, 2], "n_list": [0, 1]}
    cfg["truncation"]["k_max"] = 16
    cfg["boundary"] = {"rule": "table", "table": table}
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for argv in (["validate"], ["solve"], ["scan"], ["dump", "--what", "solution"], ["dump", "--what", "transfer"]):
        assert main(["--config", str(path), *argv]) == 2, argv
        assert clause in capsys.readouterr().err, argv
    assert not (tmp_path / "out").exists()


# a family section or tail object holds exactly its law's keys, and each law
# checks its parameters with or without a table in front of it
BAD_FAMILIES = {
    "unit-with-t1": ("coeffs", {"kind": "unit", "t1": 0.3, "kappa": 1.0}, "unknown key(s) ['t1'] in coeffs"),
    "geometric-tail-t1-above-one": (
        "coeffs", TAB_C | {"tail": {"rule": "geometric", "t1": 1.5, "t2": 0.5}}, "must satisfy 0 < t < 1"
    ),
    "power-tail-p-below-one": ("weights", TAB_W | {"tail": {"rule": "power", "p": 0.5}}, "p must be >= 1"),
    "constant-tail-with-t1": (
        "coeffs", TAB_C | {"tail": {"rule": "constant", "t1": 0.3}}, "unknown key(s) ['t1'] in coeffs.tail"
    ),
    "constant-tail-with-q": (
        "weights", TAB_W | {"tail": {"rule": "constant", "value": 2.0, "q": 7.0}}, "unknown key(s) ['q'] in weights.tail"
    ),
    "constant-coefficient-level-2": (
        "coeffs", TAB_C | {"tail": {"rule": "constant", "value": 2.0}}, "level must lie in (0, 1]"
    ),
    "constant-coefficient-level-negative": (
        "coeffs", TAB_C | {"tail": {"rule": "constant", "value": -1.0}}, "level must lie in (0, 1]"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FAMILIES))
def test_malformed_family_exit_two(tmp_path, capsys, case):
    """A key outside the family's law, or a law parameter out of range, is a config error for every command."""
    section, value, reason = BAD_FAMILIES[case]
    cfg = default_config_dict()
    cfg["grid"] = {"m_list": [1, -1], "n_list": [0, 1]}
    cfg["truncation"]["k_max"] = 16
    cfg[section] = value
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for argv in (["validate"], ["solve"], ["scan"], ["dump", "--what", "solution"], ["dump", "--what", "transfer"]):
        assert main(["--config", str(path), *argv]) == 2, argv
        assert reason in capsys.readouterr().err, argv
    assert not (tmp_path / "out").exists()


def test_constant_coefficient_level_below_one_is_a_hypothesis_failure(tmp_path):
    """A level inside (0, 1) is a well-formed family whose product J_i collapses: exit 1, not 2."""
    cfg = default_config_dict()
    cfg["grid"] = {"m_list": [1, -1], "n_list": [0, 1]}
    cfg["coeffs"] = TAB_C | {"tail": {"rule": "constant", "value": 0.5}}
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "validate"]) == 1


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
    # m = 0 modes too: the table is not cut where a product tolerance is met
    assert main(["--config", str(path), "--modes", "0", "--kmax", "100", "dump", "--what", "transfer"]) == 0
    rows = read_out(path, "dump_transfer.json")["rows"]
    assert [(r["n"], r["k"]) for r in rows] == [(n, k) for n in (0, 1, 2) for k in range(100)]
    assert rows[0]["P"] == [1.0, 0.0, 0.0, 1.0]


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
        for argv in (["solve", "--seed", "3"], ["dump", "--what", "solution"], ["dump", "--what", "transfer"]):
            assert main(["--config", str(path), "--out", str(out), *argv]) == 0
    for name in ("solutions.json", "dump_solution.json", "dump_transfer.json"):
        a, b = ("\n".join(line for line in (out / name).read_text().splitlines() if '"generated_at": ' not in line)
                for out in (a_dir, b_dir))
        assert first_difference(a, b) is None, name


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
        assert first_difference(text, json.dumps(json.loads(text), indent=2, sort_keys=True)) is None, f.name


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


# each is read as an integer by Python's int(); on the command line only the
# JSON spelling of an integer is
MALFORMED_INTS = {
    "modes-underscore": ["--modes", "1_0"],
    "modes-plus": ["--modes", "+2"],
    "modes-padded": ["--modes", " 1"],
    "modes-leading-zero": ["--modes", "02"],
    "modes-empty-entry": ["--modes", "1,,2"],
    "modes-arabic-indic": ["--modes", "\u0661"],
    "kmax-padded-underscore": ["--kmax", " 1_6"],
    "kmax-plus": ["--kmax", "+8"],
    "kmax-fullwidth": ["--kmax", "\uff18"],
    "kmax-fraction": ["--kmax", "8.0"],
    "seed-plus": ["--seed", "+3"],
}


@pytest.mark.parametrize("argv", MALFORMED_INTS.values(), ids=MALFORMED_INTS.keys())
def test_cli_integers_are_json_integers(small_config, capsys, argv):
    path, _ = small_config
    assert main(["--config", str(path), *argv, "validate"]) == 2
    assert argv[0] in capsys.readouterr().err
    assert not (path.parent / "out").exists()


@pytest.mark.parametrize("command", [["validate"], ["solve"], ["scan"], ["dump", "--what", "solution"]])
def test_negative_seed_exit_two(small_config, capsys, command):
    """numpy's generator rejects a negative seed, so the command line does first."""
    path, _ = small_config
    assert main(["--config", str(path), "--seed", "-3", *command]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (path.parent / "out").exists()


def test_scan_builds_each_solution_once(small_config, monkeypatch):
    """Each (|m|, n) is built once: the default rule is odd, so -m mirrors m."""
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
    cfg["grid"]["m_list"] += [-1, 2]
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "scan"]) == 0
    assert sorted((abs(m), n) for m, n in calls) == sorted(
        {(abs(m), n) for m in cfg["grid"]["m_list"] for n in cfg["grid"]["n_list"]}
    )


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


def test_scan_large_m_rows_finite_exit_zero(tmp_path):
    """Every HS sum, bound and proxy is finite out to m = 8192 at K = 128, so the scan passes."""
    cfg = default_config_dict()
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--modes", "2048,-2048,4096,8192", "--kmax", "128", "scan"]) == 0
    rows = json.loads((tmp_path / "out" / "hs_scan.json").read_text())["rows"]
    assert len(rows) == 4 * len(cfg["grid"]["n_list"])
    values = [v for row in rows for v in row.values() if not isinstance(v, bool)]
    assert np.all(np.isfinite(values))


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


def test_scan_huge_m_no_runtime_warning(capsys, tmp_path):
    """Modes (100000, n >= 4) build but their raw-scale HS sums overflow: the finite gate is the one report."""
    cfg = default_config_dict()
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--modes", "1,100000", "scan"]) == 1
    out = capsys.readouterr().out
    assert "modes with a non-finite HS sum, bound or proxy" in out


def test_scan_overflow_exit_one(overflow_config, capsys):
    """A mode that fails to build is reported; the modes that built are still written."""
    path, cfg = overflow_config
    assert main(["--config", str(path), "scan"]) == 1
    assert "mode (100000, 0) failed" in capsys.readouterr().err
    rows = read_out(path, "hs_scan.json")["rows"]
    assert [(r["m"], r["n"]) for r in rows] == [(1, 0)]
    lemma = read_out(path, "lemma_summary.json")["modes"]
    assert [(r["m"], r["n"]) for r in lemma] == [(1, 0)] and lemma[0]["all_passed"]


def test_solve_overflow_exit_one(overflow_config, capsys):
    """A mode whose solution overflows is an error record; the other modes are still solved."""
    path, _ = overflow_config
    assert main(["--config", str(path), "solve"]) == 1
    err = capsys.readouterr().err
    assert "mode (100000, 0) failed: forward recursion overflow" in err
    records = {(r["m"], r["n"]): r for r in read_out(path, "solutions.json")["solutions"]}
    assert records[(100000, 0)]["error"].startswith("mode (100000, 0): forward recursion overflow")
    good = records[(1, 0)]
    assert "error" not in good
    assert all(np.isfinite(v) for k, v in good.items() if k not in ("m", "n"))


def test_dump_unknown_table_exit_two(small_config, capsys):
    path, _ = small_config
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "dump", "--what", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not (path.parent / "out").exists()


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


@pytest.mark.parametrize("command", ["solve", "scan"])
def test_failed_hypothesis_is_named_on_stderr(tmp_path, capsys, command):
    """A config that validate rejects still runs, and says on stderr which hypothesis failed."""
    cfg = default_config_dict()
    cfg["coeffs"] = {"kind": "geometric-gap", "t1": 0.9, "t2": 0.9, "kappa": 1.0}
    cfg["grid"] = {"m_list": [1, -1, 2], "n_list": [0, 1]}
    cfg["truncation"]["k_max"] = 32
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "validate"]) == 1
    capsys.readouterr()
    # the exit code is the command's own, as before
    assert main(["--config", str(path), command]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["hypothesis kappa_bracketing failed: c_1: inf=0.1 vs 1/kappa=1, sup=0.998821"]


@pytest.mark.parametrize("command", ["solve", "scan"])
def test_passing_hypotheses_print_nothing(small_config, capsys, command):
    path, _ = small_config
    assert main(["--config", str(path), command]) == 0
    assert capsys.readouterr().err == ""


def test_one_run_serves_nothing_to_the_next(tmp_path):
    """solve under one family, then another in the same process, writes what a fresh process writes."""
    import os
    import subprocess
    import sys

    def config(name, weights):
        cfg = default_config_dict()
        cfg["weights"] = weights
        cfg["grid"] = {"m_list": [0, 1, -1, 3], "n_list": [0, 2]}
        cfg["truncation"]["k_max"] = 24
        cfg["output"]["dir"] = str(tmp_path / name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        return path

    first = config("first", {"kind": "power-family", "lambda": 1.0, "p": 1.0, "q": 2.0})
    second = config("second", {"kind": "power-family", "lambda": 2.0, "p": 1.5, "q": 3.0})
    fresh = config("fresh", {"kind": "power-family", "lambda": 2.0, "p": 1.5, "q": 3.0})
    assert main(["--config", str(first), "solve", "--seed", "3"]) == 0
    assert main(["--config", str(second), "solve", "--seed", "3"]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "qsolidtorus.cli", "--config", str(fresh), "solve", "--seed", "3"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got, want = (
        "\n".join(line for line in (tmp_path / name / "solutions.json").read_text().splitlines() if '"generated_at": ' not in line)
        for name in ("second", "fresh")
    )
    assert first_difference(got, want) is None
    assert got != (tmp_path / "first" / "solutions.json").read_text()
