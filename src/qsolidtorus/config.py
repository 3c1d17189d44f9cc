"""Experiment configuration: one JSON file drives every CLI command.

Keys: weights.{kind, lambda, p, q | table, tail}; coeffs.{kind, t1, t2,
kappa | table1, table2, tail}; boundary.{rule, table}; grid.{m_list, n_list};
truncation.{k_max, tol_prod, tol_residual}; output.{dir, formats}.  An
unknown key in any section is an error; which keys a family or boundary
section accepts depends on its kind or rule (a tabulated family also reads
lambda/p/q or t1/t2 at its top level when its tail object omits them).
Grid values and k_max are JSON integers and the tolerances positive finite
JSON numbers: a boolean or a string is an error, never converted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .families import CoefficientFamily, WeightFamily
from .solutions import default_rule


class ConfigError(ValueError):
    """The configuration file is missing, unparseable, or inconsistent."""


DEFAULT_GRID_M = (0, 1, -1, 2, -2, 4, -4, 8, -8, 16, -16, 32, -32)
DEFAULT_GRID_N = (0, 1, 2, 4, 8, 16)
OUTPUT_FORMATS = ("csv", "json")
KNOWN_KEYS = {
    None: ("weights", "coeffs", "boundary", "grid", "truncation", "output"),
    "grid": ("m_list", "n_list"),
    "truncation": ("k_max", "tol_prod", "tol_residual"),
    "output": ("dir", "formats"),
}
POWER_KEYS = ("lambda", "p", "q")
GAP_KEYS = ("t1", "t2", "kappa")


@dataclass(frozen=True)
class ExperimentConfig:
    weights: WeightFamily
    coeffs: CoefficientFamily
    boundary_rule: object
    boundary_name: str
    m_list: tuple[int, ...]
    n_list: tuple[int, ...]
    k_max: int
    tol_prod: float
    tol_residual: float
    out_dir: str
    formats: tuple[str, ...]


def _check_keys(d: dict, known: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(d.keys()) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _weights_from(d: dict) -> WeightFamily:
    kind = d.get("kind", "power-family")
    if kind == "power-family":
        _check_keys(d, ("kind", *POWER_KEYS), "weights")
        return WeightFamily(
            kind=kind,
            lam=float(d.get("lambda", 1.0)),
            p=float(d.get("p", 1.0)),
            q=float(d.get("q", 2.0)),
        )
    if kind == "tabulated":
        tail = d.get("tail", {"rule": "power"})
        _check_keys(d, ("kind", "table", "tail", *POWER_KEYS), "weights")
        _check_keys(tail, ("rule", "value", *POWER_KEYS), "weights.tail")
        return WeightFamily(
            kind=kind,
            table=tuple(tuple(float(v) for v in row) for row in d.get("table", [])),
            tail_rule=tail.get("rule", "power"),
            tail_value=float(tail.get("value", 1.0)),
            lam=float(tail.get("lambda", d.get("lambda", 1.0))),
            p=float(tail.get("p", d.get("p", 1.0))),
            q=float(tail.get("q", d.get("q", 2.0))),
        )
    raise ConfigError(f"unknown weights.kind {kind!r}")


def _coeffs_from(d: dict) -> CoefficientFamily:
    kind = d.get("kind", "geometric-gap")
    if kind in ("geometric-gap", "unit"):
        _check_keys(d, ("kind", *GAP_KEYS), "coeffs")
        return CoefficientFamily(
            kind=kind,
            t1=float(d.get("t1", 0.5)),
            t2=float(d.get("t2", 0.5)),
            kappa=float(d.get("kappa", 2.0)),
        )
    if kind == "tabulated":
        tail = d.get("tail", {"rule": "geometric"})
        _check_keys(d, ("kind", "table1", "table2", "tail", *GAP_KEYS), "coeffs")
        _check_keys(tail, ("rule", "value", "t1", "t2"), "coeffs.tail")
        return CoefficientFamily(
            kind=kind,
            table1=tuple(float(v) for v in d.get("table1", [])),
            table2=tuple(float(v) for v in d.get("table2", [])),
            tail_rule=tail.get("rule", "geometric"),
            tail_value=float(tail.get("value", 1.0)),
            t1=float(tail.get("t1", d.get("t1", 0.5))),
            t2=float(tail.get("t2", d.get("t2", 0.5))),
            kappa=float(d.get("kappa", 2.0)),
        )
    raise ConfigError(f"unknown coeffs.kind {kind!r}")


def _boundary_from(d: dict):
    rule = d.get("rule", "default")
    if rule == "default":
        _check_keys(d, ("rule",), "boundary")
        return "default", "default"
    if rule == "table":
        _check_keys(d, ("rule", "table"), "boundary")
        table = {int(k): (float(v[0]), float(v[1])) for k, v in d.get("table", {}).items()}

        def table_rule(m: int) -> tuple[float, float]:
            if m in table:
                return table[m]
            return default_rule(m)

        table_rule.__name__ = "table"
        return table_rule, "table"
    raise ConfigError(f"unknown boundary.rule {rule!r}")


def json_int(value, where: str) -> int:
    """A JSON integer; a boolean, a fraction or a string is an error, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def json_number(value, where: str) -> float:
    """A JSON number as a float; a boolean or a string is an error, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _int_list(values, where: str) -> tuple[int, ...]:
    """A JSON list of integers."""
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of integers")
    return tuple(json_int(v, where) for v in values)


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        for section, known in KNOWN_KEYS.items():
            d = raw if section is None else raw.get(section, {})
            _check_keys(d, known, section or "the top level")
        weights = _weights_from(raw.get("weights", {}))
        coeffs = _coeffs_from(raw.get("coeffs", {}))
        rule, rule_name = _boundary_from(raw.get("boundary", {}))
        grid = raw.get("grid", {})
        m_list = _int_list(grid.get("m_list", list(DEFAULT_GRID_M)), "grid.m_list")
        n_list = _int_list(grid.get("n_list", list(DEFAULT_GRID_N)), "grid.n_list")
        trunc = raw.get("truncation", {})
        k_max = json_int(trunc.get("k_max", 128), "truncation.k_max")
        tol_prod = json_number(trunc.get("tol_prod", 1e-10), "truncation.tol_prod")
        tol_residual = json_number(trunc.get("tol_residual", 1e-9), "truncation.tol_residual")
        out = raw.get("output", {})
        out_dir = str(out.get("dir", "out"))
        formats = out.get("formats", list(OUTPUT_FORMATS))
    except (AttributeError, TypeError, ValueError) as exc:
        # AttributeError: a section that is not a JSON object
        raise ConfigError(f"bad configuration value: {exc}") from exc
    if not m_list or not n_list:
        raise ConfigError("grid must be nonempty")
    # written so that NaN fails too; an infinite tolerance would pass every check
    if not all(0.0 < tol < math.inf for tol in (tol_prod, tol_residual)):
        raise ConfigError("tolerances must be positive and finite")
    if any(n < 0 for n in n_list):
        raise ConfigError("radial levels must be >= 0")
    if k_max < 2:
        raise ConfigError("k_max must be at least 2")
    if not isinstance(formats, list) or not all(f in OUTPUT_FORMATS for f in formats):
        raise ConfigError(f"output.formats must be a list of names from {list(OUTPUT_FORMATS)}")
    return ExperimentConfig(
        weights=weights,
        coeffs=coeffs,
        boundary_rule=rule,
        boundary_name=rule_name,
        m_list=m_list,
        n_list=n_list,
        k_max=k_max,
        tol_prod=tol_prod,
        tol_residual=tol_residual,
        out_dir=out_dir,
        formats=tuple(formats),
    )


def default_config_dict() -> dict:
    return {
        "weights": {"kind": "power-family", "lambda": 1.0, "p": 1.0, "q": 2.0},
        "coeffs": {"kind": "geometric-gap", "t1": 0.5, "t2": 0.5, "kappa": 2.0},
        "boundary": {"rule": "default"},
        "grid": {"m_list": list(DEFAULT_GRID_M), "n_list": list(DEFAULT_GRID_N)},
        "truncation": {
            "k_max": 128,
            "tol_prod": 1e-10,
            "tol_residual": 1e-9,
        },
        "output": {"dir": "out", "formats": list(OUTPUT_FORMATS)},
    }
