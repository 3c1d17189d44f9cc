"""Experiment configuration: one JSON file drives every CLI command.

Keys: weights.{kind, lambda, p, q | table, tail}; coeffs.{kind, t1, t2,
kappa | kind, kappa | table1, table2, tail, kappa}; boundary.{rule, table};
grid.{m_list, n_list}; truncation.{k_max, tol_residual}; output.{dir}.  A
family section's kind names its law, or a table continued by the law its tail
object names in "rule"; the section or tail object holds exactly that law's
keys (LAWS), but for the unit family, the constant law at its
default level 1, which holds none.  An unknown key in any section is an error;
which keys a boundary section accepts depends on its rule.

Each default is written once.  A family section passes only the keys it
holds, so an absent one takes the WeightFamily/CoefficientFamily default;
every other section is read over default_config_dict(), whose keys are the
ones it accepts.  Each value is read once, one way: json_number (a finite
JSON number), json_int (a JSON integer), json_m (a JSON integer m with
|m| <= M_MAX), json_text (a JSON string) or json_list (a JSON list of
those); an integer held in a string (a boundary table key, a command-line
value) is read by int_text.  A boolean, a string where a number is due, a
fraction where an integer is due, NaN, an infinity or an m whose square
overflows a float is an error, never converted.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .families import CoefficientFamily, WeightFamily
from .solutions import DEFAULT_RULE, BoundaryRule


class ConfigError(ValueError):
    """The configuration file is missing, unparseable, or inconsistent."""


DEFAULT_GRID_M = (0, 1, -1, 2, -2, 4, -4, 8, -8, 16, -16, 32, -32)
DEFAULT_GRID_N = (0, 1, 2, 4, 8, 16)
# the largest |m| whose square is a finite float (the boundary rule and the C stack form m * m)
M_MAX = math.isqrt(int(sys.float_info.max))
# the family sections' kinds, as JSON spells them
POWER, TABULATED, UNIT, GEOMETRIC = "power-family", "tabulated", "unit", "geometric-gap"
# each law's JSON keys and the family fields they set
LAWS = {
    "power": {"lambda": "lam", "p": "p", "q": "q"},
    "geometric": {"t1": "t1", "t2": "t2"},
    "constant": {"value": "tail_value"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    weights: WeightFamily
    coeffs: CoefficientFamily
    boundary: BoundaryRule
    m_list: tuple[int, ...]
    n_list: tuple[int, ...]
    k_max: int
    tol_residual: float
    out_dir: str


def json_int(value, where: str) -> int:
    """A JSON integer; a boolean, a fraction or a string is an error, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def json_m(value, where: str) -> int:
    """An angular mode m: a JSON integer with |m| <= M_MAX."""
    if abs(json_int(value, where)) > M_MAX:
        raise ConfigError(f"{where} must have |m| <= {M_MAX} (m * m must be a finite float), got {value}")
    return value


def int_text(text: str, where: str) -> int:
    """An integer in a string, spelt as JSON writes it: "2" or "-3", not "02" or "+2".

    ``int()`` alone also reads padding, underscores and non-ASCII digits, which
    would give one integer many spellings.
    """
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ConfigError(f"{where} must be an integer such as 2 or -3, got {text!r}")
    return value


def json_number(value, where: str) -> float:
    """A finite JSON number as a float; a boolean, a string, NaN or an infinity is an error."""
    # the bound also rejects an integer too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def json_text(value, where: str) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def json_list(values, where: str, read=json_number, what: str = "numbers", size: int | None = None) -> tuple:
    """A JSON list of ``what`` (exactly ``size`` of them when given), each entry read by ``read``."""
    if not isinstance(values, list) or size not in (None, len(values)):
        raise ConfigError(f"{where} must be a list of {'' if size is None else f'{size} '}{what}")
    return tuple(read(v, f"{where}[{i}]") for i, v in enumerate(values))


def _rows(values, where: str) -> tuple[tuple[float, ...], ...]:
    return json_list(values, where, json_list, "lists of numbers")


def _check_keys(d: dict, known, where: str) -> None:
    unknown = sorted(set(d.keys()) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _present(d: dict, keys: dict[str, str], where: str, read=json_number) -> dict:
    """The family fields set by the ``keys`` (JSON key -> field) that ``d`` holds, each read by ``read``."""
    return {name: read(d[key], f"{where}.{key}") for key, name in keys.items() if key in d}


def _tail(d: dict, laws: tuple[str, ...], where: str) -> dict:
    """The fields a tabulated family's tail object sets: its rule and that law's keys.

    The rule is one of the family's ``laws``, the first by default.
    """
    tail = d.get("tail", {})
    rule = json_text(tail.get("rule", laws[0]), f"{where}.rule")
    # a rule that is not one of the family's laws is the family's error to raise
    law = LAWS[rule] if rule in laws else {}
    _check_keys(tail, ("rule", *law), where)
    return {"tail_rule": rule, **_present(tail, law, where)}


def _weights_from(d: dict) -> WeightFamily:
    kind = d.get("kind", POWER)
    if kind == POWER:
        _check_keys(d, ("kind", *LAWS["power"]), "weights")
        return WeightFamily(**_present(d, LAWS["power"], "weights"))
    if kind == TABULATED:
        _check_keys(d, ("kind", "table", "tail"), "weights")
        table = _present(d, {"table": "table"}, "weights", _rows)
        return WeightFamily(**table, **_tail(d, ("power", "constant"), "weights.tail"))
    raise ConfigError(f"unknown weights.kind {kind!r}")


def _coeffs_from(d: dict) -> CoefficientFamily:
    kind, kappa = d.get("kind", GEOMETRIC), _present(d, {"kappa": "kappa"}, "coeffs")
    if kind in (GEOMETRIC, UNIT):
        # the unit family is the constant law at its default level 1, so it reads no law key
        rule, law = ("geometric", LAWS["geometric"]) if kind == GEOMETRIC else ("constant", {})
        _check_keys(d, ("kind", "kappa", *law), "coeffs")
        return CoefficientFamily(tail_rule=rule, **kappa, **_present(d, law, "coeffs"))
    if kind == TABULATED:
        _check_keys(d, ("kind", "kappa", "table1", "table2", "tail"), "coeffs")
        tables = _present(d, {"table1": "table1", "table2": "table2"}, "coeffs", json_list)
        return CoefficientFamily(**tables, **kappa, **_tail(d, ("geometric", "constant"), "coeffs.tail"))
    raise ConfigError(f"unknown coeffs.kind {kind!r}")


def _boundary_from(d: dict) -> BoundaryRule:
    rule = d["rule"]
    if rule == "default":
        _check_keys(d, ("rule",), "boundary")
        return DEFAULT_RULE
    if rule == "table":
        _check_keys(d, ("rule", "table"), "boundary")
        if not isinstance(d.get("table"), dict):
            raise ConfigError("boundary.table must be an object mapping m to [K1(inf), K2(inf)]")
        return BoundaryRule({
            int_text(key, "boundary.table key"): json_list(value, f"boundary.table.{key}", size=2)
            for key, value in d["table"].items()
        })
    raise ConfigError(f"unknown boundary.rule {rule!r}")


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    sections = default_config_dict()
    try:
        _check_keys(raw, sections, "the top level")
        weights = _weights_from(raw.get("weights", {}))
        coeffs = _coeffs_from(raw.get("coeffs", {}))
        # the other sections are read over their defaults (the boundary checks
        # its keys against its rule)
        for name in ("grid", "truncation", "output"):
            _check_keys(raw.get(name, {}), sections[name], name)
        boundary, grid, trunc, out = (
            sections[name] | raw.get(name, {}) for name in ("boundary", "grid", "truncation", "output")
        )
        rule = _boundary_from(boundary)
        m_list = json_list(grid["m_list"], "grid.m_list", json_m, "integers")
        n_list = json_list(grid["n_list"], "grid.n_list", json_int, "integers")
        k_max = json_int(trunc["k_max"], "truncation.k_max")
        tol_residual = json_number(trunc["tol_residual"], "truncation.tol_residual")
        out_dir = json_text(out["dir"], "output.dir")
    except (AttributeError, TypeError, ValueError) as exc:
        # AttributeError: a section that is not a JSON object; ValueError
        # includes the BoundaryRuleError of an inadmissible boundary table
        raise ConfigError(f"bad configuration value: {exc}") from exc
    if not m_list or not n_list or len(set(m_list)) < len(m_list) or len(set(n_list)) < len(n_list):
        raise ConfigError("grid must be nonempty and list each m and each n once")
    if tol_residual <= 0.0:
        raise ConfigError("truncation.tol_residual must be positive")
    if any(n < 0 for n in n_list):
        raise ConfigError("radial levels must be >= 0")
    if k_max < 2:
        raise ConfigError("k_max must be at least 2")
    return ExperimentConfig(
        weights=weights,
        coeffs=coeffs,
        boundary=rule,
        m_list=m_list,
        n_list=n_list,
        k_max=k_max,
        tol_residual=tol_residual,
        out_dir=out_dir,
    )


def default_config_dict() -> dict:
    """The full default config; the family sections hold the family dataclasses' defaults."""
    w, c = WeightFamily(), CoefficientFamily()
    return {
        "weights": {"kind": POWER, "lambda": w.lam, "p": w.p, "q": w.q},
        "coeffs": {"kind": GEOMETRIC, "t1": c.t1, "t2": c.t2, "kappa": c.kappa},
        "boundary": {"rule": "default"},
        "grid": {"m_list": list(DEFAULT_GRID_M), "n_list": list(DEFAULT_GRID_N)},
        "truncation": {"k_max": 128, "tol_residual": 1e-9},
        "output": {"dir": "out"},
    }
