"""Scenario configuration: one schema table of every scenario's keys, strict
JSON parsing against it, and the work estimate checked before anything is built.

This module imports no numpy, so listing the scenarios and refusing a
config start without it; ``lab`` runs what is parsed here (D22).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["ConfigError", "ScenarioError", "ScenarioSpec", "Sweep", "SCENARIO_NAMES",
           "scenario_defaults", "parse_config"]


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


class ScenarioError(RuntimeError):
    """The scenario itself failed to run."""


@dataclass(frozen=True)
class Sweep:
    parameter: str
    min: float
    max: float
    steps: int


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    config: dict = field(default_factory=dict)
    sweep: Sweep | None = None


_MAX_POINTS = 10_000_000   # work limit of every scenario, see _work
_TABLE1_MAX_CELLS = 100_000


def _table1_rows(config: dict) -> int:
    """Rows of the table1 L/a grid; ConfigError past _TABLE1_MAX_CELLS rows x wa_values."""
    span = (config["L_over_a_max"] - config["L_over_a_min"]) / config["L_over_a_step"]
    # the rows at L_over_a_min + i step up to L_over_a_max, which rounding may leave just short
    n_rows = math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf
    n_wa = len(config["wa_values"])
    if n_rows * max(n_wa, 1) > _TABLE1_MAX_CELLS:   # the rows are built even with no wa
        raise ConfigError(f"L_over_a_step = {config['L_over_a_step']!r} gives {n_rows:.6g} rows"
                          f" x {n_wa} wa_values; table1 allows {_TABLE1_MAX_CELLS} cells")
    return n_rows


@dataclass(frozen=True)
class _Scenario:   # one entry of _SCHEMA
    keys: dict                  # key -> (default, rule), see _coerce
    work: tuple                 # factors of the work estimate, see _work
    sweep: tuple | None = None  # (sweep parameter, the keys it replaces, its steps key first)


def scenario_defaults(name: str) -> dict:
    if name not in _SCHEMA:
        raise ScenarioError(f"unknown scenario {name!r}; choose one of {', '.join(SCENARIO_NAMES)}")
    return {key: (list(default) if isinstance(default, list) else default)
            for key, (default, _) in _SCHEMA[name].keys.items()}


def _coerce(key: str, value, default, rule: str, known: dict):
    """``value`` as the type of ``default``, inside ``rule``; ConfigError naming ``key``.

    The default's type is the key's type: an int is a count, a float a
    number, a list a list of numbers. Bools, strings, non-finite numbers and
    non-integral counts are rejected. The rule is an interval such as
    "(0, inf)" or "[1, inf)"; an end that is not a number is the value of an
    earlier key, read from ``known``.
    """
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
        return [_coerce(key, item, 0.0, rule, known) for item in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:          # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if isinstance(default, int):
        if not number.is_integer():
            raise ConfigError(f"{key} must be an integer count, got {value!r}")
        number = int(number)
    lo, hi = (known[end] if end in known else float(end) for end in rule[1:-1].split(", "))
    if not ((lo < number if rule[0] == "(" else lo <= number)
            and (number < hi if rule[-1] == ")" else number <= hi)):
        raise ConfigError(f"{key} must lie in {rule}, got {value!r}")
    return number


def _work(name: str, config: dict, sweep: Sweep | None = None) -> float:
    """Work estimate of a scenario: the product of its work factors.

    A key counts its value, or its list's length (at least 1, since the
    steps grid is built even for an empty list); a sweep's steps replace the
    steps key it stands for; an int is a weight; a callable reads the config.
    """
    scenario = _SCHEMA[name]
    size = 1.0
    for factor in scenario.work:
        if callable(factor):
            size *= factor(config)
        elif isinstance(factor, int):
            size *= factor
        elif sweep is not None and factor == scenario.sweep[1]:
            size *= sweep.steps
        else:
            value = config[factor]
            size *= max(len(value), 1) if isinstance(value, list) else value
    if size > _MAX_POINTS:
        factors = " x ".join(str(f) for f in scenario.work if not callable(f))
        raise ConfigError(f"{factors} gives {size:.6g} points; {name} allows {_MAX_POINTS}")
    return size


def parse_config(text: str, scenario: str | None = None) -> ScenarioSpec:
    """Parse a JSON scenario configuration in strict mode.

    Recognized top-level keys: scenario, config, sweep.  Unknown or repeated
    keys anywhere are rejected; parse errors carry line/column positions, and a
    document nested too deeply to parse is a ConfigError too.  Every
    value is checked against the schema and stored as its key's type, and the
    work estimate is checked before anything is built.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - {"scenario", "config", "sweep"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {', '.join(sorted(unknown))}")

    name = raw.get("scenario", scenario)
    if name is None:
        raise ConfigError("no scenario given (neither on the command line nor in the config)")
    if scenario is not None and raw.get("scenario") not in (None, scenario):
        raise ConfigError(
            f"config names scenario {raw['scenario']!r} but {scenario!r} was requested")
    if name not in _SCHEMA:
        raise ScenarioError(f"unknown scenario {name!r}; choose one of {', '.join(SCENARIO_NAMES)}")

    schema = _SCHEMA[name]
    overrides = raw.get("config", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'config' must be an object")
    unknown = set(overrides) - set(schema.keys)
    if unknown:
        raise ConfigError(
            f"unknown config keys for scenario {name!r}: {', '.join(sorted(unknown))}")
    config: dict = {}
    for key, (default, rule) in schema.keys.items():
        config[key] = _coerce(key, overrides.get(key, default), default, rule, config)

    sweep = None
    if raw.get("sweep") is not None:
        sw = raw["sweep"]
        if not isinstance(sw, dict) or set(sw) != {"parameter", *_SWEEP_KEYS}:
            raise ConfigError(f"'sweep' must be an object with exactly the keys parameter,"
                              f" min, max and steps; got {sw!r}")
        if schema.sweep is None:
            raise ConfigError(f"scenario {name!r} does not accept a sweep")
        if sw["parameter"] != schema.sweep[0]:
            raise ConfigError(
                f"scenario {name!r} sweeps over {schema.sweep[0]!r}, not {sw['parameter']!r}")
        fields: dict = {}
        for key, (default, rule) in _SWEEP_KEYS.items():
            fields[key] = _coerce(f"sweep {key}", sw[key], default, rule, fields)
        if not fields["min"] < fields["max"]:
            raise ConfigError("sweep needs min < max")
        sweep = Sweep(parameter=schema.sweep[0], **fields)

    _work(name, config, sweep)
    return ScenarioSpec(name=name, config=config, sweep=sweep)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that it repeats (json keeps the last)."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


_WL_MAX = 1e2   # the largest decade of wL at which every scenario runs without overflow
_UPSILON_MAX = 1e3   # identity_residual grows with upsilon: 2.2e-11 here, 3.5e-9 at 1e6 (D6)
_POSITIVE, _ANY, _WL = "(0, inf)", "(-inf, inf)", f"(0, {_WL_MAX:g}]"
_UPSILON = f"[0, {_UPSILON_MAX:g}]"
_STEPS = "[1, inf)"
_ABOVE_BARRIER = {"wa": (1.0e4, _POSITIVE), "k0_over_w": (math.sqrt(2.0), "(1, inf)"),
                  "L_over_a": (5.0, _POSITIVE), "n_snapshots": (6, _STEPS),
                  "n_x": (801, "[2, inf)")}

# Work factors: a key counts its value (or its list's length, at least 1); an
# int weighs grids per snapshot, columns per row or quadrature nodes per row
# (160 is observables._IDENTITY_N_QUAD, which a test pins).
_SCHEMA: dict[str, _Scenario] = {
    "free-packet": _Scenario(
        {"m": (1.0, _POSITIVE), "a": (1.0, _POSITIVE), "k0": (2.0, _POSITIVE),
         "x0": (-10.0, _ANY), "t_max": (4.0, _POSITIVE), "t_steps": (9, _STEPS),
         "n_x": (2001, "[2, inf)")},
        work=("t_steps", "n_x"), sweep=("t", "t_steps", "t_max")),
    "above-barrier-naive": _Scenario(_ABOVE_BARRIER, work=("n_snapshots", 5)),
    "multipeak": _Scenario(
        {**_ABOVE_BARRIER, "k0_over_w": (math.sqrt(10.0) / 3.0, "(1, inf)"),
         "n_terms": (3, _STEPS)},
        work=("n_snapshots", "n_terms", "n_x", 3)),
    "confront": _Scenario(
        {**_ABOVE_BARRIER, "k0_over_w": (5.0 * math.sqrt(2.0) / 7.0, "(1, inf)"),
         "L_over_a": (0.8, _POSITIVE), "n_terms": (3, _STEPS), "n_x": (601, "[2, inf)")},
        work=("n_snapshots", "n_terms", "n_x", 4)),
    "table1": _Scenario(
        {"k0a": (1.0, _POSITIVE), "wa_values": ([1.5, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0], _POSITIVE),
         "L_over_a_min": (0.0, "[0, inf)"), "L_over_a_max": (1.0, "[L_over_a_min, inf)"),
         "L_over_a_step": (0.05, _POSITIVE)},
        work=(_table1_rows, "wa_values")),
    "nr-phase": _Scenario(
        {"n_values": ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], "(0, 1)"),
         "alpha_min": (0.05, "[0, inf)"), "alpha_max": (30.0, "(alpha_min, inf)"),
         "alpha_steps": (120, _STEPS), "saturation_tol": (1e-6, _POSITIVE)},
        work=("n_values", "alpha_steps", 6)),
    "symmetric-times": _Scenario(
        {"wL": (4.0 * math.pi, _WL), "n_min": (0.02, "(0, 1)"), "n_max": (0.98, "(n_min, 1)"),
         "n_steps": (97, _STEPS)},
        work=("n_steps", 11)),
    "relativistic-times": _Scenario(
        {"wL": (2.0 * math.pi, _WL), "upsilon_values": ([0.0, 1.0, 2.0, 5.0, 10.0], _UPSILON),
         "n_sq_steps": (101, _STEPS), "edge_margin": (1e-3, "[0, 1)")},
        work=("upsilon_values", "n_sq_steps", 160), sweep=("n_sq", "n_sq_steps", "edge_margin")),
    "hartman": _Scenario(
        {"n_values": ([0.1, 0.3, 0.5, 0.7, 0.9], "(0, 1)"), "alpha_max": (60.0, "(0.5, inf)"),
         "alpha_steps": (240, _STEPS), "saturation_tol": (1e-6, _POSITIVE),
         "upsilon": (5.0, _UPSILON), "wL": (2.0 * math.pi, _WL)},
        work=("n_values", "alpha_steps", 3)),
}

_SWEEP_KEYS = {"min": (0.0, _ANY), "max": (0.0, _ANY), "steps": (2, "[2, inf)")}

SCENARIO_NAMES = tuple(sorted(_SCHEMA))
