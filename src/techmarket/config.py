"""Configuration loading: defaults < config file < command-line flags.

The config file is flat ``key=value`` text; keys mirror the long flag names
(dashes and underscores are interchangeable). Blank lines and lines starting
with ``#`` are ignored, which lets an emitted run-metadata file be fed back
in as a config file unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .errors import ConfigError
from .params import PolicyKind, SimParams, VariantKind

SCENARIO_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "custom")

_POLICY_ALIASES = {
    "egalitarian": PolicyKind.EGALITARIAN,
    "lowtech": PolicyKind.LOW_TECH,
    "low": PolicyKind.LOW_TECH,
    "mediumtech": PolicyKind.MEDIUM_TECH,
    "medium": PolicyKind.MEDIUM_TECH,
    "hightech": PolicyKind.HIGH_TECH,
    "high": PolicyKind.HIGH_TECH,
}

_VARIANT_ALIASES = {
    "passive": VariantKind.PASSIVE_AFTER_RESCUE,
    "passive_after_rescue": VariantKind.PASSIVE_AFTER_RESCUE,
    "active": VariantKind.ACTIVE_AFTER_RESCUE,
    "active_after_rescue": VariantKind.ACTIVE_AFTER_RESCUE,
}


def _cast_float(key: str, raw: Any) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def _cast_int(key: str, raw: Any) -> int:
    try:
        if isinstance(raw, str):
            return int(raw, 0)
        if isinstance(raw, int):
            return raw
    except ValueError:
        pass
    raise ConfigError(f"{key} must be an integer, got {raw!r}")


def _cast_policy(key: str, raw: Any) -> PolicyKind:
    if isinstance(raw, PolicyKind):
        return raw
    token = str(raw).strip().lower().replace("-", "").replace("_", "")
    if token in _POLICY_ALIASES:
        return _POLICY_ALIASES[token]
    raise ConfigError(
        f"{key} must be one of egalitarian/lowtech/mediumtech/hightech, got {raw!r}")


def _cast_variant(key: str, raw: Any) -> VariantKind:
    if isinstance(raw, VariantKind):
        return raw
    token = str(raw).strip().lower().replace("-", "_")
    if token in _VARIANT_ALIASES:
        return _VARIANT_ALIASES[token]
    raise ConfigError(f"{key} must be passive or active, got {raw!r}")


def _cast_bool(key: str, raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    token = str(raw).strip().lower()
    if token in ("1", "true", "yes", "on"):
        return True
    if token in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def _cast_scenario(key: str, raw: Any) -> str:
    token = str(raw).strip().lower()
    if token in SCENARIO_NAMES:
        return token
    raise ConfigError(f"{key} must be one of {', '.join(SCENARIO_NAMES)}, got {raw!r}")


def _cast_str(key: str, raw: Any) -> str:
    return str(raw)


# key -> (caster, SimParams field name or None for run controls)
CONFIG_KEYS = {
    "sigma": (_cast_float, "sigma"),
    "s": (_cast_float, "s"),
    "b": (_cast_float, "b"),
    "nmin": (_cast_int, "n_min"),
    "omega_s": (_cast_float, "omega_s"),
    "c": (_cast_float, "c"),
    "q": (_cast_float, "q"),
    "policy": (_cast_policy, "policy"),
    "variant": (_cast_variant, "variant"),
    "lx": (_cast_int, "lx"),
    "ly": (_cast_int, "ly"),
    "tmax": (_cast_int, "t_max"),
    "seed": (_cast_int, "seed"),
    "scenario": (_cast_scenario, None),
    "replicas": (_cast_int, None),
    "jobs": (_cast_int, None),
    "out": (_cast_str, None),
    "events": (_cast_bool, None),
}


@dataclass(slots=True)
class RunControls:
    """Run-level knobs that are not model constants."""

    scenario: str = "custom"
    replicas: int = 400
    jobs: int = 1
    out: Path = Path("out")
    events: bool = False
    # keys the user set explicitly (file or flag); scenario presets leave
    # an explicitly set tmax alone
    explicit: set[str] = field(default_factory=set)


def normalize_key(raw_key: str) -> str:
    return raw_key.strip().lower().replace("-", "_")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value file to a raw-string dict; unknown keys fail here."""
    values: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {lineno} of {path} is not key=value: {stripped!r}")
        raw_key, raw_value = stripped.split("=", 1)
        key = normalize_key(raw_key)
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {raw_key.strip()!r} in {path}")
        values[key] = raw_value.strip()
    return values


def resolve_config(file_values: Optional[dict[str, str]] = None,
                   flag_values: Optional[dict[str, Any]] = None,
                   ) -> tuple[SimParams, RunControls]:
    """Merge defaults, config-file values, and flag overrides (in that
    order of increasing precedence) into validated params and controls."""
    merged: dict[str, Any] = {}
    explicit: set[str] = set()
    for source in (file_values or {}), (flag_values or {}):
        for raw_key, raw_value in source.items():
            if raw_value is None:
                continue
            key = normalize_key(raw_key)
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {raw_key!r}")
            caster, _ = CONFIG_KEYS[key]
            merged[key] = caster(key, raw_value)
            explicit.add(key)

    param_kwargs = {
        field_name: merged[key]
        for key, (_, field_name) in CONFIG_KEYS.items()
        if field_name is not None and key in merged
    }
    params = SimParams(**param_kwargs)  # validates ranges and cross-field rules

    controls = RunControls(explicit=explicit)
    if "scenario" in merged:
        controls.scenario = merged["scenario"]
    if "replicas" in merged:
        if merged["replicas"] < 1:
            raise ConfigError(f"replicas must be >= 1, got {merged['replicas']}")
        controls.replicas = merged["replicas"]
    if "jobs" in merged:
        if merged["jobs"] < 1:
            raise ConfigError(f"jobs must be >= 1, got {merged['jobs']}")
        controls.jobs = merged["jobs"]
    if "out" in merged:
        controls.out = Path(merged["out"])
    if "events" in merged:
        controls.events = merged["events"]
    return params, controls
