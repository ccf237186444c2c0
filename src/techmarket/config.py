"""Configuration loading: defaults < config file < command-line flags.

The config file is flat ``key=value`` text; keys mirror the long flag names
(dashes and underscores are interchangeable). Blank lines and lines starting
with ``#`` are ignored, which lets an emitted run-metadata file be fed back
in as a config file unchanged. ``CONFIG_KEYS`` describes each key once;
the flags, the config keys and the metadata lines are all built from it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from .errors import ConfigError
from .params import SCENARIOS, PolicyKind, SimParams, VariantKind

# each kind by its value; a policy also without "tech", a variant also by
# its member name
_POLICY_ALIASES = {alias: kind for kind in PolicyKind
                   for alias in (kind.value, kind.value.removesuffix("tech"))}
_VARIANT_ALIASES = {alias: kind for kind in VariantKind
                    for alias in (kind.value, kind.name.lower())}


def _cast_float(key: str, raw: Any) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def _cast_int(key: str, raw: Any) -> int:
    try:
        return int(raw, 0)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _cast_policy(key: str, raw: Any) -> PolicyKind:
    token = str(raw).strip().lower().replace("-", "").replace("_", "")
    if token in _POLICY_ALIASES:
        return _POLICY_ALIASES[token]
    raise ConfigError(
        f"{key} must be one of egalitarian/lowtech/mediumtech/hightech, got {raw!r}")


def _cast_variant(key: str, raw: Any) -> VariantKind:
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


def _cast_count(key: str, raw: Any) -> int:
    value = _cast_int(key, raw)
    if value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value}")
    return value


#: The most replicas run at once. Outputs are the same at any --jobs, so the
#: cap, well above any core count, only stops a run asking for a thread per
#: replica.
MAX_JOBS = 1024


def _cast_jobs(key: str, raw: Any) -> int:
    value = _cast_count(key, raw)
    if value > MAX_JOBS:
        raise ConfigError(f"{key} must be at most {MAX_JOBS}, got {value}")
    return value


def _cast_scenario(key: str, raw: Any) -> str:
    token = str(raw).strip().lower()
    if token in _SCENARIO_CHOICES:
        return token
    raise ConfigError(f"{key} must be one of {', '.join(_SCENARIO_CHOICES)}, got {raw!r}")


def _cast_path(key: str, raw: Any) -> Path:
    return Path(str(raw))


class Key(NamedTuple):
    cast: Callable[[str, Any], Any]
    field: Optional[str]  # the SimParams field; None for a RunControls one
    help: str

    @property
    def is_switch(self) -> bool:  # a flag without a value
        return self.cast is _cast_bool


_SCENARIO_CHOICES = (*SCENARIOS, "custom")

#: Every run key, in the order of the metadata lines and of ``--help``.
CONFIG_KEYS = {
    "scenario": Key(_cast_scenario, None,
                    f"preset experiment to run: {', '.join(_SCENARIO_CHOICES)}"
                    " (default: custom)"),
    "seed": Key(_cast_int, "seed", "base seed (64-bit integer)"),
    "replicas": Key(_cast_count, None, "ensemble size"),
    "sigma": Key(_cast_float, "sigma", "frontier growth rate per sweep"),
    "s": Key(_cast_float, "s", "bankruptcy susceptibility"),
    "b": Key(_cast_float, "b", "merge probability per interaction"),
    "nmin": Key(_cast_int, "n_min", "bankruptcy-free firm floor"),
    "omega_s": Key(_cast_float, "omega_s", "spin-off share fraction (0,1)"),
    "c": Key(_cast_float, "c", "initial lattice concentration (0,1]"),
    "q": Key(_cast_float, "q", "government intervention probability [0,1]"),
    "policy": Key(_cast_policy, "policy",
                  "rescue policy: egalitarian/lowtech/mediumtech/hightech"),
    "variant": Key(_cast_variant, "variant",
                   "post-rescue behavior: passive/active"),
    "lx": Key(_cast_int, "lx", "lattice width"),
    "ly": Key(_cast_int, "ly", "lattice height"),
    "tmax": Key(_cast_int, "t_max", "horizon in sweeps"),
    "jobs": Key(_cast_jobs, None, "replicas run at once on threads, at most "
                f"{MAX_JOBS} (default 1); a cell with --events runs its "
                "replicas one at a time"),
    "out": Key(_cast_path, None, "output directory (default: out)"),
    "events": Key(_cast_bool, None, "also write one JSONL event log per cell"),
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
    for source in (file_values or {}), (flag_values or {}):
        for raw_key, raw_value in source.items():
            if raw_value is None:
                continue
            key = normalize_key(raw_key)
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {raw_key!r}")
            merged[key] = CONFIG_KEYS[key].cast(key, raw_value)
    params = SimParams(**{  # validates ranges and cross-field rules
        CONFIG_KEYS[key].field: value for key, value in merged.items()
        if CONFIG_KEYS[key].field})
    controls = RunControls(explicit=set(merged), **{
        key: value for key, value in merged.items()
        if not CONFIG_KEYS[key].field})
    return params, controls


def config_lines(params: SimParams, **controls: Any) -> list[str]:
    """The ``key=value`` lines ``parse_config_file`` reads back into
    ``params`` and the given run controls, in table order: enums by
    value, strings as they are, anything else by ``repr``."""
    lines = []
    for key, (_, field_name, _) in CONFIG_KEYS.items():
        value = (getattr(params, field_name) if field_name
                 else controls.get(key))
        if isinstance(value, Enum):
            value = value.value
        if value is not None:
            text = value if isinstance(value, str) else repr(value)
            lines.append(f"{key}={text}")
    return lines
