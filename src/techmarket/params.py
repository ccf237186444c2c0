"""Simulation parameters, the policy/variant enumerations and the scenario
presets.

``SimParams`` is a frozen dataclass holding every model constant for one run.
Defaults follow the reference configuration: sigma=0.01, s=1, b=0.01,
n_min=10, omega_s=0.1, c=0.8 on a 10x10 lattice. ``SCENARIOS`` fixes, per
preset, the horizon and the q, policy and variant of each cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError


class PolicyKind(Enum):
    """Which market segment is eligible for a government rescue."""

    EGALITARIAN = "egalitarian"  # every firm is eligible
    LOW_TECH = "lowtech"
    MEDIUM_TECH = "mediumtech"
    HIGH_TECH = "hightech"


class VariantKind(Enum):
    """What a rescued firm does with the rest of its update step."""

    PASSIVE_AFTER_RESCUE = "passive"  # rescued firm ends its step immediately
    ACTIVE_AFTER_RESCUE = "active"    # rescued firm moves and diffuses as a survivor


MAX_SEED = 2**64 - 1


@dataclass(frozen=True, slots=True)
class SimParams:
    """Every model constant for a single run, including horizon and seed."""

    sigma: float = 0.01        # frontier growth rate per sweep
    s: float = 1.0             # bankruptcy susceptibility (inverse market temperature)
    b: float = 0.01            # merge probability per interaction
    n_min: int = 10            # firm count at or below which bankruptcy is disabled
    omega_s: float = 0.1       # share fraction handed to a spin-off
    c: float = 0.8             # initial lattice concentration
    q: float = 0.0             # government intervention probability
    policy: PolicyKind = PolicyKind.EGALITARIAN
    variant: VariantKind = VariantKind.PASSIVE_AFTER_RESCUE
    lx: int = 10
    ly: int = 10
    t_max: int = 600           # horizon in sweeps
    seed: int = 42             # base seed, 64-bit

    def __post_init__(self) -> None:
        validate_params(self)

    @property
    def n_initial_firms(self) -> int:
        return int(round(self.c * self.lx * self.ly))


def validate_params(p: SimParams) -> None:
    """Raise ConfigError naming the offending key if any field is out of range."""
    if not 0.0 <= p.sigma < math.inf:
        raise ConfigError(f"sigma must be finite and >= 0, got {p.sigma}")
    if not 0.0 <= p.s < math.inf:
        raise ConfigError(f"s must be finite and >= 0, got {p.s}")
    if not 0.0 <= p.b <= 1.0:
        raise ConfigError(f"b must be in [0, 1], got {p.b}")
    if not (isinstance(p.n_min, int) and p.n_min >= 1):
        raise ConfigError(f"nmin must be a positive integer, got {p.n_min}")
    if not 0.0 < p.omega_s < 1.0:
        raise ConfigError(f"omega_s must be in (0, 1), got {p.omega_s}")
    if not 0.0 < p.c <= 1.0:
        raise ConfigError(f"c must be in (0, 1], got {p.c}")
    if not 0.0 <= p.q <= 1.0:
        raise ConfigError(f"q must be in [0, 1], got {p.q}")
    if not isinstance(p.policy, PolicyKind):
        raise ConfigError(f"policy must be a PolicyKind, got {p.policy!r}")
    if not isinstance(p.variant, VariantKind):
        raise ConfigError(f"variant must be a VariantKind, got {p.variant!r}")
    # periodic neighborhoods need >= 3 sites per axis to stay distinct
    if not (isinstance(p.lx, int) and p.lx >= 3):
        raise ConfigError(f"lx must be an integer >= 3, got {p.lx}")
    if not (isinstance(p.ly, int) and p.ly >= 3):
        raise ConfigError(f"ly must be an integer >= 3, got {p.ly}")
    if not (isinstance(p.t_max, int) and p.t_max >= 0):
        raise ConfigError(f"tmax must be a nonnegative integer, got {p.t_max}")
    try:
        horizon = math.exp(p.sigma * p.t_max)  # the frontier at the horizon
    except OverflowError:
        horizon = math.inf
    # MarketState.tech_sq_sum holds up to lx*ly squared technologies below
    # the frontier, and sigma_g_from_sums forms twice that much
    if not math.isfinite(2.0 * horizon * horizon * (p.lx * p.ly)):
        raise ConfigError(
            f"sigma ({p.sigma}) is too large for tmax={p.t_max} on a "
            f"{p.lx}x{p.ly} lattice: 2 * exp(sigma * tmax)**2 * lx * ly, the "
            f"bound on the running sums of squared technologies, overflows")
    if not (isinstance(p.seed, int) and 0 <= p.seed <= MAX_SEED):
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {p.seed}")
    if p.n_min > p.lx * p.ly:
        raise ConfigError(
            f"nmin ({p.n_min}) must not exceed the lattice size ({p.lx * p.ly})"
        )
    if p.c * p.lx * p.ly < p.n_min:
        raise ConfigError(
            f"c ({p.c}) gives c*lx*ly = {p.c * p.lx * p.ly:g} initial firms, "
            f"below nmin ({p.n_min})"
        )
    if int(round(p.c * p.lx * p.ly)) < 1:
        raise ConfigError(f"c ({p.c}) gives an empty initial market on {p.lx}x{p.ly}")


#: q grid for the catch-up time curve; dense tail near 1 where the time
#: diverges.
TC_Q_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@dataclass(frozen=True)
class CellSpec:
    q: float
    policy: PolicyKind | None      # None keeps the caller's policy
    variant: VariantKind


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str                      # "timeseries" or "tc_curve"
    t_max: int
    cells: tuple[CellSpec, ...]


_EGAL = PolicyKind.EGALITARIAN
_PASSIVE = VariantKind.PASSIVE_AFTER_RESCUE
_ACTIVE = VariantKind.ACTIVE_AFTER_RESCUE


def _policy_sweep(policy: PolicyKind) -> tuple[CellSpec, ...]:
    return tuple(CellSpec(q, policy, _PASSIVE) for q in (0.3, 0.9, 0.99))


SCENARIOS: dict[str, ScenarioSpec] = {
    "fig1": ScenarioSpec("timeseries", 600,
                         cells=(CellSpec(0.0, _EGAL, _PASSIVE),)),
    "fig2": ScenarioSpec("timeseries", 600, cells=_policy_sweep(_EGAL)),
    "fig3": ScenarioSpec("timeseries", 600,
                         cells=_policy_sweep(PolicyKind.LOW_TECH)),
    "fig4": ScenarioSpec("timeseries", 600,
                         cells=_policy_sweep(PolicyKind.MEDIUM_TECH)),
    "fig5": ScenarioSpec("tc_curve", 3000,
                         cells=tuple(CellSpec(q, None, _PASSIVE)
                                     for q in TC_Q_GRID)),
    "fig6": ScenarioSpec("timeseries", 2000,
                         cells=(CellSpec(0.99, _EGAL, _PASSIVE),
                                CellSpec(0.99, _EGAL, _ACTIVE))),
    "fig7": ScenarioSpec("timeseries", 2000,
                         cells=(CellSpec(0.99, _EGAL, _ACTIVE),)),
}
