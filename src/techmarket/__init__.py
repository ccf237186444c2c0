"""Lattice market Monte Carlo: technology-driven firm survival with
government rescue policies, deterministic replica ensembles, and scenario
presets with CSV output."""

__version__ = "0.1.0"

from .errors import ConfigError, IntegrityError
from .params import PolicyKind, SimParams, VariantKind
from .market import (
    Firm,
    Lattice,
    MarketState,
    Segment,
    classify_segment,
    frontier,
    init_market,
    neighbors,
    population_sd_tech,
    survival_probability,
    weighted_mean_tech,
)
from .dynamics import (
    EventKind,
    EventRecord,
    RENORM_TOLERANCE,
    SweepStats,
    external_diffusion,
    firm_update,
    interact,
    redistribute_shares_equal,
    renormalize_shares,
    sweep,
)
from .ensemble import (
    EnsembleStats,
    TcCurve,
    Trajectory,
    estimate_tc,
    run_ensemble,
    run_replica,
    run_trajectories,
)

__all__ = [
    "__version__",
    "ConfigError", "IntegrityError",
    "PolicyKind", "SimParams", "VariantKind",
    "Firm", "Lattice", "MarketState", "Segment",
    "classify_segment", "frontier", "init_market", "neighbors",
    "population_sd_tech", "survival_probability", "weighted_mean_tech",
    "EventKind", "EventRecord", "RENORM_TOLERANCE", "SweepStats",
    "external_diffusion", "firm_update", "interact",
    "redistribute_shares_equal", "renormalize_shares", "sweep",
    "EnsembleStats", "TcCurve", "Trajectory", "estimate_tc",
    "run_ensemble", "run_replica", "run_trajectories",
]
