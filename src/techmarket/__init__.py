"""Lattice market Monte Carlo: technology-driven firm survival with
government rescue policies, deterministic replica ensembles, and scenario
presets with CSV output.

The package root exports the entry points a user starts from; everything
else is imported from its submodule."""

__version__ = "0.1.0"

from .errors import ConfigError, IntegrityError
from .params import PolicyKind, SimParams, VariantKind
from .ensemble import EnsembleStats, run_ensemble

__all__ = [
    "__version__",
    "ConfigError", "IntegrityError",
    "PolicyKind", "SimParams", "VariantKind",
    "EnsembleStats", "run_ensemble",
]
