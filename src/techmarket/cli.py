"""Command-line front end.

Resolves configuration (defaults < config file < flags), runs the requested
scenario, and writes CSVs plus a metadata record. Exit codes: 0 success,
1 configuration error, 2 model-integrity failure.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .config import SCENARIO_NAMES, parse_config_file, resolve_config
from .errors import ConfigError, IntegrityError
from .scenarios import run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="techmarket",
        description=(
            "Monte Carlo simulator of a lattice firm market with "
            "technology-driven survival and government rescue policies."),
    )
    parser.add_argument("--config", metavar="FILE",
                        help="key=value config file (flags take precedence)")
    parser.add_argument("--scenario", choices=SCENARIO_NAMES,
                        help="preset experiment to run (default: custom)")
    parser.add_argument("--q", help="government intervention probability [0,1]")
    parser.add_argument("--policy",
                        help="rescue policy: egalitarian/lowtech/mediumtech/hightech")
    parser.add_argument("--variant", help="post-rescue behavior: passive/active")
    parser.add_argument("--replicas", help="ensemble size")
    parser.add_argument("--tmax", help="horizon in sweeps")
    parser.add_argument("--seed", help="base seed (64-bit integer)")
    parser.add_argument("--lx", help="lattice width")
    parser.add_argument("--ly", help="lattice height")
    parser.add_argument("--c", help="initial lattice concentration (0,1]")
    parser.add_argument("--sigma", help="frontier growth rate per sweep")
    parser.add_argument("--s", help="bankruptcy susceptibility")
    parser.add_argument("--b", help="merge probability per interaction")
    parser.add_argument("--nmin", help="bankruptcy-free firm floor")
    parser.add_argument("--omega-s", dest="omega_s",
                        help="spin-off share fraction (0,1)")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--events", action="store_true", default=None,
                        help="also write one JSONL event log per cell")
    parser.add_argument("--jobs", help="worker processes for replicas (default 1)")
    return parser


def _describe(exc: Exception) -> str:
    """The message with any notes added on the way up, such as the seed of
    the replica that failed."""
    return "; ".join([str(exc), *getattr(exc, "__notes__", ())])


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else None
        flag_values = {k: v for k, v in vars(args).items() if k != "config"}
        params, controls = resolve_config(file_values, flag_values)
        result = run_scenario(controls.scenario, params, controls)
    except ConfigError as exc:
        print(f"config error: {_describe(exc)}", file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"integrity failure: {_describe(exc)}", file=sys.stderr)
        return 2
    except OSError as exc:  # an unreadable --config or an unusable --out
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    for path in result.written:
        print(path)
    print(f"max renorm error: {result.max_renorm_error:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
