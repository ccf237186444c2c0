"""Command-line front end.

Resolves configuration (defaults < config file < flags), runs the requested
scenario, and writes CSVs plus a metadata record. Exit codes: 0 success,
1 configuration error, 2 model-integrity failure.
"""
from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Optional, Sequence

from .config import CONFIG_KEYS, parse_config_file, resolve_config
from .errors import ConfigError, IntegrityError
from .scenarios import run_scenario


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, so that it exits 1 like any
    other bad input; ``--help`` still exits 0."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """``--config`` and one flag per run key: ``--`` + the key with ``_``
    as ``-``."""
    parser = _Parser(
        prog="techmarket",
        description=(
            "Monte Carlo simulator of a lattice firm market with "
            "technology-driven survival and government rescue policies."),
    )
    parser.add_argument("--config", metavar="FILE",
                        help="key=value config file (flags take precedence)")
    for key, row in CONFIG_KEYS.items():
        switch = ({"action": "store_true", "default": None}
                  if row.is_switch else {})
        parser.add_argument("--" + key.replace("_", "-"), help=row.help,
                            **switch)
    return parser


def _describe(exc: Exception) -> str:
    """The message with any notes added on the way up, such as the seed of
    the replica that failed."""
    return "; ".join([str(exc), *getattr(exc, "__notes__", ())])


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
