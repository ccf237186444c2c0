"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or inconsistent fields;
    also a machine that cannot build the sweep kernel.

    A message about a value names the offending key. Mapped to exit code 1
    by the command-line front end.
    """


class IntegrityError(RuntimeError):
    """Model-integrity failure, e.g. share normalization drifted past its
    tolerance. Mapped to exit code 2 by the command-line front end."""
