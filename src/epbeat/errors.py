"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericalError (and I/O trouble or MemoryError) -> 3; a run with a
failing check exits 4.
"""


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field path."""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its contract."""


class PoleProximityError(NumericalError):
    """Evaluation point too close to an effective-potential pole."""
