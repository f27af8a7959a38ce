"""Exception types shared across the toolkit.

Everything raised for bad inputs derives from :class:`EvalError`; the CLI maps
those to exit code 2. Anything else escaping a command is treated as an
internal error (exit code 1).
"""


class EvalError(Exception):
    """Base class for input and configuration problems."""


class ParseError(EvalError):
    """A file could not be read or does not have the expected shape."""


class ValidationError(EvalError):
    """A loaded record violates a dataset invariant."""


class MissingReferenceError(EvalError):
    """A record points at an image id or class id that does not exist."""


class GeometryError(EvalError):
    """Invalid geometric operand: bad polygon, corrupt run-length data,
    mismatched mask dimensions, or a degenerate (zero-area) shape."""


class ConfigError(EvalError):
    """Invalid run configuration (ratios, thresholds, enum values)."""


class LossyRescaleError(EvalError):
    """Rescaling would resample a run-length mask that has no source polygon."""
