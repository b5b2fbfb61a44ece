"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad dimensions, rates, or experiment settings."""


class DataError(ValueError):
    """Unusable data: schema violations, empty datasets, degenerate ranges."""


class DivergenceError(RuntimeError):
    """A training loss became NaN or infinite."""
