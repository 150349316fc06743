"""Exception types shared across the toolkit."""


class JamlinkError(Exception):
    """Base class for all toolkit-specific errors."""


class DegenerateThresholdError(JamlinkError, ValueError):
    """The two estimated energy levels coincide; no threshold separates them."""


class DegenerateChannelError(JamlinkError, ValueError):
    """Conditional variances (or deterministic energies) coincide."""


class NumericalFailureError(JamlinkError, RuntimeError):
    """A numerical routine could not bracket or converge."""


class ConfigError(JamlinkError, ValueError):
    """Invalid experiment configuration or config-file contents."""
