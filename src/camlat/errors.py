"""Exception hierarchy for the simulator."""


class CamlatError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(CamlatError):
    """Invalid parameter values or an unusable config document."""


class ScenarioError(CamlatError):
    """A realized scenario cannot be simulated (e.g. no vehicles on the road)."""


class UnreachableLinkError(CamlatError):
    """A radio link's achievable rate is zero, NaN or infinite, so its latency means nothing."""


class AggregationError(CamlatError):
    """Statistics were requested over an empty sample set."""
