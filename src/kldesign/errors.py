"""Exception types shared across the package."""


class KLDesignError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KLDesignError, ValueError):
    """A point, design or dimension is incompatible with its domain."""


class SingularMapError(KLDesignError, ValueError):
    """Affine map has scale exactly 0."""


class UnsupportedModelError(KLDesignError, TypeError):
    """Operation not defined for this model-pair kind."""


class UndefinedEfficiencyError(KLDesignError, ValueError):
    """Efficiency bound undefined: criterion value is not positive (nested attainable models)."""


class ConfigError(KLDesignError, ValueError):
    """Run configuration file is missing, malformed, or fails validation."""
