"""Exception types shared across the package."""


class CoopMecError(Exception):
    """Base class for all package errors."""


class ConfigError(CoopMecError):
    """Malformed generator config, scenario file or experiment settings."""


class DomainError(CoopMecError):
    """Frequency at or below the minimum F/T_max where the power curve diverges."""


class InfeasibleAssignment(CoopMecError):
    """An assignment violates at least one system constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(str(v) for v in self.violations[:8])
        more = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"{len(self.violations)} constraint violation(s): {lines}{more}")


class InstanceTooLarge(CoopMecError):
    """Exhaustive oracle refused: enumeration would be astronomically slow."""


class UnknownAlgorithm(CoopMecError):
    """Algorithm or step-rule label not recognised."""
