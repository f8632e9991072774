"""Exception types shared across the package."""


class PlanesyncError(Exception):
    """Base class for all package errors."""


class ConfigurationError(PlanesyncError, ValueError):
    """Invalid static configuration (moduli, parameters, schedules)."""


class FaultBudgetError(PlanesyncError, ValueError):
    """Too few values for the requested number of tolerated faults."""


class SimulationError(PlanesyncError, RuntimeError):
    """Internal inconsistency detected by the event engine."""
