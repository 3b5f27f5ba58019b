"""Exception taxonomy for the simulator.

Grouped so callers (notably the CLI) can map failures onto coarse
categories: configuration problems, numerical failures, and violations
of the model assumptions.
"""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimulationError):
    """Base class for scenario loading and validation failures."""


class ParseError(ConfigError):
    """Scenario document is not valid JSON."""


class SchemaError(ConfigError):
    """Scenario document has missing, unknown, or ill-typed fields."""


class DomainError(ConfigError):
    """Parameter values violate a model invariant."""


class NumericalError(SimulationError):
    """Base class for numerical failures."""


class SingularSystemError(NumericalError):
    """The stationary linear system failed its residual check."""


class LinearSolveError(NumericalError):
    """An implicit time-step solve failed its residual check."""


class HorizonError(NumericalError):
    """A gap passed the closed-form horizon by which it must rupture."""


class NoSolutionError(SimulationError):
    """No stationary solution exists for the requested parameters."""


class UnsupportedError(SimulationError):
    """Operation is not defined for this mode or parameter regime."""


class BracketError(SimulationError):
    """A threshold crossing was not bracketed within one step."""


class EmptyRuptureSetError(SimulationError):
    """No node is at or below the rupture threshold."""


class StagnationError(SimulationError):
    """Consecutive rupture events closer than one time step."""


class ModelViolationError(SimulationError):
    """A rupture occurred outside the distinguished interval."""
