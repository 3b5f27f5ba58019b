"""Simulator for a periodically forced diffusing liquid layer with
threshold-triggered rupture resets, including return-map search for
time-periodic orbits."""

from .config import (
    ModelConfig,
    Numerics,
    ValidationReport,
    config_from_dict,
    config_to_dict,
    effective_parameters,
    load_scenario,
    save_scenario,
    validate,
)
from .stationary import (
    SReport,
    StationaryProfile,
    check_condition_S,
    eval_stationary,
    solve_stationary,
)
from .solver import (
    CoupledState,
    Field,
    Grid,
    Operators,
    assemble_operators,
    build_grid,
    constant_field,
    evolve,
    fourier_reference,
)
from .rupture import (
    BoundsReport,
    RuptureEvent,
    apply_reset,
    locate_crossing,
    run_with_rupture,
    rupture_intervals,
    rupture_time_bounds,
)

__version__ = "0.1.0"

# periodic's exports are imported on first use (PEP 562), so that a process
# that never searches for an orbit does not load the module
_PERIODIC = frozenset(("ConvergenceReport", "GradientProbeReport", "find_periodic",
                       "gradient_probe", "poincare_map", "verify_periodic"))


def __getattr__(name: str):
    if name in _PERIODIC:
        from . import periodic

        return getattr(periodic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoundsReport",
    "ConvergenceReport",
    "CoupledState",
    "Field",
    "GradientProbeReport",
    "Grid",
    "ModelConfig",
    "Numerics",
    "Operators",
    "RuptureEvent",
    "SReport",
    "StationaryProfile",
    "ValidationReport",
    "apply_reset",
    "assemble_operators",
    "build_grid",
    "check_condition_S",
    "config_from_dict",
    "config_to_dict",
    "constant_field",
    "effective_parameters",
    "eval_stationary",
    "evolve",
    "find_periodic",
    "fourier_reference",
    "gradient_probe",
    "load_scenario",
    "locate_crossing",
    "poincare_map",
    "run_with_rupture",
    "rupture_intervals",
    "rupture_time_bounds",
    "save_scenario",
    "solve_stationary",
    "validate",
    "verify_periodic",
]
